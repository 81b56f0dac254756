#include "src/tensor/gemm_ref.h"

#include <cassert>
#include <cmath>

#include "src/core/kernel_backend.h"

namespace samoyeds {

namespace {

// The widest bit-exact SIMD variant this machine runs, resolved once from
// cpuid; nullptr keeps the portable scalar loop (see kernel_backend.h).
DenseGemmFn DenseKernel() {
  static const DenseGemmFn kernel = WidestKernel(&GetDenseGemmKernel);
  return kernel;
}

}  // namespace

MatrixF GemmRef(const MatrixF& a, const MatrixF& b) {
  MatrixF c(a.rows(), b.cols());
  GemmAccumulateRef(a, b, c);
  return c;
}

void GemmAccumulateRef(const MatrixF& a, const MatrixF& b, MatrixF& c) {
  assert(a.cols() == b.rows());
  assert(c.rows() == a.rows() && c.cols() == b.cols());
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.cols();
  if (DenseGemmFn kernel = DenseKernel()) {
    kernel(DenseGemmTask{a.data(), b.data(), c.data(), m, n, k});
    return;
  }
  // ikj loop order keeps the inner loop contiguous on both B and C.
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      const float av = a(i, p);
      if (av == 0.0f) {
        continue;
      }
      const float* brow = &b(p, 0);
      float* crow = &c(i, 0);
      for (int64_t j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

float MaxAbsDiff(const MatrixF& a, const MatrixF& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  float max_diff = 0.0f;
  auto fa = a.flat();
  auto fb = b.flat();
  for (size_t i = 0; i < fa.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(fa[i] - fb[i]));
  }
  return max_diff;
}

double FrobeniusNorm(const MatrixF& m) {
  double sum = 0.0;
  for (float v : m.flat()) {
    sum += static_cast<double>(v) * v;
  }
  return std::sqrt(sum);
}

double RelativeError(const MatrixF& a, const MatrixF& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  double num = 0.0;
  double den = 0.0;
  auto fa = a.flat();
  auto fb = b.flat();
  for (size_t i = 0; i < fa.size(); ++i) {
    const double d = static_cast<double>(fa[i]) - fb[i];
    num += d * d;
    den += static_cast<double>(fb[i]) * fb[i];
  }
  if (den == 0.0) {
    return num == 0.0 ? 0.0 : 1.0;
  }
  return std::sqrt(num / den);
}

}  // namespace samoyeds
