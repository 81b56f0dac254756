// AVX2 variants of the SSMM panel-group kernel and of the dense GEMM.
// Compiled with -mavx2 on x86 builds (see CMakeLists); on other targets this
// unit compiles to a stub and the dispatcher reports the backend as absent.
//
// Both kernels are bit-exact against their scalar loops (kernel_backend.h):
// each output element keeps the scalar order of operations with a separate
// multiply then add, never an FMA, and -ffp-contract=off keeps the compiler
// from fusing them. The panel kernel vectorizes across the panel-column
// (token) dimension; its remainder columns run the scalar loop's own
// `acc += a * b`.

#include "src/core/kernel_backend.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>

namespace samoyeds {

extern const bool kPanelKernelAvx2Compiled = true;

void PanelKernelAvx2(const PanelGroupTask& t) {
  const int64_t n_out = t.n_out;
  for (int64_t g = 0; g < t.n_groups; ++g) {
    const int64_t begin = t.a_off[g];
    const int64_t end = t.a_off[g + 1];
    if (begin == end) {
      continue;  // all-zero group contributes an exact +0
    }
    float* const orow = t.out + static_cast<int64_t>(t.group_rows[g]) * n_out;
    int64_t j = 0;
    // Two 8-lane accumulators per pass amortize the per-entry broadcast and
    // column load across 16 output columns.
    for (; j + 16 <= n_out; j += 16) {
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      for (int64_t e = begin; e < end; ++e) {
        const __m256 av = _mm256_set1_ps(t.a_vals[e]);
        const float* brow = t.panel + static_cast<int64_t>(t.a_cols[e]) * n_out + j;
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(av, _mm256_loadu_ps(brow)));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(av, _mm256_loadu_ps(brow + 8)));
      }
      _mm256_storeu_ps(orow + j, _mm256_add_ps(_mm256_loadu_ps(orow + j), acc0));
      _mm256_storeu_ps(orow + j + 8, _mm256_add_ps(_mm256_loadu_ps(orow + j + 8), acc1));
    }
    for (; j + 8 <= n_out; j += 8) {
      __m256 acc = _mm256_setzero_ps();
      for (int64_t e = begin; e < end; ++e) {
        const float* brow = t.panel + static_cast<int64_t>(t.a_cols[e]) * n_out + j;
        acc = _mm256_add_ps(acc,
                            _mm256_mul_ps(_mm256_set1_ps(t.a_vals[e]), _mm256_loadu_ps(brow)));
      }
      _mm256_storeu_ps(orow + j, _mm256_add_ps(_mm256_loadu_ps(orow + j), acc));
    }
    for (; j < n_out; ++j) {
      float acc = 0.0f;
      for (int64_t e = begin; e < end; ++e) {
        acc += t.a_vals[e] * t.panel[static_cast<int64_t>(t.a_cols[e]) * n_out + j];
      }
      orow[j] += acc;
    }
  }
}

namespace {

// C rows [i0, i0 + MR) x columns [j0, j0 + 8 * NV) stay in registers across
// all of k (4 x 2 accumulators leave room for B and the broadcasts in the 16
// ymm registers). With kTail the final vector goes through `last`'s lanes
// only. Per element this is the scalar loop's c += a * b over p ascending,
// multiply and add kept separate, and a zero a(i, p) skips the row's update.
template <int MR, int NV, bool kTail>
void DenseBlockAvx2(const DenseGemmTask& t, int64_t i0, int64_t j0, __m256i last) {
  const auto load = [last](int v, const float* src) {
    return kTail && v + 1 == NV ? _mm256_maskload_ps(src, last) : _mm256_loadu_ps(src);
  };
  __m256 acc[MR][NV];
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      acc[r][v] = load(v, t.c + (i0 + r) * t.n + j0 + 8 * v);
    }
  }
  const float* arow = t.a + i0 * t.k;
  for (int64_t p = 0; p < t.k; ++p) {
    const float* brow = t.b + p * t.n + j0;
    __m256 bv[NV];
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      bv[v] = load(v, brow + 8 * v);
    }
#pragma GCC unroll 4
    for (int r = 0; r < MR; ++r) {
      const float av = arow[r * t.k + p];
      if (av == 0.0f) {
        continue;
      }
      const __m256 avv = _mm256_set1_ps(av);
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(avv, bv[v]));
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      float* dst = t.c + (i0 + r) * t.n + j0 + 8 * v;
      if (kTail && v + 1 == NV) {
        _mm256_maskstore_ps(dst, last, acc[r][v]);
      } else {
        _mm256_storeu_ps(dst, acc[r][v]);
      }
    }
  }
}

using DenseBlockFn = void (*)(const DenseGemmTask&, int64_t, int64_t, __m256i);

template <bool kTail>
constexpr DenseBlockFn kDenseBlocks[4][2] = {
    {DenseBlockAvx2<1, 1, kTail>, DenseBlockAvx2<1, 2, kTail>},
    {DenseBlockAvx2<2, 1, kTail>, DenseBlockAvx2<2, 2, kTail>},
    {DenseBlockAvx2<3, 1, kTail>, DenseBlockAvx2<3, 2, kTail>},
    {DenseBlockAvx2<4, 1, kTail>, DenseBlockAvx2<4, 2, kTail>},
};

}  // namespace

void DenseGemmAvx2(const DenseGemmTask& t) {
  for (int64_t i = 0; i < t.m; i += 4) {
    const int64_t rows = std::min<int64_t>(4, t.m - i);
    for (int64_t j = 0; j < t.n; j += 16) {
      const int64_t cols = std::min<int64_t>(16, t.n - j);
      const int64_t vectors = (cols + 7) / 8;
      const int64_t tail = cols - 8 * (vectors - 1);
      if (tail == 8) {
        kDenseBlocks<false>[rows - 1][vectors - 1](t, i, j, __m256i{});
      } else {
        // Lane l of the final vector is live iff l < tail.
        const __m256i last = _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(tail)),
                                                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
        kDenseBlocks<true>[rows - 1][vectors - 1](t, i, j, last);
      }
    }
  }
}

}  // namespace samoyeds

#else  // !__AVX2__

namespace samoyeds {

extern const bool kPanelKernelAvx2Compiled = false;

void PanelKernelAvx2(const PanelGroupTask&) {}  // unreachable: dispatch guards
void DenseGemmAvx2(const DenseGemmTask&) {}     // unreachable: dispatch guards

}  // namespace samoyeds

#endif
