#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "src/tensor/bf16.h"
#include "src/tensor/expf.h"
#include "src/tensor/gemm_ref.h"
#include "src/tensor/matrix.h"
#include "src/tensor/rng.h"

namespace samoyeds {
namespace {

TEST(MatrixTest, ConstructAndIndex) {
  MatrixF m(3, 4, 1.5f);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.size(), 12);
  EXPECT_FLOAT_EQ(m(2, 3), 1.5f);
  m(1, 2) = -7.0f;
  EXPECT_FLOAT_EQ(m(1, 2), -7.0f);
}

TEST(MatrixTest, FromRowMajor) {
  auto m = MatrixF::FromRowMajor(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(m(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(m(0, 2), 3.0f);
  EXPECT_FLOAT_EQ(m(1, 0), 4.0f);
  EXPECT_FLOAT_EQ(m(1, 2), 6.0f);
}

TEST(MatrixTest, RowSpanIsContiguous) {
  MatrixF m(2, 4);
  m(1, 0) = 1.0f;
  m(1, 3) = 4.0f;
  auto row = m.row(1);
  EXPECT_EQ(row.size(), 4u);
  EXPECT_FLOAT_EQ(row[0], 1.0f);
  EXPECT_FLOAT_EQ(row[3], 4.0f);
}

TEST(MatrixTest, TransposedRoundTrip) {
  Rng rng(1);
  const MatrixF m = rng.GaussianMatrix(5, 7);
  const MatrixF t = m.Transposed();
  EXPECT_EQ(t.rows(), 7);
  EXPECT_EQ(t.cols(), 5);
  EXPECT_TRUE(t.Transposed() == m);
}

TEST(MatrixTest, EqualityComparesShapeAndData) {
  MatrixF a(2, 2, 1.0f);
  MatrixF b(2, 2, 1.0f);
  EXPECT_TRUE(a == b);
  b(0, 0) = 2.0f;
  EXPECT_FALSE(a == b);
  MatrixF c(4, 1, 1.0f);
  EXPECT_FALSE(a == c);
}

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextU64() == b.NextU64();
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(3);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(9);
  std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7};
  rng.Shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(sorted[static_cast<size_t>(i)], i);
  }
}

TEST(Bf16Test, ExactValuesPreserved) {
  EXPECT_FLOAT_EQ(RoundToBf16(1.0f), 1.0f);
  EXPECT_FLOAT_EQ(RoundToBf16(-2.5f), -2.5f);
  EXPECT_FLOAT_EQ(RoundToBf16(0.0f), 0.0f);
}

TEST(Bf16Test, RoundingIsIdempotent) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const float x = rng.NextGaussian() * 100.0f;
    const float r = RoundToBf16(x);
    EXPECT_FLOAT_EQ(RoundToBf16(r), r);
  }
}

TEST(Bf16Test, RelativeErrorBounded) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const float x = rng.NextGaussian() * 10.0f + 0.1f;
    const float r = RoundToBf16(x);
    EXPECT_LE(std::fabs(r - x), std::fabs(x) * (1.0f / 128.0f));  // 8-bit mantissa
  }
}

TEST(Bf16Test, NanStaysNan) {
  EXPECT_TRUE(std::isnan(RoundToBf16(std::nanf(""))));
}

TEST(Bf16Test, InfinityPreserved) {
  EXPECT_TRUE(std::isinf(RoundToBf16(INFINITY)));
  EXPECT_TRUE(std::isinf(RoundToBf16(-INFINITY)));
}

// Floats in sign-magnitude order made monotone: consecutive floats map to
// consecutive integers (+0 and -0 both to 0).
int64_t FloatOrder(float f) {
  int32_t i = 0;
  std::memcpy(&i, &f, sizeof(i));
  return i < 0 ? -static_cast<int64_t>(i & 0x7fffffff) : static_cast<int64_t>(i);
}

float FloatAt(int64_t order) {
  const int32_t i = order < 0 ? static_cast<int32_t>(-order) | INT32_MIN
                              : static_cast<int32_t>(order);
  float f = 0.0f;
  std::memcpy(&f, &i, sizeof(f));
  return f;
}

int64_t UlpDistance(float a, float b) {
  const int64_t d = FloatOrder(a) - FloatOrder(b);
  return d < 0 ? -d : d;
}

// Calls fn on every `step`-th float of [lo, hi].
template <typename Fn>
void ForEachFloat(float lo, float hi, int64_t step, Fn&& fn) {
  for (int64_t o = FloatOrder(lo); o <= FloatOrder(hi); o += step) {
    fn(FloatAt(o));
  }
}

TEST(ExpFTest, WithinTwoUlpOfStdExpOnADenseSweep) {
  // Every 97th float of [-87, 88], where exp is a normal float.
  int64_t checked = 0;
  int64_t worst = 0;
  ForEachFloat(-87.0f, 88.0f, 97, [&](float x) {
    worst = std::max(worst, UlpDistance(ExpF(x), std::exp(x)));
    ++checked;
  });
  EXPECT_GT(checked, 20'000'000);
  EXPECT_LE(worst, 2);
}

TEST(ExpFTest, OverflowsUnderflowsAndPropagatesNanLikeStdExp) {
  const float inf = std::numeric_limits<float>::infinity();
  const float fmax = std::numeric_limits<float>::max();
  // Above ln(FLT_MAX) every float overflows to +inf; at or below -104 every
  // float underflows to +0.
  const float above_max_log = 88.72283935546875f;  // the first float > ln(FLT_MAX)
  int64_t wrong = 0;
  ForEachFloat(above_max_log, fmax, 1 << 10, [&](float x) {
    wrong += ExpF(x) != inf || std::exp(x) != inf;
  });
  ForEachFloat(-fmax, -104.0f, 1 << 10, [&](float x) {
    wrong += FloatOrder(ExpF(x)) != 0 || std::signbit(ExpF(x));
  });
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(ExpF(inf), inf);
  EXPECT_EQ(ExpF(-inf), 0.0f);
  EXPECT_FALSE(std::signbit(ExpF(-inf)));
  // In between, every float is within 2 ulp, subnormal results included.
  int64_t worst = 0;
  ForEachFloat(-104.0f, -87.0f, 1, [&](float x) {
    worst = std::max(worst, UlpDistance(ExpF(x), std::exp(x)));
  });
  ForEachFloat(88.0f, above_max_log, 1, [&](float x) {
    worst = std::max(worst, UlpDistance(ExpF(x), std::exp(x)));
  });
  EXPECT_LE(worst, 2);
  EXPECT_TRUE(std::isnan(ExpF(std::nanf(""))));
  EXPECT_TRUE(std::isnan(ExpF(-std::nanf(""))));
  EXPECT_EQ(ExpF(0.0f), 1.0f);
  EXPECT_EQ(ExpF(-0.0f), 1.0f);
}

TEST(GemmRefTest, SmallKnownProduct) {
  auto a = MatrixF::FromRowMajor(2, 2, {1, 2, 3, 4});
  auto b = MatrixF::FromRowMajor(2, 2, {5, 6, 7, 8});
  const MatrixF c = GemmRef(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 50.0f);
}

TEST(GemmRefTest, IdentityIsNeutral) {
  Rng rng(5);
  const MatrixF a = rng.GaussianMatrix(8, 8);
  MatrixF eye(8, 8);
  for (int i = 0; i < 8; ++i) {
    eye(i, i) = 1.0f;
  }
  EXPECT_LE(MaxAbsDiff(GemmRef(a, eye), a), 1e-6f);
  EXPECT_LE(MaxAbsDiff(GemmRef(eye, a), a), 1e-6f);
}

TEST(GemmRefTest, AccumulateAddsIntoC) {
  Rng rng(6);
  const MatrixF a = rng.GaussianMatrix(4, 6);
  const MatrixF b = rng.GaussianMatrix(6, 5);
  MatrixF c(4, 5, 1.0f);
  GemmAccumulateRef(a, b, c);
  const MatrixF expect = GemmRef(a, b);
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(c(i, j), expect(i, j) + 1.0f, 1e-5f);
    }
  }
}

TEST(GemmRefTest, RelativeErrorAndNorm) {
  MatrixF a(2, 2);
  a(0, 0) = 3.0f;
  a(1, 1) = 4.0f;
  EXPECT_NEAR(FrobeniusNorm(a), 5.0, 1e-9);
  EXPECT_NEAR(RelativeError(a, a), 0.0, 1e-12);
  MatrixF zero(2, 2);
  EXPECT_NEAR(RelativeError(zero, zero), 0.0, 1e-12);
  EXPECT_NEAR(RelativeError(a, zero), 1.0, 1e-12);
}

}  // namespace
}  // namespace samoyeds
