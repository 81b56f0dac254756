// Tests for the extension features: generic N:M format, nmSPARSE-like
// baseline kernel, and the SsmmConfig autotuner.

#include <gtest/gtest.h>

#include "src/core/autotune.h"
#include "src/formats/nm24.h"
#include "src/formats/nm_generic.h"
#include "src/kernels/nmsparse_spmm.h"
#include "src/tensor/gemm_ref.h"
#include "src/tensor/rng.h"
#include "tests/test_util.h"

namespace samoyeds {
namespace {

int64_t CountNonZeros(const MatrixF& m) {
  int64_t nnz = 0;
  for (float v : m.flat()) {
    nnz += v != 0.0f;
  }
  return nnz;
}

// ------------------------------------------------------------- generic N:M

struct NmParam {
  int n, m;
};

class NmGenericTest : public ::testing::TestWithParam<NmParam> {};

TEST_P(NmGenericTest, RoundTripAndDensity) {
  const auto [n, m] = GetParam();
  const NmConfig cfg{n, m};
  ASSERT_TRUE(cfg.IsValid());
  Rng rng(101);
  const MatrixF dense = rng.GaussianMatrix(16, m * 8);
  const NmMatrix enc = NmMatrix::Encode(dense, cfg);
  EXPECT_TRUE(enc.OffsetsOrdered());
  const MatrixF back = enc.ToDense();
  EXPECT_NEAR(static_cast<double>(CountNonZeros(back)) / back.size(), cfg.density(), 1e-9);
  for (int64_t r = 0; r < dense.rows(); ++r) {
    for (int64_t c = 0; c < dense.cols(); ++c) {
      if (back(r, c) != 0.0f) {
        EXPECT_FLOAT_EQ(back(r, c), dense(r, c));
      }
    }
  }
}

TEST_P(NmGenericTest, MaskMatchesEncodeDecode) {
  const auto [n, m] = GetParam();
  const NmConfig cfg{n, m};
  Rng rng(102);
  MatrixF dense = rng.GaussianMatrix(8, m * 4);
  MatrixF masked = dense;
  ApplyNmMask(masked, cfg);
  EXPECT_TRUE(NmMatrix::Encode(dense, cfg).ToDense() == masked);
}

INSTANTIATE_TEST_SUITE_P(Ratios, NmGenericTest,
                         ::testing::Values(NmParam{1, 4}, NmParam{2, 4}, NmParam{2, 8},
                                           NmParam{1, 2}, NmParam{4, 8}, NmParam{3, 4}));

TEST(NmGenericTest2, TwoFourAgreesWithNm24) {
  // N:M with (2,4) must select exactly what the dedicated 2:4 encoder does.
  Rng rng(103);
  MatrixF dense = rng.GaussianMatrix(8, 32);
  MatrixF via_nm = dense;
  ApplyNmMask(via_nm, NmConfig{2, 4});
  const MatrixF via_24 = [&] {
    MatrixF m = dense;
    ApplyTwoFourMask(m);
    return m;
  }();
  EXPECT_TRUE(via_nm == via_24);
}

// ----------------------------------------------------------- nmSPARSE-like

TEST(NmSparseKernelTest, RunMatchesMaskedReference) {
  Rng rng(104);
  const NmConfig cfg{1, 4};
  const MatrixF w = rng.GaussianMatrix(24, 32);
  const MatrixF b = rng.GaussianMatrix(32, 12);
  const NmMatrix enc = NmMatrix::Encode(w, cfg);
  MatrixF masked = w;
  ApplyNmMask(masked, cfg);
  EXPECT_LE(MaxAbsDiff(NmSparseSpmmKernel::Run(enc, b), GemmRef(masked, b)), 1e-4f);
}

TEST(NmSparseKernelTest, CudaCoreOnly) {
  const KernelProfile p = NmSparseSpmmKernel::Analyze({2048, 2048, 2048}, NmConfig{1, 4});
  EXPECT_DOUBLE_EQ(p.traffic.mma_flops, 0.0);
  EXPECT_GT(p.traffic.simd_flops, 0.0);
  EXPECT_DOUBLE_EQ(p.traffic.gmem_uncoalesced_bytes, 0.0);  // aligned by design
}

TEST(NmSparseKernelTest, BeatsSputnikLosesToSamoyeds) {
  // §3.3's landscape: structured CUDA-core kernels beat unstructured ones
  // but lose to SpTC-based kernels. (Checked via simulated time elsewhere;
  // here: executed arithmetic ordering at equal sparsity.)
  const GemmShape shape{4096, 4096, 4096};
  const KernelProfile nm = NmSparseSpmmKernel::Analyze(shape, NmConfig{1, 4});
  EXPECT_NEAR(nm.traffic.simd_flops / (2.0 * 4096.0 * 4096.0 * 4096.0), 0.25, 0.01);
}

// ----------------------------------------------------------------- autotune

TEST(AutotuneTest, EnumerationRespectsConstraints) {
  const auto configs = EnumerateSsmmConfigs(DefaultDevice(), SamoyedsConfig{1, 2, 32});
  ASSERT_FALSE(configs.empty());
  for (const auto& c : configs) {
    EXPECT_EQ(c.mw % 16, 0);
    EXPECT_EQ(c.nw % 8, 0);
    EXPECT_EQ(c.mb % c.mw, 0);
    EXPECT_EQ(c.nb % c.nw, 0);
    EXPECT_GE(c.stages, 2);
    EXPECT_LE(c.stages, 4);
  }
}

TEST(AutotuneTest, NeverWorseThanDefault) {
  const SamoyedsConfig fmt{1, 2, 32};
  for (const GemmShape& shape :
       {GemmShape{512, 512, 512}, GemmShape{4096, 4096, 4096}, GemmShape{14336, 4096, 1024}}) {
    const AutotuneResult r = AutotuneSsmm(shape, shape.n, fmt, DefaultDevice());
    EXPECT_LE(r.simulated_ms, r.default_ms * 1.0001);
    EXPECT_GE(r.speedup_over_default(), 0.999);
  }
}

TEST(AutotuneTest, SmallProblemsPreferSmallTiles) {
  const SamoyedsConfig fmt{1, 2, 32};
  const AutotuneResult small = AutotuneSsmm({256, 1024, 256}, 256, fmt, DefaultDevice());
  // A 256x256 output with default 128x64 tiles has only 8 blocks; the tuner
  // must pick something finer-grained.
  EXPECT_LT(small.config.mb * small.config.nb, 128 * 64);
}

TEST(AutotuneTest, PanelWidthDoesNotChangeTheResultAtEqualSel) {
  // The serving engine keys its tuning memo by (rows, cols, SEL) alone; that
  // holds only while the panel width never reaches the result.
  const SamoyedsConfig fmt{1, 2, 32};
  for (const int64_t sel : {1, 17, 256}) {
    const AutotuneResult narrow = AutotuneSsmm({1024, 512, 256}, sel, fmt, DefaultDevice());
    const AutotuneResult wide = AutotuneSsmm({1024, 512, 4096}, sel, fmt, DefaultDevice());
    EXPECT_EQ(narrow.config.mb, wide.config.mb) << "SEL " << sel;
    EXPECT_EQ(narrow.config.nb, wide.config.nb) << "SEL " << sel;
    EXPECT_EQ(narrow.config.kb, wide.config.kb) << "SEL " << sel;
    EXPECT_EQ(narrow.config.mw, wide.config.mw) << "SEL " << sel;
    EXPECT_EQ(narrow.config.nw, wide.config.nw) << "SEL " << sel;
    EXPECT_EQ(narrow.config.stages, wide.config.stages) << "SEL " << sel;
    EXPECT_EQ(narrow.simulated_ms, wide.simulated_ms) << "SEL " << sel;
    EXPECT_EQ(narrow.default_ms, wide.default_ms) << "SEL " << sel;
    EXPECT_EQ(narrow.working_set_bytes, wide.working_set_bytes) << "SEL " << sel;
    EXPECT_EQ(narrow.residency_ms, wide.residency_ms) << "SEL " << sel;
    EXPECT_EQ(narrow.fits_llc, wide.fits_llc) << "SEL " << sel;
  }
}

TEST(AutotuneTest, DeviceChangesChoice) {
  const SamoyedsConfig fmt{1, 2, 32};
  const GemmShape shape{4096, 4096, 4096};
  const AutotuneResult a100 = AutotuneSsmm(shape, shape.n, fmt, GetDevice(DeviceModel::kA100_40G));
  const AutotuneResult native = AutotuneSsmm(shape, shape.n, fmt, DefaultDevice());
  // Not asserting which specific config wins — only that tuning helps on
  // both and the tuner explores real alternatives.
  EXPECT_GT(a100.speedup_over_default(), 0.999);
  EXPECT_GT(native.speedup_over_default(), 0.999);
}

}  // namespace
}  // namespace samoyeds
