// The Samoyeds SSMM kernel: functional equivalence with the reference
// product of the decoded weight and the SEL-gathered input, plus traffic
// behaviour of every optimization toggle.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/samoyeds_kernel.h"
#include "src/simgpu/timing_model.h"
#include "src/tensor/gemm_ref.h"
#include "src/tensor/rng.h"
#include "tests/test_util.h"

namespace samoyeds {
namespace {

struct RunCase {
  int64_t m, k, n, selected;
  int fn, fm, fv;  // format (N, M, V)
  // gtest names each case by this struct's bytes (they become the ctest
  // names); an explicit zero here leaves no uninitialised tail padding, so
  // the names are the same in every build.
  int zero_tail = 0;
};

class SamoyedsKernelRunTest : public ::testing::TestWithParam<RunCase> {};

TEST_P(SamoyedsKernelRunTest, MatchesGatheredReference) {
  const RunCase c = GetParam();
  Rng rng(61);
  const MatrixF w = RandomBf16Matrix(rng, c.m, c.k);
  const MatrixF b = RandomBf16Matrix(rng, c.k, c.n);
  const Selection sel = RandomSelection(rng, c.n, c.selected);
  const SamoyedsConfig fmt{c.fn, c.fm, c.fv};
  const SamoyedsMatrix enc = SamoyedsMatrix::Encode(w, fmt);

  const MatrixF got = SamoyedsKernel::Run(enc, b, sel);
  const MatrixF expect = GemmRef(enc.ToDense(), GatherColumns(b, sel));
  ASSERT_EQ(got.rows(), c.m);
  ASSERT_EQ(got.cols(), c.selected);
  EXPECT_LE(MaxAbsDiff(got, expect), 2e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SamoyedsKernelRunTest,
    ::testing::Values(RunCase{32, 64, 16, 16, 1, 2, 32},   // full selection
                      RunCase{32, 64, 24, 8, 1, 2, 32},    // partial selection
                      RunCase{64, 128, 40, 17, 1, 2, 32},  // odd selection count
                      RunCase{64, 128, 40, 17, 2, 4, 32},
                      RunCase{128, 96, 33, 9, 4, 8, 32},
                      RunCase{128, 256, 64, 32, 8, 16, 32},
                      RunCase{48, 64, 20, 5, 1, 2, 64},    // V = 64: window spans 2 mma steps
                      RunCase{16, 32, 8, 8, 1, 2, 32},     // single block
                      RunCase{50, 64, 12, 6, 1, 2, 32}));  // m not multiple of 16

TEST(SamoyedsKernelTest, EmptySelectionGivesEmptyOutput) {
  Rng rng(62);
  const MatrixF w = RandomBf16Matrix(rng, 16, 32);
  const MatrixF b = RandomBf16Matrix(rng, 32, 8);
  Selection sel;
  sel.full_size = 8;
  const SamoyedsMatrix enc = SamoyedsMatrix::Encode(w, SamoyedsConfig{1, 2, 32});
  const MatrixF out = SamoyedsKernel::Run(enc, b, sel);
  EXPECT_EQ(out.cols(), 0);
  EXPECT_EQ(out.rows(), 16);
}

TEST(SamoyedsKernelTest, RunLinearMatchesXWt) {
  Rng rng(63);
  const int64_t tokens = 24;
  const int64_t hidden = 64;
  const int64_t out_f = 32;
  const MatrixF x = RandomBf16Matrix(rng, tokens, hidden);
  const MatrixF w = RandomBf16Matrix(rng, out_f, hidden);
  const SamoyedsMatrix enc = SamoyedsMatrix::Encode(w, SamoyedsConfig{1, 2, 32});
  const Selection sel = RandomSelection(rng, tokens, 10);

  const MatrixF got = SamoyedsKernel::RunLinear(x, enc, sel);
  // Reference: gather the selected token rows, multiply by decoded W^T.
  const MatrixF xt = x.Transposed();
  const MatrixF expect = GemmRef(enc.ToDense(), GatherColumns(xt, sel)).Transposed();
  ASSERT_EQ(got.rows(), 10);
  ASSERT_EQ(got.cols(), out_f);
  EXPECT_LE(MaxAbsDiff(got, expect), 2e-3f);
}

// ----------------------------------------------- bit-identity (optimized path)

// The optimized packed-panel Run must be *bit-identical* to the fragment-
// model RunReference: same bf16 roundings, same zero-skip, same fp32
// accumulation association (per-window partials folded in window order).
TEST(SamoyedsKernelBitIdentityTest, RandomizedRunMatchesReferenceExactly) {
  Rng rng(771);
  const SamoyedsConfig fmts[] = {{1, 2, 32}, {2, 4, 32}, {4, 8, 32},
                                 {8, 16, 32}, {1, 2, 64}, {1, 4, 32}};
  // One workspace reused across every shape: stale packed data or wrongly
  // sized buffers from a previous call must never leak into the next.
  SsmmWorkspace ws;
  MatrixF out;
  for (int trial = 0; trial < 72; ++trial) {
    const SamoyedsConfig fmt = fmts[trial % 6];
    // Shapes only need m % M == 0 and k % V == 0 — deliberately including
    // compressed row counts that are not multiples of the 16-row mma tile
    // and ragged selection widths (the peeled-edge cases).
    const int64_t m = fmt.m * (1 + rng.NextIndex(12));
    const int64_t k = fmt.v * (1 + rng.NextIndex(4));
    const int64_t n = 1 + rng.NextIndex(40);
    const int64_t selected = rng.NextIndex(n + 1);
    const MatrixF w = rng.GaussianMatrix(m, k);
    const MatrixF b = rng.GaussianMatrix(k, n);
    const Selection sel = RandomSelection(rng, n, selected);
    const SamoyedsMatrix enc = SamoyedsMatrix::Encode(w, fmt);

    const MatrixF expect = SamoyedsKernel::RunReference(enc, b, sel);
    SamoyedsKernel::Run(enc, b, sel, ws, out);
    ASSERT_TRUE(out == expect)
        << "workspace Run diverged at trial " << trial << " (m=" << m << " k=" << k
        << " n=" << n << " selected=" << selected << " fmt=" << fmt.n << "," << fmt.m << ","
        << fmt.v << ")";
    ASSERT_TRUE(SamoyedsKernel::Run(enc, b, sel) == expect)
        << "allocating Run diverged at trial " << trial;
  }
}

TEST(SamoyedsKernelBitIdentityTest, ScalarPanelLoopMatchesReferenceAtEveryGroupSize) {
  // The scalar loop takes a group's packed entries four at a time, then one
  // at a time: groups of 1..9 entries reach every remainder of 4 after zero,
  // one and two full passes. Each (window, compressed row) group keeps
  // 1 + (row + window) % 9 of its 16 packed values; the rest are zeroed,
  // which packing drops.
  Rng rng(773);
  const SamoyedsConfig fmt{1, 2, 32};
  const int64_t m = 36;
  const int64_t k = 64;
  SamoyedsMatrix enc = SamoyedsMatrix::Encode(rng.GaussianMatrix(m, k), fmt);
  const int64_t per_window = fmt.v / 2;
  for (int64_t cr = 0; cr < enc.compressed_rows(); ++cr) {
    for (int64_t w = 0; w < enc.block_cols(); ++w) {
      const int64_t keep = 1 + (cr + w) % 9;
      for (int64_t pc = keep; pc < per_window; ++pc) {
        enc.data(cr, w * per_window + pc) = 0.0f;
      }
    }
  }
  SsmmPackedA packed;
  SamoyedsKernel::PackWeights(enc, packed);
  std::vector<bool> seen(10, false);
  for (size_t g = 0; g + 1 < packed.off.size(); ++g) {
    const int64_t entries = packed.off[g + 1] - packed.off[g];
    ASSERT_GE(entries, 1);
    ASSERT_LE(entries, 9);
    seen[static_cast<size_t>(entries)] = true;
  }
  for (int64_t entries = 1; entries <= 9; ++entries) {
    EXPECT_TRUE(seen[static_cast<size_t>(entries)]) << entries << "-entry group missing";
  }
  SsmmWorkspace ws;
  MatrixF out;
  for (int64_t n : {1, 3, 8, 17, 40, 120}) {
    // Full-precision panel values: every add of the partial rounds, so any
    // change of order shows.
    const MatrixF b = rng.GaussianMatrix(k, n);
    const Selection sel = Selection::All(n);
    SamoyedsKernel::Run(enc, b, sel, ws, out, KernelBackend::kScalar);
    ASSERT_TRUE(out == SamoyedsKernel::RunReference(enc, b, sel)) << "n=" << n;
  }
}

TEST(SamoyedsKernelBitIdentityTest, RunLinearMatchesReferenceComposition) {
  Rng rng(772);
  for (int trial = 0; trial < 12; ++trial) {
    const int64_t tokens = 1 + rng.NextIndex(30);
    const int64_t hidden = 32 * (1 + rng.NextIndex(3));
    const int64_t out_f = 16 * (1 + rng.NextIndex(4));
    const MatrixF x = rng.GaussianMatrix(tokens, hidden);
    const MatrixF w = rng.GaussianMatrix(out_f, hidden);
    const SamoyedsMatrix enc = SamoyedsMatrix::Encode(w, SamoyedsConfig{1, 2, 32});
    const Selection sel = RandomSelection(rng, tokens, rng.NextIndex(tokens + 1));

    // The pre-optimization RunLinear: materialized x^T, fragment-path Run,
    // transposed result.
    const MatrixF expect = SamoyedsKernel::RunReference(enc, x.Transposed(), sel).Transposed();
    ASSERT_TRUE(SamoyedsKernel::RunLinear(x, enc, sel) == expect) << "trial " << trial;
  }
}

TEST(SamoyedsKernelBitIdentityTest, EmptyAndFullSelectionsAgree) {
  Rng rng(773);
  const MatrixF w = rng.GaussianMatrix(48, 64);
  const MatrixF b = rng.GaussianMatrix(64, 24);
  const SamoyedsMatrix enc = SamoyedsMatrix::Encode(w, SamoyedsConfig{1, 2, 32});
  Selection empty;
  empty.full_size = 24;
  EXPECT_TRUE(SamoyedsKernel::Run(enc, b, empty) ==
              SamoyedsKernel::RunReference(enc, b, empty));
  const Selection all = Selection::All(24);
  EXPECT_TRUE(SamoyedsKernel::Run(enc, b, all) == SamoyedsKernel::RunReference(enc, b, all));
}

// ---------------------------------------------------------------- Analyze

GemmShape TestShape() { return GemmShape{2048, 2048, 4096}; }
SamoyedsConfig TestFormat() { return SamoyedsConfig{1, 2, 32}; }

TEST(SamoyedsAnalyzeTest, ExecutedFlopsMatchDensity) {
  const SsmmConfig cfg;
  const KernelProfile p = SamoyedsKernel::Analyze(TestShape(), 4096, TestFormat(), cfg);
  // 75% sparsity: a quarter of the dense MACs execute.
  EXPECT_NEAR(p.traffic.mma_flops / (2.0 * 2048 * 2048 * 4096), 0.25, 1e-9);
  EXPECT_TRUE(p.traffic.uses_sparse_alu);
}

TEST(SamoyedsAnalyzeTest, InputSelectionShrinksProblem) {
  const SsmmConfig cfg;
  const KernelProfile full = SamoyedsKernel::Analyze(TestShape(), 4096, TestFormat(), cfg);
  const KernelProfile quarter = SamoyedsKernel::Analyze(TestShape(), 1024, TestFormat(), cfg);
  EXPECT_LT(quarter.traffic.mma_flops, full.traffic.mma_flops * 0.3);
  EXPECT_LT(quarter.traffic.gmem_read_bytes, full.traffic.gmem_read_bytes * 0.5);
}

TEST(SamoyedsAnalyzeTest, SelectionIgnoredWhenToggleOff) {
  SsmmConfig cfg;
  cfg.input_selection = false;
  const KernelProfile p1 = SamoyedsKernel::Analyze(TestShape(), 1024, TestFormat(), cfg);
  const KernelProfile p2 = SamoyedsKernel::Analyze(TestShape(), 4096, TestFormat(), cfg);
  EXPECT_DOUBLE_EQ(p1.traffic.mma_flops, p2.traffic.mma_flops);
}

TEST(SamoyedsAnalyzeTest, DataStationaryOffSpillsToLocalMemory) {
  SsmmConfig on;
  SsmmConfig off = on;
  off.data_stationary = false;
  const KernelProfile pon = SamoyedsKernel::Analyze(TestShape(), 4096, TestFormat(), on);
  const KernelProfile poff = SamoyedsKernel::Analyze(TestShape(), 4096, TestFormat(), off);
  // The fragment round-trips through L1-backed local memory and the
  // pipeline loses issue efficiency.
  EXPECT_GT(poff.traffic.smem_bytes, pon.traffic.smem_bytes);
  EXPECT_LT(poff.traffic.efficiency, pon.traffic.efficiency);
  const TimingModel model(DefaultDevice());
  EXPECT_GT(model.Estimate(poff.traffic).total_ms, model.Estimate(pon.traffic).total_ms);
}

TEST(SamoyedsAnalyzeTest, UnpackedMetadataCostsMore) {
  SsmmConfig on;
  SsmmConfig off = on;
  off.packed_metadata = false;
  const KernelProfile pon = SamoyedsKernel::Analyze(TestShape(), 4096, TestFormat(), on);
  const KernelProfile poff = SamoyedsKernel::Analyze(TestShape(), 4096, TestFormat(), off);
  EXPECT_GT(poff.traffic.gmem_uncoalesced_bytes, pon.traffic.gmem_uncoalesced_bytes);
  const TimingModel model(DefaultDevice());
  EXPECT_GT(model.Estimate(poff.traffic).total_ms, model.Estimate(pon.traffic).total_ms);
}

TEST(SamoyedsAnalyzeTest, UnfusedTransposePaysRoundTrips) {
  SsmmConfig on;
  SsmmConfig off = on;
  off.fused_transpose = false;
  const KernelProfile pon = SamoyedsKernel::Analyze(TestShape(), 4096, TestFormat(), on);
  const KernelProfile poff = SamoyedsKernel::Analyze(TestShape(), 4096, TestFormat(), off);
  EXPECT_GT(poff.traffic.gmem_read_bytes, pon.traffic.gmem_read_bytes);
  EXPECT_GT(poff.traffic.gmem_write_bytes, pon.traffic.gmem_write_bytes);
}

TEST(SamoyedsAnalyzeTest, UncompressedOutputWritesFullWidth) {
  SsmmConfig on;
  SsmmConfig off = on;
  off.compressed_output = false;
  const KernelProfile pon = SamoyedsKernel::Analyze(TestShape(), 512, TestFormat(), on);
  const KernelProfile poff = SamoyedsKernel::Analyze(TestShape(), 512, TestFormat(), off);
  EXPECT_GT(poff.traffic.gmem_write_bytes, pon.traffic.gmem_write_bytes * 4.0);
}

TEST(SamoyedsAnalyzeTest, BankConflictToggle) {
  SsmmConfig on;
  SsmmConfig off = on;
  off.permuted_smem = false;
  const KernelProfile pon = SamoyedsKernel::Analyze(TestShape(), 4096, TestFormat(), on);
  const KernelProfile poff = SamoyedsKernel::Analyze(TestShape(), 4096, TestFormat(), off);
  EXPECT_GT(poff.traffic.bank_conflict_factor, pon.traffic.bank_conflict_factor);
}

TEST(SamoyedsAnalyzeTest, SmallTileIncreasesParallelism) {
  const KernelProfile big =
      SamoyedsKernel::Analyze(TestShape(), 4096, TestFormat(), SsmmConfig::Default());
  const KernelProfile small =
      SamoyedsKernel::Analyze(TestShape(), 4096, TestFormat(), SsmmConfig::SmallTile());
  EXPECT_GT(small.traffic.thread_blocks, big.traffic.thread_blocks * 3);
}

TEST(SamoyedsAnalyzeTest, PortingRetainsMostEfficiency) {
  const SsmmConfig cfg;
  const KernelProfile native = SamoyedsKernel::Analyze(TestShape(), 4096, TestFormat(), cfg);
  const KernelProfile ported = SamoyedsKernel::Analyze(TestShape(), 4096, TestFormat(), cfg,
                                                       GetDevice(DeviceModel::kA100_40G));
  // Samoyeds' low tuning sensitivity: most of the efficiency survives.
  EXPECT_GT(ported.traffic.efficiency, native.traffic.efficiency * 0.55);
}

}  // namespace
}  // namespace samoyeds
