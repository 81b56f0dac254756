// The instrumented tiled executor must (1) agree numerically with the
// simple Run path and the dense reference, and (2) produce staging-byte
// counters that match SamoyedsKernel::Analyze's closed-form traffic.

#include <gtest/gtest.h>

#include "src/core/samoyeds_kernel.h"
#include "src/core/tiled_executor.h"
#include "src/tensor/gemm_ref.h"
#include "src/tensor/rng.h"
#include "tests/test_util.h"

namespace samoyeds {
namespace {

SsmmConfig SmallExecCfg() {
  SsmmConfig cfg;
  cfg.mb = 64;
  cfg.nb = 32;
  cfg.kb = 32;
  cfg.mw = 32;  // 16 compressed rows at N/M = 1/2
  cfg.nw = 16;
  return cfg;
}

struct ExecCase {
  int64_t m, k, n, selected;
  int fn, fm, fv;
  // gtest names each case by this struct's bytes (they become the ctest
  // names); an explicit zero here leaves no uninitialised tail padding, so
  // the names are the same in every build.
  int zero_tail = 0;
};

class TiledExecutorTest : public ::testing::TestWithParam<ExecCase> {};

TEST_P(TiledExecutorTest, MatchesSimpleRunExactly) {
  const ExecCase c = GetParam();
  Rng rng(301);
  const MatrixF w = RandomBf16Matrix(rng, c.m, c.k);
  const MatrixF b = RandomBf16Matrix(rng, c.k, c.n);
  const Selection sel = RandomSelection(rng, c.n, c.selected);
  const SamoyedsConfig fmt{c.fn, c.fm, c.fv};
  const SamoyedsMatrix enc = SamoyedsMatrix::Encode(w, fmt);

  SsmmConfig cfg = SmallExecCfg();
  if (fmt.n * cfg.mw % (fmt.m * 16) != 0) {
    cfg.mw = 16 * fmt.m / fmt.n;  // keep the warp tile mma-aligned
    cfg.mb = std::max(cfg.mb, cfg.mw);
  }
  TileTrace trace;
  const MatrixF tiled = TiledSsmmExecutor::Run(enc, b, sel, cfg, &trace);
  const MatrixF simple = SamoyedsKernel::Run(enc, b, sel);
  ASSERT_EQ(tiled.rows(), simple.rows());
  ASSERT_EQ(tiled.cols(), simple.cols());
  // Same MmaSp tiles in a different traversal order; fp32 accumulation of
  // identical partial sums per (window, row, col) — results match to
  // round-off of the per-window accumulation order, which is identical.
  EXPECT_LE(MaxAbsDiff(tiled, simple), 1e-4f);
  EXPECT_GT(trace.mma_calls, 0);
  EXPECT_GT(trace.window_shuffles, 0);
}

TEST_P(TiledExecutorTest, MatchesDenseReference) {
  const ExecCase c = GetParam();
  Rng rng(302);
  const MatrixF w = RandomBf16Matrix(rng, c.m, c.k);
  const MatrixF b = RandomBf16Matrix(rng, c.k, c.n);
  const Selection sel = RandomSelection(rng, c.n, c.selected);
  const SamoyedsConfig fmt{c.fn, c.fm, c.fv};
  const SamoyedsMatrix enc = SamoyedsMatrix::Encode(w, fmt);
  SsmmConfig cfg = SmallExecCfg();
  if (fmt.n * cfg.mw % (fmt.m * 16) != 0) {
    cfg.mw = 16 * fmt.m / fmt.n;
    cfg.mb = std::max(cfg.mb, cfg.mw);
  }
  const MatrixF got = TiledSsmmExecutor::Run(enc, b, sel, cfg, nullptr);
  const MatrixF expect = GemmRef(enc.ToDense(), GatherColumns(b, sel));
  EXPECT_LE(MaxAbsDiff(got, expect), 2e-3f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, TiledExecutorTest,
                         ::testing::Values(ExecCase{64, 64, 32, 32, 1, 2, 32},
                                           ExecCase{64, 128, 40, 24, 1, 2, 32},
                                           ExecCase{128, 96, 64, 33, 1, 2, 32},
                                           ExecCase{128, 128, 48, 17, 2, 4, 32},
                                           ExecCase{64, 128, 32, 9, 1, 2, 64},
                                           ExecCase{96, 64, 50, 50, 1, 2, 32}));

TEST(TiledExecutorTest2, PackedAndUnpackedMetadataAgree) {
  Rng rng(303);
  const SamoyedsConfig fmt{1, 2, 32};
  const SamoyedsMatrix enc = SamoyedsMatrix::Encode(RandomBf16Matrix(rng, 64, 128), fmt);
  const MatrixF b = RandomBf16Matrix(rng, 128, 24);
  const Selection sel = Selection::All(24);
  SsmmConfig packed = SmallExecCfg();
  SsmmConfig naive = packed;
  naive.packed_metadata = false;
  const MatrixF y_packed = TiledSsmmExecutor::Run(enc, b, sel, packed, nullptr);
  const MatrixF y_naive = TiledSsmmExecutor::Run(enc, b, sel, naive, nullptr);
  EXPECT_TRUE(y_packed == y_naive);  // layout is a pure permutation
}

// The staging counters must reproduce Analyze's closed-form A/B traffic on
// exactly tileable problems.
TEST(TiledExecutorTest2, TraceMatchesAnalyzeTraffic) {
  Rng rng(304);
  const SamoyedsConfig fmt{1, 2, 32};
  const SsmmConfig cfg = SmallExecCfg();
  const int64_t m = 128;   // 2 block rows of mb=64
  const int64_t k = 128;   // 4 k-steps
  const int64_t n = 64;    // 2 block cols of nb=32
  const SamoyedsMatrix enc = SamoyedsMatrix::Encode(RandomBf16Matrix(rng, m, k), fmt);
  const MatrixF b = RandomBf16Matrix(rng, k, n);
  const Selection sel = Selection::All(n);

  TileTrace trace;
  TiledSsmmExecutor::Run(enc, b, sel, cfg, &trace);
  const KernelProfile p = SamoyedsKernel::Analyze({m, k, n}, n, fmt, cfg);

  // A-side: data bytes and packed metadata bytes.
  const double a_rows = m * 0.5;
  EXPECT_DOUBLE_EQ(trace.a_data_bytes, a_rows * (k / 2.0) * 2.0 * (n / cfg.nb));
  EXPECT_DOUBLE_EQ(trace.meta_bytes, a_rows * (k / 2.0) * 0.25 * (n / cfg.nb));
  // B-side: one kb x nb panel per block per k-step.
  EXPECT_DOUBLE_EQ(trace.b_bytes, static_cast<double>(k) * n * 2.0 * (m / cfg.mb));
  // Output: one compressed mb x nb tile per block.
  EXPECT_DOUBLE_EQ(trace.c_write_bytes, static_cast<double>(m) * n * 2.0);
  // Cross-check against the closed-form Analyze (which uses the same
  // formulas plus index/SEL bytes).
  EXPECT_NEAR(trace.a_data_bytes + trace.meta_bytes,
              p.traffic.gmem_read_bytes -
                  (trace.b_bytes +
                   a_rows * (static_cast<double>(k) / fmt.v) * (n / cfg.nb) +  // indices
                   static_cast<double>(n) * 4.0 * (m / cfg.mb)),               // SEL words
              1e-6);
  EXPECT_DOUBLE_EQ(trace.c_write_bytes, p.traffic.gmem_write_bytes);
  // mma call count: every block runs (cr_per_block/16)*(nb/8) tiles per step.
  const int64_t blocks = (m / cfg.mb) * (n / cfg.nb);
  EXPECT_EQ(trace.mma_calls, blocks * (k / cfg.kb) * (cfg.mb / 2 / 16) * (cfg.nb / 8));
  EXPECT_EQ(trace.thread_blocks, blocks);
  // One shuffle per window per block.
  EXPECT_EQ(trace.window_shuffles, blocks * (k / fmt.v));
}

TEST(TiledExecutorTest2, WindowShufflesCountWindows) {
  Rng rng(305);
  const SamoyedsConfig fmt{1, 2, 64};  // 2 k-steps per window
  const SsmmConfig cfg = SmallExecCfg();
  const SamoyedsMatrix enc = SamoyedsMatrix::Encode(RandomBf16Matrix(rng, 64, 256), fmt);
  const MatrixF b = RandomBf16Matrix(rng, 256, 32);
  TileTrace trace;
  TiledSsmmExecutor::Run(enc, b, Selection::All(32), cfg, &trace);
  EXPECT_EQ(trace.window_shuffles, (256 / 64) * trace.thread_blocks);
}

}  // namespace
}  // namespace samoyeds
