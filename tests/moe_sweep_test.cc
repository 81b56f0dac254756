// Broad parameterized sweeps over MoE layer structure: every combination of
// expert count, top-k, activation and Samoyeds format must keep the
// dual-side sparse execution numerically faithful to the reference; the
// router's edge cases (top_k == experts, one token, descending gate weights)
// ride along.

#include <gtest/gtest.h>

#include "src/moe/moe_layer.h"
#include "src/moe/router.h"
#include "src/tensor/gemm_ref.h"
#include "tests/test_util.h"

namespace samoyeds {
namespace {

struct SweepCase {
  int experts;
  int top_k;
  Activation act;
  int fn, fm, fv;
};

class MoeSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(MoeSweepTest, DualSideMatchesReference) {
  const SweepCase c = GetParam();
  MoeModelConfig cfg;
  cfg.num_experts = c.experts;
  cfg.hidden = 32;
  cfg.intermediate = 64;
  cfg.top_k = c.top_k;
  const SamoyedsConfig fmt{c.fn, c.fm, c.fv};

  Rng rng(501 + static_cast<uint64_t>(c.experts * 100 + c.top_k));
  MoeLayerWeights w = MoeLayerWeights::Random(rng, cfg);
  const SamoyedsMoeLayerWeights sw = SamoyedsMoeLayerWeights::Encode(w, fmt);
  w.ApplyMask(fmt);

  MatrixF x = RandomBf16Matrix(rng, 32, cfg.hidden, 0.5f);
  const RoutingPlan plan = Route(x, w.router_gate, cfg.top_k);
  ASSERT_TRUE(plan.IsConsistent());
  const MatrixF ref = MoeForwardReference(x, w, plan, c.act);
  const MatrixF got = MoeForwardSamoyeds(x, sw, plan, c.act);
  EXPECT_LT(RelativeError(got, ref), 2e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MoeSweepTest,
    ::testing::Values(SweepCase{2, 1, Activation::kSilu, 1, 2, 32},
                      SweepCase{4, 2, Activation::kSilu, 1, 2, 32},
                      SweepCase{8, 2, Activation::kGeluTanh, 1, 2, 32},
                      SweepCase{8, 4, Activation::kSilu, 2, 4, 32},
                      SweepCase{16, 2, Activation::kSilu, 1, 2, 32},
                      SweepCase{16, 6, Activation::kSilu, 4, 8, 32},
                      SweepCase{6, 3, Activation::kGeluTanh, 1, 2, 32}));

// --------------------------------------------------------- router edges

TEST(RouterEdgeTest, TopKEqualsExpertCount) {
  Rng rng(704);
  const MatrixF x = rng.GaussianMatrix(10, 8);
  const MatrixF gate = rng.GaussianMatrix(4, 8);
  const RoutingPlan plan = Route(x, gate, 4);
  EXPECT_TRUE(plan.IsConsistent());
  for (int e = 0; e < 4; ++e) {
    EXPECT_EQ(plan.TokensForExpert(e), 10);  // everyone everywhere
  }
}

TEST(RouterEdgeTest, SingleToken) {
  Rng rng(705);
  const MatrixF x = rng.GaussianMatrix(1, 8);
  const MatrixF gate = rng.GaussianMatrix(6, 8);
  const RoutingPlan plan = Route(x, gate, 2);
  EXPECT_TRUE(plan.IsConsistent());
  int64_t routed = 0;
  for (int e = 0; e < 6; ++e) {
    EXPECT_LE(plan.TokensForExpert(e), 1);
    routed += plan.TokensForExpert(e);
  }
  EXPECT_EQ(routed, 2);  // the one token reaches two distinct experts
}

TEST(RouterEdgeTest, GateWeightsDescendWithLogits) {
  Rng rng(706);
  const MatrixF x = rng.GaussianMatrix(20, 8);
  const MatrixF gate = rng.GaussianMatrix(8, 8);
  const RoutingPlan plan = Route(x, gate, 3);
  for (int64_t t = 0; t < plan.tokens; ++t) {
    const auto assignment = plan.TokenAssignment(t);
    for (size_t i = 1; i < assignment.size(); ++i) {
      EXPECT_GE(assignment[i - 1].second, assignment[i].second);
    }
  }
}

}  // namespace
}  // namespace samoyeds
