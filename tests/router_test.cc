// Top-k routing edge cases: RoutingPlan::IsConsistent rejects tampered
// plans, zero-token experts are legal and executable, and tie-breaking
// matches a stable descending sort bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>
#include <vector>

#include "src/moe/moe_layer.h"
#include "src/moe/router.h"
#include "src/tensor/gemm_ref.h"
#include "src/tensor/rng.h"
#include "tests/test_util.h"

namespace samoyeds {
namespace {

TEST(RoutingPlanTest, IsConsistentRejectsTamperedPlans) {
  Rng rng(94);
  const MatrixF x = rng.GaussianMatrix(16, 8);
  const MatrixF gate = rng.GaussianMatrix(4, 8);
  const RoutingPlan good = Route(x, gate, /*top_k=*/2);
  ASSERT_TRUE(good.IsConsistent());
  // The busiest expert holds at least 16 * 2 / 4 = 8 tokens.
  const auto busiest = std::max_element(
      good.expert_tokens.begin(), good.expert_tokens.end(),
      [](const auto& a, const auto& b) { return a.size() < b.size(); });
  const size_t e = static_cast<size_t>(busiest - good.expert_tokens.begin());
  ASSERT_GE(good.expert_tokens[e].size(), 2u);

  // Ordering violation: descending token list.
  RoutingPlan order = good;
  std::swap(order.expert_tokens[e][0], order.expert_tokens[e][1]);
  EXPECT_FALSE(order.IsConsistent());

  // Out-of-range token index.
  RoutingPlan range = good;
  range.expert_tokens[e].back() = static_cast<int32_t>(range.tokens);
  EXPECT_FALSE(range.IsConsistent());

  // Weight violation: un-normalized gate weight.
  RoutingPlan weights = good;
  weights.token_assignments[0].front().second += 0.5f;
  EXPECT_FALSE(weights.IsConsistent());

  // Gate row no longer parallel to its token list.
  RoutingPlan gate_row = good;
  gate_row.expert_gate[e].push_back(0.0f);
  EXPECT_FALSE(gate_row.IsConsistent());

  // Gate vectors missing altogether: the scatter has no other weight source.
  RoutingPlan no_gates = good;
  no_gates.expert_gate.clear();
  EXPECT_FALSE(no_gates.IsConsistent());
}

TEST(TopKRoutingTest, ZeroTokenExpertsAreLegalAndExecutable) {
  Rng rng(95);
  // All-positive activations and strictly ordered gate rows: experts 2 then
  // 1 dominate every token, experts 0 and 3 get zero tokens.
  const MatrixF x = rng.UniformMatrix(12, 32, 0.1f, 1.0f);
  MatrixF gate(4, 32);
  for (int64_t c = 0; c < 32; ++c) {
    gate(0, c) = 1.0f;
    gate(1, c) = 2.0f;
    gate(2, c) = 3.0f;
    gate(3, c) = -1.0f;
  }
  const RoutingPlan plan = Route(x, gate, /*top_k=*/2);
  ASSERT_TRUE(plan.IsConsistent());
  EXPECT_EQ(plan.TokensForExpert(0), 0);
  EXPECT_EQ(plan.TokensForExpert(3), 0);
  EXPECT_EQ(plan.TokensForExpert(1), 12);
  EXPECT_EQ(plan.TokensForExpert(2), 12);
  EXPECT_TRUE(plan.SelectionForExpert(0).IsValid());  // empty but valid

  // The MoE layer must execute a plan with idle experts on both paths.
  MoeModelConfig cfg;
  cfg.num_experts = 4;
  cfg.hidden = 32;
  cfg.intermediate = 64;
  cfg.top_k = 2;
  const SamoyedsConfig fmt{1, 2, 32};
  MoeLayerWeights w = MoeLayerWeights::Random(rng, cfg);
  w.router_gate = gate;
  const SamoyedsMoeLayerWeights sw = SamoyedsMoeLayerWeights::Encode(w, fmt);
  w.ApplyMask(fmt);
  MatrixF xb = x;
  RoundMatrixToBf16(xb);
  const MatrixF ref = MoeForwardReference(xb, w, plan, Activation::kSilu);
  const MatrixF got = MoeForwardSamoyeds(xb, sw, plan, Activation::kSilu);
  EXPECT_LT(RelativeError(got, ref), 2e-2);
}

// Route's selection as it was written before the stable top-k insertion:
// logits from the dense GEMM against the transposed gate, then a stable
// descending sort of every expert per token. Kept here as the oracle.
RoutingPlan StableSortRoute(const MatrixF& x, const MatrixF& gate_weight, int top_k) {
  const int64_t tokens = x.rows();
  const int num_experts = static_cast<int>(gate_weight.rows());
  RoutingPlan plan;
  plan.num_experts = num_experts;
  plan.top_k = top_k;
  plan.tokens = tokens;
  plan.expert_tokens.resize(static_cast<size_t>(num_experts));
  plan.token_assignments.resize(static_cast<size_t>(tokens));
  plan.expert_gate.resize(static_cast<size_t>(num_experts));
  const MatrixF logits = GemmRef(x, gate_weight.Transposed());
  std::vector<int> order(static_cast<size_t>(num_experts));
  for (int64_t t = 0; t < tokens; ++t) {
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&logits, t](int a, int b) { return logits(t, a) > logits(t, b); });
    const float max_logit = logits(t, order[0]);
    float denom = 0.0f;
    for (int i = 0; i < top_k; ++i) {
      denom += std::exp(logits(t, order[static_cast<size_t>(i)]) - max_logit);
    }
    for (int i = 0; i < top_k; ++i) {
      const int e = order[static_cast<size_t>(i)];
      const float w = std::exp(logits(t, e) - max_logit) / denom;
      plan.token_assignments[static_cast<size_t>(t)].emplace_back(e, w);
      plan.expert_tokens[static_cast<size_t>(e)].push_back(static_cast<int32_t>(t));
      plan.expert_gate[static_cast<size_t>(e)].push_back(w);
    }
  }
  return plan;
}

// An empty vector's data() may be null, which memcmp must never see.
bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0);
}

TEST(TopKRoutingTest, TieHeavyLogitsMatchTheStableSortOracle) {
  Rng rng(2024);
  // Values on a coarse grid make most logits exact small multiples of 0.5,
  // so ties are real: duplicated and all-zero gate rows tie every token,
  // and all-zero tokens tie every expert.
  const float grid[] = {-1.0f, -0.5f, 0.0f, -0.0f, 0.5f, 1.0f};
  const auto pick = [&rng, &grid] { return grid[rng.NextU64() % 6]; };
  constexpr int kExperts = 8;
  constexpr int64_t kHidden = 16;
  for (int trial = 0; trial < 40; ++trial) {
    MatrixF gate(kExperts, kHidden);
    for (int e = 0; e < kExperts; ++e) {
      const int kind = static_cast<int>(rng.NextU64() % 4);
      for (int64_t c = 0; c < kHidden; ++c) {
        // kind 0: copy of row 0 (or fresh for row 0); 1: all zero; else fresh.
        gate(e, c) = kind == 0 && e > 0 ? gate(0, c) : kind == 1 ? 0.0f : pick();
      }
    }
    MatrixF x(24, kHidden);
    for (int64_t t = 0; t < x.rows(); ++t) {
      const bool zero_token = t % 5 == 0;
      for (int64_t c = 0; c < kHidden; ++c) {
        x(t, c) = zero_token ? 0.0f : pick();
      }
    }
    for (int top_k : {1, 2, 3, kExperts}) {
      const RoutingPlan got = Route(x, gate, top_k);
      const RoutingPlan want = StableSortRoute(x, gate, top_k);
      ASSERT_TRUE(got.IsConsistent());
      ASSERT_EQ(got.token_assignments.size(), want.token_assignments.size());
      for (size_t t = 0; t < want.token_assignments.size(); ++t) {
        const auto& g = got.token_assignments[t];
        const auto& w = want.token_assignments[t];
        ASSERT_EQ(g.size(), w.size());
        for (size_t i = 0; i < w.size(); ++i) {
          EXPECT_EQ(g[i].first, w[i].first) << "trial " << trial << " token " << t;
          EXPECT_EQ(std::memcmp(&g[i].second, &w[i].second, sizeof(float)), 0)
              << "trial " << trial << " token " << t;
        }
      }
      EXPECT_EQ(got.expert_tokens, want.expert_tokens) << "trial " << trial;
      for (int e = 0; e < kExperts; ++e) {
        EXPECT_TRUE(SameBits(got.expert_gate[static_cast<size_t>(e)],
                             want.expert_gate[static_cast<size_t>(e)]))
            << "trial " << trial << " expert " << e;
      }
    }
  }
}

}  // namespace
}  // namespace samoyeds
