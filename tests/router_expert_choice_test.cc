// Edge cases for expert-choice routing (RouteExpertChoice /
// IsBalancedConsistent), zero-token experts and tie-breaking under top-k
// routing — the load-balance properties the serving engine's scheduling
// story leans on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "src/moe/moe_layer.h"
#include "src/moe/router.h"
#include "src/tensor/gemm_ref.h"
#include "src/tensor/rng.h"
#include "tests/test_util.h"

namespace samoyeds {
namespace {

TEST(ExpertChoiceTest, PerfectBalanceOnUniformInput) {
  Rng rng(91);
  const MatrixF x = rng.GaussianMatrix(64, 16);
  const MatrixF gate = rng.GaussianMatrix(8, 16);
  const RoutingPlan plan = RouteExpertChoice(x, gate, /*top_k_equiv=*/2);
  EXPECT_TRUE(IsBalancedConsistent(plan));
  // capacity = 64 * 2 / 8 = 16, exactly, for every expert.
  for (int e = 0; e < 8; ++e) {
    EXPECT_EQ(plan.TokensForExpert(e), 16);
    EXPECT_TRUE(plan.SelectionForExpert(e).IsValid());
  }
  EXPECT_EQ(plan.MaxTokensPerExpert(), 16);
}

TEST(ExpertChoiceTest, CapacityRoundingDropsRemainderTokens) {
  Rng rng(92);
  // 5 tokens, 4 experts, k=1: capacity = floor(5/4) = 1, so exactly 4
  // assignment slots exist and at least one token is chosen by no expert.
  const MatrixF x = rng.GaussianMatrix(5, 8);
  const MatrixF gate = rng.GaussianMatrix(4, 8);
  const RoutingPlan plan = RouteExpertChoice(x, gate, 1);
  EXPECT_TRUE(IsBalancedConsistent(plan));
  int64_t assigned = 0;
  int64_t dropped = 0;
  for (const auto& a : plan.token_assignments) {
    assigned += static_cast<int64_t>(a.size());
    dropped += a.empty() ? 1 : 0;
  }
  EXPECT_EQ(assigned, 4);
  EXPECT_GE(dropped, 1);
}

TEST(ExpertChoiceTest, CapacityFloorsAtOneWhenExpertsOutnumberTokens) {
  Rng rng(93);
  // 2 tokens, 8 experts, k=1: tokens * k / experts = 0, floored to 1 — every
  // expert still picks one token, so tokens collect many experts each.
  const MatrixF x = rng.GaussianMatrix(2, 8);
  const MatrixF gate = rng.GaussianMatrix(8, 8);
  const RoutingPlan plan = RouteExpertChoice(x, gate, 1);
  EXPECT_TRUE(IsBalancedConsistent(plan));
  int64_t assigned = 0;
  for (const auto& a : plan.token_assignments) {
    assigned += static_cast<int64_t>(a.size());
    float sum = 0.0f;
    for (const auto& [e, w] : a) {
      sum += w;
    }
    if (!a.empty()) {
      EXPECT_NEAR(sum, 1.0f, 1e-4f);  // softmax-normalized per token
    }
  }
  EXPECT_EQ(assigned, 8);
}

TEST(ExpertChoiceTest, ExpertsPickHighestAffinityTokens) {
  // 4 one-hot tokens, 2 experts, capacity 2. Expert 0's gate row scores
  // tokens 1 and 3 highest; expert 1 prefers tokens 0 and 2.
  MatrixF x(4, 4);
  for (int t = 0; t < 4; ++t) {
    x(t, t) = 1.0f;
  }
  MatrixF gate(2, 4);
  gate(0, 0) = 0.0f;
  gate(0, 1) = 5.0f;
  gate(0, 2) = 1.0f;
  gate(0, 3) = 4.0f;
  gate(1, 0) = 6.0f;
  gate(1, 1) = 0.5f;
  gate(1, 2) = 7.0f;
  gate(1, 3) = 0.0f;

  const RoutingPlan plan = RouteExpertChoice(x, gate, 1);
  ASSERT_TRUE(IsBalancedConsistent(plan));
  EXPECT_EQ(plan.expert_tokens[0], (std::vector<int32_t>{1, 3}));
  EXPECT_EQ(plan.expert_tokens[1], (std::vector<int32_t>{0, 2}));
}

TEST(BalancedConsistencyTest, DetectsTamperedPlans) {
  Rng rng(94);
  const MatrixF x = rng.GaussianMatrix(16, 8);
  const MatrixF gate = rng.GaussianMatrix(4, 8);
  const RoutingPlan good = RouteExpertChoice(x, gate, 1);
  ASSERT_TRUE(IsBalancedConsistent(good));

  // Capacity violation: expert loses a token.
  RoutingPlan capacity = good;
  capacity.expert_tokens[0].pop_back();
  EXPECT_FALSE(IsBalancedConsistent(capacity));

  // Ordering violation: descending token list.
  RoutingPlan order = good;
  std::swap(order.expert_tokens[1][0], order.expert_tokens[1][1]);
  EXPECT_FALSE(IsBalancedConsistent(order));

  // Weight violation: un-normalized gate weight.
  RoutingPlan weights = good;
  for (auto& a : weights.token_assignments) {
    if (!a.empty()) {
      a.front().second += 0.5f;
      break;
    }
  }
  EXPECT_FALSE(IsBalancedConsistent(weights));

  // Out-of-range token index.
  RoutingPlan range = good;
  range.expert_tokens[2].back() = static_cast<int32_t>(range.tokens);
  EXPECT_FALSE(IsBalancedConsistent(range));
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

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
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
