// Top-k routing edge cases: RoutingPlan::IsConsistent rejects tampered
// plans, zero-token experts are legal and executable, tie-breaking matches
// a stable descending sort bit for bit, the one-GEMM logits route exactly
// as per-token dot products, and a plan reused across calls equals a fresh
// one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
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
  weights.token_assignments.front().second += 0.5f;
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

// Route's selection as it was written before the stable top-k insertion: a
// stable descending sort of every expert per token over the given logits.
// Kept here as the oracle.
RoutingPlan StableSortPlan(const MatrixF& logits, int top_k) {
  const int64_t tokens = logits.rows();
  const int num_experts = static_cast<int>(logits.cols());
  RoutingPlan plan;
  plan.num_experts = num_experts;
  plan.top_k = top_k;
  plan.tokens = tokens;
  plan.expert_tokens.resize(static_cast<size_t>(num_experts));
  plan.expert_gate.resize(static_cast<size_t>(num_experts));
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
      plan.token_assignments.emplace_back(e, w);
      plan.expert_tokens[static_cast<size_t>(e)].push_back(static_cast<int32_t>(t));
      plan.expert_gate[static_cast<size_t>(e)].push_back(w);
    }
  }
  return plan;
}

// Logits as Route computed them before it used one GEMM: per token, every
// expert's dot product over ascending p, skipping zero activations.
MatrixF RowDotLogits(const MatrixF& x, const MatrixF& gate_weight) {
  MatrixF logits(x.rows(), gate_weight.rows());
  for (int64_t t = 0; t < x.rows(); ++t) {
    for (int64_t p = 0; p < x.cols(); ++p) {
      const float xv = x(t, p);
      if (xv == 0.0f) {
        continue;
      }
      for (int64_t e = 0; e < gate_weight.rows(); ++e) {
        logits(t, e) += xv * gate_weight(e, p);
      }
    }
  }
  return logits;
}

// An empty vector's data() may be null, which memcmp must never see.
bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0);
}

// Field-by-field equality, gate weights compared bit for bit.
void ExpectSamePlan(const RoutingPlan& got, const RoutingPlan& want, const std::string& label) {
  EXPECT_EQ(got.num_experts, want.num_experts) << label;
  EXPECT_EQ(got.top_k, want.top_k) << label;
  EXPECT_EQ(got.tokens, want.tokens) << label;
  ASSERT_EQ(got.token_assignments.size(), want.token_assignments.size()) << label;
  for (size_t i = 0; i < want.token_assignments.size(); ++i) {
    const auto& g = got.token_assignments[i];
    const auto& w = want.token_assignments[i];
    EXPECT_EQ(g.first, w.first) << label << " slot " << i;
    EXPECT_EQ(std::memcmp(&g.second, &w.second, sizeof(float)), 0) << label << " slot " << i;
  }
  EXPECT_EQ(got.expert_tokens, want.expert_tokens) << label;
  ASSERT_EQ(got.expert_gate.size(), want.expert_gate.size()) << label;
  for (size_t e = 0; e < want.expert_gate.size(); ++e) {
    EXPECT_TRUE(SameBits(got.expert_gate[e], want.expert_gate[e])) << label << " expert " << e;
  }
}

// Gate and tokens on a coarse grid make most logits exact small multiples
// of 0.5, so ties are real: duplicated and all-zero gate rows tie every
// token, and every fifth token is all zero, tying every expert.
struct TieHeavyCase {
  MatrixF gate;
  MatrixF x;
};

TieHeavyCase MakeTieHeavyCase(Rng& rng, int experts, int64_t hidden, int64_t tokens) {
  const float grid[] = {-1.0f, -0.5f, 0.0f, -0.0f, 0.5f, 1.0f};
  const auto pick = [&rng, &grid] { return grid[rng.NextU64() % 6]; };
  TieHeavyCase c{MatrixF(experts, hidden), MatrixF(tokens, hidden)};
  for (int e = 0; e < experts; ++e) {
    const int kind = static_cast<int>(rng.NextU64() % 4);
    for (int64_t p = 0; p < hidden; ++p) {
      // kind 0: copy of row 0 (or fresh for row 0); 1: all zero; else fresh.
      c.gate(e, p) = kind == 0 && e > 0 ? c.gate(0, p) : kind == 1 ? 0.0f : pick();
    }
  }
  for (int64_t t = 0; t < tokens; ++t) {
    const bool zero_token = t % 5 == 0;
    for (int64_t p = 0; p < hidden; ++p) {
      c.x(t, p) = zero_token ? 0.0f : pick();
    }
  }
  return c;
}

TEST(TopKRoutingTest, TieHeavyLogitsMatchTheStableSortOracle) {
  Rng rng(2024);
  constexpr int kExperts = 8;
  for (int trial = 0; trial < 40; ++trial) {
    const TieHeavyCase c = MakeTieHeavyCase(rng, kExperts, 16, 24);
    for (int top_k : {1, 2, 3, kExperts}) {
      const RoutingPlan got = Route(c.x, c.gate, top_k);
      ASSERT_TRUE(got.IsConsistent());
      ExpectSamePlan(got, StableSortPlan(GemmRef(c.x, c.gate.Transposed()), top_k),
                     "trial " + std::to_string(trial) + " top_k " + std::to_string(top_k));
    }
  }
}

TEST(TopKRoutingTest, GemmLogitsReproduceTheRowDotRouter) {
  // The RouterEdgeTest inputs (top-k equal to the expert count, one token,
  // descending weights), then tie-heavy and all-zero ones: the one-GEMM
  // logits must route exactly as the per-token dot products did.
  struct Case {
    MatrixF x;
    MatrixF gate;
    int top_k;
  };
  std::vector<Case> cases;
  Rng edge704(704);
  MatrixF x = edge704.GaussianMatrix(10, 8);
  cases.push_back({x, edge704.GaussianMatrix(4, 8), 4});
  Rng edge705(705);
  x = edge705.GaussianMatrix(1, 8);
  cases.push_back({x, edge705.GaussianMatrix(6, 8), 2});
  Rng edge706(706);
  x = edge706.GaussianMatrix(20, 8);
  cases.push_back({x, edge706.GaussianMatrix(8, 8), 3});
  Rng rng(2025);
  for (int trial = 0; trial < 10; ++trial) {
    TieHeavyCase c = MakeTieHeavyCase(rng, 8, 16, 24);
    cases.push_back({c.x, c.gate, 1 + trial % 3});
  }
  cases.push_back({MatrixF(5, 16), rng.GaussianMatrix(8, 16), 2});  // all-zero tokens
  cases.push_back({rng.GaussianMatrix(5, 16), MatrixF(8, 16), 3});  // all-zero gate
  for (size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    const RoutingPlan got = Route(c.x, c.gate, c.top_k);
    ASSERT_TRUE(got.IsConsistent()) << "case " << i;
    ExpectSamePlan(got, StableSortPlan(RowDotLogits(c.x, c.gate), c.top_k),
                   "case " + std::to_string(i));
  }
}

TEST(TopKRoutingTest, ReusedPlanEqualsAFreshRouteAtEveryTokenCount) {
  Rng rng(2026);
  const MatrixF gate = rng.GaussianMatrix(8, 32);
  const MatrixF gate_t = gate.Transposed();
  RoutingPlan plan;
  MatrixF logits;
  // Grow, shrink to one token, grow past the first size, shrink again.
  for (const int64_t tokens : {40, 7, 1, 96, 33}) {
    MatrixF x = rng.GaussianMatrix(tokens, 32);
    x(0, 3) = 0.0f;  // a zero activation the GEMM must skip
    RouteInto(x, gate_t, /*top_k=*/2, logits, plan);
    EXPECT_TRUE(plan.IsConsistent()) << "tokens " << tokens;
    ExpectSamePlan(plan, Route(x, gate, 2), "tokens " + std::to_string(tokens));
  }
}

}  // namespace
}  // namespace samoyeds
