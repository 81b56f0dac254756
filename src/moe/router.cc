#include "src/moe/router.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/tensor/gemm_ref.h"

namespace samoyeds {

Selection RoutingPlan::SelectionForExpert(int e) const {
  Selection sel;
  sel.full_size = tokens;
  sel.indices = expert_tokens[static_cast<size_t>(e)];
  return sel;
}

void RoutingPlan::AccumulateTokensPerBucket(const std::vector<int>& bucket_of,
                                            std::vector<int64_t>& totals) const {
  assert(static_cast<int>(bucket_of.size()) == num_experts);
  for (int e = 0; e < num_experts; ++e) {
    const int bucket = bucket_of[static_cast<size_t>(e)];
    assert(bucket >= 0 && bucket < static_cast<int>(totals.size()));
    totals[static_cast<size_t>(bucket)] += TokensForExpert(e);
  }
}

std::vector<int64_t> RoutingPlan::TokensPerBucket(const std::vector<int>& bucket_of,
                                                  int num_buckets) const {
  std::vector<int64_t> totals(static_cast<size_t>(num_buckets), 0);
  AccumulateTokensPerBucket(bucket_of, totals);
  return totals;
}

bool RoutingPlan::IsConsistent() const {
  if (static_cast<int>(expert_tokens.size()) != num_experts || top_k < 1 ||
      static_cast<int64_t>(token_assignments.size()) != tokens * top_k) {
    return false;
  }
  int64_t total = 0;
  for (int e = 0; e < num_experts; ++e) {
    int32_t prev = -1;
    for (int32_t t : expert_tokens[static_cast<size_t>(e)]) {
      if (t <= prev || t >= tokens) {
        return false;
      }
      prev = t;
    }
    total += TokensForExpert(e);
  }
  if (total != tokens * top_k) {
    return false;
  }
  if (static_cast<int>(expert_gate.size()) != num_experts) {
    return false;
  }
  for (int e = 0; e < num_experts; ++e) {
    if (expert_gate[static_cast<size_t>(e)].size() !=
        expert_tokens[static_cast<size_t>(e)].size()) {
      return false;
    }
  }
  for (int64_t t = 0; t < tokens; ++t) {
    float weight_sum = 0.0f;
    for (const auto& [e, w] : TokenAssignment(t)) {
      if (e < 0 || e >= num_experts || w < 0.0f) {
        return false;
      }
      weight_sum += w;
    }
    if (std::fabs(weight_sum - 1.0f) > 1e-4f) {
      return false;
    }
  }
  return true;
}

namespace {

// Empties `plan` for `tokens` tokens of `num_experts` experts, keeping the
// capacity of every vector it holds.
void ResetPlan(RoutingPlan& plan, int64_t tokens, int num_experts, int top_k) {
  plan.num_experts = num_experts;
  plan.top_k = top_k;
  plan.tokens = tokens;
  plan.expert_tokens.resize(static_cast<size_t>(num_experts));
  plan.expert_gate.resize(static_cast<size_t>(num_experts));
  for (int e = 0; e < num_experts; ++e) {
    plan.expert_tokens[static_cast<size_t>(e)].clear();
    plan.expert_gate[static_cast<size_t>(e)].clear();
  }
  plan.token_assignments.clear();
}

}  // namespace

void RouteInto(const MatrixF& x, const MatrixF& gate_weight_t, int top_k, MatrixF& logits,
               RoutingPlan& plan) {
  assert(x.cols() == gate_weight_t.rows());
  assert(top_k >= 1 && top_k <= gate_weight_t.cols());
  const int64_t tokens = x.rows();
  const int num_experts = static_cast<int>(gate_weight_t.cols());
  ResetPlan(plan, tokens, num_experts, top_k);

  // logit(t, e) = x(t, :) . gate_weight(e, :) over ascending p with the
  // GEMM's zero skip, for every token at once.
  logits.Reshape(tokens, num_experts);
  logits.Fill(0.0f);
  GemmAccumulateRef(x, gate_weight_t, logits);

  // Each token's running top-k lives in its own slots of the plan.
  plan.token_assignments.resize(static_cast<size_t>(tokens * top_k));
  for (int64_t t = 0; t < tokens; ++t) {
    const float* const row = logits.data() + t * num_experts;
    std::pair<int, float>* const top = plan.token_assignments.data() + t * top_k;
    // Stable top-k by insertion: a strictly greater logit displaces, so on a
    // tie the lower expert index stays ahead — the first k of a stable
    // descending sort.
    int kept = 0;
    for (int e = 0; e < num_experts; ++e) {
      const float l = row[e];
      int pos = kept;
      while (pos > 0 && l > row[top[pos - 1].first]) {
        --pos;
      }
      if (pos == top_k) {
        continue;
      }
      for (int i = std::min(kept, top_k - 1); i > pos; --i) {
        top[i].first = top[i - 1].first;
      }
      top[pos].first = e;
      kept = std::min(kept + 1, top_k);
    }
    // Softmax over the selected top-k logits.
    const float max_logit = row[top[0].first];
    float denom = 0.0f;
    for (int i = 0; i < top_k; ++i) {
      denom += std::exp(row[top[i].first] - max_logit);
    }
    for (int i = 0; i < top_k; ++i) {
      const int e = top[i].first;
      const float w = std::exp(row[e] - max_logit) / denom;
      top[i].second = w;
      plan.expert_tokens[static_cast<size_t>(e)].push_back(static_cast<int32_t>(t));
      plan.expert_gate[static_cast<size_t>(e)].push_back(w);
    }
  }
}

RoutingPlan Route(const MatrixF& x, const MatrixF& gate_weight, int top_k) {
  RoutingPlan plan;
  MatrixF logits;
  RouteInto(x, gate_weight.Transposed(), top_k, logits, plan);
  return plan;
}

RoutingPlan MakeSyntheticPlan(Rng& rng, int64_t tokens, int num_experts, int top_k,
                              double skew) {
  assert(top_k >= 1 && top_k <= num_experts);
  RoutingPlan plan;
  ResetPlan(plan, tokens, num_experts, top_k);

  // Zipf-like popularity weights.
  std::vector<double> popularity(static_cast<size_t>(num_experts));
  double total = 0.0;
  for (int e = 0; e < num_experts; ++e) {
    popularity[static_cast<size_t>(e)] = 1.0 / std::pow(e + 1.0, skew);
    total += popularity[static_cast<size_t>(e)];
  }
  for (auto& p : popularity) {
    p /= total;
  }

  std::vector<int> picked;
  picked.reserve(static_cast<size_t>(top_k));
  for (int64_t t = 0; t < tokens; ++t) {
    picked.clear();
    while (static_cast<int>(picked.size()) < top_k) {
      double u = rng.NextDouble();
      int e = num_experts - 1;
      double acc = 0.0;
      for (int i = 0; i < num_experts; ++i) {
        acc += popularity[static_cast<size_t>(i)];
        if (u < acc) {
          e = i;
          break;
        }
      }
      if (std::find(picked.begin(), picked.end(), e) == picked.end()) {
        picked.push_back(e);
      }
    }
    for (int e : picked) {
      plan.token_assignments.emplace_back(e, 1.0f / static_cast<float>(top_k));
      plan.expert_tokens[static_cast<size_t>(e)].push_back(static_cast<int32_t>(t));
      plan.expert_gate[static_cast<size_t>(e)].push_back(1.0f / static_cast<float>(top_k));
    }
  }
  return plan;
}

}  // namespace samoyeds
