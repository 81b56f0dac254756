// Token routing for the MoE layer (§2.1).
//
// Entry points:
//   * RouteInto(): the numeric top-k softmax gate. All tokens' logits come
//     from one dense GEMM against the router gate transposed once by the
//     caller, and the plan is refilled in place, so a caller that keeps one
//     plan per layer (the serving engine) reuses its storage every step.
//   * Route(): the same gate returning a fresh plan, for the functional
//     layer implementations and their tests.
//   * MakeSyntheticPlan(): a shape-only routing plan generator (with an
//     optional popularity skew) used by the analytic benchmarks, where only
//     the per-expert token counts matter.

#ifndef SAMOYEDS_SRC_MOE_ROUTER_H_
#define SAMOYEDS_SRC_MOE_ROUTER_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/formats/sel.h"
#include "src/tensor/matrix.h"
#include "src/tensor/rng.h"

namespace samoyeds {

struct RoutingPlan {
  int num_experts = 0;
  int top_k = 0;
  int64_t tokens = 0;
  // For each expert: the (ascending) token indices routed to it.
  std::vector<std::vector<int32_t>> expert_tokens;
  // Token t's top_k (expert, gate weight) pairs, at [t * top_k, (t + 1) *
  // top_k); see TokenAssignment.
  std::vector<std::pair<int, float>> token_assignments;
  // For each expert: the gate weight of each routed token, parallel to
  // expert_tokens — filled by both plan constructors (and required by
  // IsConsistent) so the weighted scatter-accumulate (MoeScatterAdd) is a
  // straight per-row axpy. The one gate-weight source for execution.
  std::vector<std::vector<float>> expert_gate;

  std::span<const std::pair<int, float>> TokenAssignment(int64_t t) const {
    return {token_assignments.data() + t * top_k, static_cast<size_t>(top_k)};
  }
  int64_t TokensForExpert(int e) const {
    return static_cast<int64_t>(expert_tokens[static_cast<size_t>(e)].size());
  }
  // Selection array view of one expert's tokens — the input half of the
  // Samoyeds dual-side format.
  Selection SelectionForExpert(int e) const;
  // Routed-token totals per bucket under an expert -> bucket map (the
  // serving engine's expert-shard accounting: bucket = simulated device).
  // `bucket_of[e]` must lie in [0, totals.size()); totals is accumulated
  // into, not cleared, so per-step counts can fold across layers.
  void AccumulateTokensPerBucket(const std::vector<int>& bucket_of,
                                 std::vector<int64_t>& totals) const;
  std::vector<int64_t> TokensPerBucket(const std::vector<int>& bucket_of,
                                       int num_buckets) const;
  bool IsConsistent() const;
};

// Numeric top-k routing: logits = x * gate_weight^T, softmax over the top-k
// logits per token (the normalization used by Mixtral-style routers).
// gate_weight_t is the (hidden x num_experts) transposed gate; the logits
// are one GemmAccumulateRef into `logits` (scratch, reshaped to tokens x
// num_experts). `plan` is overwritten, keeping its vectors' capacity. Each
// token's experts are listed by descending logit, ties broken toward the
// lower expert index.
void RouteInto(const MatrixF& x, const MatrixF& gate_weight_t, int top_k, MatrixF& logits,
               RoutingPlan& plan);
// The same plan, fresh; gate_weight is (num_experts x hidden).
RoutingPlan Route(const MatrixF& x, const MatrixF& gate_weight, int top_k);

// Synthetic plan with Zipf-like expert popularity controlled by `skew`
// (0 = uniform). Token assignments get uniform gate weights (1/top_k).
RoutingPlan MakeSyntheticPlan(Rng& rng, int64_t tokens, int num_experts, int top_k,
                              double skew = 0.0);

}  // namespace samoyeds

#endif  // SAMOYEDS_SRC_MOE_ROUTER_H_
