// Expert-parallel sharding for the serving engine.
//
// The paper's MoE serving story scales past one device by partitioning the
// expert pool: each simulated device ("shard") owns a subset of experts, a
// routed step's tokens are dispatched to the shards owning their experts
// (all-to-all #1), each shard runs its experts locally, and the weighted
// outputs travel back to the tokens' home shards (all-to-all #2). This
// module owns the *placement* side of that design:
//
//   * ExpertShardPlan — the expert -> shard map, built by one of three
//     strategies: round-robin (the Switch/DeepSpeed default), capacity-
//     balanced (bin-pack expert storage bytes so heterogeneous experts
//     don't skew device memory), and gate-statistics-aware (spread the
//     experts the router is biased toward across shards, so skewed traffic
//     doesn't converge on one device).
//   * SimCluster — one DeviceSpec per shard; the per-link interconnect
//     parameters ride on the DeviceSpecs themselves.
//   * ComputeAllToAllTraffic — the dispatch/combine volumes a RoutingPlan
//     induces under a placement, counting only (token-home, expert-shard)
//     pairs that actually cross shards. Batch tokens are data-parallel:
//     token t lives on the shard whose contiguous home range covers it.
//
// Placement never changes results: the engine folds expert outputs in a
// fixed global-expert order regardless of which shard ran them (see
// expert_pool.h), so any plan is bit-identical to unsharded execution.
// Placement only moves load between simulated devices — which is exactly
// what the analytic timing estimate (max-over-shards compute + all-to-all)
// measures.

#ifndef SAMOYEDS_SRC_SERVING_SHARD_PLAN_H_
#define SAMOYEDS_SRC_SERVING_SHARD_PLAN_H_

#include <cstdint>
#include <vector>

#include "src/moe/router.h"
#include "src/simgpu/device_spec.h"
#include "src/tensor/matrix.h"

namespace samoyeds {
namespace serving {

// L2 norm of each router gate row — the expected-load proxy gate-statistics
// placement balances (larger rows produce larger logit variance and win
// top-k more often). Exposed so multi-layer callers can sum per-layer norms
// before ExpertShardPlan::FromLoads.
std::vector<double> GateRowNorms(const MatrixF& router_gate);

enum class ShardPlacement {
  kRoundRobin,        // expert e -> shard e % shards
  kCapacityBalanced,  // bin-pack expert storage bytes (LPT greedy)
  kGateStats,         // spread router-favored experts (LPT over gate norms)
};

const char* ShardPlacementName(ShardPlacement p);
// Accepts the CLI spellings: round-robin | capacity | gate-stats.
bool ParseShardPlacement(const char* name, ShardPlacement* out);

class ExpertShardPlan {
 public:
  ExpertShardPlan() = default;  // empty plan: no experts, zero shards

  static ExpertShardPlan RoundRobin(int num_experts, int num_shards);
  // Longest-processing-time greedy over per-expert weight storage: experts
  // in descending byte order (ties: lower id first) each go to the least
  // loaded shard (ties: lowest shard id). Deterministic.
  static ExpertShardPlan CapacityBalanced(const std::vector<int64_t>& expert_bytes,
                                          int num_shards);
  // The same LPT greedy over arbitrary expected loads (gate statistics,
  // historical token counts, ...).
  static ExpertShardPlan FromLoads(const std::vector<double>& loads, int num_shards);
  // Loads from the router itself: the L2 norm of each expert's gate row.
  // Larger rows produce larger logit variance and win top-k more often
  // (exactly how bench/serving_throughput induces skew), so spreading them
  // balances expected traffic before any has been served.
  static ExpertShardPlan GateStatsAware(const MatrixF& router_gate, int num_shards);

  int num_shards() const { return static_cast<int>(experts_on_.size()); }
  int num_experts() const { return static_cast<int>(shard_of_.size()); }
  int shard_of(int expert) const { return shard_of_[static_cast<size_t>(expert)]; }
  const std::vector<int>& shard_of_expert() const { return shard_of_; }
  // Experts placed on `shard`, ascending ids. May be empty (more shards
  // than experts, or every hot expert packed elsewhere).
  const std::vector<int>& experts_on(int shard) const {
    return experts_on_[static_cast<size_t>(shard)];
  }
  // Every expert placed exactly once, shard ids in range.
  bool IsValid() const;

 private:
  ExpertShardPlan(std::vector<int> shard_of, int num_shards);
  friend ExpertShardPlan FailoverPlan(const ExpertShardPlan& plan, int dead_shard,
                                      const std::vector<double>& expert_loads);

  std::vector<int> shard_of_;
  std::vector<std::vector<int>> experts_on_;
};

// Shard-failure re-placement: a plan over `plan.num_shards() - 1` shards in
// which every surviving shard keeps its experts (ids above `dead_shard`
// shift down by one) and only the dead shard's orphans move — LPT greedy
// over `expert_loads` (observed per-expert token counts; uniform when empty
// or all-zero) against the survivors' existing loads. Minimal-movement by
// construction: re-placing everything from scratch would imply reshuffling
// live experts' (simulated) weights mid-run. Correctness is placement-
// independent (fixed global fold order), so the failover plan is still
// bit-identical to unsharded execution.
ExpertShardPlan FailoverPlan(const ExpertShardPlan& plan, int dead_shard,
                             const std::vector<double>& expert_loads);

// Data-parallel home shard of the batch: shard s owns the contiguous token
// range [ShardHomeBegin(s), ShardHomeBegin(s + 1)); ranges partition
// [0, tokens) with sizes differing by at most one.
int64_t ShardHomeBegin(int shard, int64_t tokens, int num_shards);
// Home shard of one batch token (the shard whose range covers it).
int TokenHomeShard(int64_t token, int64_t tokens, int num_shards);
// Fills home[t] for every batch token (reuses `home`'s capacity).
void FillTokenHomeShards(int64_t tokens, int num_shards, std::vector<int>& home);

// A simulated multi-device serving cluster: one DeviceSpec per shard.
struct SimCluster {
  std::vector<DeviceSpec> devices;

  static SimCluster Homogeneous(const DeviceSpec& device, int num_shards);

  int num_shards() const { return static_cast<int>(devices.size()); }
  const DeviceSpec& device(int shard) const {
    return devices[static_cast<size_t>(shard)];
  }
};

// Cross-shard all-to-all volumes for one routed layer. Dispatch moves each
// routed (token, expert) activation row to the expert's shard; combine
// moves the weighted output row back. Same-shard pairs are free. The
// max_shard_* fields are the busiest single shard's max(sent, received)
// bytes for the phase — what a full-duplex per-link roofline serializes on
// (TimingModel::InterconnectPhaseMs).
struct AllToAllTraffic {
  double dispatch_bytes = 0.0;
  double combine_bytes = 0.0;
  double max_shard_dispatch_bytes = 0.0;
  double max_shard_combine_bytes = 0.0;
};

// Reusable buffers for ComputeAllToAllTraffic (steady-state serving calls
// it per layer per step; reuse keeps the step loop allocation-quiet).
struct AllToAllScratch {
  std::vector<int> home;
  std::vector<double> sent;
  std::vector<double> received;
};

// `bytes_per_value` defaults to bf16 activations on the wire.
AllToAllTraffic ComputeAllToAllTraffic(const RoutingPlan& plan,
                                       const ExpertShardPlan& placement, int64_t hidden,
                                       int64_t bytes_per_value, AllToAllScratch& scratch);
AllToAllTraffic ComputeAllToAllTraffic(const RoutingPlan& plan,
                                       const ExpertShardPlan& placement, int64_t hidden,
                                       int64_t bytes_per_value = 2);

}  // namespace serving
}  // namespace samoyeds

#endif  // SAMOYEDS_SRC_SERVING_SHARD_PLAN_H_
