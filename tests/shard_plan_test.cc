// Expert-parallel sharding layer: placement strategies (round-robin,
// capacity-balanced, gate-statistics-aware LPT), token home-range
// partitioning, all-to-all traffic accounting (crossing-shard pairs only),
// the interconnect roofline, and the routing-plan shard buckets.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/moe/router.h"
#include "src/serving/shard_plan.h"
#include "src/simgpu/timing_model.h"
#include "src/tensor/rng.h"

namespace samoyeds {
namespace serving {
namespace {

// All tokens to expert `hot` (unit weights); used to pin traffic shapes.
RoutingPlan SingleExpertPlan(int64_t tokens, int num_experts, int hot) {
  RoutingPlan plan;
  plan.num_experts = num_experts;
  plan.top_k = 1;
  plan.tokens = tokens;
  plan.expert_tokens.resize(static_cast<size_t>(num_experts));
  for (int64_t t = 0; t < tokens; ++t) {
    plan.expert_tokens[static_cast<size_t>(hot)].push_back(static_cast<int32_t>(t));
    plan.token_assignments.emplace_back(hot, 1.0f);
  }
  return plan;
}

double MaxShardLoad(const ExpertShardPlan& plan, const std::vector<double>& loads) {
  double max_load = 0.0;
  for (int s = 0; s < plan.num_shards(); ++s) {
    double load = 0.0;
    for (int e : plan.experts_on(s)) {
      load += loads[static_cast<size_t>(e)];
    }
    max_load = std::max(max_load, load);
  }
  return max_load;
}

// ---- Placement strategies ---------------------------------------------------

TEST(ExpertShardPlanTest, RoundRobinCyclesAndIsValid) {
  const ExpertShardPlan plan = ExpertShardPlan::RoundRobin(10, 4);
  ASSERT_TRUE(plan.IsValid());
  EXPECT_EQ(plan.num_shards(), 4);
  EXPECT_EQ(plan.num_experts(), 10);
  for (int e = 0; e < 10; ++e) {
    EXPECT_EQ(plan.shard_of(e), e % 4);
  }
  // 10 experts over 4 shards: shards 0/1 get 3, shards 2/3 get 2.
  EXPECT_EQ(plan.experts_on(0), (std::vector<int>{0, 4, 8}));
  EXPECT_EQ(plan.experts_on(3), (std::vector<int>{3, 7}));
}

TEST(ExpertShardPlanTest, MoreShardsThanExpertsLeavesEmptyShards) {
  const ExpertShardPlan plan = ExpertShardPlan::RoundRobin(2, 4);
  ASSERT_TRUE(plan.IsValid());
  EXPECT_TRUE(plan.experts_on(2).empty());
  EXPECT_TRUE(plan.experts_on(3).empty());
}

TEST(ExpertShardPlanTest, CapacityBalancedSeparatesHeavyExperts) {
  // Two huge experts among six small ones: round-robin (ids 0 and 1 land on
  // shards 0 and 1) happens to split them here, so craft the adversarial
  // layout — both heavies on the same round-robin shard.
  const std::vector<int64_t> bytes = {1000, 10, 990, 10, 10, 10, 10, 10};
  const ExpertShardPlan plan = ExpertShardPlan::CapacityBalanced(bytes, 2);
  ASSERT_TRUE(plan.IsValid());
  EXPECT_NE(plan.shard_of(0), plan.shard_of(2)) << "heaviest experts must not share a shard";

  std::vector<double> loads(bytes.begin(), bytes.end());
  // LPT is within 4/3 of the optimal max load; optimal here is ~1030.
  EXPECT_LE(MaxShardLoad(plan, loads), 4.0 / 3.0 * 1030.0);
}

TEST(ExpertShardPlanTest, FromLoadsBeatsRoundRobinOnSkewedLoads) {
  // Zipf-ish loads where round-robin stacks the two heaviest on shard 0
  // (ids 0 and 4 with 4 shards... use 2 shards: ids 0,2,4,6 together).
  const std::vector<double> loads = {100.0, 1.0, 80.0, 1.0, 60.0, 1.0, 40.0, 1.0};
  const ExpertShardPlan lpt = ExpertShardPlan::FromLoads(loads, 2);
  const ExpertShardPlan rr = ExpertShardPlan::RoundRobin(8, 2);
  ASSERT_TRUE(lpt.IsValid());
  EXPECT_LT(MaxShardLoad(lpt, loads), MaxShardLoad(rr, loads));
  // Deterministic: same inputs, same plan.
  EXPECT_EQ(ExpertShardPlan::FromLoads(loads, 2).shard_of_expert(), lpt.shard_of_expert());
}

TEST(ExpertShardPlanTest, GateStatsSpreadsRouterFavoredExperts) {
  // Router gate with two high-gain rows (0 and 1): gate-stats placement must
  // put them on different shards; 2 shards, 4 experts.
  Rng rng(17);
  MatrixF gate = rng.GaussianMatrix(4, 32);
  for (int64_t c = 0; c < gate.cols(); ++c) {
    gate(0, c) *= 10.0f;
    gate(1, c) *= 8.0f;
  }
  const ExpertShardPlan plan = ExpertShardPlan::GateStatsAware(gate, 2);
  ASSERT_TRUE(plan.IsValid());
  EXPECT_NE(plan.shard_of(0), plan.shard_of(1));
}

// ---- Token home ranges ------------------------------------------------------

TEST(TokenHomeTest, RangesPartitionTokensEvenly) {
  const std::vector<std::pair<int64_t, int>> cases = {{10, 4}, {7, 3}, {4, 4}, {3, 4}, {128, 1}};
  for (const auto& [tokens, shards] : cases) {
    std::vector<int> home;
    FillTokenHomeShards(tokens, shards, home);
    ASSERT_EQ(static_cast<int64_t>(home.size()), tokens);
    // Home ids are nondecreasing and agree with the advertised ranges.
    for (int s = 0; s < shards; ++s) {
      const int64_t begin = ShardHomeBegin(s, tokens, shards);
      const int64_t end = ShardHomeBegin(s + 1, tokens, shards);
      EXPECT_LE(end - begin, tokens / shards + 1);
      for (int64_t t = begin; t < end; ++t) {
        EXPECT_EQ(home[static_cast<size_t>(t)], s);
      }
    }
    EXPECT_EQ(ShardHomeBegin(shards, tokens, shards), tokens);
  }
}

// ---- All-to-all traffic -----------------------------------------------------

TEST(AllToAllTrafficTest, SingleShardIsFree) {
  const RoutingPlan plan = SingleExpertPlan(32, 4, /*hot=*/2);
  const ExpertShardPlan placement = ExpertShardPlan::RoundRobin(4, 1);
  const AllToAllTraffic t = ComputeAllToAllTraffic(plan, placement, /*hidden=*/64);
  EXPECT_EQ(t.dispatch_bytes, 0.0);
  EXPECT_EQ(t.combine_bytes, 0.0);
  EXPECT_EQ(t.max_shard_dispatch_bytes, 0.0);
}

TEST(AllToAllTrafficTest, ChargesCrossingPairsOnly) {
  // 4 tokens over 2 shards: homes are {0, 0, 1, 1}. Expert 0 lives on shard
  // 0 (round-robin) and receives every token, so exactly tokens 2 and 3
  // cross: 2 rows of hidden x bf16 each way.
  const int64_t hidden = 64;
  const RoutingPlan plan = SingleExpertPlan(4, 2, /*hot=*/0);
  const ExpertShardPlan placement = ExpertShardPlan::RoundRobin(2, 2);
  const AllToAllTraffic t = ComputeAllToAllTraffic(plan, placement, hidden);
  const double row_bytes = static_cast<double>(hidden) * 2.0;
  EXPECT_DOUBLE_EQ(t.dispatch_bytes, 2.0 * row_bytes);
  EXPECT_DOUBLE_EQ(t.combine_bytes, t.dispatch_bytes);
  // Shard 1 sends both rows, shard 0 receives both: the busiest link moves
  // both rows in one direction.
  EXPECT_DOUBLE_EQ(t.max_shard_dispatch_bytes, 2.0 * row_bytes);
  EXPECT_DOUBLE_EQ(t.max_shard_combine_bytes, t.max_shard_dispatch_bytes);
}

TEST(AllToAllTrafficTest, BalancedRoutingStillPaysForRemoteExperts) {
  // Every expert gets one token, experts round-robin over 2 shards, tokens
  // home-split in halves: expert e on shard e % 2, token e homed at e / 2.
  // Crossing pairs: (t0,e0): home 0, shard 0 — free. (t1,e1): home 0, shard
  // 1 — crosses. (t2,e2): home 1, shard 0 — crosses. (t3,e3): home 1,
  // shard 1 — free.
  RoutingPlan plan;
  plan.num_experts = 4;
  plan.top_k = 1;
  plan.tokens = 4;
  plan.expert_tokens = {{0}, {1}, {2}, {3}};
  plan.token_assignments = {{0, 1.0f}, {1, 1.0f}, {2, 1.0f}, {3, 1.0f}};
  const ExpertShardPlan placement = ExpertShardPlan::RoundRobin(4, 2);
  const AllToAllTraffic t = ComputeAllToAllTraffic(plan, placement, /*hidden=*/32);
  const double row_bytes = 32.0 * 2.0;
  EXPECT_DOUBLE_EQ(t.dispatch_bytes, 2.0 * row_bytes);
  // Each shard sends one row and receives one: per-link volume is one row.
  EXPECT_DOUBLE_EQ(t.max_shard_dispatch_bytes, row_bytes);
}

// ---- Routing-plan shard buckets ---------------------------------------------

TEST(RoutingPlanBucketsTest, TokensPerBucketMatchesManualCount) {
  Rng rng(23);
  const RoutingPlan plan = MakeSyntheticPlan(rng, /*tokens=*/64, /*num_experts=*/6,
                                             /*top_k=*/2, /*skew=*/1.5);
  const ExpertShardPlan placement = ExpertShardPlan::RoundRobin(6, 3);
  const std::vector<int64_t> buckets = plan.TokensPerBucket(placement.shard_of_expert(), 3);
  ASSERT_EQ(buckets.size(), 3u);
  int64_t total = 0;
  for (int s = 0; s < 3; ++s) {
    int64_t expected = 0;
    for (int e : placement.experts_on(s)) {
      expected += plan.TokensForExpert(e);
    }
    EXPECT_EQ(buckets[static_cast<size_t>(s)], expected);
    total += buckets[static_cast<size_t>(s)];
  }
  EXPECT_EQ(total, 64 * 2);

  // The accumulate form folds on top of existing counts.
  std::vector<int64_t> acc(3, 100);
  plan.AccumulateTokensPerBucket(placement.shard_of_expert(), acc);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(acc[static_cast<size_t>(s)], 100 + buckets[static_cast<size_t>(s)]);
  }
}

// ---- SimCluster + interconnect roofline -------------------------------------

TEST(SimClusterTest, HomogeneousReplicatesTheDevice) {
  const SimCluster cluster = SimCluster::Homogeneous(DefaultDevice(), 4);
  ASSERT_EQ(cluster.num_shards(), 4);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(cluster.device(s).name, DefaultDevice().name);
    EXPECT_GT(cluster.device(s).link_bandwidth_gbps, 0.0);
  }
}

TEST(InterconnectRooflineTest, LatencyFloorAndBandwidthAsymptote) {
  DeviceSpec d = DefaultDevice();
  d.link_bandwidth_gbps = 100.0;
  d.link_latency_us = 4.0;
  const TimingModel model(d);
  EXPECT_EQ(model.InterconnectPhaseMs(0.0), 0.0);
  // Tiny transfer: latency-dominated.
  EXPECT_NEAR(model.InterconnectPhaseMs(64.0), 4e-3, 1e-4);
  // Large transfer: serialization-dominated. 100 MB at 100 GB/s = 1 ms.
  EXPECT_NEAR(model.InterconnectPhaseMs(1e8), 1.0 + 4e-3, 2e-2);
  // No interconnect -> no time, however large the volume.
  DeviceSpec isolated = d;
  isolated.link_bandwidth_gbps = 0.0;
  EXPECT_EQ(TimingModel(isolated).InterconnectPhaseMs(1e9), 0.0);
}

TEST(InterconnectRooflineTest, AllToAllMsUsesReportVolumes) {
  DeviceSpec d = DefaultDevice();
  d.link_bandwidth_gbps = 50.0;
  d.link_latency_us = 2.0;
  const TimingModel model(d);
  TrafficReport r;
  r.alltoall_dispatch_bytes = 4e8;  // spread over 4 shards: 1e8 per link
  r.alltoall_combine_bytes = 4e8;
  EXPECT_EQ(model.AllToAllMs(r, 1), 0.0);
  const double phase_ms = 2e-3 + 1e8 / (50.0 * 1e9) * 1e3;
  EXPECT_NEAR(model.AllToAllMs(r, 4), 2.0 * phase_ms, 1e-6);

  // The volumes survive report addition (step aggregation).
  TrafficReport sum = r + r;
  EXPECT_DOUBLE_EQ(sum.alltoall_dispatch_bytes, 8e8);
  EXPECT_DOUBLE_EQ(sum.alltoall_combine_bytes, 8e8);
}

}  // namespace
}  // namespace serving
}  // namespace samoyeds
