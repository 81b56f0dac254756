// Tile-granular expert scheduling: bit-determinism across thread counts,
// tile splits, and expert-parallel shard counts (including pathologically
// skewed routing), workspace reuse, the task-accounting invariants (a hot
// expert splits, experts within the fair share of their shard's load run
// whole, a zero-token expert submits nothing, a shard whose experts are all
// idle receives no tasks), and the caller running queued tasks while it
// waits.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/moe/moe_layer.h"
#include "src/moe/router.h"
#include "src/serving/expert_pool.h"
#include "src/serving/shard_plan.h"
#include "src/tensor/rng.h"
#include "tests/test_util.h"

namespace samoyeds {
namespace serving {
namespace {

MoeModelConfig SmallConfig(int experts, int shared) {
  MoeModelConfig cfg;
  cfg.name = "tile-test";
  cfg.num_experts = experts;
  cfg.hidden = 32;
  cfg.intermediate = 64;
  cfg.top_k = 1;
  cfg.shared_experts = shared;
  return cfg;
}

// Top-1 plan routing token t to expert_of(t) with unit weight.
template <typename ExpertOf>
RoutingPlan Top1Plan(int64_t tokens, int num_experts, const ExpertOf& expert_of) {
  RoutingPlan plan;
  plan.num_experts = num_experts;
  plan.top_k = 1;
  plan.tokens = tokens;
  plan.expert_tokens.resize(static_cast<size_t>(num_experts));
  plan.expert_gate.resize(static_cast<size_t>(num_experts));
  for (int64_t t = 0; t < tokens; ++t) {
    const int e = expert_of(t);
    plan.expert_tokens[static_cast<size_t>(e)].push_back(static_cast<int32_t>(t));
    plan.token_assignments.emplace_back(e, 1.0f);
    plan.expert_gate[static_cast<size_t>(e)].push_back(1.0f);
  }
  EXPECT_TRUE(plan.IsConsistent());
  return plan;
}

// All tokens routed to expert `hot` with unit weight; every other expert
// idle.
RoutingPlan SkewedPlan(int64_t tokens, int num_experts, int hot) {
  return Top1Plan(tokens, num_experts, [hot](int64_t) { return hot; });
}

TEST(ExpertPoolTilingTest, PathologicalSkewIsBitDeterministicAcrossThreadCounts) {
  Rng rng(901);
  const MoeModelConfig cfg = SmallConfig(4, 1);
  const MoeLayerWeights dense = MoeLayerWeights::Random(rng, cfg);
  const SamoyedsMoeLayerWeights sw =
      SamoyedsMoeLayerWeights::Encode(dense, SamoyedsConfig{1, 2, 32});
  const MatrixF x = RandomBf16Matrix(rng, 96, cfg.hidden);

  const RoutingPlan plan = SkewedPlan(96, cfg.num_experts, /*hot=*/1);
  const MatrixF sequential = MoeForwardSamoyeds(x, sw, plan, Activation::kSilu);
  for (int threads : {1, 2, 8}) {
    ExpertPool pool(threads);
    ParallelMoeWorkspace ws;
    MatrixF out;
    // Twice through the same workspace: reuse must not perturb results.
    for (int round = 0; round < 2; ++round) {
      ParallelMoeForwardSamoyeds(pool, x, sw, plan, Activation::kSilu, ws, out);
      ASSERT_TRUE(out == sequential) << "threads=" << threads << " round=" << round;
    }
  }
}

TEST(ExpertPoolTilingTest, HotExpertSplitsIntoMultipleTiles) {
  Rng rng(902);
  const MoeModelConfig cfg = SmallConfig(4, 0);
  const MoeLayerWeights dense = MoeLayerWeights::Random(rng, cfg);
  const SamoyedsMoeLayerWeights sw =
      SamoyedsMoeLayerWeights::Encode(dense, SamoyedsConfig{1, 2, 32});
  const MatrixF x = RandomBf16Matrix(rng, 128, cfg.hidden);
  const RoutingPlan plan = SkewedPlan(128, cfg.num_experts, /*hot=*/0);

  ExpertPool pool(4);
  ParallelMoeWorkspace ws;
  MatrixF out;
  const int64_t before = pool.submitted_total();
  ParallelMoeForwardSamoyeds(pool, x, sw, plan, Activation::kSilu, ws, out);
  const int64_t tasks = pool.submitted_total() - before;
  // One expert holds all 128 tokens: with 4 workers it must split into
  // several tiles (up to the workers plus the waiting caller), not run as a
  // single serializing task.
  EXPECT_GT(tasks, 1);
  EXPECT_LE(tasks, 5);
}

// Uniform routing over 8 experts: 24 tokens each.
RoutingPlan UniformPlan() {
  return Top1Plan(192, 8, [](int64_t t) { return static_cast<int>(t % 8); });
}

// Expert 0 holds 128 of 192 tokens, twice the fair share of 3 executors
// (64); the other 64 tokens spread over experts 1..7.
RoutingPlan HotPlan() {
  return Top1Plan(192, 8, [](int64_t t) { return t % 3 != 2 ? 0 : 1 + static_cast<int>(t % 7); });
}

TEST(ExpertPoolTilingTest, UniformRoutingRunsEachExpertAsOneTile) {
  Rng rng(909);
  const MoeModelConfig cfg = SmallConfig(8, 0);
  const SamoyedsMoeLayerWeights sw = SamoyedsMoeLayerWeights::Encode(
      MoeLayerWeights::Random(rng, cfg), SamoyedsConfig{1, 2, 32});
  const MatrixF x = RandomBf16Matrix(rng, 192, cfg.hidden);
  // Two workers and the waiting caller: 3 executors, fair share 64 tokens.
  // Eight 24-token experts already keep them busy, so none is cut.
  ExpertPool pool(2);
  ParallelMoeWorkspace ws;
  MatrixF out;
  ParallelMoeForwardSamoyeds(pool, x, sw, UniformPlan(), Activation::kSilu, ws, out);
  EXPECT_EQ(pool.submitted_total(), 8);
}

TEST(ExpertPoolTilingTest, ExpertAboveTwiceTheFairShareSplits) {
  Rng rng(910);
  const MoeModelConfig cfg = SmallConfig(8, 0);
  const SamoyedsMoeLayerWeights sw = SamoyedsMoeLayerWeights::Encode(
      MoeLayerWeights::Random(rng, cfg), SamoyedsConfig{1, 2, 32});
  const MatrixF x = RandomBf16Matrix(rng, 192, cfg.hidden);
  const RoutingPlan plan = HotPlan();
  ASSERT_GE(plan.TokensForExpert(0), 2 * 64);
  int64_t cold_experts = 0;
  for (int e = 1; e < 8; ++e) {
    ASSERT_LE(plan.TokensForExpert(e), 64);
    cold_experts += plan.TokensForExpert(e) > 0 ? 1 : 0;
  }
  ExpertPool pool(2);  // 3 executors
  ParallelMoeWorkspace ws;
  MatrixF out;
  ParallelMoeForwardSamoyeds(pool, x, sw, plan, Activation::kSilu, ws, out);
  // Each cold expert runs whole; the hot one splits into 2 to 3 tiles.
  const int64_t hot_tiles = pool.submitted_total() - cold_experts;
  EXPECT_GE(hot_tiles, 2);
  EXPECT_LE(hot_tiles, 3);
}

TEST(ExpertPoolTilingTest, LoadSplitIsBitIdenticalAtEveryThreadAndShardCount) {
  Rng rng(911);
  const MoeModelConfig cfg = SmallConfig(8, 1);
  const SamoyedsMoeLayerWeights sw = SamoyedsMoeLayerWeights::Encode(
      MoeLayerWeights::Random(rng, cfg), SamoyedsConfig{1, 2, 32});
  const MatrixF x = RandomBf16Matrix(rng, 192, cfg.hidden);
  for (const RoutingPlan& plan : {UniformPlan(), HotPlan()}) {
    const MatrixF sequential = MoeForwardSamoyeds(x, sw, plan, Activation::kSilu);
    for (int threads = 1; threads <= 4; ++threads) {
      for (int shards : {1, 2}) {
        ExpertPool pool(threads, shards);
        const ExpertShardPlan placement = ExpertShardPlan::RoundRobin(cfg.num_experts, shards);
        ParallelMoeWorkspace ws;
        MatrixF out;
        ParallelMoeForwardSamoyeds(pool, x, sw, plan, Activation::kSilu, placement, ws, out);
        EXPECT_TRUE(out == sequential) << "threads=" << threads << " shards=" << shards;
      }
    }
  }
}

// A latch the blocked tasks below wait on with a bounded timeout, so a pool
// that never runs the releasing task fails the test instead of hanging it.
class Latch {
 public:
  void Arrive() {
    std::lock_guard<std::mutex> lock(mu_);
    ++arrived_;
    cv_.notify_all();
  }
  // Waits for `count` arrivals; false on timeout.
  bool WaitFor(int count) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10), [&] { return arrived_ >= count; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
};

// Occupies `workers` pool workers of `shard` with tasks blocked on
// `release`, returning once all of them are running. A task that times out
// counts itself in `timeouts`.
void BlockWorkers(ExpertPool& pool, int shard, int workers, Latch& started, Latch& release,
                  std::atomic<int>& timeouts) {
  for (int i = 0; i < workers; ++i) {
    pool.SubmitToShard(shard, [&started, &release, &timeouts] {
      started.Arrive();
      if (!release.WaitFor(1)) {
        timeouts.fetch_add(1);
      }
    });
  }
  ASSERT_TRUE(started.WaitFor(workers)) << "workers never picked up the blocking tasks";
}

TEST(ExpertPoolTest, WaitIdleRunsQueuedTasksOnTheCaller) {
  ExpertPool pool(2);
  Latch started;
  Latch release;
  std::atomic<int> timeouts{0};
  BlockWorkers(pool, /*shard=*/0, /*workers=*/2, started, release, timeouts);
  // Both workers are blocked until this task runs, so only the caller,
  // waiting in WaitIdle, can run it.
  int slot = -1;
  pool.Submit([&slot, &release] {
    slot = ExpertPool::CurrentSlot();
    release.Arrive();
  });
  pool.WaitIdle();
  EXPECT_EQ(slot, 0);
  EXPECT_EQ(timeouts.load(), 0);
}

TEST(ExpertPoolTest, WaitIdleDrainsAShardWhoseWorkersAreAllBlocked) {
  // Four workers over two shards: workers 1 and 3 (0-based) serve shard 1.
  ExpertPool pool(4, /*shards=*/2);
  ASSERT_EQ(pool.ShardWorkers(1), 2);
  Latch started;
  Latch release;
  std::atomic<int> timeouts{0};
  BlockWorkers(pool, /*shard=*/1, pool.ShardWorkers(1), started, release, timeouts);
  // Shard 1's queue still drains, in order, on the caller; the last task
  // frees the blocked workers.
  std::vector<int> slots(8, -1);
  for (size_t i = 0; i < slots.size(); ++i) {
    pool.SubmitToShard(1, [&slots, i] { slots[i] = ExpertPool::CurrentSlot(); });
  }
  pool.SubmitToShard(1, [&release] { release.Arrive(); });
  pool.WaitIdle();
  EXPECT_EQ(slots, std::vector<int>(8, 0));
  EXPECT_EQ(timeouts.load(), 0);
  EXPECT_EQ(pool.submitted_to_shard(1), 2 + 8 + 1);
}

TEST(ExpertPoolTilingTest, ZeroTokenExpertSubmitsNoTasks) {
  Rng rng(903);
  const MoeModelConfig cfg = SmallConfig(3, 1);
  const MoeLayerWeights dense = MoeLayerWeights::Random(rng, cfg);
  const SamoyedsMoeLayerWeights sw =
      SamoyedsMoeLayerWeights::Encode(dense, SamoyedsConfig{1, 2, 32});
  const MatrixF x = RandomBf16Matrix(rng, 16, cfg.hidden);
  // Experts 0 and 2 idle, expert 1 takes all 16 tokens.
  const RoutingPlan plan = SkewedPlan(16, cfg.num_experts, /*hot=*/1);

  // Inline pool: exactly one tile per non-empty expert plus one per shared
  // expert. The two zero-token experts must contribute nothing.
  ExpertPool pool(1);
  ParallelMoeWorkspace ws;
  MatrixF out;
  const int64_t before = pool.submitted_total();
  ParallelMoeForwardSamoyeds(pool, x, sw, plan, Activation::kSilu, ws, out);
  EXPECT_EQ(pool.submitted_total() - before, 2);  // hot expert + shared expert
}

TEST(ExpertPoolTilingTest, WorkspaceForwardMatchesAllocatingForward) {
  Rng rng(904);
  const MoeModelConfig cfg = SmallConfig(6, 2);
  const MoeLayerWeights dense = MoeLayerWeights::Random(rng, cfg);
  const SamoyedsMoeLayerWeights sw =
      SamoyedsMoeLayerWeights::Encode(dense, SamoyedsConfig{1, 2, 32});
  const MatrixF x = RandomBf16Matrix(rng, 40, cfg.hidden);
  const RoutingPlan plan = Route(x, sw.router_gate, cfg.top_k);

  const MatrixF baseline = MoeForwardSamoyeds(x, sw, plan, Activation::kSilu);
  MoeWorkspace ws;
  MatrixF out;
  // Same workspace across two different shapes: run a smaller problem first
  // so buffer reuse with stale content is exercised.
  const MatrixF x_small = RandomBf16Matrix(rng, 8, cfg.hidden);
  const RoutingPlan plan_small = Route(x_small, sw.router_gate, cfg.top_k);
  MoeForwardSamoyeds(x_small, sw, plan_small, Activation::kSilu, ws, out);
  MoeForwardSamoyeds(x, sw, plan, Activation::kSilu, ws, out);
  EXPECT_TRUE(out == baseline);

  ExpertPool pool(3);
  const MatrixF parallel = ParallelMoeForwardSamoyeds(pool, x, sw, plan, Activation::kSilu);
  EXPECT_TRUE(parallel == baseline);
}

// ---- Expert-parallel sharding ----------------------------------------------

TEST(ShardedMoeForwardTest, BitIdenticalAcrossShardAndThreadCounts) {
  Rng rng(905);
  const MoeModelConfig cfg = SmallConfig(8, 1);
  const MoeLayerWeights dense = MoeLayerWeights::Random(rng, cfg);
  const SamoyedsMoeLayerWeights sw =
      SamoyedsMoeLayerWeights::Encode(dense, SamoyedsConfig{1, 2, 32});
  const MatrixF x = RandomBf16Matrix(rng, 96, cfg.hidden);
  const RoutingPlan plan = Route(x, sw.router_gate, /*top_k=*/2);
  const MatrixF sequential = MoeForwardSamoyeds(x, sw, plan, Activation::kSilu);

  for (int shards : {1, 2, 4}) {
    for (int threads : {1, 2, 8}) {
      const ExpertShardPlan placements[] = {
          ExpertShardPlan::RoundRobin(cfg.num_experts, shards),
          ExpertShardPlan::GateStatsAware(sw.router_gate, shards),
      };
      for (const ExpertShardPlan& placement : placements) {
        ExpertPool pool(threads, shards);
        ParallelMoeWorkspace ws;
        MatrixF out;
        // Twice through the same workspace: reuse must not perturb results.
        for (int round = 0; round < 2; ++round) {
          ParallelMoeForwardSamoyeds(pool, x, sw, plan, Activation::kSilu, placement, ws, out);
          ASSERT_TRUE(out == sequential)
              << "shards=" << shards << " threads=" << threads << " round=" << round;
        }
      }
    }
  }
}

TEST(ShardedMoeForwardTest, SkewedRoutingStaysBitIdenticalWhenSharded) {
  Rng rng(906);
  const MoeModelConfig cfg = SmallConfig(4, 0);
  const MoeLayerWeights dense = MoeLayerWeights::Random(rng, cfg);
  const SamoyedsMoeLayerWeights sw =
      SamoyedsMoeLayerWeights::Encode(dense, SamoyedsConfig{1, 2, 32});
  const MatrixF x = RandomBf16Matrix(rng, 128, cfg.hidden);
  // Everything on expert 1 — one shard does all the work, the rest idle.
  const RoutingPlan plan = SkewedPlan(128, cfg.num_experts, /*hot=*/1);
  const MatrixF sequential = MoeForwardSamoyeds(x, sw, plan, Activation::kSilu);

  for (int shards : {2, 4}) {
    ExpertPool pool(4, shards);
    const ExpertShardPlan placement = ExpertShardPlan::RoundRobin(cfg.num_experts, shards);
    ParallelMoeWorkspace ws;
    MatrixF out;
    ParallelMoeForwardSamoyeds(pool, x, sw, plan, Activation::kSilu, placement, ws, out);
    EXPECT_TRUE(out == sequential) << "shards=" << shards;
  }
}

TEST(ShardedMoeForwardTest, ZeroTokenShardReceivesNoTasks) {
  Rng rng(907);
  const MoeModelConfig cfg = SmallConfig(4, 0);  // no shared experts
  const MoeLayerWeights dense = MoeLayerWeights::Random(rng, cfg);
  const SamoyedsMoeLayerWeights sw =
      SamoyedsMoeLayerWeights::Encode(dense, SamoyedsConfig{1, 2, 32});
  const MatrixF x = RandomBf16Matrix(rng, 64, cfg.hidden);
  // All tokens to expert 1, which round-robin places on shard 1 of 2: shard
  // 0 (experts 0 and 2) must see zero submissions.
  const RoutingPlan plan = SkewedPlan(64, cfg.num_experts, /*hot=*/1);

  ExpertPool pool(4, /*shards=*/2);
  const ExpertShardPlan placement = ExpertShardPlan::RoundRobin(cfg.num_experts, 2);
  ParallelMoeWorkspace ws;
  MatrixF out;
  ParallelMoeForwardSamoyeds(pool, x, sw, plan, Activation::kSilu, placement, ws, out);
  EXPECT_EQ(pool.submitted_to_shard(0), 0);
  EXPECT_GT(pool.submitted_to_shard(1), 0);
  EXPECT_EQ(pool.submitted_total(), pool.submitted_to_shard(0) + pool.submitted_to_shard(1));
}

TEST(ShardedMoeForwardTest, SharedExpertsSplitAcrossShardHomeRanges) {
  Rng rng(908);
  const MoeModelConfig cfg = SmallConfig(2, 1);  // one shared expert
  const MoeLayerWeights dense = MoeLayerWeights::Random(rng, cfg);
  const SamoyedsMoeLayerWeights sw =
      SamoyedsMoeLayerWeights::Encode(dense, SamoyedsConfig{1, 2, 32});
  const MatrixF x = RandomBf16Matrix(rng, 64, cfg.hidden);
  const RoutingPlan plan = SkewedPlan(64, cfg.num_experts, /*hot=*/0);
  const MatrixF sequential = MoeForwardSamoyeds(x, sw, plan, Activation::kSilu);

  // The shared expert covers every token, so with 2 shards *both* queues
  // receive work even though all routed tokens sit on shard 0.
  ExpertPool pool(2, /*shards=*/2);
  const ExpertShardPlan placement = ExpertShardPlan::RoundRobin(cfg.num_experts, 2);
  ParallelMoeWorkspace ws;
  MatrixF out;
  ParallelMoeForwardSamoyeds(pool, x, sw, plan, Activation::kSilu, placement, ws, out);
  EXPECT_TRUE(out == sequential);
  EXPECT_GT(pool.submitted_to_shard(0), 0);
  EXPECT_GT(pool.submitted_to_shard(1), 0);
}

TEST(ExpertPoolShardingTest, ShardWorkersCoverEveryQueue) {
  // threads >= shards: dedicated workers, split as evenly as possible.
  {
    ExpertPool pool(5, 2);
    EXPECT_EQ(pool.ShardWorkers(0) + pool.ShardWorkers(1), 5);
    EXPECT_GE(pool.ShardWorkers(0), 2);
    EXPECT_GE(pool.ShardWorkers(1), 2);
  }
  // threads < shards: every shard still has a (shared) server.
  {
    ExpertPool pool(2, 4);
    for (int s = 0; s < 4; ++s) {
      EXPECT_GE(pool.ShardWorkers(s), 1);
    }
  }
  // Inline mode: the submitting thread serves everything.
  {
    ExpertPool pool(1, 4);
    EXPECT_EQ(pool.threads(), 0);
    for (int s = 0; s < 4; ++s) {
      EXPECT_EQ(pool.ShardWorkers(s), 1);
    }
  }
}

TEST(ExpertPoolShardingTest, TasksRunOnEveryShardQueue) {
  for (int threads : {1, 2, 8}) {
    ExpertPool pool(threads, /*shards=*/3);
    std::vector<int> counts(3 * 64, 0);
    for (int round = 0; round < 4; ++round) {
      for (int s = 0; s < 3; ++s) {
        for (int i = 0; i < 64; ++i) {
          pool.SubmitToShard(s, [&counts, s, i] { counts[static_cast<size_t>(s * 64 + i)]++; });
        }
      }
      pool.WaitIdle();
    }
    for (int v : counts) {
      EXPECT_EQ(v, 4) << "threads=" << threads;
    }
    for (int s = 0; s < 3; ++s) {
      EXPECT_EQ(pool.submitted_to_shard(s), 4 * 64);
    }
    EXPECT_EQ(pool.submitted_total(), 3 * 4 * 64);
  }
}

}  // namespace
}  // namespace serving
}  // namespace samoyeds
