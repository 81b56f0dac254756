// Multi-threaded expert execution pool with per-shard work queues and
// tile-granular scheduling.
//
// Independent experts in one MoE layer share no state: each reads its own
// Samoyeds-encoded weights and a disjoint SEL-selected slice of the
// activation matrix. Within one expert, every *token* is independent too
// (output columns of the SSMM chain depend only on their own input column),
// so ParallelMoeForwardSamoyeds fans work out at tile granularity: a hot
// expert's token set splits into contiguous tiles, each a full
// gate/up/act/down pipeline over its slice, writing disjoint rows of the
// per-expert output. One skewed expert therefore no longer serializes the
// step behind a single worker.
//
// The split follows each shard's routed load. An executor's fair share is
// the shard's routed tokens over its executors (at least 16 tokens); an
// expert within its share runs as one tile, and one above it splits into
// one tile per share, at most one per executor. When several experts
// already keep a shard's executors busy, none is cut, so every tile keeps
// the widest SEL panel it can. Shared experts split their home token range
// into one tile per executor (at least 16 tokens each).
//
// Expert-parallel sharding partitions the pool into per-shard work queues
// — one simulated device per shard. Workers are pinned to shards (worker w
// homes on shard w % shards; with fewer workers than shards, worker w
// serves every shard s with s % threads == w, so every queue always has a
// server), and a worker only ever executes tasks of the shards it serves:
// a simulated device's workers never run another device's experts. Only the
// waiting submitting thread (below) helps every shard, so host wall-clock
// understates shard imbalance; the modeled clock, computed from routing
// plans, does not depend on who ran a task. A shard whose experts received
// no tokens gets no tasks at all.
//
// Per-expert outputs fold back on the submitting thread in ascending
// *global* expert order — a fixed order independent of shard placement,
// tile split, thread count, and completion timing — so results are
// bit-identical to the sequential MoeForwardSamoyeds at any shard/thread
// count (see ExpertPoolTilingTest and ShardedMoeForwardTest).
//
// Each execution slot (worker threads 1..N, submitting thread 0) owns a
// persistent SsmmWorkspace, so steady-state forwards allocate nothing on
// the kernel path. Workers are shard-pinned, so slots — and their
// workspaces — partition by shard exactly like device-local scratch would
// (threads < shards degrades gracefully: a worker serving several shards
// reuses one workspace across them).
//
// The submitting thread is an executor too, in threaded mode as well as
// inline: while it waits in WaitIdle it runs queued tasks as slot 0, taking
// them from every shard's queue, and blocks only once every queue is empty
// and tasks are still in flight. The fair share therefore counts it as one
// more executor of every shard. Only one thread may wait at a time (a debug
// assertion checks it), and it must be the one that submitted.
//
// Observability: each worker registers a named trace lane at spawn
// ("shard2.worker3" when pinned to one shard), and — at --trace-detail=full
// — every tile executes inside an obs::ScopedSpan tagged with its expert
// id (the tiles the submitting thread runs land on its own lane, inside
// its barrier span), so a Perfetto timeline shows per-shard worker
// occupancy, tile-level load balance, and the dispatch/barrier/fold phases
// of each MoE layer.
// Tracing emits into per-thread ring buffers and never synchronizes
// workers, so it cannot perturb completion order (outputs stay
// bit-identical with tracing on or off).

#ifndef SAMOYEDS_SRC_SERVING_EXPERT_POOL_H_
#define SAMOYEDS_SRC_SERVING_EXPERT_POOL_H_

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/core/ssmm_workspace.h"
#include "src/moe/moe_layer.h"
#include "src/serving/shard_plan.h"

namespace samoyeds {
namespace serving {

class ExpertPool {
 public:
  // threads <= 1 runs every task inline on the caller (no workers spawned,
  // any shard id executes immediately — the one-device degenerate case).
  // shards >= 1 partitions the queues as described above.
  explicit ExpertPool(int threads, int shards = 1);
  ~ExpertPool();

  ExpertPool(const ExpertPool&) = delete;
  ExpertPool& operator=(const ExpertPool&) = delete;

  // Runs `task` on a worker serving `shard` or on the caller once it waits
  // in WaitIdle; in inline mode, immediately on the caller. Templated so
  // inline execution never pays the std::function type-erasure allocation —
  // the single-threaded engine hot path stays allocation-free.
  template <typename Fn>
  void SubmitToShard(int shard, Fn&& task) {
    assert(shard >= 0 && shard < shards());
    submitted_.fetch_add(1, std::memory_order_relaxed);
    if (workers_.empty()) {
      ++shard_submitted_[static_cast<size_t>(shard)];
      task();
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++shard_submitted_[static_cast<size_t>(shard)];
      queues_[static_cast<size_t>(shard)].emplace_back(std::forward<Fn>(task));
      ++in_flight_;
    }
    // One wakeup, on the condition variable of the worker group serving this
    // shard. Workers in a group serve exactly the same shard set (see
    // GroupOf), so any woken waiter can take the task — no lost wakeups, no
    // thundering herd across unrelated shards.
    group_cvs_[static_cast<size_t>(GroupOf(shard))].notify_one();
  }

  // Shard-agnostic submission (queue 0) for work that is not expert-bound.
  template <typename Fn>
  void Submit(Fn&& task) {
    SubmitToShard(0, std::forward<Fn>(task));
  }

  // Runs queued tasks of every shard on the calling thread (slot 0) until
  // the queues are empty, then blocks until every submitted task has
  // finished. Tasks must not Submit; one waiter at a time.
  void WaitIdle();

  int threads() const { return static_cast<int>(workers_.size()); }
  int shards() const { return static_cast<int>(queues_.size()); }

  // Workers dedicated to `shard` (1 in inline mode; with threads < shards a
  // server shared between shards still counts as 1). The tile split counts
  // these plus the waiting caller in threaded mode.
  int ShardWorkers(int shard) const;

  // Distinct execution slots: one per worker plus slot 0 for the submitting
  // thread, which executes tasks in both modes. Index per-slot workspaces
  // with CurrentSlot().
  int slots() const { return static_cast<int>(workers_.size()) + 1; }

  // Slot of the calling thread: this pool's workers occupy 1..threads();
  // any other thread (inline execution, the engine thread inside WaitIdle)
  // is slot 0.
  static int CurrentSlot();

  // Tasks ever submitted, including inline-mode ones — the regression hook
  // tile-scheduling tests assert on (e.g. a zero-token expert must submit
  // nothing).
  int64_t submitted_total() const { return submitted_.load(std::memory_order_relaxed); }
  // Per-shard-queue task counts (read after WaitIdle, or from the
  // submitting thread in inline mode). A shard with no routed tokens must
  // stay at zero.
  int64_t submitted_to_shard(int shard) const;

 private:
  // True when worker `worker` serves `shard` under the pinning rule above.
  static bool Serves(int worker, int shard, int threads, int shards);
  // Wakeup group of a shard (and, symmetrically, of worker w via
  // w % num_groups): with min(threads, shards) groups, workers sharing a
  // group serve exactly the same shard set, making single-notify sound.
  int GroupOf(int shard) const {
    return shard % static_cast<int>(group_cvs_.size());
  }
  void WorkerLoop(int slot, std::vector<int> served);

  std::mutex mu_;
  // One condition variable per worker group (empty in inline mode).
  std::vector<std::condition_variable> group_cvs_;
  std::condition_variable idle_;
  std::vector<std::deque<std::function<void()>>> queues_;  // one per shard
  std::vector<int64_t> shard_submitted_;
  int64_t in_flight_ = 0;
  bool stopping_ = false;
  bool waiting_ = false;  // a thread is inside WaitIdle
  std::atomic<int64_t> submitted_{0};
  std::vector<std::thread> workers_;
};

// Persistent scratch for ParallelMoeForwardSamoyeds: per-expert output
// buffers, per-tile selections, and one SsmmWorkspace per execution slot.
// Reused across calls; steady-state iterations at a fixed shape do not
// allocate.
struct ParallelMoeWorkspace {
  std::vector<MatrixF> expert_out;     // routed experts, tokens_e x hidden
  std::vector<MatrixF> shared_out;     // shared experts, tokens x hidden
  std::vector<Selection> tile_sel;     // one per in-flight tile
  std::vector<int64_t> shard_load;     // routed tokens per shard
  std::vector<SsmmWorkspace> slot_ws;  // one per pool slot
};

// MoeForwardSamoyeds with tile-granular execution fanned out over `pool`.
// Bit-identical to the sequential MoeForwardSamoyeds at any thread count.
MatrixF ParallelMoeForwardSamoyeds(ExpertPool& pool, const MatrixF& x,
                                   const SamoyedsMoeLayerWeights& w, const RoutingPlan& plan,
                                   Activation act);

// Zero-allocation variant writing into `out` (reshaped to tokens x hidden).
// `backend` runs every expert's SSMMs; every backend gives the same bits.
void ParallelMoeForwardSamoyeds(ExpertPool& pool, const MatrixF& x,
                                const SamoyedsMoeLayerWeights& w, const RoutingPlan& plan,
                                Activation act, ParallelMoeWorkspace& ws, MatrixF& out,
                                KernelBackend backend = KernelBackend::kScalar);

// Expert-parallel sharded execution: each routed expert's tiles go to its
// placement shard's queue (tile split against that shard's routed load and
// executors); shared experts run data-parallel, each shard processing its
// home token range. The fold still walks experts in ascending global id —
// a fixed order independent of placement — so outputs are bit-identical to
// the unsharded overloads at any shard/thread count.
void ParallelMoeForwardSamoyeds(ExpertPool& pool, const MatrixF& x,
                                const SamoyedsMoeLayerWeights& w, const RoutingPlan& plan,
                                Activation act, const ExpertShardPlan& placement,
                                ParallelMoeWorkspace& ws, MatrixF& out,
                                KernelBackend backend = KernelBackend::kScalar);

}  // namespace serving
}  // namespace samoyeds

#endif  // SAMOYEDS_SRC_SERVING_EXPERT_POOL_H_
