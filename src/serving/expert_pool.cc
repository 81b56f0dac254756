#include "src/serving/expert_pool.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <numeric>
#include <utility>

#include "src/moe/expert.h"
#include "src/obs/tracer.h"

namespace samoyeds {
namespace serving {

namespace {

thread_local int t_slot = 0;

// No tile is cut smaller than this: tiny slices drown in per-call overhead.
constexpr int64_t kMinTileTokens = 16;

// Contiguous token tiles of one shared expert's home token range: one per
// executor of the shard, at least kMinTileTokens each. The split never
// changes results — per-token outputs are independent of tile grouping —
// only load balance.
int64_t NumTiles(int64_t tokens, int threads) {
  if (tokens <= 0) {
    return 0;
  }
  if (threads <= 1) {
    return 1;
  }
  return std::min<int64_t>(threads, (tokens + kMinTileTokens - 1) / kMinTileTokens);
}

// Tiles of one routed expert holding `tokens` of its shard's `shard_load`
// routed tokens: one, unless the expert exceeds an executor's fair share of
// that load (at least kMinTileTokens), then one per share, at most one per
// executor. Experts that already keep the executors busy run whole, so
// every tile keeps a wide SEL panel; only a hot expert is cut.
int64_t ExpertTiles(int64_t tokens, int64_t shard_load, int executors) {
  if (tokens <= 0) {
    return 0;
  }
  const int64_t share = std::max(kMinTileTokens, (shard_load + executors - 1) / executors);
  return std::min<int64_t>(executors, (tokens + share - 1) / share);
}

}  // namespace

int ExpertPool::CurrentSlot() { return t_slot; }

bool ExpertPool::Serves(int worker, int shard, int threads, int shards) {
  // threads >= shards: workers pin round-robin, one shard each. Otherwise
  // each worker serves the shards that hash to it, so no queue is orphaned.
  return threads >= shards ? worker % shards == shard : shard % threads == worker;
}

ExpertPool::ExpertPool(int threads, int shards)
    : queues_(static_cast<size_t>(std::max(1, shards))),
      shard_submitted_(static_cast<size_t>(std::max(1, shards)), 0) {
  assert(shards >= 1);
  if (threads <= 1) {
    return;  // inline mode
  }
  group_cvs_ = std::vector<std::condition_variable>(
      static_cast<size_t>(std::min(threads, this->shards())));
  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    std::vector<int> served;
    for (int s = 0; s < this->shards(); ++s) {
      if (Serves(i, s, threads, this->shards())) {
        served.push_back(s);
      }
    }
    workers_.emplace_back(
        [this, slot = i + 1, served = std::move(served)] { WorkerLoop(slot, served); });
  }
}

ExpertPool::~ExpertPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  for (auto& cv : group_cvs_) {
    cv.notify_all();
  }
  for (auto& w : workers_) {
    w.join();
  }
}

void ExpertPool::WaitIdle() {
  if (workers_.empty()) {
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  assert(!waiting_ && "only one thread may wait on the pool at a time");
  waiting_ = true;
  // The caller is slot 0, one more executor of every shard: it takes queued
  // tasks exactly as WorkerLoop does and blocks only once every queue is
  // empty. Nothing can refill a queue meanwhile (tasks must not Submit, and
  // the one submitting thread is this one), so the wait below is the last.
  for (;;) {
    const auto queue = std::find_if(queues_.begin(), queues_.end(),
                                    [](const auto& q) { return !q.empty(); });
    if (queue == queues_.end()) {
      break;
    }
    std::function<void()> task = std::move(queue->front());
    queue->pop_front();
    lock.unlock();
    task();
    lock.lock();
    --in_flight_;
  }
  idle_.wait(lock, [this] { return in_flight_ == 0; });
  waiting_ = false;
}

int ExpertPool::ShardWorkers(int shard) const {
  const int threads = this->threads();
  if (threads <= 1) {
    return 1;  // inline mode: the submitting thread serves every shard
  }
  int count = 0;
  for (int w = 0; w < threads; ++w) {
    count += Serves(w, shard, threads, shards()) ? 1 : 0;
  }
  return std::max(1, count);
}

int64_t ExpertPool::submitted_to_shard(int shard) const {
  assert(shard >= 0 && shard < shards());
  return shard_submitted_[static_cast<size_t>(shard)];
}

void ExpertPool::WorkerLoop(int slot, std::vector<int> served) {
  t_slot = slot;
  // Name this worker's trace lane after its shard pinning, once at spawn
  // (threads >= shards pins one shard per worker; otherwise it serves
  // several and the shard tag would lie).
  char lane[48];
  if (served.size() == 1) {
    std::snprintf(lane, sizeof(lane), "shard%d.worker%d", served.front(), slot);
  } else {
    std::snprintf(lane, sizeof(lane), "worker%d", slot);
  }
  obs::SetThreadName(lane);
  // Every shard this worker serves maps to the same wakeup group (see
  // GroupOf), so waiting on that one condition variable covers them all.
  std::condition_variable& cv = group_cvs_[static_cast<size_t>((slot - 1) %
                                                              static_cast<int>(group_cvs_.size()))];
  auto next_queue = [this, &served]() -> std::deque<std::function<void()>>* {
    for (int s : served) {
      if (!queues_[static_cast<size_t>(s)].empty()) {
        return &queues_[static_cast<size_t>(s)];
      }
    }
    return nullptr;
  };
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      std::deque<std::function<void()>>* queue = nullptr;
      cv.wait(lock, [this, &next_queue, &queue] {
        queue = next_queue();
        return stopping_ || queue != nullptr;
      });
      if (queue == nullptr) {
        return;  // stopping and this worker's shards are drained
      }
      task = std::move(queue->front());
      queue->pop_front();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--in_flight_ == 0) {
        idle_.notify_all();
      }
    }
  }
}

namespace {

// Shared implementation: `placement == nullptr` is the unsharded path
// (everything on queue 0, tile split against the whole pool) and stays
// allocation-identical to the pre-sharding code.
void ForwardImpl(ExpertPool& pool, const MatrixF& x, const SamoyedsMoeLayerWeights& w,
                 const RoutingPlan& plan, Activation act, const ExpertShardPlan* placement,
                 KernelBackend backend, ParallelMoeWorkspace& ws, MatrixF& out) {
  assert(plan.tokens == x.rows());
  const size_t num_experts = w.experts.size();
  const size_t num_shared = w.shared_experts.size();
  const int64_t hidden = x.cols();
  const int64_t all_tokens = x.rows();
  const int num_shards = placement != nullptr ? placement->num_shards() : 1;
  assert(placement == nullptr || placement->num_experts() == static_cast<int>(num_experts));
  assert(placement != nullptr || pool.shards() == 1);
  // After a shard failover the plan spans fewer logical shards than the pool
  // has physical queues; logical shard s still submits to queue s and the
  // queues past num_shards() simply idle.
  assert(placement == nullptr || placement->num_shards() <= pool.shards());

  ws.slot_ws.resize(static_cast<size_t>(pool.slots()));
  ws.expert_out.resize(num_experts);
  ws.shared_out.resize(num_shared);

  const auto shard_of = [placement](size_t e) {
    return placement != nullptr ? placement->shard_of(static_cast<int>(e)) : 0;
  };
  // Executors of one shard's queue: its workers plus the caller, which runs
  // tasks while it waits in WaitIdle (inline mode: the caller alone).
  const auto shard_threads = [&pool](int shard) {
    return pool.threads() > 0 ? pool.ShardWorkers(shard) + 1 : 1;
  };

  // Each shard's routed load sets the fair share its experts split against.
  ws.shard_load.assign(static_cast<size_t>(num_shards), 0);
  for (size_t e = 0; e < num_experts; ++e) {
    ws.shard_load[static_cast<size_t>(shard_of(e))] += plan.TokensForExpert(static_cast<int>(e));
  }
  const auto expert_tiles = [&](size_t e) {
    const int shard = shard_of(e);
    return ExpertTiles(plan.TokensForExpert(static_cast<int>(e)),
                       ws.shard_load[static_cast<size_t>(shard)], shard_threads(shard));
  };

  // Size the tile array up front: tasks hold references into it, so it must
  // not reallocate while any task is in flight.
  size_t total_tiles = 0;
  for (size_t e = 0; e < num_experts; ++e) {
    total_tiles += static_cast<size_t>(expert_tiles(e));
  }
  size_t shared_tiles = 0;
  for (int s = 0; s < num_shards; ++s) {
    const int64_t range = ShardHomeBegin(s + 1, all_tokens, num_shards) -
                          ShardHomeBegin(s, all_tokens, num_shards);
    shared_tiles += static_cast<size_t>(NumTiles(range, shard_threads(s)));
  }
  total_tiles += num_shared * shared_tiles;
  if (ws.tile_sel.size() < total_tiles) {
    ws.tile_sel.resize(total_tiles);
  }

  // Fan out: each tile runs the full expert pipeline over a contiguous slice
  // of that expert's token list, on that expert's shard queue, and writes
  // disjoint rows of its per-expert output buffer. A zero-token expert
  // submits no tasks at all — so a shard whose experts are all idle stays
  // silent.
  size_t tile = 0;
  {
    obs::ScopedSpan dispatch("pool", "dispatch", obs::TraceDetail::kFull,
                             static_cast<int64_t>(all_tokens));
    for (size_t e = 0; e < num_experts; ++e) {
      const auto& tokens = plan.expert_tokens[e];
      const int64_t count = static_cast<int64_t>(tokens.size());
      if (count == 0) {
        continue;
      }
      const int shard = shard_of(e);
      MatrixF& expert_out = ws.expert_out[e];
      expert_out.Reshape(count, hidden);
      const int64_t tiles = expert_tiles(e);
      for (int64_t t = 0; t < tiles; ++t) {
        const int64_t t0 = t * count / tiles;
        const int64_t t1 = (t + 1) * count / tiles;
        Selection& sel = ws.tile_sel[tile++];
        sel.full_size = all_tokens;
        sel.indices.assign(tokens.begin() + t0, tokens.begin() + t1);
        const SamoyedsExpertWeights& weights = w.experts[e];
        const int64_t expert_id = static_cast<int64_t>(e);
        pool.SubmitToShard(shard, [&x, &weights, &sel, act, backend, &ws, &expert_out, t0,
                                   expert_id] {
          obs::ScopedSpan span("expert", "tile", obs::TraceDetail::kFull, expert_id);
          ExpertForwardSamoyeds(x, weights, sel, act,
                                ws.slot_ws[static_cast<size_t>(ExpertPool::CurrentSlot())],
                                expert_out, t0, backend);
        });
      }
    }
    // Shared experts process every token; under sharding they run
    // data-parallel, each shard covering its home token range.
    for (size_t s = 0; s < num_shared; ++s) {
      MatrixF& shared_out = ws.shared_out[s];
      shared_out.Reshape(all_tokens, hidden);
      for (int shard = 0; shard < num_shards; ++shard) {
        const int64_t begin = ShardHomeBegin(shard, all_tokens, num_shards);
        const int64_t end = ShardHomeBegin(shard + 1, all_tokens, num_shards);
        const int64_t range = end - begin;
        const int64_t tiles = NumTiles(range, shard_threads(shard));
        for (int64_t t = 0; t < tiles; ++t) {
          const int64_t t0 = begin + t * range / tiles;
          const int64_t t1 = begin + (t + 1) * range / tiles;
          Selection& sel = ws.tile_sel[tile++];
          sel.full_size = all_tokens;
          sel.indices.resize(static_cast<size_t>(t1 - t0));
          std::iota(sel.indices.begin(), sel.indices.end(), static_cast<int32_t>(t0));
          const SamoyedsExpertWeights& weights = w.shared_experts[s];
          const int64_t shared_id = static_cast<int64_t>(s);
          pool.SubmitToShard(shard, [&x, &weights, &sel, act, backend, &ws, &shared_out, t0,
                                     shared_id] {
            obs::ScopedSpan span("expert", "shared_tile", obs::TraceDetail::kFull, shared_id);
            ExpertForwardSamoyeds(x, weights, sel, act,
                                  ws.slot_ws[static_cast<size_t>(ExpertPool::CurrentSlot())],
                                  shared_out, t0, backend);
          });
        }
      }
    }
  }
  {
    obs::ScopedSpan barrier("pool", "barrier", obs::TraceDetail::kFull);
    pool.WaitIdle();
  }

  // Fixed-order accumulation — ascending global expert id, independent of
  // shard placement — keeps the result identical to the sequential path
  // regardless of thread timing, tile split, or shard count.
  obs::ScopedSpan fold("pool", "fold", obs::TraceDetail::kFull);
  out.Reshape(all_tokens, hidden);
  out.Fill(0.0f);
  for (size_t e = 0; e < num_experts; ++e) {
    if (plan.TokensForExpert(static_cast<int>(e)) == 0) {
      continue;
    }
    MoeScatterAdd(ws.expert_out[e], plan, static_cast<int>(e), out);
  }
  for (size_t s = 0; s < num_shared; ++s) {
    MatrixAxpy(1.0f, ws.shared_out[s], out);
  }
}

}  // namespace

void ParallelMoeForwardSamoyeds(ExpertPool& pool, const MatrixF& x,
                                const SamoyedsMoeLayerWeights& w, const RoutingPlan& plan,
                                Activation act, ParallelMoeWorkspace& ws, MatrixF& out,
                                KernelBackend backend) {
  ForwardImpl(pool, x, w, plan, act, /*placement=*/nullptr, backend, ws, out);
}

void ParallelMoeForwardSamoyeds(ExpertPool& pool, const MatrixF& x,
                                const SamoyedsMoeLayerWeights& w, const RoutingPlan& plan,
                                Activation act, const ExpertShardPlan& placement,
                                ParallelMoeWorkspace& ws, MatrixF& out,
                                KernelBackend backend) {
  ForwardImpl(pool, x, w, plan, act, &placement, backend, ws, out);
}

MatrixF ParallelMoeForwardSamoyeds(ExpertPool& pool, const MatrixF& x,
                                   const SamoyedsMoeLayerWeights& w, const RoutingPlan& plan,
                                   Activation act) {
  ParallelMoeWorkspace ws;
  MatrixF out;
  ParallelMoeForwardSamoyeds(pool, x, w, plan, act, ws, out);
  return out;
}

}  // namespace serving
}  // namespace samoyeds
