// Serving engine: batching invariants, scheduler policies, admission
// control, thread-pool determinism, and the end-to-end property that the
// continuous-batching incremental execution matches a full-sequence
// DecoderStackForwardReference call at bf16 tolerance and, under the scalar
// backend, DecoderStackForwardSamoyeds bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "src/core/samoyeds_kernel.h"
#include "src/moe/decoder_layer.h"
#include "src/serving/batch_assembler.h"
#include "src/serving/engine.h"
#include "src/serving/expert_pool.h"
#include "src/serving/request_queue.h"
#include "src/serving/scheduler.h"
#include "src/serving/trace.h"
#include "src/simgpu/timing_model.h"
#include "src/tensor/gemm_ref.h"
#include "src/tensor/rng.h"
#include "tests/test_util.h"

namespace samoyeds {
namespace serving {
namespace {

MoeModelConfig TinyConfig() {
  MoeModelConfig cfg;
  cfg.name = "tiny";
  cfg.num_experts = 4;
  cfg.hidden = 32;
  cfg.intermediate = 64;
  cfg.top_k = 2;
  cfg.shared_experts = 0;
  return cfg;
}

struct TinyModel {
  std::vector<DecoderLayerWeights> dense;      // masked, the reference
  std::vector<SamoyedsDecoderLayerWeights> sparse;
};

TinyModel BuildTinyModel(Rng& rng, int layers, const MoeModelConfig& cfg) {
  const SamoyedsConfig fmt{1, 2, 32};
  TinyModel model;
  for (int l = 0; l < layers; ++l) {
    DecoderLayerWeights w = DecoderLayerWeights::Random(rng, cfg);
    model.sparse.push_back(SamoyedsDecoderLayerWeights::Encode(w, fmt));
    for (auto& e : w.moe.experts) {
      e.ApplyMask(fmt);
    }
    for (auto& e : w.moe.shared_experts) {
      e.ApplyMask(fmt);
    }
    model.dense.push_back(std::move(w));
  }
  return model;
}

Request MakeTestRequest(Rng& rng, int64_t id, int64_t arrival, int64_t prompt, int64_t decode,
                        int64_t hidden) {
  TraceEntry e{arrival, prompt, decode};
  return MakeRequest(rng, id, e, hidden);
}

// ---- RequestQueue -----------------------------------------------------------

TEST(RequestQueueTest, DrainsByArrivalStep) {
  RequestQueue q;
  Request a;
  a.id = 1;
  a.arrival_step = 5;
  Request b;
  b.id = 2;
  b.arrival_step = 0;
  q.Push(a);
  q.Push(b);  // pushed out of order

  EXPECT_EQ(q.NextArrivalStep(), 0);
  auto now = q.DrainArrived(0);
  ASSERT_EQ(now.size(), 1u);
  EXPECT_EQ(now[0].id, 2);
  EXPECT_EQ(q.NextArrivalStep(), 5);
  EXPECT_TRUE(q.DrainArrived(4).empty());
  auto later = q.DrainArrived(5);
  ASSERT_EQ(later.size(), 1u);
  EXPECT_EQ(later[0].id, 1);
  EXPECT_TRUE(q.empty());
}

// ---- BatchAssembler ---------------------------------------------------------

TEST(BatchAssemblerTest, AssembleSplitRoundTrip) {
  Rng rng(11);
  const MatrixF a = rng.GaussianMatrix(6, 8);
  const MatrixF b = rng.GaussianMatrix(4, 8);

  std::vector<BatchAssembler::Contribution> parts;
  parts.push_back({10, &a, 0, 3, true});   // a rows 0..2
  parts.push_back({20, &b, 2, 1, false});  // b row 2
  parts.push_back({10, &a, 3, 2, false});  // a rows 3..4

  const AssembledBatch batch = BatchAssembler::Assemble(parts, 8);
  ASSERT_EQ(batch.total_rows(), 6);
  ASSERT_EQ(batch.slices.size(), 3u);
  EXPECT_EQ(batch.slices[1].row_begin, 3);
  EXPECT_EQ(batch.slices[1].request_id, 20);
  EXPECT_TRUE(batch.slices[0].is_prefill);
  EXPECT_EQ(batch.slices[2].position_begin, 3);

  // Batch rows are exact copies of the source rows.
  for (int64_t c = 0; c < 8; ++c) {
    EXPECT_EQ(batch.rows(3, c), b(2, c));
    EXPECT_EQ(batch.rows(5, c), a(4, c));
  }

  const auto split = BatchAssembler::Split(batch.rows, batch.slices);
  ASSERT_EQ(split.size(), 3u);
  EXPECT_EQ(split[0].rows(), 3);
  for (int64_t c = 0; c < 8; ++c) {
    EXPECT_EQ(split[1](0, c), b(2, c));
    EXPECT_EQ(split[2](1, c), a(4, c));
  }
}

// ---- Scheduler --------------------------------------------------------------

Request Sized(int64_t id, int64_t prompt, int64_t decode) {
  Request r;
  r.id = id;
  r.prompt_len = prompt;
  r.max_new_tokens = decode;
  return r;
}

TEST(SchedulerTest, FcfsAdmitsInArrivalOrderWithHeadOfLineBlocking) {
  SchedulerConfig cfg;
  cfg.policy = SchedulerPolicy::kFcfs;
  cfg.token_budget = 16;
  cfg.page_tokens = 4;
  cfg.max_pages = 6;
  Scheduler sched(cfg);
  sched.Enqueue(Sized(1, 8, 8));   // 16 tokens = 4 pages: blocked by the page cap below
  sched.Enqueue(Sized(2, 2, 2));   // 4 tokens = 1 page: would fit, but FCFS must not overtake

  // One 16-token sequence already running.
  const ResidentSnapshot resident{.used_pages = 4, .reserved_pages = 4};
  const auto decision = sched.Admit(/*decode_rows=*/1, resident);
  EXPECT_TRUE(decision.admitted.empty());
  EXPECT_TRUE(decision.rejected.empty());
  EXPECT_EQ(sched.pending(), 2);

  // Once the resident sequence retires, both fit, in arrival order.
  const auto next = sched.Admit(0, ResidentSnapshot{});
  ASSERT_EQ(next.admitted.size(), 2u);
  EXPECT_EQ(next.admitted[0].id, 1);
  EXPECT_EQ(next.admitted[1].id, 2);
}

TEST(SchedulerTest, TokenBudgetPolicyFillsLeftoverBudget) {
  SchedulerConfig cfg;
  cfg.policy = SchedulerPolicy::kTokenBudget;
  cfg.token_budget = 16;
  cfg.page_tokens = 4;
  cfg.max_pages = 6;
  Scheduler sched(cfg);
  sched.Enqueue(Sized(1, 8, 8));  // 4 pages: blocked by the page cap
  sched.Enqueue(Sized(2, 2, 2));  // 1 page: overtakes under token-budget packing

  // One 16-token sequence already running.
  const ResidentSnapshot resident{.used_pages = 4, .reserved_pages = 4};
  const auto decision = sched.Admit(1, resident);
  ASSERT_EQ(decision.admitted.size(), 1u);
  EXPECT_EQ(decision.admitted[0].id, 2);
  EXPECT_EQ(sched.pending(), 1);
}

TEST(SchedulerTest, SmallestFirstPrefersShortRequests) {
  SchedulerConfig cfg;
  cfg.policy = SchedulerPolicy::kSmallestFirst;
  cfg.token_budget = 8;
  Scheduler sched(cfg);
  sched.Enqueue(Sized(1, 6, 10));  // longest, arrived first
  sched.Enqueue(Sized(2, 4, 2));
  sched.Enqueue(Sized(3, 2, 2));

  // Budget 8 rows: smallest-first packs ids 3 (2 rows) and 2 (4 rows).
  const auto decision = sched.Admit(0, ResidentSnapshot{});
  ASSERT_EQ(decision.admitted.size(), 2u);
  // Admitted set preserves arrival order internally.
  EXPECT_EQ(decision.admitted[0].id, 2);
  EXPECT_EQ(decision.admitted[1].id, 3);
  EXPECT_EQ(sched.pending(), 1);
}

TEST(SchedulerTest, RejectsRequestsThatCanNeverFit) {
  SchedulerConfig cfg;
  cfg.token_budget = 16;
  Scheduler sched(cfg);
  sched.Enqueue(Sized(1, 20, 0));  // prompt exceeds the per-iteration budget
  sched.Enqueue(Sized(3, 4, 4));

  const auto decision = sched.Admit(0, ResidentSnapshot{});
  ASSERT_EQ(decision.rejected.size(), 1u);
  EXPECT_EQ(decision.rejected[0].request.id, 1);
  EXPECT_NE(std::strstr(decision.rejected[0].reason, "token budget"), nullptr);
  ASSERT_EQ(decision.admitted.size(), 1u);
  EXPECT_EQ(decision.admitted[0].id, 3);
}

// ---- Scheduler: paged admission ---------------------------------------------

SchedulerConfig PagedConfig(int64_t page_tokens, int64_t max_pages, bool preempt) {
  SchedulerConfig cfg;
  cfg.policy = SchedulerPolicy::kFcfs;
  cfg.token_budget = 64;
  cfg.page_tokens = page_tokens;
  cfg.max_pages = max_pages;
  cfg.preempt = preempt;
  return cfg;
}

TEST(SchedulerTest, PagedAdmissionPacksToExactlyFullCapacity) {
  // Conservative accounting (preempt off): the full prompt+decode lifetime
  // must fit next to the residents' reserved pages.
  Scheduler sched(PagedConfig(/*page_tokens=*/4, /*max_pages=*/4, /*preempt=*/false));
  sched.Enqueue(Sized(1, 4, 4));  // 8 tokens = 2 pages
  sched.Enqueue(Sized(2, 5, 3));  // 8 tokens = 2 pages -> pool exactly full
  sched.Enqueue(Sized(3, 1, 0));  // 1 token = 1 page: must wait, not reject

  auto decision = sched.Admit(0, ResidentSnapshot{});
  ASSERT_EQ(decision.admitted.size(), 2u);
  EXPECT_TRUE(decision.rejected.empty());
  EXPECT_EQ(sched.pending(), 1);

  // With the pool exactly full nothing more fits...
  ResidentSnapshot resident;
  resident.reserved_pages = 4;
  resident.used_pages = 4;
  EXPECT_TRUE(sched.Admit(2, resident).admitted.empty());
  // ...and after the residents retire, the waiter is admitted.
  EXPECT_EQ(sched.Admit(0, ResidentSnapshot{}).admitted.size(), 1u);
}

TEST(SchedulerTest, RejectsLifetimesBeyondThePageBudgetUpFront) {
  Scheduler sched(PagedConfig(4, 4, /*preempt=*/true));
  sched.Enqueue(Sized(1, 10, 8));  // 18 tokens = 5 pages > 4-page pool
  sched.Enqueue(Sized(2, 4, 4));

  const auto decision = sched.Admit(0, ResidentSnapshot{});
  ASSERT_EQ(decision.rejected.size(), 1u);
  EXPECT_EQ(decision.rejected[0].request.id, 1);
  EXPECT_NE(std::strstr(decision.rejected[0].reason, "page budget"), nullptr);
  ASSERT_EQ(decision.admitted.size(), 1u);
  EXPECT_EQ(decision.admitted[0].id, 2);
}

TEST(SchedulerTest, PreemptiveAdmissionOnlyChargesThePrompt) {
  // Optimistic accounting (preempt on): a request whose prompt fits right now
  // is admitted even though its full lifetime would not fit conservatively.
  Scheduler sched(PagedConfig(4, 4, /*preempt=*/true));
  sched.Enqueue(Sized(1, 4, 11));  // lifetime 15 tokens = 4 pages, prompt = 1 page

  ResidentSnapshot resident;
  resident.used_pages = 2;      // what is held right now
  resident.reserved_pages = 4;  // what conservative accounting would charge
  const auto decision = sched.Admit(1, resident);
  ASSERT_EQ(decision.admitted.size(), 1u);

  Scheduler conservative(PagedConfig(4, 4, /*preempt=*/false));
  conservative.Enqueue(Sized(1, 4, 11));
  EXPECT_TRUE(conservative.Admit(1, resident).admitted.empty());
}

// ---- Scheduler: chunked prefill ---------------------------------------------

TEST(SchedulerTest, ChunkedAdmissionChargesTheFirstChunkNotTheWholePrompt) {
  SchedulerConfig cfg;
  cfg.policy = SchedulerPolicy::kFcfs;
  cfg.token_budget = 16;
  cfg.chunk_tokens = 4;
  Scheduler sched(cfg);
  // 40-row prompt: rejected outright without chunking, admitted with it —
  // only its 4-row first chunk counts against the iteration budget.
  sched.Enqueue(Sized(1, 40, 4));
  sched.Enqueue(Sized(2, 8, 2));

  const auto decision = sched.Admit(0, ResidentSnapshot{});
  EXPECT_TRUE(decision.rejected.empty());
  ASSERT_EQ(decision.admitted.size(), 2u);
  EXPECT_EQ(decision.admitted[0].id, 1);
  EXPECT_EQ(decision.admitted[1].id, 2);

  Scheduler unchunked(SchedulerConfig{.policy = SchedulerPolicy::kFcfs, .token_budget = 16});
  unchunked.Enqueue(Sized(1, 40, 4));
  const auto rejected = unchunked.Admit(0, ResidentSnapshot{});
  ASSERT_EQ(rejected.rejected.size(), 1u);
  EXPECT_NE(std::strstr(rejected.rejected[0].reason, "token budget"), nullptr);
}

TEST(SchedulerTest, ChunkSizingHelpersRespectBudgetAndRemainder) {
  SchedulerConfig cfg;
  cfg.token_budget = 16;
  cfg.chunk_tokens = 6;
  EXPECT_EQ(FirstChunkRows(40, cfg), 6);   // full chunk
  EXPECT_EQ(FirstChunkRows(4, cfg), 4);    // short prompt: one whole chunk
  EXPECT_EQ(PrefillChunkRows(40, 16, cfg), 6);
  EXPECT_EQ(PrefillChunkRows(40, 3, cfg), 3);   // trimmed to leftover budget
  EXPECT_EQ(PrefillChunkRows(5, 16, cfg), 5);   // final partial chunk
  EXPECT_EQ(PrefillChunkRows(40, 0, cfg), 0);   // starved: sits out
  cfg.chunk_tokens = 64;  // cap larger than the budget still admits
  EXPECT_EQ(FirstChunkRows(100, cfg), 16);
  cfg.chunk_tokens = 0;   // chunking off: the whole remaining prompt
  EXPECT_EQ(PrefillChunkRows(12, 3, cfg), 12);
  EXPECT_EQ(FirstChunkRows(12, cfg), 12);
}

TEST(SchedulerTest, ChunkedPagedAdmissionChargesOnlyTheFirstChunkWhenPreemptive) {
  // Optimistic paged accounting + chunking: only the first chunk's pages
  // must fit right now; later chunks are iteration growth handled by the
  // eviction loop. Conservative accounting still reserves the full lifetime.
  SchedulerConfig cfg = PagedConfig(/*page_tokens=*/4, /*max_pages=*/8, /*preempt=*/true);
  cfg.chunk_tokens = 4;
  Scheduler sched(cfg);
  sched.Enqueue(Sized(1, 16, 8));  // lifetime 24 tokens = 6 pages, chunk = 1 page

  ResidentSnapshot resident;
  resident.used_pages = 7;      // room for exactly one more page
  resident.reserved_pages = 8;
  const auto decision = sched.Admit(1, resident);
  ASSERT_EQ(decision.admitted.size(), 1u);

  SchedulerConfig conservative_cfg = PagedConfig(4, 8, /*preempt=*/false);
  conservative_cfg.chunk_tokens = 4;
  Scheduler conservative(conservative_cfg);
  conservative.Enqueue(Sized(1, 16, 8));
  EXPECT_TRUE(conservative.Admit(1, resident).admitted.empty());
}

TEST(SchedulerTest, PageCapacityRejectionNeverBlamesTheTokenBudget) {
  // A request that overflows BOTH the iteration token budget and the KV page
  // pool is impossible to serve because of the pages — chunked prefill could
  // fix the budget half, more pages could not be conjured. The reason string
  // must say so, not mislead the operator into enabling chunking.
  SchedulerConfig cfg = PagedConfig(/*page_tokens=*/4, /*max_pages=*/4, /*preempt=*/true);
  cfg.token_budget = 16;
  Scheduler sched(cfg);
  sched.Enqueue(Sized(1, 20, 8));  // prompt 20 > budget 16, 28 tokens = 7 pages > 4

  const auto decision = sched.Admit(0, ResidentSnapshot{});
  ASSERT_EQ(decision.rejected.size(), 1u);
  EXPECT_NE(std::strstr(decision.rejected[0].reason, "page budget"), nullptr)
      << decision.rejected[0].reason;
  EXPECT_EQ(std::strstr(decision.rejected[0].reason, "token budget"), nullptr)
      << decision.rejected[0].reason;

  // With chunking on, the token-budget half really is curable — the page
  // verdict must be identical so the operator sees the incurable one.
  cfg.chunk_tokens = 4;
  Scheduler chunked(cfg);
  chunked.Enqueue(Sized(1, 20, 8));
  const auto chunked_decision = chunked.Admit(0, ResidentSnapshot{});
  ASSERT_EQ(chunked_decision.rejected.size(), 1u);
  EXPECT_NE(std::strstr(chunked_decision.rejected[0].reason, "page budget"), nullptr);
}

TEST(SchedulerTest, CancelRemovesAPendingRequest) {
  SchedulerConfig cfg;
  cfg.token_budget = 16;
  Scheduler sched(cfg);
  sched.Enqueue(Sized(1, 4, 4));
  sched.Enqueue(Sized(2, 4, 4));
  EXPECT_TRUE(sched.Cancel(1));
  EXPECT_FALSE(sched.Cancel(1));  // already gone
  EXPECT_FALSE(sched.Cancel(7));  // never enqueued
  const auto decision = sched.Admit(0, ResidentSnapshot{});
  ASSERT_EQ(decision.admitted.size(), 1u);
  EXPECT_EQ(decision.admitted[0].id, 2);
}

TEST(SchedulerTest, PickVictimPrefersLowPriorityThenYoungest) {
  const std::vector<VictimCandidate> residents = {
      {10, /*priority=*/1, /*admit_seq=*/0},
      {11, /*priority=*/0, /*admit_seq=*/1},
      {12, /*priority=*/0, /*admit_seq=*/3},
      {13, /*priority=*/2, /*admit_seq=*/4},
  };
  // Lowest priority class is {11, 12}; the youngest of those is 12.
  EXPECT_EQ(residents[Scheduler::PickVictim(residents)].id, 12);
  // Ties on priority and admit_seq fall back to the largest id.
  const std::vector<VictimCandidate> tied = {{5, 0, 7}, {9, 0, 7}, {2, 0, 7}};
  EXPECT_EQ(tied[Scheduler::PickVictim(tied)].id, 9);
}

TEST(SchedulerTest, MemoryModelCapacityIsPositiveAndFrameworkOrdered) {
  const MoeModelConfig model = ModelByName("Mixtral-8x7B");
  const SamoyedsConfig fmt{1, 2, 32};
  // One-token pages: the capacity in resident tokens.
  const int64_t samoyeds_cap =
      PageCapacity(model, MoeFramework::kSamoyeds, fmt, DefaultDevice(), /*page_tokens=*/1);
  const int64_t dense_cap =
      PageCapacity(model, MoeFramework::kTransformers, fmt, DefaultDevice(), /*page_tokens=*/1);
  EXPECT_GT(samoyeds_cap, 0);
  // The sparse format frees weight memory for serving capacity (Table 3).
  EXPECT_GT(samoyeds_cap, dense_cap);

  // Larger pages hold the same capacity in whole pages.
  const int64_t pages =
      PageCapacity(model, MoeFramework::kSamoyeds, fmt, DefaultDevice(), /*page_tokens=*/16);
  EXPECT_EQ(pages, samoyeds_cap / 16);
  EXPECT_GT(pages, 0);
}

// ---- ExpertPool -------------------------------------------------------------

TEST(ExpertPoolTest, ParallelMoeMatchesSequentialBitwise) {
  Rng rng(21);
  MoeModelConfig cfg = TinyConfig();
  cfg.shared_experts = 1;
  const SamoyedsConfig fmt{1, 2, 32};
  MoeLayerWeights w = MoeLayerWeights::Random(rng, cfg);
  const SamoyedsMoeLayerWeights sw = SamoyedsMoeLayerWeights::Encode(w, fmt);

  const MatrixF x = RandomBf16Matrix(rng, 24, cfg.hidden);
  const RoutingPlan plan = Route(x, w.router_gate, cfg.top_k);
  const MatrixF sequential = MoeForwardSamoyeds(x, sw, plan, Activation::kSilu);

  for (int threads : {1, 2, 4}) {
    ExpertPool pool(threads);
    const MatrixF parallel = ParallelMoeForwardSamoyeds(pool, x, sw, plan, Activation::kSilu);
    EXPECT_TRUE(parallel == sequential) << "threads=" << threads;
  }
}

TEST(ExpertPoolTest, RunsManyTasksToCompletion) {
  ExpertPool pool(4);
  std::vector<int> results(256, 0);
  for (int round = 0; round < 4; ++round) {
    for (size_t i = 0; i < results.size(); ++i) {
      pool.Submit([&results, i] { results[i] += static_cast<int>(i); });
    }
    pool.WaitIdle();
  }
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], 4 * static_cast<int>(i));
  }
}

// ---- Engine -----------------------------------------------------------------

EngineConfig TinyEngineConfig(int threads = 2) {
  EngineConfig cfg;
  cfg.heads = 4;
  cfg.top_k = 2;
  cfg.threads = threads;
  cfg.scheduler.policy = SchedulerPolicy::kTokenBudget;
  cfg.scheduler.token_budget = 24;
  return cfg;
}

TEST(ServingEngineTest, BatchedIncrementalMatchesFullSequenceReference) {
  Rng rng(31);
  const MoeModelConfig cfg = TinyConfig();
  const TinyModel model = BuildTinyModel(rng, /*layers=*/2, cfg);

  ServingEngine engine(model.sparse, TinyEngineConfig());
  std::vector<Request> requests;
  const int64_t prompts[] = {6, 4, 10, 5, 8, 4};
  const int64_t decodes[] = {3, 5, 2, 4, 2, 6};
  const int64_t arrivals[] = {0, 0, 1, 2, 4, 6};
  for (int64_t i = 0; i < 6; ++i) {
    requests.push_back(
        MakeTestRequest(rng, i, arrivals[i], prompts[i], decodes[i], cfg.hidden));
    ASSERT_TRUE(engine.Submit(requests.back()));
  }
  engine.RunUntilDrained(/*max_steps=*/1000);

  for (const Request& r : requests) {
    ASSERT_EQ(engine.Status(r.id), RequestStatus::kFinished) << "request " << r.id;
    const RequestResult* result = engine.Result(r.id);
    ASSERT_NE(result, nullptr);
    ASSERT_EQ(result->outputs.rows(), r.total_tokens());

    const MatrixF ref = DecoderStackForwardReference(r.inputs, model.dense, /*heads=*/4,
                                                     /*top_k=*/2, Activation::kSilu);
    EXPECT_LT(RelativeError(result->outputs, ref), 2e-2) << "request " << r.id;
  }

  // Continuous batching really happened: some iteration mixed prefill rows
  // of a late arrival with decode rows of resident sequences.
  bool mixed = false;
  for (const auto& s : engine.metrics().steps()) {
    EXPECT_LE(s.batch_rows, engine.config().scheduler.token_budget);
    mixed = mixed || (s.prefill_rows > 0 && s.decode_rows > 0);
  }
  EXPECT_TRUE(mixed);
}

TEST(ServingEngineTest, ThreadPoolCountDoesNotChangeOutputs) {
  Rng seed_rng(41);
  const MoeModelConfig cfg = TinyConfig();
  const TinyModel model = BuildTinyModel(seed_rng, 2, cfg);

  std::vector<MatrixF> outputs_by_threads;
  for (int threads : {1, 4}) {
    Rng rng(42);  // identical workload per run
    ServingEngine engine(model.sparse, TinyEngineConfig(threads));
    for (int64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(engine.Submit(MakeTestRequest(rng, i, i / 2, 5 + i, 3, cfg.hidden)));
    }
    engine.RunUntilDrained(1000);
    MatrixF all(0, 0);
    for (int64_t i = 0; i < 4; ++i) {
      const RequestResult* result = engine.Result(i);
      ASSERT_NE(result, nullptr);
      ASSERT_EQ(result->status, RequestStatus::kFinished);
      if (all.empty()) {
        all = result->outputs;
      } else {
        MatrixF merged(all.rows() + result->outputs.rows(), all.cols());
        for (int64_t r = 0; r < all.rows(); ++r) {
          for (int64_t c = 0; c < all.cols(); ++c) {
            merged(r, c) = all(r, c);
          }
        }
        for (int64_t r = 0; r < result->outputs.rows(); ++r) {
          for (int64_t c = 0; c < all.cols(); ++c) {
            merged(all.rows() + r, c) = result->outputs(r, c);
          }
        }
        all = std::move(merged);
      }
    }
    outputs_by_threads.push_back(std::move(all));
  }
  // Bit-identical across thread counts: fixed-order accumulation works.
  EXPECT_TRUE(outputs_by_threads[0] == outputs_by_threads[1]);
}

TEST(ServingEngineTest, AutotuneDoesNotChangeOutputsAndCachesShapes) {
  Rng seed_rng(43);
  const MoeModelConfig cfg = TinyConfig();
  const TinyModel model = BuildTinyModel(seed_rng, 2, cfg);

  std::vector<MatrixF> outputs_by_mode;
  int64_t cache_size = 0;
  ServingReport tuned_report;
  for (const bool autotune : {false, true}) {
    Rng rng(44);  // identical workload per run
    EngineConfig engine_cfg = TinyEngineConfig(/*threads=*/2);
    engine_cfg.autotune = autotune;
    ServingEngine engine(model.sparse, engine_cfg);
    for (int64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(engine.Submit(MakeTestRequest(rng, i, i, 4 + i, 3, cfg.hidden)));
    }
    engine.RunUntilDrained(1000);
    MatrixF all(0, 0);
    for (int64_t i = 0; i < 4; ++i) {
      const RequestResult* result = engine.Result(i);
      ASSERT_NE(result, nullptr);
      ASSERT_EQ(result->status, RequestStatus::kFinished);
      MatrixF merged(all.rows() + result->outputs.rows(), result->outputs.cols());
      for (int64_t r = 0; r < all.rows(); ++r) {
        for (int64_t c = 0; c < all.cols(); ++c) {
          merged(r, c) = all(r, c);
        }
      }
      for (int64_t r = 0; r < result->outputs.rows(); ++r) {
        for (int64_t c = 0; c < merged.cols(); ++c) {
          merged(all.rows() + r, c) = result->outputs(r, c);
        }
      }
      all = std::move(merged);
    }
    outputs_by_mode.push_back(std::move(all));
    if (autotune) {
      cache_size = engine.autotune_cache_size();
      tuned_report = engine.Report();
    } else {
      EXPECT_EQ(engine.autotune_cache_size(), 0);
      EXPECT_EQ(engine.Report().autotune_lookups, 0);
    }
  }
  // Autotuning resolves tile configs for the analytic model only — the
  // functional outputs are bit-identical with it on or off.
  EXPECT_TRUE(outputs_by_mode[0] == outputs_by_mode[1]);
  // Every kernel shape was resolved once and then served from the cache:
  // one lookup per charged kernel, strictly fewer misses.
  EXPECT_GT(cache_size, 0);
  EXPECT_GT(tuned_report.autotune_lookups, cache_size);
  EXPECT_EQ(tuned_report.autotune_lookups - tuned_report.autotune_cache_hits, cache_size);
  EXPECT_GE(tuned_report.autotune_speedup, 1.0);
}

TEST(ServingEngineTest, RejectsOversizedAndMalformedRequests) {
  Rng rng(51);
  const MoeModelConfig cfg = TinyConfig();
  const TinyModel model = BuildTinyModel(rng, 1, cfg);
  ServingEngine engine(model.sparse, TinyEngineConfig());

  // Prompt larger than the iteration token budget: admission rejection.
  Request oversized = MakeTestRequest(rng, 7, 0, 40, 2, cfg.hidden);
  ASSERT_TRUE(engine.Submit(oversized));

  // Wrong hidden size: rejected at submit.
  Request malformed = MakeTestRequest(rng, 8, 0, 4, 2, cfg.hidden + 1);
  EXPECT_FALSE(engine.Submit(malformed));
  EXPECT_EQ(engine.Status(8), RequestStatus::kRejected);

  // A well-formed request still completes alongside the rejections.
  Request good = MakeTestRequest(rng, 9, 0, 4, 2, cfg.hidden);
  ASSERT_TRUE(engine.Submit(good));

  engine.RunUntilDrained(1000);
  EXPECT_EQ(engine.Status(7), RequestStatus::kRejected);
  ASSERT_NE(engine.Result(7), nullptr);
  EXPECT_NE(engine.Result(7)->reason.find("token budget"), std::string::npos);
  ASSERT_NE(engine.Result(8), nullptr);
  EXPECT_NE(engine.Result(8)->reason.find("malformed"), std::string::npos);
  EXPECT_EQ(engine.Status(9), RequestStatus::kFinished);

  const ServingReport report = engine.Report();
  EXPECT_EQ(report.requests_finished, 1);
  EXPECT_EQ(report.requests_rejected, 2);
}

TEST(ServingEngineTest, DuplicateIdsAreRefusedWithoutClobberingTheOriginal) {
  Rng rng(55);
  const MoeModelConfig cfg = TinyConfig();
  const TinyModel model = BuildTinyModel(rng, 1, cfg);
  ServingEngine engine(model.sparse, TinyEngineConfig());

  const Request original = MakeTestRequest(rng, 5, 0, 4, 2, cfg.hidden);
  ASSERT_TRUE(engine.Submit(original));
  // Duplicate while the original is still queued: refused, queue untouched.
  EXPECT_FALSE(engine.Submit(MakeTestRequest(rng, 5, 0, 6, 1, cfg.hidden)));

  engine.RunUntilDrained(1000);
  ASSERT_EQ(engine.Status(5), RequestStatus::kFinished);
  const RequestResult* result = engine.Result(5);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->outputs.rows(), original.total_tokens());

  // Duplicate after completion: refused, the finished result survives.
  EXPECT_FALSE(engine.Submit(MakeTestRequest(rng, 5, 0, 4, 2, cfg.hidden)));
  EXPECT_EQ(engine.Status(5), RequestStatus::kFinished);
  EXPECT_EQ(engine.Report().requests_finished, 1);
  EXPECT_EQ(engine.Report().requests_rejected, 0);
}

TEST(ServingEngineTest, MetricsTrackLoadAndLatency) {
  Rng rng(61);
  const MoeModelConfig cfg = TinyConfig();
  const TinyModel model = BuildTinyModel(rng, 2, cfg);
  ServingEngine engine(model.sparse, TinyEngineConfig());

  int64_t total_rows = 0;
  for (int64_t i = 0; i < 3; ++i) {
    Request r = MakeTestRequest(rng, i, 0, 6, 4, cfg.hidden);
    total_rows += r.total_tokens();
    ASSERT_TRUE(engine.Submit(r));
  }
  engine.RunUntilDrained(1000);

  const ServingReport report = engine.Report();
  EXPECT_EQ(report.requests_finished, 3);
  EXPECT_EQ(report.prefill_rows + report.decode_rows, total_rows);
  EXPECT_GE(report.mean_ttft_steps, 1.0);
  EXPECT_GT(report.tokens_per_second, 0.0);
  EXPECT_GT(report.mean_occupancy, 0.0);

  // Every routed token hits top_k experts in each of the 2 layers.
  int64_t routed = 0;
  for (int64_t t : report.expert_tokens) {
    routed += t;
  }
  EXPECT_EQ(routed, total_rows * 2 /*top_k*/ * 2 /*layers*/);
  EXPECT_GE(report.expert_imbalance, 1.0);
}

TEST(ServingEngineTest, IdleStepsFastForwardToNextArrival) {
  Rng rng(71);
  const MoeModelConfig cfg = TinyConfig();
  const TinyModel model = BuildTinyModel(rng, 1, cfg);
  ServingEngine engine(model.sparse, TinyEngineConfig());

  ASSERT_TRUE(engine.Submit(MakeTestRequest(rng, 0, /*arrival=*/100, 4, 1, cfg.hidden)));
  engine.RunUntilDrained(1000);
  EXPECT_EQ(engine.Status(0), RequestStatus::kFinished);
  // The engine skipped the empty steps instead of burning 100 iterations.
  EXPECT_LE(engine.Report().steps, 3);
  EXPECT_GE(engine.current_step(), 100);
}

// ---- Engine: paged KV cache + preemption ------------------------------------

EngineConfig PagedEngineConfig(int64_t page_tokens, int64_t max_pages, bool preempt) {
  EngineConfig cfg = TinyEngineConfig();
  cfg.scheduler.page_tokens = page_tokens;
  cfg.scheduler.max_pages = max_pages;
  cfg.scheduler.preempt = preempt;
  return cfg;
}

TEST(ServingEngineTest, ZeroDecodeRequestFinishesAfterPrefillUnderPaging) {
  Rng rng(91);
  const MoeModelConfig cfg = TinyConfig();
  const TinyModel model = BuildTinyModel(rng, 1, cfg);
  ServingEngine engine(model.sparse, PagedEngineConfig(4, 8, /*preempt=*/true));

  const Request r = MakeTestRequest(rng, 0, 0, 6, 0, cfg.hidden);
  ASSERT_TRUE(engine.Submit(r));
  engine.RunUntilDrained(100);

  ASSERT_EQ(engine.Status(0), RequestStatus::kFinished);
  const RequestResult* result = engine.Result(0);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->outputs.rows(), 6);
  // The retired sequence released its pages.
  EXPECT_EQ(engine.kv_cache().allocator().used_pages(), 0);
  const MatrixF ref = DecoderStackForwardReference(r.inputs, model.dense, 4, 2,
                                                   Activation::kSilu);
  EXPECT_LT(RelativeError(result->outputs, ref), 2e-2);
}

TEST(ServingEngineTest, SchedulerRejectionReasonSurfacesInResult) {
  Rng rng(93);
  const MoeModelConfig cfg = TinyConfig();
  const TinyModel model = BuildTinyModel(rng, 1, cfg);
  ServingEngine engine(model.sparse, PagedEngineConfig(4, 4, /*preempt=*/true));

  // 4 + 20 = 24 tokens = 6 pages > the 4-page pool: rejected up front.
  ASSERT_TRUE(engine.Submit(MakeTestRequest(rng, 1, 0, 4, 20, cfg.hidden)));
  engine.RunUntilDrained(100);
  ASSERT_EQ(engine.Status(1), RequestStatus::kRejected);
  const RequestResult* result = engine.Result(1);
  ASSERT_NE(result, nullptr);
  EXPECT_NE(result->reason.find("page budget"), std::string::npos) << result->reason;
}

// Shared workload for the preemption tests: four 8+8 requests against an
// 8-page pool of 4-token pages (32 slots for 64 tokens of demand), so decode
// growth must evict residents.
std::vector<Request> SubmitPreemptionWorkload(Rng& rng, ServingEngine& engine,
                                              int64_t hidden) {
  std::vector<Request> requests;
  for (int64_t i = 0; i < 4; ++i) {
    requests.push_back(MakeTestRequest(rng, i, /*arrival=*/0, /*prompt=*/8, /*decode=*/8,
                                       hidden));
    EXPECT_TRUE(engine.Submit(requests.back()));
  }
  return requests;
}

TEST(ServingEngineTest, PreemptedRequestsFinishAndMatchTheReference) {
  Rng rng(95);
  const MoeModelConfig cfg = TinyConfig();
  const TinyModel model = BuildTinyModel(rng, /*layers=*/2, cfg);
  EngineConfig engine_cfg = PagedEngineConfig(/*page_tokens=*/4, /*max_pages=*/8,
                                              /*preempt=*/true);
  engine_cfg.scheduler.token_budget = 40;
  ServingEngine engine(model.sparse, engine_cfg);

  Rng req_rng(96);
  const std::vector<Request> requests = SubmitPreemptionWorkload(req_rng, engine, cfg.hidden);
  engine.RunUntilDrained(/*max_steps=*/10000);

  // Capacity really was forced low enough to evict.
  EXPECT_FALSE(engine.metrics().preemption_log().empty());
  EXPECT_GT(engine.Report().preemptions, 0);
  // Chunking is off: a recompute re-prefill after preemption is not chunking.
  EXPECT_EQ(engine.Report().chunked_prefill_requests, 0);

  // Every request — including every preempted one — finished and reproduces
  // the full-sequence reference at the usual bf16 tolerance.
  for (const Request& r : requests) {
    ASSERT_EQ(engine.Status(r.id), RequestStatus::kFinished) << "request " << r.id;
    const RequestResult* result = engine.Result(r.id);
    ASSERT_NE(result, nullptr);
    ASSERT_EQ(result->outputs.rows(), r.total_tokens());
    const MatrixF ref = DecoderStackForwardReference(r.inputs, model.dense, /*heads=*/4,
                                                     /*top_k=*/2, Activation::kSilu);
    EXPECT_LT(RelativeError(result->outputs, ref), 2e-2) << "request " << r.id;
  }
  EXPECT_EQ(engine.kv_cache().allocator().used_pages(), 0);
  // A preempted request's recompute was charged to its metrics.
  int64_t preempted_requests = 0;
  for (const auto& [id, rm] : engine.metrics().requests()) {
    preempted_requests += rm.preemptions > 0 ? 1 : 0;
  }
  EXPECT_GT(preempted_requests, 0);
}

TEST(ServingEngineTest, EvictionOrderIsDeterministicAcrossRuns) {
  Rng seed_rng(97);
  const MoeModelConfig cfg = TinyConfig();
  const TinyModel model = BuildTinyModel(seed_rng, 2, cfg);

  std::vector<std::vector<std::pair<int64_t, int64_t>>> logs;
  for (int run = 0; run < 2; ++run) {
    EngineConfig engine_cfg = PagedEngineConfig(4, 8, /*preempt=*/true);
    engine_cfg.scheduler.token_budget = 40;
    engine_cfg.threads = run == 0 ? 1 : 4;  // thread count must not matter
    ServingEngine engine(model.sparse, engine_cfg);
    Rng req_rng(98);  // identical workload per run
    SubmitPreemptionWorkload(req_rng, engine, cfg.hidden);
    engine.RunUntilDrained(10000);
    logs.push_back(engine.metrics().preemption_log());
  }
  ASSERT_FALSE(logs[0].empty());
  EXPECT_EQ(logs[0], logs[1]);
}

TEST(ServingEngineTest, EvictionRespectsRequestPriority) {
  Rng rng(99);
  const MoeModelConfig cfg = TinyConfig();
  const TinyModel model = BuildTinyModel(rng, 1, cfg);
  // 4-page pool of 4-token pages; two 4+8 sequences prefill into one page
  // each, then decode growth forces an eviction at the 8-token boundary.
  ServingEngine engine(model.sparse, PagedEngineConfig(4, 4, /*preempt=*/true));

  Request important = MakeTestRequest(rng, 0, 0, 4, 8, cfg.hidden);
  important.priority = 1;
  Request best_effort = MakeTestRequest(rng, 1, 0, 4, 8, cfg.hidden);
  ASSERT_TRUE(engine.Submit(important));
  ASSERT_TRUE(engine.Submit(best_effort));
  engine.RunUntilDrained(10000);

  ASSERT_EQ(engine.Status(0), RequestStatus::kFinished);
  ASSERT_EQ(engine.Status(1), RequestStatus::kFinished);
  const auto& log = engine.metrics().preemption_log();
  ASSERT_FALSE(log.empty());
  for (const auto& [victim, step] : log) {
    EXPECT_EQ(victim, 1) << "high-priority request evicted at step " << step;
  }
}

// ---- Engine: expert-parallel sharding ---------------------------------------

// Runs the shared workload on `cfg` and returns every request's outputs in
// submission order (all must finish).
std::vector<MatrixF> RunShardedWorkload(const TinyModel& model, EngineConfig cfg,
                                        int requests = 5) {
  Rng rng(101);  // identical workload for every caller
  ServingEngine engine(model.sparse, cfg);
  for (int64_t i = 0; i < requests; ++i) {
    EXPECT_TRUE(engine.Submit(MakeTestRequest(rng, i, i / 2, 4 + i, 3, engine.hidden())));
  }
  engine.RunUntilDrained(1000);
  std::vector<MatrixF> outputs;
  for (int64_t i = 0; i < requests; ++i) {
    const RequestResult* result = engine.Result(i);
    EXPECT_NE(result, nullptr);
    if (result != nullptr) {
      EXPECT_EQ(result->status, RequestStatus::kFinished) << "request " << i;
      outputs.push_back(result->outputs);
    }
  }
  return outputs;
}

TEST(ShardedEngineTest, OutputsBitIdenticalAcrossShardThreadAndPlacement) {
  Rng seed_rng(103);
  MoeModelConfig cfg = TinyConfig();
  cfg.num_experts = 8;
  cfg.shared_experts = 1;
  const TinyModel model = BuildTinyModel(seed_rng, 2, cfg);

  const std::vector<MatrixF> baseline = RunShardedWorkload(model, TinyEngineConfig(2));
  ASSERT_FALSE(baseline.empty());
  for (int shards : {1, 2, 4}) {
    for (int threads : {1, 2, 8}) {
      for (ShardPlacement placement : {ShardPlacement::kRoundRobin,
                                       ShardPlacement::kCapacityBalanced,
                                       ShardPlacement::kGateStats}) {
        EngineConfig engine_cfg = TinyEngineConfig(threads);
        engine_cfg.shards = shards;
        engine_cfg.placement = placement;
        const std::vector<MatrixF> outputs = RunShardedWorkload(model, engine_cfg);
        ASSERT_EQ(outputs.size(), baseline.size());
        for (size_t i = 0; i < outputs.size(); ++i) {
          EXPECT_TRUE(outputs[i] == baseline[i])
              << "shards=" << shards << " threads=" << threads
              << " placement=" << ShardPlacementName(placement) << " request " << i;
        }
      }
    }
  }
}

TEST(ShardedEngineTest, MetricsReportShardLoadAndAnalyticEstimate) {
  Rng seed_rng(105);
  MoeModelConfig cfg = TinyConfig();
  cfg.num_experts = 8;
  const TinyModel model = BuildTinyModel(seed_rng, 2, cfg);

  EngineConfig engine_cfg = TinyEngineConfig(2);
  engine_cfg.shards = 4;
  ServingEngine engine(model.sparse, engine_cfg);
  Rng rng(106);
  int64_t total_rows = 0;
  for (int64_t i = 0; i < 4; ++i) {
    Request r = MakeTestRequest(rng, i, 0, 6, 4, cfg.hidden);
    total_rows += r.total_tokens();
    ASSERT_TRUE(engine.Submit(r));
  }
  engine.RunUntilDrained(1000);

  const ServingReport report = engine.Report();
  // Per-shard routed token counts cover every (token, expert, layer) visit.
  ASSERT_EQ(report.shard_tokens.size(), 4u);
  int64_t routed = 0;
  for (int64_t t : report.shard_tokens) {
    routed += t;
  }
  EXPECT_EQ(routed, total_rows * 2 /*top_k*/ * 2 /*layers*/);
  EXPECT_GE(report.shard_imbalance, 1.0);

  // The analytic estimate carries compute, all-to-all and KV-page terms.
  EXPECT_GT(report.est_compute_ms, 0.0);
  EXPECT_GT(report.est_alltoall_ms, 0.0);
  EXPECT_GT(report.est_alltoall_share, 0.0);
  EXPECT_LT(report.est_alltoall_share, 1.0);
  EXPECT_GT(report.alltoall_bytes, 0.0);
  EXPECT_GT(report.kv_traffic_bytes, 0.0);
  // Per-step breakdown is populated too.
  for (const StepMetrics& s : engine.metrics().steps()) {
    EXPECT_GT(s.est_compute_ms, 0.0);
    EXPECT_GT(s.kv_write_bytes, 0.0);
    EXPECT_DOUBLE_EQ(s.est_total_ms(), s.est_compute_ms + s.est_alltoall_ms);
  }

  // Single-shard run: no interconnect terms, but compute + KV still charged.
  ServingEngine single(model.sparse, TinyEngineConfig(2));
  Rng rng2(106);
  for (int64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(single.Submit(MakeTestRequest(rng2, i, 0, 6, 4, cfg.hidden)));
  }
  single.RunUntilDrained(1000);
  const ServingReport single_report = single.Report();
  EXPECT_EQ(single_report.est_alltoall_ms, 0.0);
  EXPECT_EQ(single_report.alltoall_bytes, 0.0);
  EXPECT_GT(single_report.est_compute_ms, 0.0);
  EXPECT_GT(single_report.kv_traffic_bytes, 0.0);
}

TEST(ShardedEngineTest, AutotunedTileConfigFeedsTheAnalyticEstimate) {
  Rng seed_rng(107);
  const MoeModelConfig cfg = TinyConfig();
  const TinyModel model = BuildTinyModel(seed_rng, 1, cfg);

  double est_by_mode[2] = {0.0, 0.0};
  for (const bool autotune : {false, true}) {
    EngineConfig engine_cfg = TinyEngineConfig(1);
    engine_cfg.autotune = autotune;
    ServingEngine engine(model.sparse, engine_cfg);
    Rng rng(108);
    for (int64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(engine.Submit(MakeTestRequest(rng, i, 0, 8, 4, cfg.hidden)));
    }
    engine.RunUntilDrained(1000);
    est_by_mode[autotune ? 1 : 0] = engine.Report().est_compute_ms;
  }
  // The tuned tile config is what the estimate runs with: since the default
  // configuration is part of the autotuner's candidate set, the tuned
  // estimate can never be slower than the default-config estimate.
  EXPECT_GT(est_by_mode[0], 0.0);
  EXPECT_GT(est_by_mode[1], 0.0);
  EXPECT_LE(est_by_mode[1], est_by_mode[0] * (1.0 + 1e-9));
}

TEST(ServingEngineTest, AutotuneChargesEachProjectionWithItsOwnTunedConfig) {
  Rng seed_rng(109);
  MoeModelConfig cfg = TinyConfig();
  cfg.num_experts = 2;  // top-2 of 2: every expert selects every batch row
  const TinyModel model = BuildTinyModel(seed_rng, 1, cfg);
  const int64_t rows = 16;

  // The first step prefills the one prompt; only the tile configs differ
  // between the two runs, so the KV stream term cancels in the difference.
  double est_by_mode[2] = {0.0, 0.0};
  for (const bool autotune : {false, true}) {
    EngineConfig engine_cfg = TinyEngineConfig(1);
    engine_cfg.autotune = autotune;
    ServingEngine engine(model.sparse, engine_cfg);
    Rng rng(110);
    ASSERT_TRUE(engine.Submit(MakeTestRequest(rng, 0, 0, rows, 2, cfg.hidden)));
    engine.Step();
    ASSERT_EQ(engine.metrics().steps().size(), 1u);
    ASSERT_EQ(engine.metrics().steps().front().batch_rows, rows);
    est_by_mode[autotune ? 1 : 0] = engine.metrics().steps().front().est_compute_ms;
  }

  const DeviceSpec& device = DefaultDevice();
  const TimingModel timing(device);
  const auto kernel_ms = [&](const SamoyedsMatrix& proj, const GemmShape& shape,
                             const SsmmConfig& tile) {
    return timing.Estimate(SamoyedsKernel::Analyze(shape, rows, proj.config, tile, device).traffic)
        .total_ms;
  };
  double own_config_gain = 0.0;   // down tuned for down's shape
  double gate_config_gain = 0.0;  // down charged with gate's tuned config
  for (const SamoyedsExpertWeights& e : model.sparse.front().moe.experts) {
    const GemmShape gate_shape{e.gate.rows, e.gate.cols, rows};
    const GemmShape down_shape{e.down.rows, e.down.cols, rows};
    const SsmmConfig gate_cfg = AutotuneSsmm(gate_shape, rows, e.gate.config, device).config;
    const SsmmConfig down_cfg = AutotuneSsmm(down_shape, rows, e.down.config, device).config;
    const SsmmConfig base = SsmmConfig::Default();
    // up has gate's shape and format, hence gate's tuned config.
    const double gate_up_gain = 2.0 * (kernel_ms(e.gate, gate_shape, gate_cfg) -
                                       kernel_ms(e.gate, gate_shape, base));
    const double down_default = kernel_ms(e.down, down_shape, base);
    own_config_gain += gate_up_gain + kernel_ms(e.down, down_shape, down_cfg) - down_default;
    gate_config_gain += gate_up_gain + kernel_ms(e.down, down_shape, gate_cfg) - down_default;
  }
  const double tolerance = 1e-9 * est_by_mode[0];
  // The shape is one where the two tunings disagree, so the check below can
  // tell down's own config from gate's.
  ASSERT_GT(std::abs(own_config_gain - gate_config_gain), 1e3 * tolerance);
  EXPECT_NEAR(est_by_mode[1] - est_by_mode[0], own_config_gain, tolerance);
}

// ---- Engine: prefix sharing + swap preemption -------------------------------

// Multi-tenant workload with a genuinely shared prompt prefix: every tenant's
// first `shared_rows` input rows are bit-copies of tenant 0's.
std::vector<Request> SharedPrefixWorkload(Rng& rng, int64_t hidden, int64_t tenants,
                                          int64_t shared_rows, int64_t prompt,
                                          int64_t decode, int64_t arrival_gap) {
  std::vector<Request> requests;
  for (int64_t i = 0; i < tenants; ++i) {
    Request r = MakeTestRequest(rng, i, i * arrival_gap, prompt, decode, hidden);
    for (int64_t row = 0; i > 0 && row < shared_rows; ++row) {
      for (int64_t c = 0; c < hidden; ++c) {
        r.inputs(row, c) = requests[0].inputs(row, c);
      }
    }
    requests.push_back(std::move(r));
  }
  return requests;
}

// Runs `requests` through an engine built from `cfg` and returns the outputs
// in submission order, asserting every request finished.
std::vector<MatrixF> RunToOutputs(const TinyModel& model, const EngineConfig& cfg,
                                  const std::vector<Request>& requests,
                                  ServingReport* report = nullptr) {
  ServingEngine engine(model.sparse, cfg);
  for (const Request& r : requests) {
    EXPECT_TRUE(engine.Submit(r));
  }
  engine.RunUntilDrained(10000);
  std::vector<MatrixF> outputs;
  for (const Request& r : requests) {
    const RequestResult* result = engine.Result(r.id);
    EXPECT_NE(result, nullptr);
    if (result != nullptr) {
      EXPECT_EQ(result->status, RequestStatus::kFinished) << "request " << r.id;
      outputs.push_back(result->outputs);
    }
  }
  if (report != nullptr) {
    *report = engine.Report();
  }
  return outputs;
}

TEST(PrefixCacheEngineTest, SharingIsBitIdenticalAcrossChunkShardsAndThreads) {
  Rng seed_rng(121);
  const MoeModelConfig cfg = TinyConfig();
  const TinyModel model = BuildTinyModel(seed_rng, /*layers=*/2, cfg);
  Rng req_rng(122);
  // Tenants arrive far enough apart that earlier sessions have donated their
  // prefixes by the time later ones are admitted.
  const std::vector<Request> requests =
      SharedPrefixWorkload(req_rng, cfg.hidden, /*tenants=*/4, /*shared_rows=*/6,
                           /*prompt=*/8, /*decode=*/3, /*arrival_gap=*/8);

  for (const int64_t chunk : {int64_t{0}, int64_t{1}, int64_t{8}}) {
    for (const int shards : {1, 2}) {
      for (const int threads : {1, 8}) {
        EngineConfig engine_cfg = TinyEngineConfig(threads);
        engine_cfg.shards = shards;
        engine_cfg.scheduler.chunk_tokens = chunk;
        engine_cfg.scheduler.page_tokens = 4;
        engine_cfg.scheduler.max_pages = 64;
        const std::vector<MatrixF> baseline = RunToOutputs(model, engine_cfg, requests);

        engine_cfg.prefix_cache = true;
        ServingReport report;
        const std::vector<MatrixF> shared = RunToOutputs(model, engine_cfg, requests, &report);
        ASSERT_EQ(shared.size(), baseline.size());
        for (size_t i = 0; i < shared.size(); ++i) {
          EXPECT_TRUE(shared[i] == baseline[i])
              << "chunk=" << chunk << " shards=" << shards << " threads=" << threads
              << " request " << i;
        }
        // Sharing really engaged: later tenants reused the common prefix, the
        // partial shared tail page split on divergence, pages were co-mapped.
        EXPECT_GT(report.prefix_hit_tokens, 0)
            << "chunk=" << chunk << " shards=" << shards << " threads=" << threads;
        EXPECT_GT(report.prefix_hit_requests, 0);
        EXPECT_GT(report.prefix_hit_rate, 0.0);
        EXPECT_GT(report.cow_splits, 0);
        EXPECT_GT(report.peak_shared_pages, 0);
      }
    }
  }
}

TEST(PrefixCacheEngineTest, SharingStaysBitIdenticalUnderPreemption) {
  Rng seed_rng(123);
  const MoeModelConfig cfg = TinyConfig();
  const TinyModel model = BuildTinyModel(seed_rng, 2, cfg);
  Rng req_rng(124);
  // Four 8+8 tenants with a shared 6-row prefix against 32 KV slots: decode
  // growth forces evictions while prefixes are being shared and re-matched.
  const std::vector<Request> requests =
      SharedPrefixWorkload(req_rng, cfg.hidden, 4, /*shared_rows=*/6, /*prompt=*/8,
                           /*decode=*/8, /*arrival_gap=*/1);

  EngineConfig engine_cfg = PagedEngineConfig(/*page_tokens=*/4, /*max_pages=*/8,
                                              /*preempt=*/true);
  engine_cfg.scheduler.token_budget = 40;
  ServingReport baseline_report;
  const std::vector<MatrixF> baseline =
      RunToOutputs(model, engine_cfg, requests, &baseline_report);
  EXPECT_GT(baseline_report.preemptions, 0);

  engine_cfg.prefix_cache = true;
  ServingReport report;
  const std::vector<MatrixF> shared = RunToOutputs(model, engine_cfg, requests, &report);
  ASSERT_EQ(shared.size(), baseline.size());
  for (size_t i = 0; i < shared.size(); ++i) {
    EXPECT_TRUE(shared[i] == baseline[i]) << "request " << i;
  }
  // Preempted victims donate their prefix and re-match it on readmission, so
  // eviction pressure itself produces hits.
  EXPECT_GT(report.prefix_hit_tokens, 0);
}

TEST(PrefixCacheEngineTest, FullPrefixHitSkipsPrefillAndImprovesTtft) {
  Rng seed_rng(125);
  const MoeModelConfig cfg = TinyConfig();
  const TinyModel model = BuildTinyModel(seed_rng, 1, cfg);

  EngineConfig engine_cfg = TinyEngineConfig(2);
  engine_cfg.scheduler.chunk_tokens = 8;  // 20-row prompt prefills in 3 chunks
  engine_cfg.scheduler.page_tokens = 4;
  engine_cfg.scheduler.max_pages = 64;
  engine_cfg.prefix_cache = true;
  ServingEngine engine(model.sparse, engine_cfg);

  Rng rng(126);
  const Request a = MakeTestRequest(rng, 0, /*arrival=*/0, /*prompt=*/20, /*decode=*/3,
                                    cfg.hidden);
  Request b = MakeTestRequest(rng, 1, /*arrival=*/40, 20, 3, cfg.hidden);
  for (int64_t row = 0; row < a.prompt_len; ++row) {  // identical prompt, own decode
    for (int64_t c = 0; c < cfg.hidden; ++c) {
      b.inputs(row, c) = a.inputs(row, c);
    }
  }
  ASSERT_TRUE(engine.Submit(a));
  ASSERT_TRUE(engine.Submit(b));
  engine.RunUntilDrained(10000);

  ASSERT_EQ(engine.Status(0), RequestStatus::kFinished);
  ASSERT_EQ(engine.Status(1), RequestStatus::kFinished);
  const RequestMetrics ma = engine.metrics().requests().at(0);
  const RequestMetrics mb = engine.metrics().requests().at(1);
  EXPECT_EQ(ma.cached_prompt_tokens, 0);
  EXPECT_EQ(mb.cached_prompt_tokens, 20);  // the whole prompt came from the tree
  const int64_t ttft_a = ma.first_output_step - ma.arrival_step;
  const int64_t ttft_b = mb.first_output_step - mb.arrival_step;
  EXPECT_GE(ttft_a, 2);  // three chunks: at least two extra steps
  EXPECT_LT(ttft_b, ttft_a);
  EXPECT_EQ(engine.metrics().requests().at(1).prefill_chunks, 0);

  // The replayed prompt rows are bit-identical to the computed ones.
  const MatrixF& oa = engine.Result(0)->outputs;
  const MatrixF& ob = engine.Result(1)->outputs;
  for (int64_t r = 0; r < a.prompt_len; ++r) {
    for (int64_t c = 0; c < cfg.hidden; ++c) {
      ASSERT_EQ(oa(r, c), ob(r, c)) << "row " << r;
    }
  }
}

TEST(SwapPreemptionEngineTest, SwapMatchesRecomputeBitExactly) {
  Rng seed_rng(131);
  const MoeModelConfig cfg = TinyConfig();
  const TinyModel model = BuildTinyModel(seed_rng, /*layers=*/2, cfg);
  Rng req_rng(132);
  std::vector<Request> requests;
  for (int64_t i = 0; i < 4; ++i) {
    requests.push_back(MakeTestRequest(req_rng, i, 0, /*prompt=*/8, /*decode=*/8,
                                       cfg.hidden));
  }

  EngineConfig engine_cfg = PagedEngineConfig(/*page_tokens=*/4, /*max_pages=*/8,
                                              /*preempt=*/true);
  engine_cfg.scheduler.token_budget = 40;
  ServingReport recompute_report;
  const std::vector<MatrixF> recompute =
      RunToOutputs(model, engine_cfg, requests, &recompute_report);
  EXPECT_GT(recompute_report.preemptions, 0);
  EXPECT_EQ(recompute_report.swap_outs, 0);

  engine_cfg.swap = true;
  engine_cfg.host_pages = 64;
  ServingReport swap_report;
  const std::vector<MatrixF> swapped =
      RunToOutputs(model, engine_cfg, requests, &swap_report);
  ASSERT_EQ(swapped.size(), recompute.size());
  for (size_t i = 0; i < swapped.size(); ++i) {
    EXPECT_TRUE(swapped[i] == recompute[i]) << "request " << i;
  }
  // Victims really took the host-tier path, and the modeled transfer cost is
  // tied to the bytes that moved.
  EXPECT_GT(swap_report.preemptions, 0);
  EXPECT_GT(swap_report.swap_outs, 0);
  EXPECT_EQ(swap_report.swap_ins, swap_report.swap_outs);  // all drained back
  EXPECT_GT(swap_report.swap_out_bytes, 0.0);
  EXPECT_EQ(swap_report.swap_out_bytes, swap_report.swap_in_bytes);
  EXPECT_GT(swap_report.est_swap_ms, 0.0);
  EXPECT_TRUE(swap_report.provenance.swap);

  // A swapped victim's resume costs no recomputed prefill rows, so the swap
  // run prefills strictly less than the recompute run.
  EXPECT_LT(swap_report.prefill_rows, recompute_report.prefill_rows);
}

TEST(SwapPreemptionEngineTest, CappedHostTierFallsBackToRecompute) {
  Rng seed_rng(133);
  const MoeModelConfig cfg = TinyConfig();
  const TinyModel model = BuildTinyModel(seed_rng, 2, cfg);
  Rng req_rng(134);
  std::vector<Request> requests;
  for (int64_t i = 0; i < 4; ++i) {
    requests.push_back(MakeTestRequest(req_rng, i, 0, 8, 8, cfg.hidden));
  }
  EngineConfig engine_cfg = PagedEngineConfig(4, 8, /*preempt=*/true);
  engine_cfg.scheduler.token_budget = 40;
  engine_cfg.swap = true;
  engine_cfg.host_pages = 1;  // one 4-token page: no 8+ token victim ever fits

  ServingReport report;
  const std::vector<MatrixF> outputs = RunToOutputs(model, engine_cfg, requests, &report);
  ASSERT_EQ(outputs.size(), requests.size());
  EXPECT_GT(report.preemptions, 0);
  EXPECT_EQ(report.swap_outs, 0);  // every eviction fell back to recompute
  EXPECT_EQ(report.peak_host_pages, 0);
}

// ---- Engine: bit-exactness against the full-sequence Samoyeds stack --------

TEST(BitExactEngineTest, RowsEqualTheFullSequenceSamoyedsStackInEveryMode) {
  // Every served row must equal the full-sequence DecoderStackForwardSamoyeds
  // (scalar kernels) bit for bit, on the scalar backend and on the widest one
  // this CPU runs. The tolerance checks above cannot see a reordered softmax
  // or a one-ULP drift in the attention or expert path; this test can, in
  // every execution mode that changes how attention is fed.
  Rng seed_rng(141);
  const MoeModelConfig cfg = TinyConfig();
  const TinyModel model = BuildTinyModel(seed_rng, /*layers=*/2, cfg);

  struct Case {
    const char* name;
    EngineConfig config;
    int64_t arrival_gap;
    int64_t ServingReport::*engaged;  // must end positive; null for none
  };
  std::vector<Case> cases;
  cases.push_back({"plain", TinyEngineConfig(/*threads=*/1), 1, nullptr});
  EngineConfig sharded = TinyEngineConfig(/*threads=*/3);
  sharded.shards = 2;
  cases.push_back({"threads=3 shards=2", sharded, 1, nullptr});
  EngineConfig chunked = TinyEngineConfig();
  chunked.scheduler.chunk_tokens = 4;
  cases.push_back({"chunk=4", chunked, 1, nullptr});
  // Tenants arrive after earlier ones have donated; the 6-row prefix ends
  // mid-page, so sharing it splits a page copy-on-write.
  EngineConfig prefix = PagedEngineConfig(/*page_tokens=*/4, /*max_pages=*/64,
                                          /*preempt=*/false);
  prefix.prefix_cache = true;
  cases.push_back({"prefix cache", prefix, 12, &ServingReport::cow_splits});
  EngineConfig preempt = PagedEngineConfig(/*page_tokens=*/4, /*max_pages=*/14,
                                           /*preempt=*/true);
  preempt.scheduler.token_budget = 40;
  cases.push_back({"preempt (recompute)", preempt, 1, &ServingReport::preemptions});
  EngineConfig swap = preempt;
  swap.swap = true;
  swap.host_pages = 64;
  cases.push_back({"preempt (swap)", swap, 1, &ServingReport::swap_outs});

  KernelBackend widest = KernelBackend::kScalar;
  ASSERT_TRUE(ResolveKernelBackend(KernelBackend::kAuto, &widest));
  std::vector<KernelBackend> backends{KernelBackend::kScalar};
  if (widest != KernelBackend::kScalar) {
    backends.push_back(widest);
  }

  for (const Case& c : cases) {
    Rng req_rng(142);
    const std::vector<Request> requests =
        SharedPrefixWorkload(req_rng, cfg.hidden, /*tenants=*/4, /*shared_rows=*/6,
                             /*prompt=*/8, /*decode=*/8, c.arrival_gap);
    std::vector<MatrixF> refs;
    for (const Request& r : requests) {
      refs.push_back(DecoderStackForwardSamoyeds(r.inputs, model.sparse, /*heads=*/4,
                                                 /*top_k=*/2, Activation::kSilu));
    }
    for (KernelBackend backend : backends) {
      const std::string mode = std::string(c.name) + " on " + KernelBackendName(backend);
      EngineConfig config = c.config;
      config.kernel_backend = backend;
      ServingReport report;
      const std::vector<MatrixF> outputs = RunToOutputs(model, config, requests, &report);
      ASSERT_EQ(outputs.size(), requests.size()) << mode;
      EXPECT_EQ(report.provenance.kernel_backend, KernelBackendName(backend)) << mode;
      if (c.engaged != nullptr) {
        EXPECT_GT(report.*c.engaged, 0) << mode << ": the mode never engaged";
      }
      for (size_t i = 0; i < requests.size(); ++i) {
        const MatrixF& ref = refs[i];
        ASSERT_EQ(outputs[i].rows(), ref.rows()) << mode << " request " << i;
        ASSERT_EQ(outputs[i].cols(), ref.cols()) << mode << " request " << i;
        EXPECT_EQ(std::memcmp(outputs[i].data(), ref.data(), sizeof(float) * ref.size()), 0)
            << mode << " request " << i;
      }
    }
  }
}

// ---- Engine: skewed router -------------------------------------------------

TEST(ServingTest, SkewedRouterReportsExpertAndShardImbalance) {
  // Physically skewed router: expert 0's gate row massively amplified, so
  // top-k routing piles tokens onto it and the report must say so, per
  // expert and per simulated device.
  Rng seed_rng(109);
  MoeModelConfig cfg = TinyConfig();
  cfg.num_experts = 4;
  TinyModel model = BuildTinyModel(seed_rng, 1, cfg);
  for (auto& layer : model.sparse) {
    for (int64_t c = 0; c < layer.moe.router_gate.cols(); ++c) {
      layer.moe.router_gate(0, c) *= 8.0f;
    }
  }

  EngineConfig engine_cfg = TinyEngineConfig(2);
  engine_cfg.shards = 2;
  ServingEngine engine(model.sparse, engine_cfg);
  Rng rng(110);
  for (int64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(engine.Submit(MakeTestRequest(rng, i, i / 3, 5 + (i % 3), 4, cfg.hidden)));
  }
  engine.RunUntilDrained(1000);
  for (int64_t i = 0; i < 6; ++i) {
    ASSERT_EQ(engine.Status(i), RequestStatus::kFinished) << "request " << i;
  }
  const ServingReport report = engine.Report();
  EXPECT_GT(report.expert_imbalance, 1.05);
  EXPECT_GT(report.shard_imbalance, 1.0);
}

}  // namespace
}  // namespace serving
}  // namespace samoyeds
