// Streaming session API + chunked prefill: the engine-level guarantees the
// redesigned request surface makes —
//
//   * prompts longer than the iteration token budget (rejected without
//     chunking) complete under chunk_tokens, with outputs bit-identical to
//     the one-shot prefill path for every chunk size x shard count x thread
//     count (causal prefix caching makes chunking lossless);
//   * rows streamed through the session surface (OnRows callback or the
//     NewRows polling cursor) reproduce RequestResult::outputs exactly, in
//     order, without duplication — including across preemption;
//   * Cancel() tears a session down at any lifecycle stage and returns every
//     KV page to the allocator's free list;
//   * max_new_tokens is a stop condition: surplus input rows are ignored.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "src/moe/decoder_layer.h"
#include "src/serving/engine.h"
#include "src/serving/scheduler.h"
#include "src/serving/trace.h"
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

std::vector<SamoyedsDecoderLayerWeights> BuildTinyModel(Rng& rng, int layers,
                                                        const MoeModelConfig& cfg) {
  const SamoyedsConfig fmt{1, 2, 32};
  std::vector<SamoyedsDecoderLayerWeights> model;
  for (int l = 0; l < layers; ++l) {
    model.push_back(
        SamoyedsDecoderLayerWeights::Encode(DecoderLayerWeights::Random(rng, cfg), fmt));
  }
  return model;
}

Request MakeTestRequest(Rng& rng, int64_t id, int64_t arrival, int64_t prompt, int64_t decode,
                        int64_t hidden) {
  TraceEntry e{arrival, prompt, decode};
  return MakeRequest(rng, id, e, hidden);
}

EngineConfig StreamEngineConfig(int threads, int64_t budget, int64_t chunk_tokens,
                                int shards = 1) {
  EngineConfig cfg;
  cfg.heads = 4;
  cfg.top_k = 2;
  cfg.threads = threads;
  cfg.shards = shards;
  cfg.scheduler.policy = SchedulerPolicy::kTokenBudget;
  cfg.scheduler.token_budget = budget;
  cfg.scheduler.chunk_tokens = chunk_tokens;
  return cfg;
}

// Ordered record of one session's streamed deltas.
struct StreamLog {
  std::vector<int64_t> begins;
  std::vector<MatrixF> rows;
  int64_t finished_deltas = 0;
};

// Submits the shared 3-request workload (one long prompt + two short ones)
// under `cfg`, streaming through callbacks, and returns outputs in
// submission order plus the per-session logs.
struct WorkloadRun {
  std::vector<MatrixF> outputs;
  std::map<int64_t, StreamLog> streams;
};

WorkloadRun RunWorkload(const std::vector<SamoyedsDecoderLayerWeights>& model,
                        const EngineConfig& cfg, int64_t long_prompt) {
  ServingEngine engine(model, cfg);
  WorkloadRun run;
  OnRowsCallback on_rows = [&run](const StreamDelta& delta) {
    StreamLog& log = run.streams[delta.session_id];
    log.begins.push_back(delta.position_begin);
    log.rows.push_back(delta.rows);
    log.finished_deltas += delta.finished ? 1 : 0;
  };
  Rng rng(301);  // identical workload for every configuration
  EXPECT_TRUE(engine.Submit(
      MakeTestRequest(rng, 0, /*arrival=*/0, long_prompt, /*decode=*/5, engine.hidden()),
      on_rows));
  EXPECT_TRUE(engine.Submit(MakeTestRequest(rng, 1, 0, 6, 4, engine.hidden()), on_rows));
  EXPECT_TRUE(engine.Submit(MakeTestRequest(rng, 2, 2, 5, 3, engine.hidden()), on_rows));
  engine.RunUntilDrained(/*max_steps=*/10000);
  for (int64_t id = 0; id < 3; ++id) {
    EXPECT_EQ(engine.Status(id), RequestStatus::kFinished) << "request " << id;
    const RequestResult* result = engine.Result(id);
    EXPECT_NE(result, nullptr);
    run.outputs.push_back(result != nullptr ? result->outputs : MatrixF(0, 0));
  }
  return run;
}

// ---- Chunked prefill: long prompts, bit-identical outputs -------------------

TEST(ChunkedPrefillTest, LongPromptCompletesAndMatchesOneShotPrefillBitwise) {
  Rng seed_rng(303);
  const MoeModelConfig cfg = TinyConfig();
  const auto model = BuildTinyModel(seed_rng, /*layers=*/2, cfg);
  constexpr int64_t kBudget = 16;
  constexpr int64_t kLongPrompt = 40;  // 2.5x the chunked runs' budget

  // Without chunking, the long prompt cannot be served under kBudget.
  {
    ServingEngine engine(model, StreamEngineConfig(2, kBudget, /*chunk_tokens=*/0));
    Rng rng(301);
    ASSERT_TRUE(engine.Submit(MakeTestRequest(rng, 0, 0, kLongPrompt, 5, cfg.hidden)));
    engine.RunUntilDrained(1000);
    ASSERT_EQ(engine.Status(0), RequestStatus::kRejected);
    ASSERT_NE(engine.Result(0), nullptr);
    EXPECT_NE(engine.Result(0)->reason.find("token budget"), std::string::npos);
  }

  // One-shot baseline: a budget large enough to prefill in one iteration.
  const WorkloadRun baseline =
      RunWorkload(model, StreamEngineConfig(2, /*budget=*/64, /*chunk_tokens=*/0), kLongPrompt);
  ASSERT_EQ(baseline.outputs.size(), 3u);
  ASSERT_EQ(baseline.outputs[0].rows(), kLongPrompt + 5);

  // Chunked runs under the small budget: every chunk size x shard count x
  // thread count must reproduce the baseline bit for bit.
  for (int64_t chunk : {int64_t{1}, kBudget / 2, kBudget}) {
    for (int shards : {1, 2}) {
      for (int threads : {1, 8}) {
        const WorkloadRun run =
            RunWorkload(model, StreamEngineConfig(threads, kBudget, chunk, shards), kLongPrompt);
        ASSERT_EQ(run.outputs.size(), baseline.outputs.size());
        for (size_t i = 0; i < run.outputs.size(); ++i) {
          EXPECT_TRUE(run.outputs[i] == baseline.outputs[i])
              << "chunk=" << chunk << " shards=" << shards << " threads=" << threads
              << " request " << i;
        }
      }
    }
  }
}

TEST(ChunkedPrefillTest, ReportsChunkActivityAndPrefillSpansIterations) {
  Rng seed_rng(305);
  const MoeModelConfig cfg = TinyConfig();
  const auto model = BuildTinyModel(seed_rng, 1, cfg);
  ServingEngine engine(model, StreamEngineConfig(2, /*budget=*/8, /*chunk_tokens=*/8));
  Rng rng(306);
  ASSERT_TRUE(engine.Submit(MakeTestRequest(rng, 0, 0, /*prompt=*/30, /*decode=*/2,
                                            cfg.hidden)));
  engine.RunUntilDrained(1000);
  ASSERT_EQ(engine.Status(0), RequestStatus::kFinished);

  const ServingReport report = engine.Report();
  EXPECT_GT(report.prefill_chunk_slices, 0);
  EXPECT_EQ(report.chunked_prefill_requests, 1);
  const RequestMetrics rm = engine.metrics().requests().at(0);
  // 30 prompt rows in 8-row chunks: 4 prefill slices (8+8+8+6).
  EXPECT_EQ(rm.prefill_chunks, 4);
  // The first token is not ready until the final chunk lands: TTFT counts
  // the whole chunked prefill, measured from the streamed first row.
  EXPECT_GE(rm.first_output_step - rm.arrival_step + 1, 4);
  // Every step obeyed the tiny budget even while a 30-row prompt was in
  // flight.
  for (const StepMetrics& s : engine.metrics().steps()) {
    EXPECT_LE(s.batch_rows, 8);
  }
}

// ---- Streaming delivery -----------------------------------------------------

TEST(StreamingTest, CallbackDeltasReproduceResultOutputsExactly) {
  Rng seed_rng(307);
  const MoeModelConfig cfg = TinyConfig();
  const auto model = BuildTinyModel(seed_rng, 2, cfg);
  const WorkloadRun run =
      RunWorkload(model, StreamEngineConfig(2, /*budget=*/16, /*chunk_tokens=*/4), /*long=*/24);

  for (int64_t id = 0; id < 3; ++id) {
    const auto it = run.streams.find(id);
    ASSERT_NE(it, run.streams.end()) << "session " << id << " never streamed";
    const StreamLog& log = it->second;
    EXPECT_EQ(log.finished_deltas, 1) << "exactly one terminal delta";

    // Deltas are contiguous from row 0 and concatenate to the result matrix
    // bit for bit.
    const MatrixF& expect = run.outputs[id];
    int64_t at = 0;
    for (size_t d = 0; d < log.rows.size(); ++d) {
      EXPECT_EQ(log.begins[d], at) << "session " << id << " delta " << d;
      for (int64_t r = 0; r < log.rows[d].rows(); ++r) {
        for (int64_t c = 0; c < expect.cols(); ++c) {
          ASSERT_EQ(log.rows[d](r, c), expect(at + r, c))
              << "session " << id << " row " << at + r;
        }
      }
      at += log.rows[d].rows();
    }
    EXPECT_EQ(at, expect.rows()) << "session " << id << " streamed everything";
  }
}

TEST(StreamingTest, NewRowsCursorDrainsIncrementally) {
  Rng seed_rng(309);
  const MoeModelConfig cfg = TinyConfig();
  const auto model = BuildTinyModel(seed_rng, 1, cfg);
  ServingEngine engine(model, StreamEngineConfig(1, /*budget=*/8, /*chunk_tokens=*/4));
  Rng rng(310);
  SessionHandle session =
      engine.Submit(MakeTestRequest(rng, 0, 0, /*prompt=*/10, /*decode=*/3, cfg.hidden));
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session.id(), 0);
  EXPECT_EQ(session.status(), RequestStatus::kQueued);
  EXPECT_EQ(session.available_rows(), 0);

  std::vector<float> streamed;
  int64_t drains_with_rows = 0;
  while (engine.Step()) {
    const int64_t avail = session.available_rows();
    const MatrixF rows = session.NewRows();
    ASSERT_EQ(rows.rows(), avail);
    drains_with_rows += rows.rows() > 0 ? 1 : 0;
    streamed.insert(streamed.end(), rows.data(), rows.data() + rows.size());
    EXPECT_EQ(session.available_rows(), 0);  // cursor advanced past everything
  }
  ASSERT_EQ(session.status(), RequestStatus::kFinished);
  // Rows arrived over several iterations, not in one terminal burst.
  EXPECT_GT(drains_with_rows, 2);

  const RequestResult* result = engine.Result(0);
  ASSERT_NE(result, nullptr);
  ASSERT_EQ(static_cast<int64_t>(streamed.size()), result->outputs.size());
  const MatrixF streamed_matrix =
      MatrixF::FromRowMajor(result->outputs.rows(), result->outputs.cols(), streamed);
  EXPECT_TRUE(streamed_matrix == result->outputs);
  EXPECT_EQ(session.delivered_rows(), result->outputs.rows());
  // Nothing left after the terminal drain.
  EXPECT_EQ(session.NewRows().rows(), 0);
}

TEST(StreamingTest, StreamSurvivesPreemptionWithoutDuplicatingRows) {
  Rng seed_rng(311);
  const MoeModelConfig cfg = TinyConfig();
  const auto model = BuildTinyModel(seed_rng, 2, cfg);
  EngineConfig engine_cfg = StreamEngineConfig(2, /*budget=*/40, /*chunk_tokens=*/0);
  engine_cfg.scheduler.page_tokens = 4;
  engine_cfg.scheduler.max_pages = 8;
  engine_cfg.scheduler.preempt = true;
  ServingEngine engine(model, engine_cfg);

  std::map<int64_t, StreamLog> streams;
  OnRowsCallback on_rows = [&streams](const StreamDelta& delta) {
    StreamLog& log = streams[delta.session_id];
    log.begins.push_back(delta.position_begin);
    log.rows.push_back(delta.rows);
    log.finished_deltas += delta.finished ? 1 : 0;
  };
  Rng rng(312);
  for (int64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine.Submit(MakeTestRequest(rng, i, 0, 8, 8, cfg.hidden), on_rows));
  }
  engine.RunUntilDrained(10000);
  ASSERT_FALSE(engine.metrics().preemption_log().empty()) << "workload must force evictions";

  for (int64_t id = 0; id < 4; ++id) {
    ASSERT_EQ(engine.Status(id), RequestStatus::kFinished) << "request " << id;
    const MatrixF& expect = engine.Result(id)->outputs;
    const StreamLog& log = streams.at(id);
    // Even across evict + recompute, positions advance contiguously — rows
    // delivered before the eviction are never re-streamed.
    int64_t at = 0;
    for (size_t d = 0; d < log.rows.size(); ++d) {
      ASSERT_EQ(log.begins[d], at) << "session " << id << " delta " << d;
      for (int64_t r = 0; r < log.rows[d].rows(); ++r) {
        for (int64_t c = 0; c < expect.cols(); ++c) {
          ASSERT_EQ(log.rows[d](r, c), expect(at + r, c))
              << "session " << id << " row " << at + r;
        }
      }
      at += log.rows[d].rows();
    }
    EXPECT_EQ(at, expect.rows());
    EXPECT_EQ(log.finished_deltas, 1);
  }
}

// ---- Cancellation -----------------------------------------------------------

TEST(CancelTest, MidPrefillCancelFreesEveryPage) {
  Rng seed_rng(313);
  const MoeModelConfig cfg = TinyConfig();
  const auto model = BuildTinyModel(seed_rng, 1, cfg);
  EngineConfig engine_cfg = StreamEngineConfig(1, /*budget=*/8, /*chunk_tokens=*/4);
  engine_cfg.scheduler.page_tokens = 4;
  engine_cfg.scheduler.max_pages = 32;
  ServingEngine engine(model, engine_cfg);

  const KvPageAllocator& alloc = engine.kv_cache().allocator();
  const int64_t pages_before = alloc.used_pages();
  const int64_t free_before = alloc.free_pages();
  ASSERT_EQ(pages_before, 0);

  Rng rng(314);
  SessionHandle session =
      engine.Submit(MakeTestRequest(rng, 0, 0, /*prompt=*/24, /*decode=*/4, cfg.hidden));
  ASSERT_TRUE(session.ok());

  // Two 4-row chunks in: mid-prefill, pages held, no first token yet.
  ASSERT_TRUE(engine.Step());
  ASSERT_TRUE(engine.Step());
  ASSERT_EQ(session.status(), RequestStatus::kRunning);
  EXPECT_GT(alloc.used_pages(), 0);
  EXPECT_EQ(session.available_rows(), 8);

  ASSERT_EQ(session.Cancel(), CancelOutcome::kCancelled);
  EXPECT_EQ(session.status(), RequestStatus::kCancelled);
  // The allocator's free list is back to its pre-submit state.
  EXPECT_EQ(alloc.used_pages(), pages_before);
  EXPECT_EQ(alloc.free_pages(), free_before);
  EXPECT_EQ(alloc.num_sequences(), 0);

  // The partial rows survive as the terminal result and drain via the cursor.
  const RequestResult* result = engine.Result(0);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->status, RequestStatus::kCancelled);
  EXPECT_EQ(result->outputs.rows(), 8);
  EXPECT_EQ(session.NewRows().rows(), 8);

  // Terminal: a second cancel refuses, and the engine drains cleanly.
  EXPECT_EQ(session.Cancel(), CancelOutcome::kAlreadyTerminal);
  engine.RunUntilDrained(100);
  EXPECT_EQ(engine.Report().requests_cancelled, 1);
  EXPECT_EQ(engine.Report().requests_finished, 0);
}

TEST(CancelTest, CancelFiresTheTerminalDeltaAndCallbacksMayReenterTheEngine) {
  Rng seed_rng(321);
  const MoeModelConfig cfg = TinyConfig();
  const auto model = BuildTinyModel(seed_rng, 1, cfg);
  ServingEngine engine(model, StreamEngineConfig(1, /*budget=*/16, /*chunk_tokens=*/0));

  // Session 1's deltas, recorded by its own callback; the terminal one must
  // fire even though the session is cancelled, not finished.
  std::vector<int64_t> victim_rows;
  int victim_terminal = 0;
  OnRowsCallback victim_cb = [&](const StreamDelta& delta) {
    victim_rows.push_back(delta.rows.rows());
    victim_terminal += delta.finished ? 1 : 0;
  };
  // Session 0's callback reentrantly cancels session 1 from inside Step() —
  // while session 1's own slice of this iteration is still unscattered.
  bool cancelled = false;
  OnRowsCallback killer_cb = [&engine, &cancelled](const StreamDelta&) {
    if (!cancelled) {
      cancelled = true;
      EXPECT_EQ(engine.Cancel(1), CancelOutcome::kCancelled);
    }
  };

  Rng rng(322);
  ASSERT_TRUE(engine.Submit(MakeTestRequest(rng, 0, 0, 6, 4, cfg.hidden), killer_cb));
  ASSERT_TRUE(engine.Submit(MakeTestRequest(rng, 1, 0, 6, 4, cfg.hidden), victim_cb));
  engine.RunUntilDrained(1000);

  EXPECT_EQ(engine.Status(0), RequestStatus::kFinished);
  EXPECT_EQ(engine.Status(1), RequestStatus::kCancelled);
  // The victim got exactly one delta: the empty terminal one fired by
  // Cancel (its rows from the in-flight iteration are dropped — the cancel
  // wins), and its pages went back to the pool.
  EXPECT_EQ(victim_terminal, 1);
  ASSERT_EQ(victim_rows.size(), 1u);
  EXPECT_EQ(victim_rows[0], 0);
  EXPECT_EQ(engine.kv_cache().allocator().used_pages(), 0);

  // A queued-stage cancel also fires the (empty) terminal delta.
  int queued_terminal = 0;
  SessionHandle queued = engine.Submit(
      MakeTestRequest(rng, 2, /*arrival=*/1000, 4, 2, cfg.hidden),
      [&queued_terminal](const StreamDelta& delta) {
        queued_terminal += delta.finished ? 1 : 0;
        EXPECT_EQ(delta.rows.rows(), 0);
      });
  ASSERT_EQ(queued.Cancel(), CancelOutcome::kCancelled);
  EXPECT_EQ(queued_terminal, 1);
}

TEST(CancelTest, CancelWorksInEveryPreResidentLifecycleStage) {
  Rng seed_rng(315);
  const MoeModelConfig cfg = TinyConfig();
  const auto model = BuildTinyModel(seed_rng, 1, cfg);
  ServingEngine engine(model, StreamEngineConfig(1, /*budget=*/8, /*chunk_tokens=*/0));
  Rng rng(316);

  // (a) Still in the ingress queue (arrival far in the future).
  SessionHandle queued =
      engine.Submit(MakeTestRequest(rng, 0, /*arrival=*/1000, 4, 2, cfg.hidden));
  ASSERT_TRUE(queued.ok());
  EXPECT_EQ(queued.Cancel(), CancelOutcome::kCancelled);
  EXPECT_EQ(queued.status(), RequestStatus::kCancelled);

  // (b) In the scheduler backlog: admission blocked by a budget-saturating
  // resident. Request 1 occupies the whole 8-row budget for several steps;
  // request 2 arrives and must wait.
  SessionHandle resident = engine.Submit(MakeTestRequest(rng, 1, 0, 8, 6, cfg.hidden));
  SessionHandle waiter = engine.Submit(MakeTestRequest(rng, 2, 0, 8, 2, cfg.hidden));
  ASSERT_TRUE(resident.ok());
  ASSERT_TRUE(waiter.ok());
  ASSERT_TRUE(engine.Step());  // request 1 prefills, request 2 waits
  ASSERT_EQ(resident.status(), RequestStatus::kRunning);
  ASSERT_EQ(waiter.status(), RequestStatus::kQueued);
  EXPECT_EQ(waiter.Cancel(), CancelOutcome::kCancelled);
  EXPECT_EQ(waiter.status(), RequestStatus::kCancelled);
  EXPECT_EQ(engine.queued(), 0);

  // (c) Unknown ids and terminal sessions refuse.
  EXPECT_EQ(engine.Cancel(99), CancelOutcome::kUnknownId);
  engine.RunUntilDrained(1000);
  ASSERT_EQ(resident.status(), RequestStatus::kFinished);
  EXPECT_EQ(resident.Cancel(), CancelOutcome::kAlreadyTerminal);
  EXPECT_EQ(engine.Report().requests_cancelled, 2);
  EXPECT_EQ(engine.Report().requests_finished, 1);

  // A cancelled id stays claimed: resubmitting it is a duplicate.
  EXPECT_FALSE(engine.Submit(MakeTestRequest(rng, 0, 0, 4, 2, cfg.hidden)));
}

TEST(CancelTest, CancellingAPreemptedSessionKeepsItsStreamedRows) {
  // A preempted session's partial outputs are discarded for recompute, but
  // rows already streamed to the client are part of the record: cancelling
  // the session while it sits requeued must materialize them in the
  // terminal result instead of an empty matrix.
  Rng seed_rng(323);
  const MoeModelConfig cfg = TinyConfig();
  const auto model = BuildTinyModel(seed_rng, 1, cfg);
  EngineConfig engine_cfg = StreamEngineConfig(2, /*budget=*/24, /*chunk_tokens=*/0);
  engine_cfg.scheduler.page_tokens = 4;
  engine_cfg.scheduler.max_pages = 4;
  engine_cfg.scheduler.preempt = true;
  ServingEngine engine(model, engine_cfg);

  // Two 4+8 sequences against a 4-page pool of 4-token pages: decode growth
  // evicts the lower-priority session 1 at the 8-token page boundary (the
  // deterministic victim — see EvictionRespectsRequestPriority).
  Rng rng(324);
  Request important = MakeTestRequest(rng, 0, 0, 4, 8, cfg.hidden);
  important.priority = 1;
  SessionHandle survivor = engine.Submit(important);
  SessionHandle victim = engine.Submit(MakeTestRequest(rng, 1, 0, 4, 8, cfg.hidden));
  ASSERT_TRUE(survivor.ok());
  ASSERT_TRUE(victim.ok());

  // Step (draining the cursor as a client would) until the eviction lands.
  // The victim may already be readmitted for recompute in the same step
  // (optimistic admission only charges its prompt pages) — either way its
  // freshly restarted out_rows trail what was already streamed.
  std::vector<float> streamed;
  while (engine.metrics().preemption_log().empty()) {
    ASSERT_TRUE(engine.Step());
    const MatrixF rows = victim.NewRows();
    streamed.insert(streamed.end(), rows.data(), rows.data() + rows.size());
  }
  const int64_t delivered = victim.delivered_rows();
  ASSERT_GT(delivered, 0);

  ASSERT_EQ(victim.Cancel(), CancelOutcome::kCancelled);
  const RequestResult* result = engine.Result(1);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->status, RequestStatus::kCancelled);
  // The terminal result keeps at least every row the client already
  // received (more if the recompute had already re-produced beyond the
  // cursor), and the streamed prefix matches it bit for bit.
  ASSERT_GE(result->outputs.rows(), delivered);
  const int64_t hidden = engine.hidden();
  for (int64_t r = 0; r < delivered; ++r) {
    for (int64_t c = 0; c < hidden; ++c) {
      ASSERT_EQ(result->outputs(r, c), streamed[static_cast<size_t>(r * hidden + c)]);
    }
  }
  // The survivor is unaffected and still completes.
  engine.RunUntilDrained(1000);
  EXPECT_EQ(survivor.status(), RequestStatus::kFinished);
  EXPECT_EQ(engine.kv_cache().allocator().used_pages(), 0);
}

TEST(CancelTest, CancellingASwappedOutVictimFreesBothTiersExactlyOnce) {
  // Swap-style preemption parks the victim's KV rows and outputs in the host
  // tier. Cancelling at the evicted-but-requeued stage must drop that shadow
  // exactly once, keep every already-streamed row in the terminal result
  // (the shadow holds *all* produced rows, not just the delivered ones), and
  // never resurrect the session at what would have been its readmission.
  Rng seed_rng(327);
  const MoeModelConfig cfg = TinyConfig();
  const auto model = BuildTinyModel(seed_rng, 1, cfg);
  EngineConfig engine_cfg = StreamEngineConfig(2, /*budget=*/24, /*chunk_tokens=*/0);
  engine_cfg.scheduler.page_tokens = 4;
  engine_cfg.scheduler.max_pages = 4;
  engine_cfg.scheduler.preempt = true;
  engine_cfg.swap = true;
  engine_cfg.host_pages = 8;
  ServingEngine engine(model, engine_cfg);
  ASSERT_TRUE(engine.swap_enabled());

  // Same shape as the recompute variant: the lower-priority session 1 is
  // evicted at the 8-token boundary — but here its readmission needs all its
  // 2 swapped pages plus a decode-row page next to the surviving session's 3,
  // so it stays parked in the host tier until the survivor retires.
  Rng rng(328);
  Request important = MakeTestRequest(rng, 0, 0, 4, 8, cfg.hidden);
  important.priority = 1;
  SessionHandle survivor = engine.Submit(important);
  SessionHandle victim = engine.Submit(MakeTestRequest(rng, 1, 0, 4, 8, cfg.hidden));
  ASSERT_TRUE(survivor.ok());
  ASSERT_TRUE(victim.ok());

  std::vector<float> streamed;
  while (engine.metrics().preemption_log().empty()) {
    ASSERT_TRUE(engine.Step());
    const MatrixF rows = victim.NewRows();
    streamed.insert(streamed.end(), rows.data(), rows.data() + rows.size());
  }
  const int64_t delivered = victim.delivered_rows();
  ASSERT_GT(delivered, 0);
  // The victim is parked in the host tier, awaiting readmission.
  ASSERT_TRUE(engine.swap_tier().Has(1));
  EXPECT_GT(engine.swap_tier().used_pages(), 0);
  EXPECT_EQ(victim.status(), RequestStatus::kQueued);

  ASSERT_EQ(victim.Cancel(), CancelOutcome::kCancelled);
  // Terminal: the second cancel refuses.
  EXPECT_EQ(victim.Cancel(), CancelOutcome::kAlreadyTerminal);
  const RequestResult* result = engine.Result(1);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->status, RequestStatus::kCancelled);
  // Host tier drained exactly once, device pages were already freed at the
  // eviction: nothing holds victim state anywhere.
  EXPECT_FALSE(engine.swap_tier().Has(1));
  EXPECT_EQ(engine.swap_tier().entries(), 0);
  EXPECT_EQ(engine.swap_tier().used_pages(), 0);

  // The shadow carried every produced row (the full 8-token prefix at the
  // eviction boundary), which can only extend the streamed record.
  ASSERT_GE(result->outputs.rows(), delivered);
  const int64_t hidden = engine.hidden();
  for (int64_t r = 0; r < delivered; ++r) {
    for (int64_t c = 0; c < hidden; ++c) {
      ASSERT_EQ(result->outputs(r, c), streamed[static_cast<size_t>(r * hidden + c)]);
    }
  }

  // No resurrection: the drain completes the survivor only, and the one
  // swap-out never got its swap-in.
  engine.RunUntilDrained(1000);
  EXPECT_EQ(survivor.status(), RequestStatus::kFinished);
  EXPECT_EQ(victim.status(), RequestStatus::kCancelled);
  EXPECT_EQ(engine.kv_cache().allocator().used_pages(), 0);
  const ServingReport report = engine.Report();
  EXPECT_EQ(report.requests_cancelled, 1);
  EXPECT_EQ(report.requests_finished, 1);
  EXPECT_EQ(report.swap_outs, 1);
  EXPECT_EQ(report.swap_ins, 0);
}

// ---- Session handle & stop conditions ---------------------------------------

TEST(SessionApiTest, RejectedAndDuplicateSubmissionsYieldNotOkHandles) {
  Rng seed_rng(317);
  const MoeModelConfig cfg = TinyConfig();
  const auto model = BuildTinyModel(seed_rng, 1, cfg);
  ServingEngine engine(model, StreamEngineConfig(1, 8, 0));
  Rng rng(318);

  // Malformed: wrong hidden width. Handle is !ok but still names the id, so
  // the caller can read the rejection reason.
  SessionHandle rejected = engine.Submit(MakeTestRequest(rng, 5, 0, 4, 2, cfg.hidden + 1));
  EXPECT_FALSE(rejected.ok());
  EXPECT_FALSE(rejected);
  EXPECT_EQ(rejected.status(), RequestStatus::kRejected);
  ASSERT_NE(engine.Result(5), nullptr);
  EXPECT_NE(engine.Result(5)->reason.find("malformed"), std::string::npos);
  EXPECT_EQ(rejected.NewRows().rows(), 0);
  EXPECT_EQ(rejected.Cancel(), CancelOutcome::kAlreadyTerminal);  // already terminal

  // Default-constructed handle is inert.
  SessionHandle null_handle;
  EXPECT_FALSE(null_handle.ok());
  EXPECT_EQ(null_handle.NewRows().rows(), 0);
  EXPECT_EQ(null_handle.Cancel(), CancelOutcome::kUnknownId);

  // Duplicate id: refused without clobbering the original session.
  SessionHandle original = engine.Submit(MakeTestRequest(rng, 7, 0, 4, 2, cfg.hidden));
  ASSERT_TRUE(original.ok());
  SessionHandle duplicate = engine.Submit(MakeTestRequest(rng, 7, 0, 6, 1, cfg.hidden));
  EXPECT_FALSE(duplicate.ok());
  engine.RunUntilDrained(100);
  EXPECT_EQ(original.status(), RequestStatus::kFinished);
}

TEST(SessionApiTest, MaxNewTokensIsAStopConditionOverSurplusInputRows) {
  Rng seed_rng(319);
  const MoeModelConfig cfg = TinyConfig();
  const auto model = BuildTinyModel(seed_rng, 1, cfg);
  ServingEngine engine(model, StreamEngineConfig(1, 16, 0));

  // 12 input rows but prompt 4 + max_new_tokens 3: the session must stop
  // after 7 rows and ignore the surplus.
  Rng rng(320);
  Request r = MakeTestRequest(rng, 0, 0, 4, 8, cfg.hidden);
  r.max_new_tokens = 3;
  ASSERT_TRUE(r.ShapeValid(cfg.hidden));
  SessionHandle session = engine.Submit(r);
  ASSERT_TRUE(session.ok());
  engine.RunUntilDrained(100);
  ASSERT_EQ(session.status(), RequestStatus::kFinished);
  EXPECT_EQ(engine.Result(0)->outputs.rows(), 7);

  // The stop condition consumed exactly prompt + 3 rows: a run with the
  // same inputs but the full decode horizon diverges after row 7.
  ServingEngine full(model, StreamEngineConfig(1, 16, 0));
  Rng rng2(320);
  ASSERT_TRUE(full.Submit(MakeTestRequest(rng2, 0, 0, 4, 8, cfg.hidden)));
  full.RunUntilDrained(100);
  const MatrixF& long_out = full.Result(0)->outputs;
  ASSERT_EQ(long_out.rows(), 12);
  const MatrixF& short_out = engine.Result(0)->outputs;
  for (int64_t r2 = 0; r2 < short_out.rows(); ++r2) {
    for (int64_t c = 0; c < short_out.cols(); ++c) {
      ASSERT_EQ(short_out(r2, c), long_out(r2, c)) << "row " << r2;
    }
  }
}

}  // namespace
}  // namespace serving
}  // namespace samoyeds
