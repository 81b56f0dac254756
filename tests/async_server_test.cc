// AsyncServer front-end: the synchronous engine is the bit-exact oracle for
// the async driver loop (virtual clock, submit-before-Start) at every
// thread/shard/chunk combination; mailbox backpressure composes with
// priority shedding; Cancel distinguishes unknown ids; decode-priority
// chunking stays bit-lossless; and a multi-client randomized chaos run
// (faults on) leaves every session in exactly one terminal state with zero
// page leaks.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/moe/decoder_layer.h"
#include "src/serving/engine.h"
#include "src/serving/faults.h"
#include "src/serving/scheduler.h"
#include "src/serving/server.h"
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
    model.push_back(SamoyedsDecoderLayerWeights::Encode(DecoderLayerWeights::Random(rng, cfg), fmt));
  }
  return model;
}

Request MakeTestRequest(Rng& rng, int64_t id, int64_t arrival, int64_t prompt, int64_t decode,
                        int64_t hidden) {
  TraceEntry e{arrival, prompt, decode};
  return MakeRequest(rng, id, e, hidden);
}

EngineConfig BaseEngineConfig() {
  EngineConfig cfg;
  cfg.heads = 4;
  cfg.top_k = 2;
  cfg.threads = 2;
  cfg.scheduler.policy = SchedulerPolicy::kTokenBudget;
  cfg.scheduler.token_budget = 24;
  return cfg;
}

// Mixed-phase workload: short and long prompts, arrivals spread so decode
// and prefill coexist. Prompts stay <= token_budget so the chunking-off
// combinations admit everything.
std::vector<Request> MixedWorkload(int64_t hidden) {
  Rng rng(614);
  std::vector<Request> requests;
  const int64_t prompts[] = {6, 3, 8, 5, 7, 4};
  const int64_t decodes[] = {4, 6, 2, 5, 3, 6};
  const int64_t arrivals[] = {0, 0, 1, 2, 4, 5};
  for (int64_t i = 0; i < 6; ++i) {
    requests.push_back(MakeTestRequest(rng, i, arrivals[i], prompts[i], decodes[i], hidden));
  }
  return requests;
}

bool SameMatrix(const MatrixF& a, const MatrixF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * static_cast<size_t>(a.size())) == 0;
}

std::map<int64_t, MatrixF> RunSync(const std::vector<SamoyedsDecoderLayerWeights>& model,
                                   const EngineConfig& cfg, const std::vector<Request>& requests) {
  ServingEngine engine(model, cfg);
  for (const Request& r : requests) {
    EXPECT_TRUE(engine.Submit(r));
  }
  engine.RunUntilDrained();
  std::map<int64_t, MatrixF> outputs;
  for (const Request& r : requests) {
    const RequestResult* res = engine.Result(r.id);
    EXPECT_NE(res, nullptr) << "session " << r.id;
    if (res == nullptr) {
      continue;
    }
    EXPECT_EQ(res->status, RequestStatus::kFinished) << "session " << r.id;
    outputs.emplace(r.id, res->outputs);
  }
  return outputs;
}

// ---- Cancel outcomes --------------------------------------------------------

TEST(CancelOutcomeTest, DistinguishesUnknownCancelledAndTerminal) {
  const MoeModelConfig cfg = TinyConfig();
  Rng rng(11);
  ServingEngine engine(BuildTinyModel(rng, 1, cfg), BaseEngineConfig());

  // Never submitted: a distinct verdict, not a silent no-op.
  EXPECT_EQ(engine.Cancel(42), CancelOutcome::kUnknownId);

  Rng req_rng(12);
  ASSERT_TRUE(engine.Submit(MakeTestRequest(req_rng, 1, 0, 4, 2, cfg.hidden)));
  EXPECT_EQ(engine.Cancel(1), CancelOutcome::kCancelled);
  // Retired (cancelled) ids are known forever: cancelling again is
  // already-terminal, not unknown.
  EXPECT_EQ(engine.Cancel(1), CancelOutcome::kAlreadyTerminal);
  engine.RunUntilDrained();
  EXPECT_EQ(engine.Cancel(1), CancelOutcome::kAlreadyTerminal);
  EXPECT_EQ(engine.Cancel(42), CancelOutcome::kUnknownId);

  EXPECT_STREQ(CancelOutcomeName(CancelOutcome::kCancelled), "cancelled");
  EXPECT_STREQ(CancelOutcomeName(CancelOutcome::kUnknownId), "unknown-id");
  EXPECT_STREQ(CancelOutcomeName(CancelOutcome::kAlreadyTerminal), "already-terminal");
}

// ---- Async vs sync bit-identity ---------------------------------------------

// The determinism tentpole: with the virtual clock and every submission
// enqueued before Start(), the async server must reproduce the synchronous
// engine bit-for-bit at every thread/shard/chunk combination.
TEST(AsyncServerTest, MatchesSyncOracleAtEveryCombination) {
  const MoeModelConfig cfg = TinyConfig();
  Rng rng(21);
  const auto model = BuildTinyModel(rng, 2, cfg);
  const std::vector<Request> requests = MixedWorkload(cfg.hidden);

  for (int threads : {1, 2}) {
    for (int shards : {1, 2}) {
      for (int64_t chunk : {int64_t{0}, int64_t{4}}) {
        EngineConfig engine_cfg = BaseEngineConfig();
        engine_cfg.threads = threads;
        engine_cfg.shards = shards;
        engine_cfg.scheduler.chunk_tokens = chunk;
        const std::string combo = "threads=" + std::to_string(threads) +
                                  " shards=" + std::to_string(shards) +
                                  " chunk=" + std::to_string(chunk);

        const std::map<int64_t, MatrixF> oracle = RunSync(model, engine_cfg, requests);

        ServingEngine engine(model, engine_cfg);
        AsyncServer server(engine, ServerConfig{});  // virtual clock
        for (const Request& r : requests) {
          EXPECT_TRUE(server.Submit(r)) << combo;
        }
        server.Start();
        server.Drain();
        // Streamed rows match the oracle row-for-row...
        for (const Request& r : requests) {
          const ServerPollResult result = server.WaitTerminal(r.id);
          ASSERT_TRUE(result.known) << combo;
          EXPECT_EQ(result.status, RequestStatus::kFinished) << combo;
          EXPECT_EQ(result.delivered_rows, r.total_tokens()) << combo;
          EXPECT_TRUE(SameMatrix(result.new_rows, oracle.at(r.id)))
              << combo << " session " << r.id;
        }
        server.Stop();
        // ...and so does the engine-side result surface.
        for (const Request& r : requests) {
          const RequestResult* res = engine.Result(r.id);
          ASSERT_NE(res, nullptr) << combo;
          EXPECT_TRUE(SameMatrix(res->outputs, oracle.at(r.id)))
              << combo << " session " << r.id;
        }
      }
    }
  }
}

// ---- Decode-priority chunking -----------------------------------------------

TEST(ChunkPolicyTest, DecodePriorityShrinksChunkCap) {
  SchedulerConfig cfg;
  cfg.chunk_tokens = 4;
  cfg.chunk_policy = ChunkPolicy::kDecodePriority;
  // No decode rows resident: exactly kFixed.
  EXPECT_EQ(PrefillChunkRows(10, 100, cfg, 0), 4);
  // Resident decode shrinks the cap...
  EXPECT_EQ(PrefillChunkRows(10, 100, cfg, 3), 1);
  // ...but never below one row (prefill must keep making progress).
  EXPECT_EQ(PrefillChunkRows(10, 100, cfg, 7), 1);
  EXPECT_EQ(FirstChunkRows(10, cfg, 2), 2);

  cfg.chunk_policy = ChunkPolicy::kFixed;
  EXPECT_EQ(PrefillChunkRows(10, 100, cfg, 7), 4);

  ChunkPolicy parsed = ChunkPolicy::kFixed;
  EXPECT_TRUE(ParseChunkPolicy("decode-priority", &parsed));
  EXPECT_EQ(parsed, ChunkPolicy::kDecodePriority);
  EXPECT_TRUE(ParseChunkPolicy("fixed", &parsed));
  EXPECT_EQ(parsed, ChunkPolicy::kFixed);
  EXPECT_FALSE(ParseChunkPolicy("bogus", &parsed));
}

TEST(ChunkPolicyTest, DecodePriorityIsBitLosslessAndYieldsToDecode) {
  const MoeModelConfig cfg = TinyConfig();
  Rng rng(31);
  const auto model = BuildTinyModel(rng, 2, cfg);

  // A decoding resident plus a long late prompt: under decode-priority the
  // prompt's chunks shrink while decode rows are in the batch, stretching
  // its prefill over more steps.
  Rng req_rng(32);
  std::vector<Request> requests;
  requests.push_back(MakeTestRequest(req_rng, 0, 0, 4, 8, cfg.hidden));
  requests.push_back(MakeTestRequest(req_rng, 1, 2, 20, 6, cfg.hidden));

  EngineConfig fixed_cfg = BaseEngineConfig();
  fixed_cfg.scheduler.token_budget = 8;
  fixed_cfg.scheduler.chunk_tokens = 4;

  EngineConfig dp_cfg = fixed_cfg;
  dp_cfg.scheduler.chunk_policy = ChunkPolicy::kDecodePriority;

  ServingEngine fixed_engine(model, fixed_cfg);
  ServingEngine dp_engine(model, dp_cfg);
  for (const Request& r : requests) {
    ASSERT_TRUE(fixed_engine.Submit(r));
    ASSERT_TRUE(dp_engine.Submit(r));
  }
  const int64_t fixed_steps = fixed_engine.RunUntilDrained();
  const int64_t dp_steps = dp_engine.RunUntilDrained();

  // Chunk sizing is schedule policy, not math: outputs stay bit-identical.
  for (const Request& r : requests) {
    EXPECT_TRUE(SameMatrix(fixed_engine.Result(r.id)->outputs, dp_engine.Result(r.id)->outputs))
        << "session " << r.id;
  }
  // Smaller prompt chunks while decode is resident means the prefill takes
  // strictly more steps than fixed-cap chunking.
  EXPECT_GT(dp_steps, fixed_steps);
}

// ---- Server surface ---------------------------------------------------------

TEST(AsyncServerTest, PollAndCancelContracts) {
  const MoeModelConfig cfg = TinyConfig();
  Rng rng(51);
  ServingEngine engine(BuildTinyModel(rng, 1, cfg), BaseEngineConfig());
  AsyncServer server(engine);

  // Unknown ids: Poll is non-blocking and distinct, Cancel names the
  // verdict; both work with the driver stopped.
  EXPECT_FALSE(server.Poll(7).known);
  EXPECT_FALSE(server.WaitTerminal(7).known);
  EXPECT_EQ(server.Cancel(7), CancelOutcome::kUnknownId);

  Rng req_rng(52);
  Request r = MakeTestRequest(req_rng, 7, 0, 4, 3, cfg.hidden);
  EXPECT_TRUE(server.Submit(r));
  EXPECT_FALSE(server.Submit(r)) << "duplicate id";

  // Still buffered in the mailbox (driver not started): queued, zero rows.
  ServerPollResult queued = server.Poll(7);
  EXPECT_TRUE(queued.known);
  EXPECT_FALSE(queued.terminal);
  EXPECT_EQ(queued.status, RequestStatus::kQueued);
  EXPECT_EQ(queued.delivered_rows, 0);

  server.Start();
  const ServerPollResult done = server.WaitTerminal(7);
  EXPECT_TRUE(done.terminal);
  EXPECT_EQ(done.status, RequestStatus::kFinished);
  EXPECT_EQ(done.delivered_rows, 7);
  EXPECT_EQ(done.new_rows.rows(), 7);

  // The poll cursor advanced past the delivered rows; re-polling is empty
  // but still terminal. Cancelling a finished session is already-terminal.
  const ServerPollResult again = server.Poll(7);
  EXPECT_TRUE(again.terminal);
  EXPECT_EQ(again.new_rows.rows(), 0);
  EXPECT_EQ(again.delivered_rows, 7);
  EXPECT_EQ(server.Cancel(7), CancelOutcome::kAlreadyTerminal);
  EXPECT_EQ(server.Cancel(99), CancelOutcome::kUnknownId);
  server.Drain();
  server.Stop();
  EXPECT_GT(server.steps(), 0);
}

TEST(AsyncServerTest, CancelCatchesMailboxPendingSubmission) {
  const MoeModelConfig cfg = TinyConfig();
  Rng rng(61);
  ServingEngine engine(BuildTinyModel(rng, 1, cfg), BaseEngineConfig());
  AsyncServer server(engine);

  Rng req_rng(62);
  EXPECT_TRUE(server.Submit(MakeTestRequest(req_rng, 1, 0, 4, 2, cfg.hidden)));
  // Driver not started: the submission is still in the mailbox and cancels
  // without the engine ever seeing the id.
  EXPECT_EQ(server.Cancel(1), CancelOutcome::kCancelled);
  EXPECT_EQ(server.Cancel(1), CancelOutcome::kAlreadyTerminal);
  const ServerPollResult polled = server.Poll(1);
  EXPECT_TRUE(polled.terminal);
  EXPECT_EQ(polled.status, RequestStatus::kCancelled);

  server.Start();
  server.Drain();
  server.Stop();
  EXPECT_EQ(engine.Cancel(1), CancelOutcome::kUnknownId) << "engine never saw the id";
  EXPECT_EQ(engine.kv_cache().allocator().used_pages(), 0);
}

TEST(AsyncServerTest, MailboxBackpressureShedsLowestPriorityBelowArrival) {
  const MoeModelConfig cfg = TinyConfig();
  Rng rng(71);
  ServingEngine engine(BuildTinyModel(rng, 1, cfg), BaseEngineConfig());
  ServerConfig server_cfg;
  server_cfg.mailbox_capacity = 2;
  AsyncServer server(engine, server_cfg);

  Rng req_rng(72);
  auto make = [&](int64_t id, int priority) {
    Request r = MakeTestRequest(req_rng, id, 0, 4, 2, cfg.hidden);
    r.priority = priority;
    return r;
  };

  EXPECT_TRUE(server.Submit(make(0, 0)));
  EXPECT_TRUE(server.Submit(make(1, 1)));
  // Mailbox full and nothing strictly below priority 0: the arrival itself
  // sheds. Its session still exists, already terminal.
  EXPECT_FALSE(server.Submit(make(2, 0)));
  const ServerPollResult shed_arrival = server.Poll(2);
  EXPECT_TRUE(shed_arrival.terminal);
  EXPECT_EQ(shed_arrival.status, RequestStatus::kShedded);
  // A priority-2 arrival displaces the lowest class pending (id 0).
  EXPECT_TRUE(server.Submit(make(3, 2)));
  const ServerPollResult displaced = server.Poll(0);
  EXPECT_TRUE(displaced.terminal);
  EXPECT_EQ(displaced.status, RequestStatus::kShedded);
  EXPECT_EQ(server.shed_submits(), 2);

  server.Start();
  server.Drain();
  // The survivors finish; the shed sessions stay shed.
  EXPECT_EQ(server.WaitTerminal(1).status, RequestStatus::kFinished);
  EXPECT_EQ(server.WaitTerminal(3).status, RequestStatus::kFinished);
  EXPECT_EQ(server.WaitTerminal(0).status, RequestStatus::kShedded);
  EXPECT_EQ(server.WaitTerminal(2).status, RequestStatus::kShedded);
  server.Stop();
  EXPECT_EQ(engine.kv_cache().allocator().used_pages(), 0);

  // A tie in the lowest class sheds the younger submission, the engine's
  // ingress rule (RequestQueue::ShedVictim): ids 10 and 11 pending at
  // priority 0, a priority-1 arrival displaces 11.
  ServingEngine tie_engine(BuildTinyModel(rng, 1, cfg), BaseEngineConfig());
  AsyncServer tie_server(tie_engine, server_cfg);
  EXPECT_TRUE(tie_server.Submit(make(10, 0)));
  EXPECT_TRUE(tie_server.Submit(make(11, 0)));
  EXPECT_TRUE(tie_server.Submit(make(12, 1)));
  EXPECT_TRUE(tie_server.Poll(11).terminal);
  EXPECT_EQ(tie_server.Poll(11).status, RequestStatus::kShedded);
  EXPECT_FALSE(tie_server.Poll(10).terminal);
  tie_server.Start();
  tie_server.Drain();
  EXPECT_EQ(tie_server.WaitTerminal(10).status, RequestStatus::kFinished);
  EXPECT_EQ(tie_server.WaitTerminal(12).status, RequestStatus::kFinished);
  EXPECT_EQ(tie_server.WaitTerminal(11).status, RequestStatus::kShedded);
  tie_server.Stop();
  EXPECT_EQ(tie_engine.kv_cache().allocator().used_pages(), 0);
}

TEST(AsyncServerTest, WallClockStampsArrivalsAtDrainTime) {
  const MoeModelConfig cfg = TinyConfig();
  Rng rng(81);
  ServingEngine engine(BuildTinyModel(rng, 1, cfg), BaseEngineConfig());
  ServerConfig server_cfg;
  server_cfg.clock = ServerClock::kWall;
  AsyncServer server(engine, server_cfg);

  // A far-future virtual arrival step is overridden by the wall clock: the
  // request is schedulable the moment the driver drains it.
  Rng req_rng(82);
  Request r = MakeTestRequest(req_rng, 1, /*arrival=*/100000, 4, 2, cfg.hidden);
  EXPECT_TRUE(server.Submit(r));
  server.Start();
  const ServerPollResult done = server.WaitTerminal(1);
  EXPECT_EQ(done.status, RequestStatus::kFinished);
  server.Drain();
  server.Stop();
  EXPECT_LT(server.steps(), 1000);
}

// ---- Multi-client chaos -----------------------------------------------------

// N client threads hammer Submit/Poll/Cancel against a faulty engine while
// the driver steps. Gates: every session reaches exactly one terminal
// status, terminal results are frozen, and the paged KV cache plus the host
// swap tier end empty.
TEST(AsyncServerTest, ConcurrentClientsChaosEverySessionTerminalNoLeaks) {
  const MoeModelConfig cfg = TinyConfig();
  Rng rng(91);
  const auto model = BuildTinyModel(rng, 2, cfg);

  EngineConfig engine_cfg = BaseEngineConfig();
  engine_cfg.shards = 2;
  engine_cfg.scheduler.page_tokens = 4;
  engine_cfg.scheduler.max_pages = 10;
  engine_cfg.scheduler.preempt = true;
  engine_cfg.scheduler.chunk_tokens = 4;
  engine_cfg.scheduler.chunk_policy = ChunkPolicy::kDecodePriority;
  engine_cfg.swap = true;
  engine_cfg.host_pages = 64;
  {
    std::string error;
    ASSERT_TRUE(ParseFaultSchedule("kv-alloc~0.1,swap-out~0.2,swap-in~0.2,swap-corrupt~0.5",
                                   &engine_cfg.faults, &error))
        << error;
  }
  engine_cfg.fault_seed = 7;

  ServingEngine engine(model, engine_cfg);
  ServerConfig server_cfg;
  server_cfg.clock = ServerClock::kWall;
  AsyncServer server(engine, server_cfg);
  server.Start();

  constexpr int kClients = 4;
  constexpr int64_t kPerClient = 6;
  std::atomic<int> submit_failures{0};
  std::atomic<int> unknown_cancels{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng thread_rng(1000 + c);
      for (int64_t i = 0; i < kPerClient; ++i) {
        const int64_t id = c * kPerClient + i;
        // Cancel targets (id % 5 == 0) get long decodes so they cannot
        // finish before the cancel lands — the cancelled-status gate below
        // stays deterministic under any scheduler interleaving.
        const int64_t decode = id % 5 == 0 ? 24 : 1 + (id % 5);
        Request r = MakeTestRequest(thread_rng, id, 0, 3 + (id % 6), decode, cfg.hidden);
        r.priority = static_cast<int>(id % 3);
        if (id % 7 == 0 && id % 5 != 0) {
          r.deadline_steps = 3 + id % 4;
        }
        if (!server.Submit(std::move(r))) {
          submit_failures.fetch_add(1);
          continue;
        }
        // Interleave polls (and the occasional cancel) with the driver.
        const ServerPollResult polled = server.Poll(id);
        EXPECT_TRUE(polled.known);
        if (id % 5 == 0) {
          // Submitted through this server: the verdict can be cancelled or
          // already-terminal, never unknown.
          if (server.Cancel(id) == CancelOutcome::kUnknownId) {
            unknown_cancels.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_EQ(submit_failures.load(), 0);
  EXPECT_EQ(unknown_cancels.load(), 0);

  server.Drain();
  // Every session is terminal with a frozen status, and cancelled sessions
  // really report cancelled.
  std::map<RequestStatus, int> by_status;
  for (int64_t id = 0; id < kClients * kPerClient; ++id) {
    const ServerPollResult first = server.WaitTerminal(id);
    ASSERT_TRUE(first.known) << "session " << id;
    ASSERT_TRUE(first.terminal) << "session " << id;
    const ServerPollResult second = server.Poll(id);
    EXPECT_EQ(second.status, first.status) << "terminal status changed for session " << id;
    EXPECT_EQ(second.new_rows.rows(), 0) << "rows after terminal drain for session " << id;
    by_status[first.status]++;
  }
  server.Stop();

  // The workload exercised more than one terminal path.
  EXPECT_GT(by_status[RequestStatus::kFinished], 0);
  EXPECT_GT(by_status[RequestStatus::kCancelled], 0);

  // Zero page leaks, device and host tier.
  EXPECT_EQ(engine.kv_cache().allocator().used_pages(), 0);
  EXPECT_EQ(engine.swap_tier().used_pages(), 0);
}

}  // namespace
}  // namespace serving
}  // namespace samoyeds
