// Fault injection & serving hardening: injector determinism, schedule
// parsing, per-request deadlines, overload shedding, shard failover,
// corrupted-swap recovery, the liveness watchdog — and the chaos gates:
// every session reaches exactly one terminal status with exactly one
// reason, no page leaks, survivors bit-identical to a fault-free run, and
// the same schedule + seed reproducing byte-identical reports.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <regex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/moe/decoder_layer.h"
#include "src/serving/engine.h"
#include "src/serving/faults.h"
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

struct TinyModel {
  std::vector<DecoderLayerWeights> dense;
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

EngineConfig TinyEngineConfig(int threads = 2) {
  EngineConfig cfg;
  cfg.heads = 4;
  cfg.top_k = 2;
  cfg.threads = threads;
  cfg.scheduler.policy = SchedulerPolicy::kTokenBudget;
  cfg.scheduler.token_budget = 24;
  return cfg;
}

std::vector<FaultRule> MustParse(const std::string& spec) {
  std::vector<FaultRule> rules;
  std::string error;
  EXPECT_TRUE(ParseFaultSchedule(spec, &rules, &error)) << spec << ": " << error;
  return rules;
}

// ---- Schedule grammar -------------------------------------------------------

TEST(FaultScheduleTest, ParsesRulesTriggersArgsAndBudgets) {
  const std::vector<FaultRule> rules =
      MustParse("kv-alloc~0.05,shard-die@40:1,swap-corrupt@12x2,link-degrade~0.5");
  ASSERT_EQ(rules.size(), 4u);

  EXPECT_EQ(rules[0].point, FaultPoint::kKvAlloc);
  EXPECT_DOUBLE_EQ(rules[0].probability, 0.05);
  EXPECT_EQ(rules[0].at_step, -1);
  EXPECT_EQ(rules[0].max_fires, -1);

  EXPECT_EQ(rules[1].point, FaultPoint::kShardDeath);
  EXPECT_EQ(rules[1].at_step, 40);
  EXPECT_EQ(rules[1].arg, 1);
  // Step-triggered topology faults default to firing once, not per-probe.
  EXPECT_EQ(rules[1].max_fires, 1);

  EXPECT_EQ(rules[2].point, FaultPoint::kSwapCorrupt);
  EXPECT_EQ(rules[2].at_step, 12);
  EXPECT_EQ(rules[2].max_fires, 2);

  EXPECT_EQ(rules[3].point, FaultPoint::kLinkDegrade);
  EXPECT_DOUBLE_EQ(rules[3].probability, 0.5);
  EXPECT_EQ(rules[3].arg, 2);  // default bandwidth divisor

  // An empty spec is an empty (fault-free) schedule, not an error.
  EXPECT_TRUE(MustParse("").empty());
}

TEST(FaultScheduleTest, RejectsMalformedRulesWithNamedErrors) {
  const std::pair<const char*, const char*> bad[] = {
      {"bogus~0.5", "unknown fault point"},
      {"kv-alloc", "lacks"},
      {"kv-alloc~1.5", "bad probability"},
      {"kv-alloc@-3", "bad step"},
      {"kv-alloc@5x0", "bad fire budget"},
      {"shard-die@4:z", "bad arg"},
      {"kv-alloc~0.1,,swap-in~0.2", "empty fault rule"},
  };
  for (const auto& [spec, needle] : bad) {
    std::vector<FaultRule> rules;
    std::string error;
    EXPECT_FALSE(ParseFaultSchedule(spec, &rules, &error)) << spec;
    EXPECT_NE(error.find(needle), std::string::npos) << spec << " -> " << error;
    EXPECT_TRUE(rules.empty()) << spec;  // untouched on failure
  }
}

// ---- Injector determinism ---------------------------------------------------

std::vector<int> ProbeTrace(uint64_t seed, int64_t* swap_in_fires) {
  FaultInjector inj;
  inj.Configure(MustParse("kv-alloc~0.3,swap-in~0.5x4,swap-out~0.2"), seed);
  std::vector<int> fires;
  for (int64_t step = 0; step < 40; ++step) {
    inj.BeginStep(step);
    for (FaultPoint p :
         {FaultPoint::kKvAlloc, FaultPoint::kSwapIn, FaultPoint::kSwapOut}) {
      for (int k = 0; k < 3; ++k) {
        fires.push_back(inj.Probe(p).fire ? 1 : 0);
      }
    }
  }
  if (swap_in_fires != nullptr) {
    *swap_in_fires = inj.fires(FaultPoint::kSwapIn);
  }
  return fires;
}

TEST(FaultInjectorTest, SameSeedReplaysBitExactlyAndBudgetsCapFires) {
  int64_t swap_in_fires = 0;
  const std::vector<int> a = ProbeTrace(7, &swap_in_fires);
  const std::vector<int> b = ProbeTrace(7, nullptr);
  EXPECT_EQ(a, b);
  // The x4 lifetime budget on swap-in held across 120 probes of the point.
  EXPECT_LE(swap_in_fires, 4);
  EXPECT_GT(swap_in_fires, 0);
  // 360 independent draws: two seeds never produce the same trace.
  EXPECT_NE(a, ProbeTrace(8, nullptr));
}

TEST(FaultInjectorTest, AtStepRuleFiresOnEveryProbeOfExactlyThatStep) {
  FaultInjector inj;
  inj.Configure(MustParse("kv-alloc@5"), 0);
  for (int64_t step = 0; step < 10; ++step) {
    inj.BeginStep(step);
    int fired = 0;
    for (int k = 0; k < 4; ++k) {
      fired += inj.ShouldFail(FaultPoint::kKvAlloc) ? 1 : 0;
    }
    EXPECT_EQ(fired, step == 5 ? 4 : 0) << "step " << step;
  }
  EXPECT_EQ(inj.total_fires(), 4);
  EXPECT_EQ(inj.fires(FaultPoint::kKvAlloc), 4);

  FaultInjector capped;
  capped.Configure(MustParse("kv-alloc@5x2"), 0);
  for (int64_t step = 0; step < 10; ++step) {
    capped.BeginStep(step);
    for (int k = 0; k < 4; ++k) {
      capped.ShouldFail(FaultPoint::kKvAlloc);
    }
  }
  EXPECT_EQ(capped.total_fires(), 2);
}

// ---- Deadlines --------------------------------------------------------------

TEST(ServingFaultsTest, DeadlineExpiryTerminatesWithTimedOutStatus) {
  Rng rng(151);
  const MoeModelConfig cfg = TinyConfig();
  const TinyModel model = BuildTinyModel(rng, 1, cfg);
  ServingEngine engine(model.sparse, TinyEngineConfig());

  Request doomed = MakeTestRequest(rng, 0, 0, 4, 30, cfg.hidden);
  doomed.deadline_steps = 5;  // 34 tokens can never finish in 5 steps
  Request fine = MakeTestRequest(rng, 1, 0, 4, 2, cfg.hidden);
  ASSERT_TRUE(engine.Submit(doomed));
  ASSERT_TRUE(engine.Submit(fine));
  engine.RunUntilDrained(200);

  ASSERT_EQ(engine.Status(0), RequestStatus::kTimedOut);
  const RequestResult* result = engine.Result(0);
  ASSERT_NE(result, nullptr);
  EXPECT_NE(result->reason.find("deadline exceeded (5 steps)"), std::string::npos)
      << result->reason;
  // The partial prefix produced before expiry is delivered, not discarded.
  EXPECT_GE(result->outputs.rows(), 1);
  EXPECT_LT(result->outputs.rows(), doomed.total_tokens());

  EXPECT_EQ(engine.Status(1), RequestStatus::kFinished);
  EXPECT_EQ(engine.Report().requests_timed_out, 1);
  EXPECT_EQ(engine.kv_cache().allocator().used_pages(), 0);
}

TEST(ServingFaultsTest, VictimSelectionEvictsMostSlackFirst) {
  // Same priority class: the no-deadline resident (infinite slack) is evicted
  // before the near-deadline one; higher priority outranks both.
  std::vector<VictimCandidate> residents;
  residents.push_back(VictimCandidate{1, 0, 0, 3});
  residents.push_back(VictimCandidate{2, 0, 1, INT64_MAX});
  residents.push_back(VictimCandidate{3, 1, 2, 1});
  EXPECT_EQ(Scheduler::PickVictim(residents), 1u);
}

// ---- Overload shedding ------------------------------------------------------

TEST(ServingFaultsTest, BoundedIngressShedsLowestPriorityYoungestFirst) {
  Rng rng(153);
  const MoeModelConfig cfg = TinyConfig();
  const TinyModel model = BuildTinyModel(rng, 1, cfg);
  EngineConfig engine_cfg = TinyEngineConfig();
  engine_cfg.ingress_capacity = 2;
  ServingEngine engine(model.sparse, engine_cfg);

  // Arrival step 1 keeps everything parked in the ingress queue at submit
  // time, so the capacity gate is what decides.
  ASSERT_TRUE(engine.Submit(MakeTestRequest(rng, 0, 1, 4, 2, cfg.hidden)));
  ASSERT_TRUE(engine.Submit(MakeTestRequest(rng, 1, 1, 4, 2, cfg.hidden)));

  // A higher-priority arrival displaces the youngest bottom-class entry.
  Request vip = MakeTestRequest(rng, 2, 1, 4, 2, cfg.hidden);
  vip.priority = 1;
  ASSERT_TRUE(engine.Submit(vip));
  ASSERT_EQ(engine.Status(1), RequestStatus::kShedded);
  const RequestResult* displaced = engine.Result(1);
  ASSERT_NE(displaced, nullptr);
  EXPECT_NE(displaced->reason.find("displaced by a higher-priority arrival"),
            std::string::npos)
      << displaced->reason;

  // A bottom-class arrival with no victim below it is itself shed.
  EXPECT_FALSE(engine.Submit(MakeTestRequest(rng, 3, 1, 4, 2, cfg.hidden)));
  ASSERT_EQ(engine.Status(3), RequestStatus::kShedded);
  const RequestResult* refused = engine.Result(3);
  ASSERT_NE(refused, nullptr);
  EXPECT_NE(refused->reason.find("ingress queue full"), std::string::npos)
      << refused->reason;

  engine.RunUntilDrained(200);
  EXPECT_EQ(engine.Status(0), RequestStatus::kFinished);
  EXPECT_EQ(engine.Status(2), RequestStatus::kFinished);
  EXPECT_EQ(engine.Report().requests_shed, 2);
}

// ---- Shard failover ---------------------------------------------------------

// Runs `requests` to drain and returns each finished request's outputs keyed
// by id (every request is expected to finish).
std::map<int64_t, MatrixF> RunAllFinished(const TinyModel& model, const EngineConfig& cfg,
                                          const std::vector<Request>& requests,
                                          std::unique_ptr<ServingEngine>* keep = nullptr) {
  auto engine = std::make_unique<ServingEngine>(model.sparse, cfg);
  for (const Request& r : requests) {
    EXPECT_TRUE(engine->Submit(r));
  }
  engine->RunUntilDrained(20000);
  std::map<int64_t, MatrixF> outputs;
  for (const Request& r : requests) {
    const RequestResult* result = engine->Result(r.id);
    EXPECT_NE(result, nullptr);
    if (result != nullptr) {
      EXPECT_EQ(result->status, RequestStatus::kFinished) << "request " << r.id;
      outputs.emplace(r.id, result->outputs);
    }
  }
  if (keep != nullptr) {
    *keep = std::move(engine);
  }
  return outputs;
}

std::vector<Request> FailoverWorkload(int64_t hidden) {
  Rng rng(161);
  std::vector<Request> requests;
  const int64_t prompts[] = {4, 6, 8, 5, 7, 4};
  const int64_t decodes[] = {3, 5, 2, 4, 6, 3};
  const int64_t arrivals[] = {0, 0, 2, 4, 6, 8};
  for (int64_t i = 0; i < 6; ++i) {
    requests.push_back(MakeTestRequest(rng, i, arrivals[i], prompts[i], decodes[i], hidden));
  }
  return requests;
}

TEST(ServingFaultsTest, ShardDeathFailsOverBitIdentically) {
  Rng seed_rng(163);
  MoeModelConfig cfg = TinyConfig();
  cfg.num_experts = 8;
  const TinyModel model = BuildTinyModel(seed_rng, 2, cfg);
  const std::vector<Request> requests = FailoverWorkload(cfg.hidden);

  const std::map<int64_t, MatrixF> baseline =
      RunAllFinished(model, TinyEngineConfig(2), requests);

  EngineConfig engine_cfg = TinyEngineConfig(2);
  engine_cfg.shards = 4;
  engine_cfg.faults = MustParse("shard-die@3:1");
  engine_cfg.fault_seed = 1;
  std::unique_ptr<ServingEngine> engine;
  const std::map<int64_t, MatrixF> degraded =
      RunAllFinished(model, engine_cfg, requests, &engine);

  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->shard_failovers(), 1);
  ASSERT_EQ(engine->live_shards().size(), 3u);
  EXPECT_EQ(engine->live_shards(), (std::vector<int>{0, 2, 3}));

  // The dead shard's experts were re-placed mid-run and every request still
  // reproduces the unsharded outputs bit-for-bit.
  ASSERT_EQ(degraded.size(), baseline.size());
  for (const auto& [id, out] : degraded) {
    EXPECT_TRUE(out == baseline.at(id)) << "request " << id;
  }

  const ServingReport report = engine->Report();
  EXPECT_EQ(report.shard_failovers, 1);
  EXPECT_EQ(report.injected_faults, 1);
  const std::string json = report.ToJson();
  EXPECT_TRUE(JsonParses(json));
  double failovers = 0.0;
  ASSERT_TRUE(FindJsonNumber(json, "shard_failovers", &failovers));
  EXPECT_EQ(failovers, 1.0);
}

TEST(ServingFaultsTest, DirectFailShardMidRunAndLastShardRefuses) {
  Rng seed_rng(165);
  MoeModelConfig cfg = TinyConfig();
  cfg.num_experts = 8;
  const TinyModel model = BuildTinyModel(seed_rng, 2, cfg);
  const std::vector<Request> requests = FailoverWorkload(cfg.hidden);
  const std::map<int64_t, MatrixF> baseline =
      RunAllFinished(model, TinyEngineConfig(2), requests);

  EngineConfig engine_cfg = TinyEngineConfig(2);
  engine_cfg.shards = 2;
  ServingEngine engine(model.sparse, engine_cfg);
  for (const Request& r : requests) {
    ASSERT_TRUE(engine.Submit(r));
  }
  engine.Step();
  engine.Step();
  EXPECT_TRUE(engine.FailShard(1));
  EXPECT_FALSE(engine.FailShard(1));  // already dead
  EXPECT_FALSE(engine.FailShard(0));  // the last survivor keeps serving
  EXPECT_EQ(engine.live_shards(), (std::vector<int>{0}));
  engine.RunUntilDrained(20000);

  for (const Request& r : requests) {
    ASSERT_EQ(engine.Status(r.id), RequestStatus::kFinished) << "request " << r.id;
    EXPECT_TRUE(engine.Result(r.id)->outputs == baseline.at(r.id)) << "request " << r.id;
  }
  EXPECT_EQ(engine.shard_failovers(), 1);
}

// ---- Swap-path faults -------------------------------------------------------

// Four 8+8 requests against an 8-page pool of 4-token pages: decode growth
// must evict, and with swap enabled the evictions go through the host tier.
std::vector<Request> SwapPressureWorkload(int64_t hidden) {
  Rng rng(167);
  std::vector<Request> requests;
  for (int64_t i = 0; i < 4; ++i) {
    requests.push_back(MakeTestRequest(rng, i, 0, 8, 8, hidden));
  }
  return requests;
}

EngineConfig SwapEngineConfig() {
  EngineConfig cfg = TinyEngineConfig();
  cfg.scheduler.token_budget = 40;
  cfg.scheduler.page_tokens = 4;
  cfg.scheduler.max_pages = 8;
  cfg.scheduler.preempt = true;
  cfg.swap = true;
  cfg.host_pages = 64;
  return cfg;
}

TEST(ServingFaultsTest, CorruptedSwapPagesAreDetectedAndRecomputed) {
  Rng seed_rng(169);
  const MoeModelConfig cfg = TinyConfig();
  const TinyModel model = BuildTinyModel(seed_rng, 2, cfg);
  const std::vector<Request> requests = SwapPressureWorkload(cfg.hidden);

  std::unique_ptr<ServingEngine> clean_engine;
  const std::map<int64_t, MatrixF> clean =
      RunAllFinished(model, SwapEngineConfig(), requests, &clean_engine);
  ASSERT_NE(clean_engine, nullptr);
  ASSERT_GT(clean_engine->Report().swap_outs, 0) << "workload must exercise swap";

  EngineConfig engine_cfg = SwapEngineConfig();
  engine_cfg.faults = MustParse("swap-corrupt~1.0");  // flip a bit in every stash
  engine_cfg.fault_seed = 3;
  std::unique_ptr<ServingEngine> engine;
  const std::map<int64_t, MatrixF> recovered =
      RunAllFinished(model, engine_cfg, requests, &engine);

  // Every swap-in hit a checksum mismatch, fell back to recompute, and still
  // produced bit-identical outputs.
  ASSERT_NE(engine, nullptr);
  EXPECT_GT(engine->swap_tier().corruptions_detected(), 0);
  EXPECT_EQ(engine->Report().swap_corruptions, engine->swap_tier().corruptions_detected());
  ASSERT_EQ(recovered.size(), clean.size());
  for (const auto& [id, out] : recovered) {
    EXPECT_TRUE(out == clean.at(id)) << "request " << id;
  }
  EXPECT_EQ(engine->kv_cache().allocator().used_pages(), 0);
  EXPECT_EQ(engine->swap_tier().used_pages(), 0);
}

TEST(ServingFaultsTest, TransientAllocAndSwapFaultsRetryToCompletion) {
  Rng seed_rng(171);
  const MoeModelConfig cfg = TinyConfig();
  const TinyModel model = BuildTinyModel(seed_rng, 2, cfg);
  const std::vector<Request> requests = SwapPressureWorkload(cfg.hidden);
  const std::map<int64_t, MatrixF> clean =
      RunAllFinished(model, SwapEngineConfig(), requests);

  EngineConfig engine_cfg = SwapEngineConfig();
  engine_cfg.faults = MustParse("kv-alloc~0.2,swap-out~0.3,swap-in~0.3");
  engine_cfg.fault_seed = 11;
  std::unique_ptr<ServingEngine> engine;
  const std::map<int64_t, MatrixF> faulty =
      RunAllFinished(model, engine_cfg, requests, &engine);

  ASSERT_NE(engine, nullptr);
  const ServingReport report = engine->Report();
  EXPECT_GT(report.injected_faults, 0);
  EXPECT_GT(report.fault_retries, 0);
  EXPECT_EQ(report.fault_retries, engine->fault_retries());
  EXPECT_GT(report.fault_backoff_ms, 0.0);
  ASSERT_EQ(faulty.size(), clean.size());
  for (const auto& [id, out] : faulty) {
    EXPECT_TRUE(out == clean.at(id)) << "request " << id;
  }
  EXPECT_EQ(engine->kv_cache().allocator().used_pages(), 0);
  EXPECT_EQ(engine->swap_tier().used_pages(), 0);
}

// ---- Liveness watchdog ------------------------------------------------------

TEST(ServingFaultsTest, WatchdogTripsOncePerBacklogStarvationEpisode) {
  Rng rng(173);
  const MoeModelConfig cfg = TinyConfig();
  const TinyModel model = BuildTinyModel(rng, 1, cfg);

  // 6-page pool of 8-token pages, preemption off: the 40-token resident
  // reserves 5 pages, so the 24-token follower (3 pages) starves in the
  // backlog until the resident retires ~33 steps later.
  EngineConfig engine_cfg = TinyEngineConfig();
  engine_cfg.scheduler.page_tokens = 8;
  engine_cfg.scheduler.max_pages = 6;
  engine_cfg.scheduler.preempt = false;
  engine_cfg.watchdog_steps = 10;
  std::vector<std::pair<int64_t, int64_t>> trips;
  engine_cfg.watchdog_hook = [&trips](int64_t id, int64_t step) {
    trips.emplace_back(id, step);
  };
  ServingEngine engine(model.sparse, engine_cfg);

  ASSERT_TRUE(engine.Submit(MakeTestRequest(rng, 0, 0, 8, 32, cfg.hidden)));
  ASSERT_TRUE(engine.Submit(MakeTestRequest(rng, 1, 0, 8, 16, cfg.hidden)));
  engine.RunUntilDrained(500);

  // The stall was detected exactly once (one episode), attributed to the
  // starved session, and the trip was a diagnostic — not a kill: the starved
  // session still finished once capacity freed up.
  EXPECT_EQ(engine.Status(0), RequestStatus::kFinished);
  EXPECT_EQ(engine.Status(1), RequestStatus::kFinished);
  EXPECT_EQ(engine.watchdog_trips(), 1);
  ASSERT_EQ(trips.size(), 1u);
  EXPECT_EQ(trips[0].first, 1);
  EXPECT_GE(trips[0].second, 10);
  EXPECT_EQ(engine.Report().watchdog_trips, 1);
}

// ---- The chaos gate ---------------------------------------------------------

// Deterministic 10-request workload with mixed priorities and deadlines:
// id 3's deadline is unmeetable (guaranteed expiry, faults or not), id 8's is
// generous (set but met).
std::vector<Request> ChaosWorkload(int64_t hidden) {
  Rng rng(175);
  std::vector<Request> requests;
  const int64_t prompts[] = {6, 4, 8, 5, 7, 4, 6, 8, 5, 4};
  const int64_t decodes[] = {4, 6, 2, 5, 3, 6, 4, 2, 5, 3};
  const int64_t arrivals[] = {0, 0, 1, 2, 3, 4, 5, 6, 7, 8};
  const int priorities[] = {0, 1, 0, 0, 2, 0, 1, 0, 0, 1};
  for (int64_t i = 0; i < 10; ++i) {
    Request r = MakeTestRequest(rng, i, arrivals[i], prompts[i], decodes[i], hidden);
    r.priority = priorities[i];
    if (i == 3) {
      r.deadline_steps = 2;
    } else if (i == 8) {
      r.deadline_steps = 80;
    }
    requests.push_back(std::move(r));
  }
  return requests;
}

EngineConfig ChaosEngineConfig(bool faults) {
  EngineConfig cfg = TinyEngineConfig(2);
  cfg.shards = 2;
  cfg.scheduler.page_tokens = 4;
  cfg.scheduler.max_pages = 10;
  cfg.scheduler.preempt = true;
  cfg.scheduler.chunk_tokens = 4;
  cfg.swap = true;
  cfg.host_pages = 64;
  if (faults) {
    cfg.faults =
        MustParse("kv-alloc~0.1,swap-out~0.2,swap-in~0.2,swap-corrupt~0.5,shard-die@6:1");
    cfg.fault_seed = 7;
  }
  return cfg;
}

struct ChaosRun {
  std::vector<RequestStatus> statuses;
  std::map<int64_t, MatrixF> outputs;  // all sessions, partial or complete
  std::string report_json;             // wall-clock-stripped
  int64_t shard_failovers = 0;
  int64_t injected_faults = 0;
  int64_t timed_out = 0;
};

ChaosRun RunChaos(const TinyModel& model, const EngineConfig& cfg,
                  const std::vector<Request>& requests) {
  ServingEngine engine(model.sparse, cfg);
  for (const Request& r : requests) {
    EXPECT_TRUE(engine.Submit(r));
  }
  engine.RunUntilDrained(20000);

  ChaosRun run;
  for (const Request& r : requests) {
    const RequestStatus status = engine.Status(r.id);
    EXPECT_TRUE(IsTerminal(status)) << "request " << r.id << " not terminal";
    run.statuses.push_back(status);
    const RequestResult* result = engine.Result(r.id);
    EXPECT_NE(result, nullptr);
    if (result != nullptr) {
      // Exactly-one-reason invariant: finished sessions carry the full output
      // matrix and no reason; every other terminal carries a reason.
      if (status == RequestStatus::kFinished) {
        EXPECT_TRUE(result->reason.empty()) << "request " << r.id;
        EXPECT_EQ(result->outputs.rows(), r.total_tokens()) << "request " << r.id;
      } else {
        EXPECT_FALSE(result->reason.empty()) << "request " << r.id;
      }
      run.outputs.emplace(r.id, result->outputs);
    }
  }

  // Zero leaked pages, balanced allocator accounting, an empty host tier.
  EXPECT_EQ(engine.kv_cache().allocator().used_pages(), 0);
  EXPECT_EQ(engine.kv_cache().allocator().free_pages(),
            engine.kv_cache().allocator().total_pages());
  EXPECT_EQ(engine.swap_tier().used_pages(), 0);

  ServingReport report = engine.Report();
  run.shard_failovers = report.shard_failovers;
  run.injected_faults = report.injected_faults;
  run.timed_out = report.requests_timed_out;
  report.StripWallClock();
  run.report_json = report.ToJson();
  return run;
}

TEST(ServingFaultsTest, ChaosScheduleDrainsCleanlyAndSurvivorsMatchFaultFree) {
  Rng seed_rng(177);
  MoeModelConfig cfg = TinyConfig();
  cfg.num_experts = 8;
  const TinyModel model = BuildTinyModel(seed_rng, 2, cfg);
  const std::vector<Request> requests = ChaosWorkload(cfg.hidden);

  const ChaosRun clean = RunChaos(model, ChaosEngineConfig(/*faults=*/false), requests);
  const ChaosRun chaos = RunChaos(model, ChaosEngineConfig(/*faults=*/true), requests);

  // The schedule really injected chaos: faults fired, the shard died, and
  // the unmeetable deadline expired.
  EXPECT_GT(chaos.injected_faults, 0);
  EXPECT_EQ(chaos.shard_failovers, 1);
  EXPECT_GE(chaos.timed_out, 1);
  EXPECT_EQ(chaos.statuses[3], RequestStatus::kTimedOut);

  // Most of the workload survives the chaos.
  int64_t finished = 0;
  for (const RequestStatus s : chaos.statuses) {
    finished += s == RequestStatus::kFinished ? 1 : 0;
  }
  EXPECT_GE(finished, 6);

  // Surviving sessions are bit-identical to the fault-free run.
  for (size_t i = 0; i < requests.size(); ++i) {
    const int64_t id = requests[i].id;
    if (chaos.statuses[i] == RequestStatus::kFinished &&
        clean.statuses[i] == RequestStatus::kFinished) {
      EXPECT_TRUE(chaos.outputs.at(id) == clean.outputs.at(id)) << "request " << id;
    }
  }
  EXPECT_TRUE(JsonParses(chaos.report_json));
}

TEST(ServingFaultsTest, SameScheduleAndSeedReproduceByteIdenticalReports) {
  Rng seed_rng(179);
  MoeModelConfig cfg = TinyConfig();
  cfg.num_experts = 8;
  const TinyModel model = BuildTinyModel(seed_rng, 2, cfg);
  const std::vector<Request> requests = ChaosWorkload(cfg.hidden);

  const ChaosRun first = RunChaos(model, ChaosEngineConfig(/*faults=*/true), requests);
  const ChaosRun second = RunChaos(model, ChaosEngineConfig(/*faults=*/true), requests);

  EXPECT_EQ(first.statuses, second.statuses);
  for (const auto& [id, out] : first.outputs) {
    EXPECT_TRUE(out == second.outputs.at(id)) << "request " << id;
  }
  // The whole wall-clock-stripped report — counters, fault telemetry, and
  // per-request timelines — replays byte-for-byte.
  EXPECT_EQ(first.report_json, second.report_json);
}

// StripWallClock zeroes exactly the measured keys. Listed here independently
// of the field tables in metrics.cc: a deterministic field wrongly tagged
// measured would be zeroed in both replays and still compare equal above.
TEST(ServingFaultsTest, StripWallClockZeroesExactlyTheMeasuredKeys) {
  Rng seed_rng(183);
  MoeModelConfig cfg = TinyConfig();
  cfg.num_experts = 8;
  const TinyModel model = BuildTinyModel(seed_rng, 2, cfg);
  EngineConfig engine_cfg = ChaosEngineConfig(/*faults=*/true);
  engine_cfg.autotune = true;
  ServingEngine engine(model.sparse, engine_cfg);
  for (const Request& r : ChaosWorkload(cfg.hidden)) {
    EXPECT_TRUE(engine.Submit(r));
  }
  engine.RunUntilDrained(20000);
  ServingReport report = engine.Report();
  // Most counters are live on this run, so a wrongly zeroed one shows.
  EXPECT_GT(report.preemptions, 0);
  EXPECT_GT(report.swap_outs, 0);
  EXPECT_GT(report.injected_faults, 0);
  EXPECT_GT(report.autotune_lookups, 0);
  EXPECT_GT(report.prefill_chunk_slices, 0);

  const std::string before = report.ToJson();
  report.StripWallClock();
  const std::string after = report.ToJson();

  const std::set<std::string> measured = {
      "wall_ms",      "mean_step_ms",       "tokens_per_second", "mean_ttft_ms",
      "p95_ttft_ms",  "mean_turnaround_ms", "p95_turnaround_ms", "ttft_ms",
      "turnaround_ms"};
  // Every `"key": number` pair in emission order (timeline keys repeat).
  const std::regex number_field("\"(\\w+)\": (-?[0-9][0-9.eE+-]*)");
  const auto numbers = [&](const std::string& json) {
    std::vector<std::pair<std::string, std::string>> out;
    for (auto it = std::sregex_iterator(json.begin(), json.end(), number_field);
         it != std::sregex_iterator(); ++it) {
      out.emplace_back((*it)[1].str(), (*it)[2].str());
    }
    return out;
  };
  const auto b = numbers(before);
  const auto a = numbers(after);
  ASSERT_EQ(b.size(), a.size());
  std::set<std::string> nonzero_before;
  for (size_t i = 0; i < b.size(); ++i) {
    const std::string& key = b[i].first;
    ASSERT_EQ(key, a[i].first);
    if (measured.count(key) > 0) {
      if (std::stod(b[i].second) != 0.0) {
        nonzero_before.insert(key);
      }
      EXPECT_EQ(std::stod(a[i].second), 0.0) << key;
    } else {
      EXPECT_EQ(b[i].second, a[i].second) << key;
    }
  }
  EXPECT_EQ(nonzero_before, measured);
  // Arrays and strings (token histograms, the config echo) are untouched too.
  EXPECT_EQ(std::regex_replace(before, number_field, ""),
            std::regex_replace(after, number_field, ""));
}

// ---- Terminal-status exhaustiveness (cancel x preempt x fault) --------------

TEST(ServingFaultsTest, EveryTerminalPathSetsExactlyOneStatusAndReason) {
  Rng seed_rng(181);
  const MoeModelConfig cfg = TinyConfig();
  const TinyModel model = BuildTinyModel(seed_rng, 2, cfg);

  for (const uint64_t seed : {1ull, 2ull, 3ull}) {
    EngineConfig engine_cfg = ChaosEngineConfig(/*faults=*/false);
    engine_cfg.shards = 1;
    engine_cfg.ingress_capacity = 3;
    engine_cfg.faults = MustParse("kv-alloc~0.15,swap-out~0.25,swap-in~0.25,swap-corrupt~0.5");
    engine_cfg.fault_seed = seed;
    ServingEngine engine(model.sparse, engine_cfg);

    Rng rng(200 + static_cast<uint64_t>(seed));
    const int64_t kRequests = 10;
    std::vector<Request> requests;
    for (int64_t i = 0; i < kRequests; ++i) {
      Request r = MakeTestRequest(rng, i, i, 4 + i % 5, 2 + i % 4, cfg.hidden);
      r.priority = static_cast<int>(i % 3);
      if (i % 4 == 1) {
        r.deadline_steps = 6;
      }
      requests.push_back(std::move(r));
      engine.Submit(requests.back());  // sheds allowed: result still recorded
    }

    // Randomized-schedule soak with cancels landing mid-flight.
    for (int64_t step = 0; step < 2000; ++step) {
      if (step == 4) {
        engine.Cancel(2);
      }
      if (step == 6) {
        engine.Cancel(7);
      }
      if (!engine.Step()) {
        break;
      }
    }

    std::map<RequestStatus, int64_t> by_status;
    for (const Request& r : requests) {
      const RequestStatus status = engine.Status(r.id);
      ASSERT_TRUE(IsTerminal(status)) << "seed " << seed << " request " << r.id;
      ++by_status[status];
      const RequestResult* result = engine.Result(r.id);
      ASSERT_NE(result, nullptr) << "seed " << seed << " request " << r.id;
      EXPECT_EQ(result->status, status);
      if (status == RequestStatus::kFinished) {
        EXPECT_TRUE(result->reason.empty())
            << "seed " << seed << " request " << r.id << ": " << result->reason;
        EXPECT_EQ(result->outputs.rows(), r.total_tokens())
            << "seed " << seed << " request " << r.id;
      } else {
        EXPECT_FALSE(result->reason.empty())
            << "seed " << seed << " request " << r.id << " status "
            << RequestStatusName(status);
      }
    }
    int64_t total = 0;
    for (const auto& [status, count] : by_status) {
      total += count;
    }
    EXPECT_EQ(total, kRequests) << "seed " << seed;
    EXPECT_EQ(engine.kv_cache().allocator().used_pages(), 0) << "seed " << seed;
    EXPECT_EQ(engine.swap_tier().used_pages(), 0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace serving
}  // namespace samoyeds
