// Serving engine sweep: offered load (arrival rate) x routing skew, a
// scheduler-policy comparison at fixed load, a paged-KV-cache preemption
// on/off comparison, a chunked-prefill sweep over a long-prompt trace (chunk
// size vs TTFT/turnaround, gated on bit-identity with one-shot prefill), and an
// expert-parallel shard sweep (shard count x routing skew x placement) that
// doubles as the CI gate for sharded-vs-unsharded bit identity (`--smoke`
// runs a reduced sweep; any bit divergence exits non-zero), a degraded-mode
// family (4 shards with one dying mid-run: every request must still finish,
// outputs must stay bit-identical to the healthy run, and the analytic
// compute cost must degrade gracefully), a tracing overhead gate (the
// chunked cell re-run with the flight recorder at full detail must stay
// within 5% tokens/s of untraced and bit-identical), and an open-loop
// async-serving family: wall-clock Poisson arrivals served live through the
// AsyncServer, reporting p95 TTFT and goodput for sync vs async vs async +
// decode-priority next to the modeled steps, occupancy and compute.
//
// `--json=PATH` emits every sweep cell as machine-readable JSON (the
// committed BENCH_serving.json is a pinned-seed full run), so the serving
// perf trajectory is tracked the same way BENCH_kernel.json tracks the
// kernel.
//
// Routing skew is induced physically: router gate rows are rescaled with a
// Zipf profile, so high-gain experts win top-k more often (larger logit
// variance -> heavier right tail). The achieved per-expert imbalance is
// measured from the engine's own expert-load histogram, not assumed.

#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/moe/decoder_layer.h"
#include "src/obs/tracer.h"
#include "src/serving/engine.h"
#include "src/serving/scheduler.h"
#include "src/serving/server.h"
#include "src/serving/trace.h"
#include "src/tensor/rng.h"

namespace samoyeds {
namespace {

constexpr int kHidden = 32;
constexpr int kInter = 64;
constexpr int kExperts = 8;
constexpr int kTopK = 2;
constexpr int kHeads = 4;
constexpr int kRequests = 24;

MoeModelConfig BenchModelConfig() {
  MoeModelConfig cfg;
  cfg.name = "serving-bench";
  cfg.num_experts = kExperts;
  cfg.hidden = kHidden;
  cfg.intermediate = kInter;
  cfg.top_k = kTopK;
  return cfg;
}

std::vector<SamoyedsDecoderLayerWeights> BuildModel(Rng& rng, double skew) {
  const MoeModelConfig cfg = BenchModelConfig();
  const SamoyedsConfig fmt{1, 2, 32};
  DecoderLayerWeights dense = DecoderLayerWeights::Random(rng, cfg);
  // Zipf gain profile over gate rows: expert e amplified by 1 + skew/(e+1).
  for (int e = 0; e < kExperts; ++e) {
    const float gain = static_cast<float>(1.0 + skew / (e + 1.0));
    for (int64_t c = 0; c < kHidden; ++c) {
      dense.moe.router_gate(e, c) *= gain;
    }
  }
  return {SamoyedsDecoderLayerWeights::Encode(dense, fmt)};
}

serving::ServingReport RunCell(uint64_t seed, double rate, double skew,
                               serving::SchedulerPolicy policy) {
  Rng rng(seed);
  serving::EngineConfig cfg;
  cfg.heads = kHeads;
  cfg.top_k = kTopK;
  cfg.threads = 2;
  cfg.scheduler.policy = policy;
  cfg.scheduler.token_budget = 48;
  serving::ServingEngine engine(BuildModel(rng, skew), cfg);

  const auto entries = serving::SyntheticTrace(rng, kRequests, rate, /*prompt_lo=*/4,
                                               /*prompt_hi=*/16, /*decode_lo=*/2,
                                               /*decode_hi=*/8);
  for (size_t i = 0; i < entries.size(); ++i) {
    engine.Submit(serving::MakeRequest(rng, static_cast<int64_t>(i), entries[i], kHidden));
  }
  engine.RunUntilDrained(/*max_steps=*/100000);
  return engine.Report();
}

// Heavy-tailed workload for the KV-cache sweep: mostly short requests with
// every fifth one long, so resident footprints are skewed and a bounded page
// pool comes under real pressure.
std::vector<serving::TraceEntry> SkewedTrace(Rng& rng, int count, double rate) {
  auto entries = serving::SyntheticTrace(rng, count, rate, /*prompt_lo=*/3, /*prompt_hi=*/8,
                                         /*decode_lo=*/2, /*decode_hi=*/6);
  for (size_t i = 0; i < entries.size(); i += 5) {
    entries[i].prompt_len = 24 + rng.NextIndex(9);        // 24..32
    entries[i].max_new_tokens = 24 + rng.NextIndex(17);   // 24..40
  }
  return entries;
}

// One cell of the preemption comparison: both modes see the same 128-token
// memory budget as 16 pages of 8 tokens.
serving::ServingReport RunKvCell(uint64_t seed, bool preempt) {
  constexpr int64_t kPageTokens = 8;
  constexpr int64_t kMaxPages = 16;
  Rng rng(seed);
  serving::EngineConfig cfg;
  cfg.heads = kHeads;
  cfg.top_k = kTopK;
  cfg.threads = 2;
  cfg.scheduler.policy = serving::SchedulerPolicy::kTokenBudget;
  cfg.scheduler.token_budget = 48;
  cfg.scheduler.page_tokens = kPageTokens;
  cfg.scheduler.max_pages = kMaxPages;
  cfg.scheduler.preempt = preempt;
  serving::ServingEngine engine(BuildModel(rng, /*skew=*/2.0), cfg);

  const auto entries = SkewedTrace(rng, kRequests, /*rate=*/4.0);
  for (size_t i = 0; i < entries.size(); ++i) {
    engine.Submit(serving::MakeRequest(rng, static_cast<int64_t>(i), entries[i], kHidden));
  }
  engine.RunUntilDrained(/*max_steps=*/100000);
  return engine.Report();
}

// One cell of the expert-parallel shard sweep: same model, trace and
// thread count at every shard count, so outputs must be bit-identical and
// only the analytic cluster estimate (max-over-shards compute + all-to-all)
// and the shard-load histogram may move.
struct ShardRun {
  serving::ServingReport report;
  std::vector<MatrixF> outputs;  // per request, submission order
};

// One cell of the chunked-prefill sweep: a long-prompt trace (every prompt
// far above the serving budget) served with chunk size `chunk_tokens` under
// `budget`. Outputs are recorded so every chunked cell can be gated
// bit-identical against the one-shot baseline (served under a budget large
// enough to prefill in one iteration).
struct ChunkRun {
  serving::ServingReport report;
  std::vector<MatrixF> outputs;  // per request, submission order
  int64_t finished = 0;
};

ChunkRun RunChunkCell(uint64_t seed, int64_t budget, int64_t chunk_tokens, int requests,
                      int shards = 1) {
  Rng rng(seed);
  serving::EngineConfig cfg;
  cfg.heads = kHeads;
  cfg.top_k = kTopK;
  cfg.threads = 2;
  cfg.shards = shards;
  cfg.scheduler.policy = serving::SchedulerPolicy::kTokenBudget;
  cfg.scheduler.token_budget = budget;
  cfg.scheduler.chunk_tokens = chunk_tokens;
  serving::ServingEngine engine(BuildModel(rng, /*skew=*/2.0), cfg);

  auto entries = serving::SyntheticTrace(rng, requests, /*rate=*/1.0, /*prompt_lo=*/48,
                                         /*prompt_hi=*/96, /*decode_lo=*/4, /*decode_hi=*/12);
  for (size_t i = 0; i < entries.size(); ++i) {
    engine.Submit(serving::MakeRequest(rng, static_cast<int64_t>(i), entries[i], kHidden));
  }
  engine.RunUntilDrained(/*max_steps=*/100000);

  ChunkRun run;
  run.report = engine.Report();
  for (size_t i = 0; i < entries.size(); ++i) {
    const serving::RequestResult* result = engine.Result(static_cast<int64_t>(i));
    const bool done = result != nullptr &&
                      result->status == serving::RequestStatus::kFinished;
    run.finished += done ? 1 : 0;
    run.outputs.push_back(done ? result->outputs : MatrixF(0, 0));
  }
  return run;
}

// One cell of the open-loop async-serving family: requests arrive on the wall
// clock (exponential inter-arrival gaps, Poisson process) through an
// AsyncServer driving the engine on its background thread, instead of being
// pre-loaded and drained. Goodput counts only tokens of requests that
// actually finished, over the measured wall time — an open-loop metric the
// pre-loaded sweeps cannot produce (they conflate queueing with service).
struct OpenLoopRun {
  serving::ServingReport report;
  double wall_ms = 0.0;
  int64_t finished = 0;
  double goodput_tokens_per_s = 0.0;
};

OpenLoopRun RunOpenLoopCell(uint64_t seed, bool async, serving::ChunkPolicy chunk_policy,
                            int requests, double mean_gap_ms) {
  Rng rng(seed);
  serving::EngineConfig cfg;
  cfg.heads = kHeads;
  cfg.top_k = kTopK;
  cfg.threads = 2;
  cfg.shards = 2;
  cfg.scheduler.policy = serving::SchedulerPolicy::kTokenBudget;
  cfg.scheduler.token_budget = 32;
  cfg.scheduler.chunk_tokens = 8;
  cfg.scheduler.chunk_policy = chunk_policy;
  serving::ServingEngine engine(BuildModel(rng, /*skew=*/2.0), cfg);

  auto entries = serving::SyntheticTrace(rng, requests, /*rate=*/1.0, /*prompt_lo=*/24,
                                         /*prompt_hi=*/48, /*decode_lo=*/4, /*decode_hi=*/12);
  std::vector<serving::Request> reqs;
  std::vector<int64_t> tokens;
  for (size_t i = 0; i < entries.size(); ++i) {
    reqs.push_back(serving::MakeRequest(rng, static_cast<int64_t>(i), entries[i], kHidden));
    tokens.push_back(reqs.back().total_tokens());
  }
  // Pre-draw the arrival gaps so the Poisson process is identical across
  // modes (same seed -> same offered load); only service differs.
  std::vector<double> gaps_ms;
  for (int i = 0; i < requests; ++i) {
    gaps_ms.push_back(-mean_gap_ms * std::log(std::max(1e-12, rng.NextDouble())));
  }

  OpenLoopRun run;
  const auto start = std::chrono::steady_clock::now();
  if (async) {
    serving::ServerConfig scfg;
    scfg.clock = serving::ServerClock::kWall;
    serving::AsyncServer server(engine, scfg);
    server.Start();
    for (size_t i = 0; i < reqs.size(); ++i) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(gaps_ms[i]));
      server.Submit(std::move(reqs[i]));
    }
    server.Drain();
    for (int i = 0; i < requests; ++i) {
      const serving::ServerPollResult res = server.WaitTerminal(i);
      if (res.status == serving::RequestStatus::kFinished) {
        ++run.finished;
      }
    }
    server.Stop();
  } else {
    // Sync strawman: arrivals still pace on the wall clock, but the engine
    // only steps between arrivals on the client thread — the serial serve
    // loop an async front-end replaces.
    for (size_t i = 0; i < reqs.size(); ++i) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(gaps_ms[i]));
      engine.Submit(std::move(reqs[i]));
      engine.Step();
    }
    engine.RunUntilDrained(/*max_steps=*/100000);
    for (int i = 0; i < requests; ++i) {
      const serving::RequestResult* result = engine.Result(i);
      if (result != nullptr && result->status == serving::RequestStatus::kFinished) {
        ++run.finished;
      }
    }
  }
  run.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start).count();
  run.report = engine.Report();
  int64_t finished_tokens = 0;
  for (int i = 0; i < requests; ++i) {
    const serving::RequestResult* result = engine.Result(i);
    if (result != nullptr && result->status == serving::RequestStatus::kFinished) {
      finished_tokens += tokens[static_cast<size_t>(i)];
    }
  }
  run.goodput_tokens_per_s =
      run.wall_ms > 0.0 ? 1000.0 * static_cast<double>(finished_tokens) / run.wall_ms : 0.0;
  return run;
}

// One cell of the prefix-sharing comparison: a multi-tenant trace where every
// request opens with the same 16-row "system prompt" block (stamped from the
// first request's inputs), so a radix prefix cache can serve that block from
// shared pages for every tenant after the first. The same trace is run with
// sharing off and on (and, under a tight page pool, with swap preemption),
// gated on bit-identity plus an actual hit rate and TTFT win.
struct PrefixRun {
  serving::ServingReport report;
  std::vector<MatrixF> outputs;  // per request, submission order
  int64_t finished = 0;
  // TTFT split by whether the admission reused cached prompt tokens.
  double hit_ttft_steps = 0.0;
  double miss_ttft_steps = 0.0;
  int64_t hit_sessions = 0;
};

PrefixRun RunPrefixCell(uint64_t seed, bool prefix_cache, bool preempt, bool swap,
                        int64_t max_pages, int requests) {
  constexpr int64_t kSystemRows = 16;
  Rng rng(seed);
  serving::EngineConfig cfg;
  cfg.heads = kHeads;
  cfg.top_k = kTopK;
  cfg.threads = 2;
  cfg.scheduler.policy = serving::SchedulerPolicy::kTokenBudget;
  cfg.scheduler.token_budget = 48;
  cfg.scheduler.chunk_tokens = 16;
  cfg.scheduler.page_tokens = 8;
  cfg.scheduler.max_pages = max_pages;
  cfg.scheduler.preempt = preempt;
  cfg.prefix_cache = prefix_cache;
  cfg.swap = swap;
  cfg.host_pages = 64;
  serving::ServingEngine engine(BuildModel(rng, /*skew=*/2.0), cfg);

  // Arrivals are spread out (mean gap 10 steps) so early tenants retire — and
  // donate their prefix — before later ones are admitted; a back-to-back
  // burst would admit everyone cold before the first donation exists.
  const auto entries = serving::SyntheticTrace(rng, requests, /*rate=*/0.1,
                                               /*prompt_lo=*/20, /*prompt_hi=*/32,
                                               /*decode_lo=*/4, /*decode_hi=*/8);
  std::vector<serving::Request> reqs;
  for (size_t i = 0; i < entries.size(); ++i) {
    reqs.push_back(serving::MakeRequest(rng, static_cast<int64_t>(i), entries[i], kHidden));
  }
  for (size_t i = 1; i < reqs.size(); ++i) {
    for (int64_t r = 0; r < kSystemRows; ++r) {
      for (int64_t c = 0; c < kHidden; ++c) {
        reqs[i].inputs(r, c) = reqs[0].inputs(r, c);
      }
    }
  }
  for (auto& r : reqs) {
    engine.Submit(std::move(r));
  }
  engine.RunUntilDrained(/*max_steps=*/100000);

  PrefixRun run;
  run.report = engine.Report();
  int64_t misses = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    const serving::RequestResult* result = engine.Result(static_cast<int64_t>(i));
    const bool done = result != nullptr &&
                      result->status == serving::RequestStatus::kFinished;
    run.finished += done ? 1 : 0;
    run.outputs.push_back(done ? result->outputs : MatrixF(0, 0));
  }
  for (const auto& [id, m] : engine.metrics().requests()) {
    if (m.first_output_step < 0) {
      continue;
    }
    const double ttft = static_cast<double>(m.first_output_step - m.arrival_step);
    if (m.cached_prompt_tokens > 0) {
      run.hit_ttft_steps += ttft;
      ++run.hit_sessions;
    } else {
      run.miss_ttft_steps += ttft;
      ++misses;
    }
  }
  if (run.hit_sessions > 0) {
    run.hit_ttft_steps /= static_cast<double>(run.hit_sessions);
  }
  if (misses > 0) {
    run.miss_ttft_steps /= static_cast<double>(misses);
  }
  return run;
}

// Accumulates sweep cells as JSON objects (one per line) for --json=PATH.
class JsonCells {
 public:
  // `identical`: 1/0 for cells a bit-identity gate actually compared, -1 for
  // ungated cells (the field is omitted — absence means "not checked", so a
  // JSON consumer can tell verified cells from merely-emitted ones).
  void Add(const char* section, const std::string& params,
           const serving::ServingReport& rep, int identical = -1) {
    char gate[40] = "";
    if (identical >= 0) {
      std::snprintf(gate, sizeof(gate), ", \"bit_identical\": %s",
                    identical > 0 ? "true" : "false");
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"section\": \"%s\", %s, \"ttft_steps\": %.2f, "
                  "\"p95_ttft_steps\": %.2f, \"p95_turnaround_steps\": %.2f, "
                  "\"tokens_per_second\": %.1f, \"occupancy\": %.3f, \"steps\": %lld, "
                  "\"preemptions\": %lld, \"prefill_chunk_slices\": %lld, "
                  "\"est_compute_ms\": %.3f, \"est_alltoall_ms\": %.3f, "
                  "\"shard_imbalance\": %.3f%s}",
                  section, params.c_str(), rep.mean_ttft_steps, rep.p95_ttft_steps,
                  rep.p95_turnaround_steps, rep.tokens_per_second, rep.mean_occupancy,
                  static_cast<long long>(rep.steps), static_cast<long long>(rep.preemptions),
                  static_cast<long long>(rep.prefill_chunk_slices), rep.est_compute_ms,
                  rep.est_alltoall_ms, rep.shard_imbalance, gate);
    if (!cells_.empty()) {
      cells_ += ",\n";
    }
    cells_ += buf;
  }

  // Wraps the cells in the bench-level envelope and writes them. The
  // envelope carries a schema version and the fixed bench configuration so
  // an archived artifact is self-describing.
  bool Write(const std::string& path, bool smoke) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"serving_throughput\",\n  \"schema_version\": 1,\n"
                 "  \"mode\": \"%s\",\n  \"seed\": 7,\n"
                 "  \"config\": {\"hidden\": %d, \"intermediate\": %d, \"experts\": %d, "
                 "\"top_k\": %d, \"heads\": %d, \"requests\": %d},\n"
                 "  \"cells\": [\n%s\n  ]\n}\n",
                 smoke ? "smoke" : "full", kHidden, kInter, kExperts, kTopK, kHeads,
                 kRequests, cells_.c_str());
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string cells_;
};

std::string Params(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

// One cell of the degraded-mode family: the shard-sweep workload served
// either healthy or under a fault schedule (e.g. one shard dying mid-run).
// Outputs are recorded so the degraded run can be gated bit-identical
// against the healthy one — failover re-places the dead shard's experts but
// must never change what any request computes.
struct DegradedRun {
  serving::ServingReport report;
  std::vector<MatrixF> outputs;  // per request, submission order
  int64_t finished = 0;
};

DegradedRun RunDegradedCell(uint64_t seed, int shards, const std::string& fault_spec,
                            int requests) {
  Rng rng(seed);
  serving::EngineConfig cfg;
  cfg.heads = kHeads;
  cfg.top_k = kTopK;
  cfg.threads = 4;
  cfg.shards = shards;
  cfg.scheduler.policy = serving::SchedulerPolicy::kTokenBudget;
  cfg.scheduler.token_budget = 48;
  if (!fault_spec.empty()) {
    std::string err;
    if (!serving::ParseFaultSchedule(fault_spec, &cfg.faults, &err)) {
      std::fprintf(stderr, "bad fault schedule '%s': %s\n", fault_spec.c_str(), err.c_str());
      std::exit(2);
    }
    cfg.fault_seed = 7;
  }
  serving::ServingEngine engine(BuildModel(rng, /*skew=*/2.0), cfg);

  const auto entries = serving::SyntheticTrace(rng, requests, /*rate=*/4.0, /*prompt_lo=*/4,
                                               /*prompt_hi=*/16, /*decode_lo=*/2,
                                               /*decode_hi=*/8);
  for (size_t i = 0; i < entries.size(); ++i) {
    engine.Submit(serving::MakeRequest(rng, static_cast<int64_t>(i), entries[i], kHidden));
  }
  engine.RunUntilDrained(/*max_steps=*/100000);

  DegradedRun run;
  run.report = engine.Report();
  for (size_t i = 0; i < entries.size(); ++i) {
    const serving::RequestResult* result = engine.Result(static_cast<int64_t>(i));
    const bool done = result != nullptr &&
                      result->status == serving::RequestStatus::kFinished;
    run.finished += done ? 1 : 0;
    run.outputs.push_back(done ? result->outputs : MatrixF(0, 0));
  }
  return run;
}

ShardRun RunShardCell(uint64_t seed, double skew, int shards,
                      serving::ShardPlacement placement, int requests) {
  Rng rng(seed);
  serving::EngineConfig cfg;
  cfg.heads = kHeads;
  cfg.top_k = kTopK;
  cfg.threads = 4;
  cfg.shards = shards;
  cfg.placement = placement;
  cfg.scheduler.policy = serving::SchedulerPolicy::kTokenBudget;
  cfg.scheduler.token_budget = 48;
  serving::ServingEngine engine(BuildModel(rng, skew), cfg);

  const auto entries = serving::SyntheticTrace(rng, requests, /*rate=*/4.0, /*prompt_lo=*/4,
                                               /*prompt_hi=*/16, /*decode_lo=*/2,
                                               /*decode_hi=*/8);
  for (size_t i = 0; i < entries.size(); ++i) {
    engine.Submit(serving::MakeRequest(rng, static_cast<int64_t>(i), entries[i], kHidden));
  }
  engine.RunUntilDrained(/*max_steps=*/100000);

  ShardRun run;
  run.report = engine.Report();
  for (size_t i = 0; i < entries.size(); ++i) {
    const serving::RequestResult* result = engine.Result(static_cast<int64_t>(i));
    run.outputs.push_back(result != nullptr ? result->outputs : MatrixF(0, 0));
  }
  return run;
}

}  // namespace
}  // namespace samoyeds

int main(int argc, char** argv) {
  using namespace samoyeds;
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "unknown argument: %s (supported: --smoke --json=PATH)\n", argv[i]);
      return 2;
    }
  }
  JsonCells cells;

  if (!smoke) {
  PrintHeader("Serving throughput sweep: arrival rate x routing skew "
              "(token-budget policy, 24 requests, 1 decoder layer)");
  std::printf("%8s %6s %12s %12s %11s %11s %10s\n", "rate", "skew", "TTFT steps", "tokens/s",
              "occupancy", "imbalance", "steps");
  for (double rate : {0.25, 1.0, 4.0}) {
    for (double skew : {0.0, 2.0, 8.0}) {
      const auto rep = RunCell(/*seed=*/7, rate, skew, serving::SchedulerPolicy::kTokenBudget);
      cells.Add("throughput_sweep", Params("\"rate\": %.2f, \"skew\": %.1f", rate, skew), rep);
      std::printf("%8.2f %6.1f %12.1f %12.1f %10.0f%% %10.2fx %10lld\n", rate, skew,
                  rep.mean_ttft_steps, rep.tokens_per_second, 100.0 * rep.mean_occupancy,
                  rep.expert_imbalance, static_cast<long long>(rep.steps));
    }
  }

  PrintHeader("Scheduler policy comparison (rate 4.0, skew 2.0)");
  std::printf("%16s %12s %12s %11s %12s\n", "policy", "TTFT steps", "tokens/s", "occupancy",
              "peak concur");
  for (serving::SchedulerPolicy policy :
       {serving::SchedulerPolicy::kFcfs, serving::SchedulerPolicy::kSmallestFirst,
        serving::SchedulerPolicy::kTokenBudget}) {
    const auto rep = RunCell(7, 4.0, 2.0, policy);
    cells.Add("policy_comparison",
              Params("\"policy\": \"%s\"", serving::SchedulerPolicyName(policy)), rep);
    std::printf("%16s %12.1f %12.1f %10.0f%% %12lld\n", serving::SchedulerPolicyName(policy),
                rep.mean_ttft_steps, rep.tokens_per_second, 100.0 * rep.mean_occupancy,
                static_cast<long long>(rep.peak_sequences));
  }

  PrintHeader("Paged KV cache: preemption off/on under a skewed trace "
              "(16 pages of 8 tokens, rate 4.0)");
  std::printf("%20s %10s %10s %10s %10s %9s %9s %9s\n", "mode", "TTFT mean", "TTFT p95",
              "turn p95", "tokens/s", "preempts", "util", "frag");
  for (const bool preempt : {false, true}) {
    const char* mode = preempt ? "paged+preempt" : "paged";
    const auto rep = RunKvCell(/*seed=*/7, preempt);
    cells.Add("kv_modes", Params("\"mode\": \"%s\"", mode), rep);
    std::printf("%20s %10.1f %10.1f %10.1f %10.1f %9lld %8.0f%% %9.1f\n", mode,
                rep.mean_ttft_steps, rep.p95_ttft_steps, rep.p95_turnaround_steps,
                rep.tokens_per_second, static_cast<long long>(rep.preemptions),
                100.0 * rep.mean_page_utilization, rep.mean_frag_tokens);
  }
  }  // !smoke

  // ---- Chunked prefill sweep (also a CI bit-identity gate) -----------------
  // Long-prompt trace: every prompt (48..96 rows) is far above the 32-row
  // serving budget, so without chunking all of them are rejected. The
  // one-shot baseline serves the same trace under a 128-row budget; every
  // chunked cell must reproduce it bit for bit.
  const int chunk_requests = smoke ? 6 : 16;
  int chunk_divergences = 0;
  PrintHeader("Chunked prefill: chunk size under a 32-row budget, 48..96-row prompts "
              "(one-shot baseline at budget 128; outputs must be bit-identical)");
  std::printf("%12s %9s %12s %12s %12s %12s %10s\n", "chunk", "finished", "TTFT steps",
              "turn p95", "tokens/s", "chunk slices", "identical");
  const ChunkRun baseline = RunChunkCell(/*seed=*/7, /*budget=*/128, /*chunk_tokens=*/0,
                                         chunk_requests);
  cells.Add("chunked_prefill", Params("\"budget\": 128, \"chunk_tokens\": 0"),
            baseline.report);
  std::printf("%12s %9lld %12.1f %12.1f %12.1f %12lld %10s\n", "one-shot",
              static_cast<long long>(baseline.finished), baseline.report.mean_ttft_steps,
              baseline.report.p95_turnaround_steps, baseline.report.tokens_per_second,
              static_cast<long long>(baseline.report.prefill_chunk_slices), "base");
  for (int64_t chunk : {int64_t{4}, int64_t{8}, int64_t{16}, int64_t{32}}) {
    const ChunkRun run = RunChunkCell(7, /*budget=*/32, chunk, chunk_requests);
    bool identical = run.finished == chunk_requests &&
                     baseline.finished == chunk_requests &&
                     run.outputs.size() == baseline.outputs.size();
    for (size_t i = 0; identical && i < run.outputs.size(); ++i) {
      identical = run.outputs[i] == baseline.outputs[i];
    }
    chunk_divergences += identical ? 0 : 1;
    cells.Add("chunked_prefill",
              Params("\"budget\": 32, \"chunk_tokens\": %lld", static_cast<long long>(chunk)),
              run.report, identical ? 1 : 0);
    std::printf("%12lld %9lld %12.1f %12.1f %12.1f %12lld %10s\n",
                static_cast<long long>(chunk), static_cast<long long>(run.finished),
                run.report.mean_ttft_steps, run.report.p95_turnaround_steps,
                run.report.tokens_per_second,
                static_cast<long long>(run.report.prefill_chunk_slices),
                identical ? "yes" : "NO");
  }

  // ---- Prefix sharing: shared-system-prompt multi-tenant trace -------------
  // Every tenant opens with the same 16-row system prompt; the cache must buy
  // an actual hit rate and a TTFT win while staying bit-identical to the
  // sharing-off run. A second pair re-runs the trace under a tight page pool
  // with preemption, where sharing-on also swaps victims instead of
  // recomputing them — still gated bit-identical.
  const int prefix_requests = smoke ? 8 : 20;
  int prefix_failures = 0;
  PrintHeader("Prefix sharing: 16-row shared system prompt, 20..32-row prompts "
              "(sharing on vs off must be bit-identical; hits must beat misses)");
  std::printf("%16s %9s %10s %9s %9s %9s %6s %7s %10s\n", "mode", "finished",
              "TTFT mean", "hit TTFT", "miss TTFT", "hit rate", "cow", "swaps",
              "identical");
  struct PrefixMode {
    const char* name;
    bool prefix;
    bool swap;
    int64_t max_pages;
    int baseline;  // index into runs[] to compare outputs against; -1 = is a baseline
  };
  const PrefixMode prefix_modes[] = {
      {"off", false, false, 64, -1},
      {"on", true, false, 64, 0},
      {"off+preempt", false, false /*recompute*/, 8, -1},
      {"on+swap", true, true, 8, 2},
  };
  std::vector<PrefixRun> prefix_runs;
  for (const PrefixMode& mode : prefix_modes) {
    // The tight-pool pair runs with preemption on either way; only the
    // readmission strategy differs (recompute vs swap restore).
    PrefixRun run = RunPrefixCell(/*seed=*/7, mode.prefix, /*preempt=*/mode.max_pages == 8,
                                  mode.swap, mode.max_pages, prefix_requests);
    int identical = -1;
    if (mode.baseline >= 0) {
      const PrefixRun& base = prefix_runs[static_cast<size_t>(mode.baseline)];
      bool same = run.finished == prefix_requests && base.finished == prefix_requests &&
                  run.outputs.size() == base.outputs.size();
      for (size_t i = 0; same && i < run.outputs.size(); ++i) {
        same = run.outputs[i] == base.outputs[i];
      }
      identical = same ? 1 : 0;
      prefix_failures += same ? 0 : 1;
      if (!same) {
        std::fprintf(stderr, "FAIL: prefix mode '%s' diverged bit-wise from '%s'\n",
                     mode.name, prefix_modes[mode.baseline].name);
      }
    }
    cells.Add("prefix_sharing",
              Params("\"mode\": \"%s\", \"hit_rate\": %.3f, \"hit_tokens\": %lld, "
                     "\"cow_splits\": %lld, \"swap_outs\": %lld",
                     mode.name, run.report.prefix_hit_rate,
                     static_cast<long long>(run.report.prefix_hit_tokens),
                     static_cast<long long>(run.report.cow_splits),
                     static_cast<long long>(run.report.swap_outs)),
              run.report, identical);
    std::printf("%16s %9lld %10.1f %9.1f %9.1f %8.0f%% %6lld %7lld %10s\n", mode.name,
                static_cast<long long>(run.finished), run.report.mean_ttft_steps,
                run.hit_ttft_steps, run.miss_ttft_steps, 100.0 * run.report.prefix_hit_rate,
                static_cast<long long>(run.report.cow_splits),
                static_cast<long long>(run.report.swap_outs),
                identical < 0 ? "base" : identical > 0 ? "yes" : "NO");
    prefix_runs.push_back(std::move(run));
  }
  {
    const PrefixRun& off = prefix_runs[0];
    const PrefixRun& on = prefix_runs[1];
    if (on.report.prefix_hit_tokens <= 0 || on.hit_sessions <= 0) {
      std::fprintf(stderr, "FAIL: sharing-on run produced no prefix hits\n");
      ++prefix_failures;
    }
    if (on.report.mean_ttft_steps >= off.report.mean_ttft_steps) {
      std::fprintf(stderr,
                   "FAIL: prefix sharing did not improve mean TTFT (%.2f vs %.2f steps)\n",
                   on.report.mean_ttft_steps, off.report.mean_ttft_steps);
      ++prefix_failures;
    }
    std::printf("prefix sharing: mean TTFT %.1f -> %.1f steps, hit rate %.0f%%\n",
                off.report.mean_ttft_steps, on.report.mean_ttft_steps,
                100.0 * on.report.prefix_hit_rate);
  }

  // ---- Expert-parallel shard sweep (also the CI bit-identity gate) ---------
  const int shard_requests = smoke ? 12 : 24;
  const std::vector<double> shard_skews = smoke ? std::vector<double>{8.0}
                                                : std::vector<double>{0.0, 8.0};
  PrintHeader("Expert-parallel shard sweep: shard count x routing skew x placement "
              "(4 threads; outputs must be bit-identical to 1 shard)");
  std::printf("%7s %6s %12s %11s %11s %10s %11s %10s\n", "shards", "skew", "placement",
              "est cmp ms", "est a2a ms", "a2a share", "shard imbal", "identical");
  int divergences = 0;
  for (double skew : shard_skews) {
    const ShardRun baseline = RunShardCell(/*seed=*/7, skew, /*shards=*/1,
                                           serving::ShardPlacement::kRoundRobin,
                                           shard_requests);
    cells.Add("shard_sweep",
              Params("\"shards\": 1, \"skew\": %.1f, \"placement\": \"-\"", skew),
              baseline.report);
    std::printf("%7d %6.1f %12s %11.3f %11.3f %9.0f%% %10.2fx %10s\n", 1, skew, "-",
                baseline.report.est_compute_ms, baseline.report.est_alltoall_ms,
                100.0 * baseline.report.est_alltoall_share, baseline.report.shard_imbalance,
                "base");
    for (int shards : {2, 4}) {
      for (serving::ShardPlacement placement :
           {serving::ShardPlacement::kRoundRobin, serving::ShardPlacement::kGateStats}) {
        const ShardRun run = RunShardCell(7, skew, shards, placement, shard_requests);
        bool identical = run.outputs.size() == baseline.outputs.size();
        for (size_t i = 0; identical && i < run.outputs.size(); ++i) {
          identical = run.outputs[i] == baseline.outputs[i];
        }
        divergences += identical ? 0 : 1;
        cells.Add("shard_sweep",
                  Params("\"shards\": %d, \"skew\": %.1f, \"placement\": \"%s\"", shards, skew,
                         serving::ShardPlacementName(placement)),
                  run.report, identical ? 1 : 0);
        std::printf("%7d %6.1f %12s %11.3f %11.3f %9.0f%% %10.2fx %10s\n", shards, skew,
                    serving::ShardPlacementName(placement), run.report.est_compute_ms,
                    run.report.est_alltoall_ms, 100.0 * run.report.est_alltoall_share,
                    run.report.shard_imbalance, identical ? "yes" : "NO");
      }
    }
  }

  // ---- Degraded mode: mid-run shard death (also a CI gate) -----------------
  // The same trace is served on 4 healthy shards and again with shard 1
  // dying at step 6 (its experts fail over to the 3 survivors). Gates: the
  // degraded run drains with every request finished, outputs bit-identical
  // to the healthy run, exactly one failover absorbed, and the throughput
  // cost stays graceful — the analytic max-over-shards compute may grow
  // (3 survivors carry 4 shards' experts) but must stay within 2x healthy,
  // i.e. degradation is proportional to the lost capacity, not a collapse.
  const int degraded_requests = smoke ? 12 : 24;
  int degraded_failures = 0;
  PrintHeader("Degraded mode: 4 shards, shard 1 dies at step 6 "
              "(all requests must finish; outputs must be bit-identical to healthy)");
  std::printf("%12s %9s %11s %11s %10s %8s %10s\n", "mode", "finished", "est cmp ms",
              "est a2a ms", "failovers", "steps", "identical");
  const DegradedRun healthy =
      RunDegradedCell(/*seed=*/7, /*shards=*/4, /*fault_spec=*/"", degraded_requests);
  cells.Add("degraded_mode",
            Params("\"mode\": \"healthy\", \"shards\": 4, \"failovers\": 0"),
            healthy.report);
  std::printf("%12s %9lld %11.3f %11.3f %10lld %8lld %10s\n", "healthy",
              static_cast<long long>(healthy.finished), healthy.report.est_compute_ms,
              healthy.report.est_alltoall_ms,
              static_cast<long long>(healthy.report.shard_failovers),
              static_cast<long long>(healthy.report.steps), "base");
  const DegradedRun degraded =
      RunDegradedCell(/*seed=*/7, /*shards=*/4, "shard-die@6:1", degraded_requests);
  bool degraded_identical = degraded.finished == degraded_requests &&
                            healthy.finished == degraded_requests &&
                            degraded.outputs.size() == healthy.outputs.size();
  for (size_t i = 0; degraded_identical && i < degraded.outputs.size(); ++i) {
    degraded_identical = degraded.outputs[i] == healthy.outputs[i];
  }
  cells.Add("degraded_mode",
            Params("\"mode\": \"one-dead-shard\", \"shards\": 4, \"failovers\": %lld",
                   static_cast<long long>(degraded.report.shard_failovers)),
            degraded.report, degraded_identical ? 1 : 0);
  std::printf("%12s %9lld %11.3f %11.3f %10lld %8lld %10s\n", "shard-die@6",
              static_cast<long long>(degraded.finished), degraded.report.est_compute_ms,
              degraded.report.est_alltoall_ms,
              static_cast<long long>(degraded.report.shard_failovers),
              static_cast<long long>(degraded.report.steps),
              degraded_identical ? "yes" : "NO");
  if (!degraded_identical) {
    std::fprintf(stderr,
                 "FAIL: degraded run (one dead shard) diverged from healthy or did not "
                 "finish every request (%lld/%d finished)\n",
                 static_cast<long long>(degraded.finished), degraded_requests);
    ++degraded_failures;
  }
  if (degraded.report.shard_failovers != 1) {
    std::fprintf(stderr, "FAIL: expected exactly 1 shard failover, saw %lld\n",
                 static_cast<long long>(degraded.report.shard_failovers));
    ++degraded_failures;
  }
  const double degradation =
      healthy.report.est_compute_ms > 0.0
          ? degraded.report.est_compute_ms / healthy.report.est_compute_ms
          : 0.0;
  if (degradation > 2.0) {
    std::fprintf(stderr,
                 "FAIL: losing 1 of 4 shards cost %.2fx est compute (graceful bound: 2x)\n",
                 degradation);
    ++degraded_failures;
  }
  std::printf("degraded mode: est compute %.3f -> %.3f ms (%.2fx), failovers %lld, "
              "bit-identity %s\n",
              healthy.report.est_compute_ms, degraded.report.est_compute_ms, degradation,
              static_cast<long long>(degraded.report.shard_failovers),
              degraded_identical ? "holds" : "BROKEN");

  // ---- Tracing overhead gate (also a CI gate) ------------------------------
  // The chunked cell (budget 32, chunk 8) is re-run untraced and traced at
  // full detail (every span and counter live, default per-thread rings).
  // Best-of-3 wall-clock tokens/s on each side absorbs scheduler noise; the
  // gate demands traced >= 95% of untraced AND bit-identical outputs, so the
  // instrumentation can never silently become a perf or correctness tax.
  const int trace_requests = smoke ? 6 : 16;
  PrintHeader("Tracing overhead: chunked serving (budget 32, chunk 8) untraced vs "
              "traced at full detail (best of 3; outputs must be bit-identical)");
  std::printf("%10s %12s %12s %12s %10s\n", "tracing", "tokens/s", "TTFT steps",
              "events", "identical");
  ChunkRun untraced;
  for (int rep = 0; rep < 3; ++rep) {
    ChunkRun run = RunChunkCell(/*seed=*/7, /*budget=*/32, /*chunk_tokens=*/8,
                                trace_requests);
    if (rep == 0 || run.report.tokens_per_second > untraced.report.tokens_per_second) {
      untraced = std::move(run);
    }
  }
  ChunkRun traced;
  int64_t trace_events = 0;
  int64_t trace_dropped = 0;
  for (int rep = 0; rep < 3; ++rep) {
    // Ring sized to the workload (verified: nothing is overwritten) so the
    // gate measures the steady-state emit path. The default 256K-slot rings
    // are one-time warmup allocation, which on a millisecond-scale cell
    // would swamp the per-event cost being gated here.
    obs::Tracer::Get().Start(obs::TraceDetail::kFull, /*ring_capacity=*/1 << 12);
    ChunkRun run = RunChunkCell(/*seed=*/7, /*budget=*/32, /*chunk_tokens=*/8,
                                trace_requests);
    obs::Tracer::Get().Stop();
    if (rep == 0 || run.report.tokens_per_second > traced.report.tokens_per_second) {
      traced = std::move(run);
      trace_events = obs::Tracer::Get().total_events();
    }
    trace_dropped += obs::Tracer::Get().dropped_events();
  }
  bool trace_identical = untraced.outputs.size() == traced.outputs.size();
  for (size_t i = 0; trace_identical && i < traced.outputs.size(); ++i) {
    trace_identical = traced.outputs[i] == untraced.outputs[i];
  }
  const double overhead_ratio =
      untraced.report.tokens_per_second > 0.0
          ? traced.report.tokens_per_second / untraced.report.tokens_per_second
          : 0.0;
  cells.Add("tracing_overhead", Params("\"tracing\": \"off\""), untraced.report);
  cells.Add("tracing_overhead",
            Params("\"tracing\": \"full\", \"overhead_ratio\": %.4f", overhead_ratio),
            traced.report, trace_identical ? 1 : 0);
  std::printf("%10s %12.1f %12.1f %12s %10s\n", "off",
              untraced.report.tokens_per_second, untraced.report.mean_ttft_steps, "-",
              "base");
  std::printf("%10s %12.1f %12.1f %12lld %10s\n", "full",
              traced.report.tokens_per_second, traced.report.mean_ttft_steps,
              static_cast<long long>(trace_events), trace_identical ? "yes" : "NO");
  std::printf("tracing overhead: traced runs at %.1f%% of untraced tokens/s "
              "(gate: >= 95%%)\n", 100.0 * overhead_ratio);
  int trace_failures = 0;
  if (trace_dropped > 0) {
    std::fprintf(stderr,
                 "FAIL: %lld event(s) overwritten — ring too small for the gate cell, "
                 "Start cost would leak into the measurement\n",
                 static_cast<long long>(trace_dropped));
    ++trace_failures;
  }
  if (!trace_identical) {
    std::fprintf(stderr, "FAIL: traced run diverged bit-wise from the untraced run\n");
    ++trace_failures;
  }
  if (overhead_ratio < 0.95) {
    std::fprintf(stderr,
                 "FAIL: full-detail tracing costs %.1f%% tokens/s (budget: 5%%)\n",
                 100.0 * (1.0 - overhead_ratio));
    ++trace_failures;
  }

  // ---- Async serving: open-loop wall-clock Poisson arrivals ----------------
  // Requests arrive via a Poisson process (identical pre-drawn gaps across
  // modes) and are served live: the sync mode steps the engine between
  // arrivals on the client thread, the async modes run an AsyncServer whose
  // driver thread overlaps service with arrival gaps. Wall-clock numbers, so
  // these cells are reported but not gated; steps, occupancy and est compute
  // state the same comparison on the modeled clock.
  const int openloop_requests = smoke ? 8 : 20;
  const double mean_gap_ms = 2.0;
  PrintHeader("Async serving: open-loop Poisson arrivals (wall clock, mean gap 2 ms) — "
              "sync serve loop vs async server vs async + decode-priority");
  std::printf("%12s %9s %10s %13s %13s %15s %7s %9s %13s\n", "mode", "finished", "wall ms",
              "p95 TTFT ms", "p95 turn ms", "goodput tok/s", "steps", "occupancy",
              "est compute");
  struct AsyncMode {
    const char* name;
    bool async;
    serving::ChunkPolicy policy;
  };
  for (const AsyncMode& mode :
       {AsyncMode{"sync", false, serving::ChunkPolicy::kFixed},
        AsyncMode{"async", true, serving::ChunkPolicy::kFixed},
        AsyncMode{"async+dp", true, serving::ChunkPolicy::kDecodePriority}}) {
    const OpenLoopRun run = RunOpenLoopCell(/*seed=*/7, mode.async, mode.policy,
                                            openloop_requests, mean_gap_ms);
    cells.Add("async_open_loop",
              Params("\"mode\": \"%s\", \"wall_ms\": %.1f, \"goodput_tokens_per_second\": "
                     "%.1f, \"p95_ttft_ms\": %.3f",
                     mode.name, run.wall_ms, run.goodput_tokens_per_s,
                     run.report.p95_ttft_ms),
              run.report);
    std::printf("%12s %9lld %10.1f %13.3f %13.3f %15.1f %7lld %9.3f %13.3f\n", mode.name,
                static_cast<long long>(run.finished), run.wall_ms, run.report.p95_ttft_ms,
                run.report.p95_turnaround_ms, run.goodput_tokens_per_s,
                static_cast<long long>(run.report.steps), run.report.mean_occupancy,
                run.report.est_compute_ms);
  }

  if (!json_path.empty() && !cells.Write(json_path, smoke)) {
    return 2;
  }
  if (chunk_divergences > 0) {
    std::fprintf(stderr,
                 "FAIL: %d chunked-prefill run(s) diverged bit-wise from one-shot prefill\n",
                 chunk_divergences);
  }
  if (divergences > 0) {
    std::fprintf(stderr,
                 "FAIL: %d sharded run(s) diverged bit-wise from the unsharded baseline\n",
                 divergences);
  }
  return (divergences > 0 || chunk_divergences > 0 || trace_failures > 0 ||
          prefix_failures > 0 || degraded_failures > 0)
             ? 1
             : 0;
}
