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
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/moe/decoder_layer.h"
#include "src/moe/model_configs.h"
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

// A served workload: SyntheticTrace's request count, arrival rate and
// prompt/decode ranges on a model with routing skew `skew`.
struct Workload {
  int requests = kRequests;
  double rate = 4.0;
  double skew = 2.0;
  int64_t prompt_lo = 4, prompt_hi = 16;
  int64_t decode_lo = 2, decode_hi = 8;
  // Every fifth request long (24..32 prompt rows, 24..40 decode rows): a
  // heavy tail whose resident footprints put a bounded page pool under real
  // pressure.
  bool long_tail = false;
  // Leading prompt rows of every request copied from the first request's:
  // a shared "system prompt" a prefix cache can serve from shared pages.
  int64_t shared_rows = 0;

  // The report's `config.trace`.
  std::string Describe() const {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "synthetic:%d rate=%g prompt=%lld..%lld decode=%lld..%lld skew=%g "
                  "long_tail=%d shared_rows=%lld",
                  requests, rate, static_cast<long long>(prompt_lo),
                  static_cast<long long>(prompt_hi), static_cast<long long>(decode_lo),
                  static_cast<long long>(decode_hi), skew, long_tail ? 1 : 0,
                  static_cast<long long>(shared_rows));
    return buf;
  }
};

// The workload-level provenance a report carries beside the engine's own.
void StampProvenance(serving::ServingReport& rep, uint64_t seed, std::string trace) {
  rep.provenance.model = ModelEcho(BenchModelConfig(), /*layers=*/1, kHeads);
  rep.provenance.trace = std::move(trace);
  rep.provenance.seed = static_cast<int64_t>(seed);
}

// The bench engine: token-budget admission over a 48-row budget; callers
// set the knobs their family sweeps.
serving::EngineConfig CellConfig(int threads) {
  serving::EngineConfig cfg;
  cfg.heads = kHeads;
  cfg.top_k = kTopK;
  cfg.threads = threads;
  cfg.scheduler.policy = serving::SchedulerPolicy::kTokenBudget;
  cfg.scheduler.token_budget = 48;
  return cfg;
}

// What one cell served: the report, each request's outputs in submission
// order (empty unless it finished) and how many requests finished.
struct CellRun {
  serving::ServingReport report;
  std::vector<MatrixF> outputs;
  int64_t finished = 0;
};

// Serves `w` to a fresh engine seeded with `seed`, preloaded and drained.
CellRun RunCell(uint64_t seed, const serving::EngineConfig& cfg, const Workload& w) {
  Rng rng(seed);
  serving::ServingEngine engine(BuildModel(rng, w.skew), cfg);
  auto entries = serving::SyntheticTrace(rng, w.requests, w.rate, w.prompt_lo, w.prompt_hi,
                                         w.decode_lo, w.decode_hi);
  if (w.long_tail) {
    for (size_t i = 0; i < entries.size(); i += 5) {
      entries[i].prompt_len = 24 + rng.NextIndex(9);
      entries[i].max_new_tokens = 24 + rng.NextIndex(17);
    }
  }
  std::vector<serving::Request> reqs;
  for (size_t i = 0; i < entries.size(); ++i) {
    reqs.push_back(serving::MakeRequest(rng, static_cast<int64_t>(i), entries[i], kHidden));
  }
  for (size_t i = 1; i < reqs.size(); ++i) {
    for (int64_t r = 0; r < w.shared_rows; ++r) {
      for (int64_t c = 0; c < kHidden; ++c) {
        reqs[i].inputs(r, c) = reqs[0].inputs(r, c);
      }
    }
  }
  for (auto& r : reqs) {
    engine.Submit(std::move(r));
  }
  engine.RunUntilDrained(/*max_steps=*/100000);

  CellRun run;
  run.report = engine.Report();
  StampProvenance(run.report, seed, w.Describe());
  for (size_t i = 0; i < entries.size(); ++i) {
    const serving::RequestResult* result = engine.Result(static_cast<int64_t>(i));
    const bool done = result != nullptr &&
                      result->status == serving::RequestStatus::kFinished;
    run.finished += done ? 1 : 0;
    run.outputs.push_back(done ? result->outputs : MatrixF(0, 0));
  }
  return run;
}

// The bit-identity gate: both runs finished all `requests` and every
// request's outputs match bit for bit.
bool SameOutputs(const CellRun& run, const CellRun& base, int requests) {
  return run.finished == requests && base.finished == requests && run.outputs == base.outputs;
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
  serving::EngineConfig cfg = CellConfig(/*threads=*/2);
  cfg.shards = 2;
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
  char trace[96];
  std::snprintf(trace, sizeof(trace), "poisson:%d mean_gap_ms=%g prompt=24..48 decode=4..12 skew=2",
                requests, mean_gap_ms);
  StampProvenance(run.report, seed, trace);
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

// Mean TTFT in steps (first output - arrival) over the sessions whose
// admission did (`hit`) or did not reuse cached prompt tokens; 0 with none.
double MeanTtftSteps(const serving::ServingReport& rep, bool hit, int64_t* sessions) {
  double sum = 0.0;
  *sessions = 0;
  for (const serving::RequestTimeline& tl : rep.request_timelines) {
    if (tl.first_output_step >= 0 && (tl.cached_prompt_tokens > 0) == hit) {
      sum += static_cast<double>(tl.first_output_step - tl.arrival_step);
      ++*sessions;
    }
  }
  return *sessions > 0 ? sum / static_cast<double>(*sessions) : 0.0;
}

// Accumulates sweep cells for --json=PATH: each cell is its section, the
// family's parameters and gate verdict, then the cell's whole ServingReport
// as ToJson writes it (request_timelines dropped), so a cell carries every
// report key under the report's own names.
class JsonCells {
 public:
  // `command`: the bench's own command line, every cell's `config.command`.
  explicit JsonCells(std::string command) : command_(std::move(command)) {}

  // `identical`: 1/0 for cells a bit-identity gate actually compared, -1 for
  // ungated cells (the field is omitted — absence means "not checked", so a
  // JSON consumer can tell verified cells from merely-emitted ones).
  void Add(const char* section, const std::string& params, serving::ServingReport rep,
           int identical = -1) {
    rep.request_timelines.clear();
    rep.provenance.command = command_;
    std::string report = rep.ToJson();
    report.pop_back();  // ToJson's trailing newline
    if (!cells_.empty()) {
      cells_ += ",\n";
    }
    cells_ += std::string("    {\"section\": \"") + section + "\", " + params;
    if (identical >= 0) {
      cells_ += identical > 0 ? ", \"bit_identical\": true" : ", \"bit_identical\": false";
    }
    cells_ += ",\n     \"report\": ";
    for (const char c : report) {  // nest the report one level deeper
      cells_ += c;
      cells_ += c == '\n' ? "     " : "";
    }
    cells_ += '}';
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
                 "{\n  \"bench\": \"serving_throughput\",\n  \"schema_version\": 2,\n"
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
  std::string command_;
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
  std::string command = "bench_serving_throughput";
  for (int i = 1; i < argc; ++i) {
    command += std::string(" ") + argv[i];
  }
  JsonCells cells(command);

  if (!smoke) {
  PrintHeader("Serving throughput sweep: arrival rate x routing skew "
              "(token-budget policy, 24 requests, 1 decoder layer)");
  std::printf("%8s %6s %12s %12s %11s %11s %10s\n", "rate", "skew", "TTFT steps", "tokens/s",
              "batch occ", "imbalance", "steps");
  for (double rate : {0.25, 1.0, 4.0}) {
    for (double skew : {0.0, 2.0, 8.0}) {
      Workload w;
      w.rate = rate;
      w.skew = skew;
      const auto rep = RunCell(/*seed=*/7, CellConfig(/*threads=*/2), w).report;
      cells.Add("throughput_sweep", Params("\"rate\": %.2f, \"skew\": %.1f", rate, skew), rep);
      std::printf("%8.2f %6.1f %12.1f %12.1f %10.0f%% %10.2fx %10lld\n", rate, skew,
                  rep.mean_ttft_steps, rep.tokens_per_second, 100.0 * rep.mean_occupancy,
                  rep.expert_imbalance, static_cast<long long>(rep.steps));
    }
  }

  PrintHeader("Scheduler policy comparison (rate 4.0, skew 2.0)");
  std::printf("%16s %12s %12s %11s %12s\n", "policy", "TTFT steps", "tokens/s", "batch occ",
              "peak concur");
  for (serving::SchedulerPolicy policy :
       {serving::SchedulerPolicy::kFcfs, serving::SchedulerPolicy::kSmallestFirst,
        serving::SchedulerPolicy::kTokenBudget}) {
    serving::EngineConfig cfg = CellConfig(/*threads=*/2);
    cfg.scheduler.policy = policy;
    const auto rep = RunCell(7, cfg, Workload()).report;
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
  Workload skewed;
  skewed.prompt_lo = 3;
  skewed.prompt_hi = 8;
  skewed.decode_hi = 6;
  skewed.long_tail = true;
  for (const bool preempt : {false, true}) {
    // Both modes see the same 128-token memory budget as 16 pages of 8 tokens.
    const char* mode = preempt ? "paged+preempt" : "paged";
    serving::EngineConfig cfg = CellConfig(/*threads=*/2);
    cfg.scheduler.page_tokens = 8;
    cfg.scheduler.max_pages = 16;
    cfg.scheduler.preempt = preempt;
    const auto rep = RunCell(/*seed=*/7, cfg, skewed).report;
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
  Workload long_prompts;
  long_prompts.requests = chunk_requests;
  long_prompts.rate = 1.0;
  long_prompts.prompt_lo = 48;
  long_prompts.prompt_hi = 96;
  long_prompts.decode_lo = 4;
  long_prompts.decode_hi = 12;
  const auto chunk_config = [](int64_t budget, int64_t chunk_tokens) {
    serving::EngineConfig cfg = CellConfig(/*threads=*/2);
    cfg.scheduler.token_budget = budget;
    cfg.scheduler.chunk_tokens = chunk_tokens;
    return cfg;
  };
  const CellRun baseline = RunCell(/*seed=*/7, chunk_config(128, 0), long_prompts);
  cells.Add("chunked_prefill", Params("\"budget\": 128, \"chunk_tokens\": 0"),
            baseline.report);
  std::printf("%12s %9lld %12.1f %12.1f %12.1f %12lld %10s\n", "one-shot",
              static_cast<long long>(baseline.finished), baseline.report.mean_ttft_steps,
              baseline.report.p95_turnaround_steps, baseline.report.tokens_per_second,
              static_cast<long long>(baseline.report.prefill_chunk_slices), "base");
  for (int64_t chunk : {int64_t{4}, int64_t{8}, int64_t{16}, int64_t{32}}) {
    const CellRun run = RunCell(7, chunk_config(32, chunk), long_prompts);
    const bool identical = SameOutputs(run, baseline, chunk_requests);
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
  // Arrivals are spread out (mean gap 10 steps) so early tenants retire — and
  // donate their prefix — before later ones are admitted; a back-to-back
  // burst would admit everyone cold before the first donation exists.
  Workload tenants;
  tenants.requests = prefix_requests;
  tenants.rate = 0.1;
  tenants.prompt_lo = 20;
  tenants.prompt_hi = 32;
  tenants.decode_lo = 4;
  tenants.shared_rows = 16;
  std::vector<CellRun> prefix_runs;
  for (const PrefixMode& mode : prefix_modes) {
    // The tight-pool pair runs with preemption on either way; only the
    // readmission strategy differs (recompute vs swap restore).
    serving::EngineConfig cfg = CellConfig(/*threads=*/2);
    cfg.scheduler.chunk_tokens = 16;
    cfg.scheduler.page_tokens = 8;
    cfg.scheduler.max_pages = mode.max_pages;
    cfg.scheduler.preempt = mode.max_pages == 8;
    cfg.prefix_cache = mode.prefix;
    cfg.swap = mode.swap;
    cfg.host_pages = 64;
    CellRun run = RunCell(/*seed=*/7, cfg, tenants);
    int64_t hits = 0;
    int64_t misses = 0;
    const double hit_ttft = MeanTtftSteps(run.report, /*hit=*/true, &hits);
    const double miss_ttft = MeanTtftSteps(run.report, /*hit=*/false, &misses);
    int identical = -1;
    if (mode.baseline >= 0) {
      const bool same =
          SameOutputs(run, prefix_runs[static_cast<size_t>(mode.baseline)], prefix_requests);
      identical = same ? 1 : 0;
      prefix_failures += same ? 0 : 1;
      if (!same) {
        std::fprintf(stderr, "FAIL: prefix mode '%s' diverged bit-wise from '%s'\n",
                     mode.name, prefix_modes[mode.baseline].name);
      }
    }
    cells.Add("prefix_sharing", Params("\"mode\": \"%s\"", mode.name), run.report, identical);
    std::printf("%16s %9lld %10.1f %9.1f %9.1f %8.0f%% %6lld %7lld %10s\n", mode.name,
                static_cast<long long>(run.finished), run.report.mean_ttft_steps, hit_ttft,
                miss_ttft, 100.0 * run.report.prefix_hit_rate,
                static_cast<long long>(run.report.cow_splits),
                static_cast<long long>(run.report.swap_outs),
                identical < 0 ? "base" : identical > 0 ? "yes" : "NO");
    prefix_runs.push_back(std::move(run));
  }
  {
    const CellRun& off = prefix_runs[0];
    const CellRun& on = prefix_runs[1];
    int64_t hit_sessions = 0;
    MeanTtftSteps(on.report, /*hit=*/true, &hit_sessions);
    if (on.report.prefix_hit_tokens <= 0 || hit_sessions <= 0) {
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
  // Same model, trace and thread count at every shard count, so outputs
  // must be bit-identical and only the analytic cluster estimate
  // (max-over-shards compute + all-to-all) and the shard-load histogram may
  // move.
  const auto shard_config = [](int shards, serving::ShardPlacement placement) {
    serving::EngineConfig cfg = CellConfig(/*threads=*/4);
    cfg.shards = shards;
    cfg.placement = placement;
    return cfg;
  };
  for (double skew : shard_skews) {
    Workload w;
    w.requests = shard_requests;
    w.skew = skew;
    const CellRun baseline =
        RunCell(/*seed=*/7, shard_config(1, serving::ShardPlacement::kRoundRobin), w);
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
        const CellRun run = RunCell(7, shard_config(shards, placement), w);
        const bool identical = SameOutputs(run, baseline, shard_requests);
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
  Workload degraded_trace;
  degraded_trace.requests = degraded_requests;
  serving::EngineConfig degraded_cfg = CellConfig(/*threads=*/4);
  degraded_cfg.shards = 4;
  const CellRun healthy = RunCell(/*seed=*/7, degraded_cfg, degraded_trace);
  cells.Add("degraded_mode", Params("\"mode\": \"healthy\""), healthy.report);
  std::printf("%12s %9lld %11.3f %11.3f %10lld %8lld %10s\n", "healthy",
              static_cast<long long>(healthy.finished), healthy.report.est_compute_ms,
              healthy.report.est_alltoall_ms,
              static_cast<long long>(healthy.report.shard_failovers),
              static_cast<long long>(healthy.report.steps), "base");
  std::string fault_error;
  if (!serving::ParseFaultSchedule("shard-die@6:1", &degraded_cfg.faults, &fault_error)) {
    std::fprintf(stderr, "bad fault schedule: %s\n", fault_error.c_str());
    return 2;
  }
  degraded_cfg.fault_seed = 7;
  const CellRun degraded = RunCell(/*seed=*/7, degraded_cfg, degraded_trace);
  const bool degraded_identical = SameOutputs(degraded, healthy, degraded_requests);
  cells.Add("degraded_mode", Params("\"mode\": \"one-dead-shard\""), degraded.report,
            degraded_identical ? 1 : 0);
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
  Workload trace_prompts = long_prompts;
  trace_prompts.requests = trace_requests;
  CellRun untraced;
  for (int rep = 0; rep < 3; ++rep) {
    CellRun run = RunCell(/*seed=*/7, chunk_config(32, 8), trace_prompts);
    if (rep == 0 || run.report.tokens_per_second > untraced.report.tokens_per_second) {
      untraced = std::move(run);
    }
  }
  CellRun traced;
  int64_t trace_events = 0;
  int64_t trace_dropped = 0;
  for (int rep = 0; rep < 3; ++rep) {
    // Ring sized to the workload (verified: nothing is overwritten) so the
    // gate measures the steady-state emit path. The default 256K-slot rings
    // are one-time warmup allocation, which on a millisecond-scale cell
    // would swamp the per-event cost being gated here.
    obs::Tracer::Get().Start(obs::TraceDetail::kFull, /*ring_capacity=*/1 << 12);
    CellRun run = RunCell(/*seed=*/7, chunk_config(32, 8), trace_prompts);
    obs::Tracer::Get().Stop();
    if (rep == 0 || run.report.tokens_per_second > traced.report.tokens_per_second) {
      traced = std::move(run);
      trace_events = obs::Tracer::Get().total_events();
    }
    trace_dropped += obs::Tracer::Get().dropped_events();
  }
  const bool trace_identical = SameOutputs(traced, untraced, trace_requests);
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
              "p95 TTFT ms", "p95 turn ms", "goodput tok/s", "steps", "batch occ",
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
              Params("\"mode\": \"%s\", \"open_loop_wall_ms\": %.1f, "
                     "\"goodput_tokens_per_second\": %.1f",
                     mode.name, run.wall_ms, run.goodput_tokens_per_s),
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
