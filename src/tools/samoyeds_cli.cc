// samoyeds_cli — command-line front end to the library, the performance
// simulator, and the continuous-batching serving engine.

#include <cerrno>
#include <cmath>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/autotune.h"
#include "src/core/samoyeds_kernel.h"
#include "src/formats/samoyeds_format.h"
#include "src/frameworks/layer_cost.h"
#include "src/kernels/cusparselt_spmm.h"
#include "src/kernels/dense_gemm.h"
#include "src/kernels/nmsparse_spmm.h"
#include "src/kernels/sputnik_spmm.h"
#include "src/kernels/venom_spmm.h"
#include "src/moe/memory_model.h"
#include "src/moe/model_configs.h"
#include "src/obs/tracer.h"
#include "src/serving/engine.h"
#include "src/serving/server.h"
#include "src/serving/trace.h"
#include "src/simgpu/timing_model.h"
#include "src/tensor/rng.h"

namespace samoyeds {
namespace {

// Strict numeric parsing: the whole argument must be a number. atoll-style
// silent zeros for garbage input hide operator typos.
int64_t ParseI64(const char* s, const char* what) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "invalid %s: '%s' (expected an integer)\n", what, s);
    std::exit(2);
  }
  return static_cast<int64_t>(v);
}

int ParseInt(const char* s, const char* what) {
  const int64_t v = ParseI64(s, what);
  if (v < INT_MIN || v > INT_MAX) {
    std::fprintf(stderr, "invalid %s: '%s' (out of int range)\n", what, s);
    std::exit(2);
  }
  return static_cast<int>(v);
}

const DeviceSpec& DeviceByIndex(int index) {
  const auto models = AllDeviceModels();
  if (index < 0 || index >= static_cast<int>(models.size())) {
    std::fprintf(stderr, "device index out of range (see `devices`)\n");
    std::exit(2);
  }
  return GetDevice(models[static_cast<size_t>(index)]);
}

int CmdDevices() {
  const auto models = AllDeviceModels();
  std::printf("%3s %-30s %5s %9s %9s %8s %8s\n", "idx", "name", "SMs", "TC TF/s", "BW GB/s",
              "L2 MiB", "mem GiB");
  for (size_t i = 0; i < models.size(); ++i) {
    const DeviceSpec& d = GetDevice(models[i]);
    std::printf("%3zu %-30s %5d %9.0f %9.0f %8lld %8lld\n", i, d.name.c_str(), d.sm_count,
                d.tc_dense_tflops, d.dram_bandwidth_gbps,
                static_cast<long long>(d.l2_bytes >> 20),
                static_cast<long long>(d.dram_capacity_bytes >> 30));
  }
  return 0;
}

int CmdAnalyze(int argc, char** argv) {
  if (argc < 5) {
    std::fprintf(stderr, "usage: analyze <m> <k> <n> [selected] [device-index]\n");
    return 2;
  }
  const GemmShape shape{ParseI64(argv[2], "m"), ParseI64(argv[3], "k"), ParseI64(argv[4], "n")};
  const int64_t selected = argc > 5 ? ParseI64(argv[5], "selected") : shape.n;
  const DeviceSpec& device =
      argc > 6 ? DeviceByIndex(ParseInt(argv[6], "device-index")) : DefaultDevice();
  const TimingModel model(device);
  const SamoyedsConfig fmt{1, 2, 32};

  std::printf("C[%lld x %lld] = A[%lld x %lld] * B, %lld of %lld columns selected, on %s\n\n",
              static_cast<long long>(shape.m), static_cast<long long>(selected),
              static_cast<long long>(shape.m), static_cast<long long>(shape.k),
              static_cast<long long>(selected), static_cast<long long>(shape.n),
              device.name.c_str());
  auto row = [&](const KernelProfile& p) {
    const TimingEstimate e = model.Estimate(p.traffic);
    std::printf("%-24s %10.3fms %9.1f TF/s  %s\n", p.kernel_name.c_str(), e.total_ms,
                p.useful_flops / (e.total_ms * 1e-3) / 1e12,
                e.memory_bound() ? "memory-bound" : "compute-bound");
  };
  row(DenseGemmKernel::Analyze(shape));
  row(CusparseltSpmmKernel::Analyze(shape));
  row(SputnikSpmmKernel::Analyze(shape, 0.25));
  row(NmSparseSpmmKernel::Analyze(shape, NmConfig{1, 4}));
  row(VenomSpmmKernel::Analyze(shape, VenomConfig{64, 2, 4}, device));
  row(SamoyedsKernel::Analyze(shape, selected, fmt, SsmmConfig::Default(), device));
  return 0;
}

int CmdAutotune(int argc, char** argv) {
  if (argc < 5) {
    std::fprintf(stderr, "usage: autotune <m> <k> <n> [device-index]\n");
    return 2;
  }
  const GemmShape shape{ParseI64(argv[2], "m"), ParseI64(argv[3], "k"), ParseI64(argv[4], "n")};
  const DeviceSpec& device =
      argc > 5 ? DeviceByIndex(ParseInt(argv[5], "device-index")) : DefaultDevice();
  const AutotuneResult r = AutotuneSsmm(shape, shape.n, SamoyedsConfig{1, 2, 32}, device);
  std::printf("%s: default %.3f ms -> tuned %.3f ms (%.2fx)\n", device.name.c_str(), r.default_ms,
              r.simulated_ms, r.speedup_over_default());
  std::printf("chosen config: mb=%d nb=%d kb=%d mw=%d nw=%d stages=%d\n", r.config.mb,
              r.config.nb, r.config.kb, r.config.mw, r.config.nw, r.config.stages);
  return 0;
}

int CmdMaxBatch() {
  const SamoyedsConfig fmt{1, 2, 32};
  std::printf("%-14s %5s %13s %11s %8s %9s\n", "model", "seq", "Transformers", "MegaBlocks",
              "vLLM-DS", "Samoyeds");
  for (const auto& model : PaperModels()) {
    const int64_t seq = model.name == "OpenMoE-34B" ? 2048
                        : model.num_experts >= 32 && model.intermediate <= 4096 ? 4096
                                                                                : 1024;
    std::printf("%-14s %5lld", model.name.c_str(), static_cast<long long>(seq));
    for (MoeFramework fw : {MoeFramework::kTransformers, MoeFramework::kMegaBlocks,
                            MoeFramework::kVllmDs, MoeFramework::kSamoyeds}) {
      if (!FrameworkSupportsModel(fw, model)) {
        std::printf(" %*s", fw == MoeFramework::kTransformers ? 13 : 11, "-");
        continue;
      }
      const auto fp = EstimateFootprint(model, fw, fmt, DefaultDevice());
      const int width = fw == MoeFramework::kTransformers ? 13
                        : fw == MoeFramework::kSamoyeds   ? 9
                        : fw == MoeFramework::kVllmDs     ? 8
                                                          : 11;
      std::printf(" %*lld", width, static_cast<long long>(fp.MaxBatch(seq)));
    }
    std::printf("\n");
  }
  return 0;
}

int CmdMoe(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr, "usage: moe <model-name> <tokens>\n");
    return 2;
  }
  const MoeModelConfig& model = ModelByName(argv[2]);
  const int64_t tokens = ParseI64(argv[3], "tokens");
  const auto counts = UniformTokensPerExpert(model, tokens);
  LayerCostOptions opts;
  opts.shared_experts_override = 0;
  std::printf("%s MoE layer, %lld tokens:\n", model.name.c_str(),
              static_cast<long long>(tokens));
  for (MoeFramework fw : {MoeFramework::kTransformers, MoeFramework::kMegaBlocks,
                          MoeFramework::kVllmDs, MoeFramework::kPit, MoeFramework::kSamoyeds}) {
    if (!FrameworkSupportsModel(fw, model)) {
      std::printf("  %-13s NS\n", FrameworkName(fw));
      continue;
    }
    std::printf("  %-13s %9.3f ms\n", FrameworkName(fw),
                EstimateMoeLayerCost(fw, model, counts, tokens, opts).total_ms);
  }
  return 0;
}

int CmdEncode(int argc, char** argv) {
  if (argc < 7) {
    std::fprintf(stderr, "usage: encode <rows> <cols> <N> <M> <V>\n");
    return 2;
  }
  const int64_t rows = ParseI64(argv[2], "rows");
  const int64_t cols = ParseI64(argv[3], "cols");
  const SamoyedsConfig cfg{ParseInt(argv[4], "N"), ParseInt(argv[5], "M"), ParseInt(argv[6], "V")};
  if (!cfg.IsValid() || rows <= 0 || cols <= 0 || rows % cfg.m != 0 || cols % cfg.v != 0) {
    std::fprintf(stderr, "invalid config or non-divisible shape\n");
    return 2;
  }
  Rng rng(1);
  const SamoyedsMatrix enc = SamoyedsMatrix::Encode(rng.GaussianMatrix(rows, cols), cfg);
  std::printf("encoded %lld x %lld at (%d,%d,%d): sparsity %.1f%%, storage %lld KiB "
              "(dense bf16 %lld KiB), well-formed: %s\n",
              static_cast<long long>(rows), static_cast<long long>(cols), cfg.n, cfg.m, cfg.v,
              100.0 * cfg.sparsity(), static_cast<long long>(enc.StorageBytes() >> 10),
              static_cast<long long>(rows * cols * 2 >> 10),
              enc.IsWellFormed() ? "yes" : "NO");
  return 0;
}

// ---- serve ------------------------------------------------------------------

// Everything one serve run is configured with. The flag table below binds
// each flag straight into one of these fields; engine and server knobs live
// in the library's own config structs, so nothing is copied after parsing.
struct ServeOptions {
  ServeOptions() {
    model.name = "tiny";
    model.hidden = 64;
    model.intermediate = 96;
    engine.scheduler.policy = serving::SchedulerPolicy::kTokenBudget;
    engine.scheduler.token_budget = 128;
  }

  std::string trace;
  // Expert structure of the served model. Named paper models seed the
  // structure; hidden and intermediate stay miniature because the SpTC path
  // is emulated functionally.
  MoeModelConfig model;
  int layers = 2;
  serving::EngineConfig engine;
  serving::ServerConfig server;
  bool async = false;               // serve through the AsyncServer front end
  bool auto_pages = false;          // --max-pages=auto: derive from PageCapacity()
  std::vector<int64_t> cancel_ids;  // --cancel targets, in order
  bool stream = false;              // print per-iteration streamed rows
  std::string report_json;          // write ServingReport::ToJson here
  double rate = 1.0;                // synthetic arrivals per step
  int64_t prompt_min = 4, prompt_max = 16;
  int64_t decode_min = 2, decode_max = 8;
  uint64_t seed = 1234;
  std::string trace_out;            // Chrome trace-event JSON; empty = off
  obs::TraceDetail trace_detail = obs::TraceDetail::kFull;
  int64_t trace_ring = obs::Tracer::kDefaultRingCapacity;
  int64_t deadline_steps = 0;       // per-request deadline (0 = off)
  std::string watchdog_dump;        // flight-recorder dump target on a trip
};

// One occurrence of a serve flag as its binder sees it. The accessors parse
// the value strictly and exit 2, naming the flag, when it is malformed or
// out of bounds. `value` is nullptr for a bare `--name`, which only the
// 0|1 flags accept (as 1).
struct FlagArg {
  const char* flag;
  const char* syntax;
  const char* value;

  [[noreturn]] void Fail(const char* why) const {
    std::fprintf(stderr, "invalid %s: '%s' (%s)\n", flag, value, why);
    std::exit(2);
  }
  const char* Text() const {
    if (value == nullptr) {
      std::fprintf(stderr, "%s needs a value: %s%s\n", flag, flag, syntax);
      std::exit(2);
    }
    return value;
  }
  int64_t I64(int64_t min = INT64_MIN) const { return AtLeast(ParseI64(Text(), flag), min); }
  int Int(int min) const { return static_cast<int>(AtLeast(ParseInt(Text(), flag), min)); }
  int64_t AtLeast(int64_t v, int64_t min) const {
    if (v < min) {
      Fail(("need >= " + std::to_string(min)).c_str());
    }
    return v;
  }
  bool Bool() const {
    if (value == nullptr) {
      return true;
    }
    const int64_t v = ParseI64(value, flag);
    if (v != 0 && v != 1) {
      Fail("expected 0 or 1");
    }
    return v == 1;
  }
  double Real(bool non_negative = false) const {
    char* end = nullptr;
    const double v = std::strtod(Text(), &end);
    if (end == value || *end != '\0' || !std::isfinite(v)) {
      Fail("expected a finite number");
    }
    if (non_negative && v < 0.0) {
      Fail("need >= 0");
    }
    return v;
  }
  // An enum value, parsed by the library's own name parser.
  template <typename E>
  E Parse(bool (*parse)(const char*, E*)) const {
    E v{};
    if (!parse(Text(), &v)) {
      Fail(("expected " + std::string(syntax + 1)).c_str());
    }
    return v;
  }
};

// A serve flag: name, value syntax (as printed after the name), help text,
// and the binder that writes the parsed value into the options.
struct ServeFlag {
  const char* name;
  const char* syntax;
  const char* help;
  void (*bind)(ServeOptions& opt, const FlagArg& arg);
};

const ServeFlag kServeFlags[] = {
    {"--policy", "=fcfs|smallest-first|token-budget",
     "admission scan order: arrival order with head-of-line blocking, shortest request first, or "
     "arrival order with later requests filling leftover budget (default token-budget)",
     [](ServeOptions& o, const FlagArg& a) {
       o.engine.scheduler.policy = a.Parse(serving::ParseSchedulerPolicy);
     }},
    {"--budget", "=N", "max batch rows per iteration, prefill + decode (>= 1, default 128)",
     [](ServeOptions& o, const FlagArg& a) { o.engine.scheduler.token_budget = a.I64(1); }},
    {"--chunk-tokens", "=N",
     "chunked prefill: split prompts into <=N-row chunks interleaved with decode rows, so prompts "
     "longer than the budget are served; outputs are bit-identical to one-shot prefill (0 = off)",
     [](ServeOptions& o, const FlagArg& a) { o.engine.scheduler.chunk_tokens = a.I64(0); }},
    {"--chunk-policy", "=fixed|decode-priority",
     "decode-priority shrinks the chunk cap to max(1, N - resident decode rows) so prompt work "
     "yields batch slots to decode (still bit-identical)",
     [](ServeOptions& o, const FlagArg& a) {
       o.engine.scheduler.chunk_policy = a.Parse(serving::ParseChunkPolicy);
     }},
    {"--async", "[=0|1]",
     "serve through the AsyncServer front end: a driver thread runs Step() while submissions flow "
     "through a mailbox drained at step boundaries",
     [](ServeOptions& o, const FlagArg& a) { o.async = a.Bool(); }},
    {"--server-clock", "=virtual|wall",
     "async arrival stamps: virtual (deterministic, bit-identical to the synchronous engine) or "
     "wall (stamped at drain time)",
     [](ServeOptions& o, const FlagArg& a) {
       o.server.clock = a.Parse(serving::ParseServerClock);
     }},
    {"--mailbox-cap", "=N",
     "bound the async mailbox, shedding the lowest-priority pending submission below each "
     "overflowing arrival (0 = unbounded)",
     [](ServeOptions& o, const FlagArg& a) { o.server.mailbox_capacity = a.I64(0); }},
    {"--cancel", "=ID[,ID...]",
     "cancel the listed sessions after submission (an id never submitted is a runtime failure, "
     "exit 1)",
     [](ServeOptions& o, const FlagArg& a) {
       const std::string list = a.Text();
       for (size_t start = 0, comma = 0; comma != std::string::npos; start = comma + 1) {
         comma = list.find(',', start);
         o.cancel_ids.push_back(ParseI64(list.substr(start, comma - start).c_str(), a.flag));
       }
     }},
    {"--stream", "[=0|1]", "print each session's rows as they finalize (the OnRows callback)",
     [](ServeOptions& o, const FlagArg& a) { o.stream = a.Bool(); }},
    {"--report-json", "=FILE", "write the machine-readable ServingReport",
     [](ServeOptions& o, const FlagArg& a) { o.report_json = a.Text(); }},
    {"--page-tokens", "=N", "KV page size in token slots (>= 1, default 16)",
     [](ServeOptions& o, const FlagArg& a) { o.engine.scheduler.page_tokens = a.I64(1); }},
    {"--max-pages", "=N|auto",
     "bound the KV page pool admission packs against; auto derives it from the Table-3 memory "
     "model (0 = unbounded)",
     [](ServeOptions& o, const FlagArg& a) {
       o.auto_pages = std::strcmp(a.Text(), "auto") == 0;
       o.engine.scheduler.max_pages = o.auto_pages ? 0 : a.I64(0);
     }},
    {"--preempt", "[=0|1]",
     "admit optimistically and evict the lowest-priority/youngest resident under page pressure "
     "(needs a bounded page pool)",
     [](ServeOptions& o, const FlagArg& a) { o.engine.scheduler.preempt = a.Bool(); }},
    {"--prefix-cache", "[=0|1]",
     "share KV pages between sessions whose prompts bit-match a cached prefix (radix tree, "
     "copy-on-write pages; outputs unchanged)",
     [](ServeOptions& o, const FlagArg& a) { o.engine.prefix_cache = a.Bool(); }},
    {"--swap", "[=0|1]",
     "move preemption victims' KV pages to a simulated host tier and restore them bit-exactly on "
     "readmission (needs --preempt=1 and a bounded page pool)",
     [](ServeOptions& o, const FlagArg& a) { o.engine.swap = a.Bool(); }},
    {"--host-pages", "=N",
     "host-tier capacity in pages for --swap; recompute is the fallback when it fills (0 = "
     "unbounded)",
     [](ServeOptions& o, const FlagArg& a) { o.engine.host_pages = a.I64(0); }},
    {"--threads", "=N", "expert-pool threads (>= 1, default 4)",
     [](ServeOptions& o, const FlagArg& a) { o.engine.threads = a.Int(1); }},
    {"--layers", "=N", "decoder layers (>= 1, default 2)",
     [](ServeOptions& o, const FlagArg& a) { o.layers = a.Int(1); }},
    {"--hidden", "=N", "hidden size: a multiple of 32 and of --heads (default 64)",
     [](ServeOptions& o, const FlagArg& a) { o.model.hidden = a.Int(32); }},
    {"--inter", "=N", "expert intermediate size: a multiple of 32 (default 96)",
     [](ServeOptions& o, const FlagArg& a) { o.model.intermediate = a.Int(32); }},
    {"--experts", "=N", "routed experts (default 8, or the named model's)",
     [](ServeOptions& o, const FlagArg& a) { o.model.num_experts = a.Int(1); }},
    {"--top-k", "=N", "experts per token, at most --experts (default 2, or the named model's)",
     [](ServeOptions& o, const FlagArg& a) { o.model.top_k = a.Int(1); }},
    {"--heads", "=N", "attention heads (>= 1, default 4)",
     [](ServeOptions& o, const FlagArg& a) { o.engine.heads = a.Int(1); }},
    {"--rate", "=R", "synthetic arrivals per step (>= 0, default 1; 0 = all at step 0)",
     [](ServeOptions& o, const FlagArg& a) { o.rate = a.Real(/*non_negative=*/true); }},
    {"--prompt-min", "=N", "shortest synthetic prompt in rows (>= 1, default 4)",
     [](ServeOptions& o, const FlagArg& a) { o.prompt_min = a.I64(1); }},
    {"--prompt-max", "=N", "longest synthetic prompt in rows (default 16)",
     [](ServeOptions& o, const FlagArg& a) { o.prompt_max = a.I64(1); }},
    {"--decode-min", "=N", "fewest synthetic decode rows (>= 0, default 2)",
     [](ServeOptions& o, const FlagArg& a) { o.decode_min = a.I64(0); }},
    {"--decode-max", "=N", "most synthetic decode rows (default 8)",
     [](ServeOptions& o, const FlagArg& a) { o.decode_max = a.I64(0); }},
    {"--seed", "=N", "seed for weights, synthetic trace and inputs (default 1234)",
     [](ServeOptions& o, const FlagArg& a) { o.seed = static_cast<uint64_t>(a.I64()); }},
    {"--autotune", "[=0|1]", "tune each SSMM kernel's tile config (cached; same outputs)",
     [](ServeOptions& o, const FlagArg& a) { o.engine.autotune = a.Bool(); }},
    {"--shards", "=N", "partition experts across N simulated devices (bit-identical outputs)",
     [](ServeOptions& o, const FlagArg& a) { o.engine.shards = a.Int(1); }},
    {"--placement", "=round-robin|capacity|gate-stats", "expert layout across shards",
     [](ServeOptions& o, const FlagArg& a) {
       o.engine.placement = a.Parse(serving::ParseShardPlacement);
     }},
    {"--link-gbps", "=R", "per-link interconnect bandwidth override (<= 0 = device default)",
     [](ServeOptions& o, const FlagArg& a) { o.engine.link_bandwidth_gbps = a.Real(); }},
    {"--link-us", "=R", "per-link interconnect latency override (< 0 = device default)",
     [](ServeOptions& o, const FlagArg& a) { o.engine.link_latency_us = a.Real(); }},
    {"--trace-out", "=FILE",
     "capture a Chrome trace-event timeline of the run (open in https://ui.perfetto.dev or "
     "chrome://tracing)",
     [](ServeOptions& o, const FlagArg& a) { o.trace_out = a.Text(); }},
    {"--trace-detail", "=step|request|full",
     "step phases + counters, + per-request lifecycle rows, or + per-layer and per-tile worker "
     "spans (default full)",
     [](ServeOptions& o, const FlagArg& a) { o.trace_detail = a.Parse(obs::ParseTraceDetail); }},
    {"--trace-ring", "=N", "flight-recorder ring: keep the most recent N events per thread (>= 1)",
     [](ServeOptions& o, const FlagArg& a) { o.trace_ring = a.I64(1); }},
    {"--faults", "=SPEC",
     "deterministic fault schedule: comma-separated rules point@step[:arg][xN] (fire at a step) "
     "or point~prob[:arg][xN] (seeded per-probe probability) over kv-alloc, swap-out, swap-in, "
     "swap-corrupt, shard-die, shard-stall, link-degrade (e.g. 'kv-alloc~0.05,shard-die@6:1')",
     [](ServeOptions& o, const FlagArg& a) {
       std::string error;
       if (!serving::ParseFaultSchedule(a.Text(), &o.engine.faults, &error)) {
         a.Fail(error.c_str());
       }
     }},
    {"--fault-seed", "=N", "seed of the fault draws (same schedule + seed replays bit-exactly)",
     [](ServeOptions& o, const FlagArg& a) {
       o.engine.fault_seed = static_cast<uint64_t>(a.I64());
     }},
    {"--fault-retries", "=N", "transient-fault retries before evict-and-recompute (default 3)",
     [](ServeOptions& o, const FlagArg& a) { o.engine.fault_retry_limit = a.Int(0); }},
    {"--deadline-steps", "=N", "time out sessions still unfinished N steps after arrival (0 = off)",
     [](ServeOptions& o, const FlagArg& a) { o.deadline_steps = a.I64(0); }},
    {"--ingress-cap", "=N", "bound the ingress queue, shedding lowest priority first (0 = off)",
     [](ServeOptions& o, const FlagArg& a) { o.engine.ingress_capacity = a.I64(0); }},
    {"--watchdog-steps", "=N", "trip a watchdog when a session stalls for N steps (0 = off)",
     [](ServeOptions& o, const FlagArg& a) { o.engine.watchdog_steps = a.I64(0); }},
    {"--watchdog-dump", "=FILE", "dump the flight-recorder ring here on a watchdog trip",
     [](ServeOptions& o, const FlagArg& a) { o.watchdog_dump = a.Text(); }},
    {"--kernel-backend", "=auto|scalar|avx2|avx512|neon",
     "SSMM inner loops: scalar (default), avx2, avx512 or neon, all bit-exact, so the choice "
     "changes speed and never outputs; auto picks the widest ISA this CPU supports; an ISA the "
     "CPU lacks is a runtime failure",
     [](ServeOptions& o, const FlagArg& a) {
       o.engine.kernel_backend = a.Parse(ParseKernelBackend);
     }},
};

// Prints `text` from column `indent`, word-wrapped before column 80.
void PrintWrapped(std::FILE* out, const std::string& text, int indent) {
  std::istringstream words(text);
  int column = 0;
  for (std::string word; words >> word;) {
    if (column > indent && column + 1 + static_cast<int>(word.size()) > 79) {
      std::fputc('\n', out);
      column = 0;
    }
    column += column == 0 ? std::fprintf(out, "%*s%s", indent, "", word.c_str())
                          : std::fprintf(out, " %s", word.c_str());
  }
  std::fputc('\n', out);
}

// The serve synopsis, then one help entry per flag, both from kServeFlags.
void PrintServeFlags(std::FILE* out) {
  std::string synopsis;
  for (const ServeFlag& f : kServeFlags) {
    synopsis += std::string(" [") + f.name + f.syntax + "]";
  }
  PrintWrapped(out, synopsis, 8);
  std::fputs("\nserve flags:\n", out);
  for (const ServeFlag& f : kServeFlags) {
    std::fprintf(out, "  %s%s\n", f.name, f.syntax);
    PrintWrapped(out, f.help, 6);
  }
}

// Binds one `--name[=value]` argument through the flag table. Exits 2 on an
// unknown flag or a bad value.
void ParseServeFlag(const char* arg, ServeOptions& opt) {
  const char* eq = std::strchr(arg, '=');
  const std::string name = eq != nullptr ? std::string(arg, eq) : std::string(arg);
  if (name.rfind("--", 0) != 0) {
    std::fprintf(stderr, "unknown serve argument: %s\n", arg);
    std::exit(2);
  }
  for (const ServeFlag& f : kServeFlags) {
    if (name == f.name) {
      f.bind(opt, FlagArg{f.name, f.syntax, eq != nullptr ? eq + 1 : nullptr});
      return;
    }
  }
  std::fprintf(stderr, "unknown serve flag: %s\n", name.c_str());
  std::exit(2);
}

int CmdServe(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: serve <model|tiny> <trace-file|synthetic:N> [--flags]\n"
                 "(run `samoyeds_cli help` for the full flag list)\n");
    return 2;
  }
  ServeOptions opt;
  opt.model.name = argv[2];
  opt.trace = argv[3];

  // Named paper models contribute routing/activation structure as *defaults*
  // (flags still override); hidden and intermediate stay miniature because
  // the SpTC path is emulated functionally (override with --hidden/--inter).
  if (opt.model.name != "tiny") {
    const MoeModelConfig* paper = nullptr;
    for (const auto& m : PaperModels()) {
      if (m.name == opt.model.name) {
        paper = &m;
        break;
      }
    }
    if (paper == nullptr) {
      std::fprintf(stderr, "unknown model: %s (use 'tiny' or a Table 2 name",
                   opt.model.name.c_str());
      for (const auto& m : PaperModels()) {
        std::fprintf(stderr, ", %s", m.name.c_str());
      }
      std::fprintf(stderr, ")\n");
      return 2;
    }
    opt.model.num_experts = paper->num_experts;
    opt.model.top_k = paper->top_k;
    opt.model.shared_experts = paper->shared_experts;
    opt.model.activation = paper->activation;
  }

  for (int i = 4; i < argc; ++i) {
    ParseServeFlag(argv[i], opt);
  }

  // Checks that span several flags; each flag's own bound was enforced as it
  // was bound.
  MoeModelConfig& cfg = opt.model;
  serving::EngineConfig& engine_cfg = opt.engine;
  serving::SchedulerConfig& sched = engine_cfg.scheduler;
  if (cfg.hidden % 32 != 0 || cfg.intermediate % 32 != 0 ||
      cfg.hidden % engine_cfg.heads != 0) {
    std::fprintf(stderr, "--hidden and --inter must be multiples of 32 and --hidden a "
                         "multiple of --heads\n");
    return 2;
  }
  if (cfg.top_k > cfg.num_experts) {
    std::fprintf(stderr, "need --top-k <= --experts\n");
    return 2;
  }
  const bool bounded_pool = sched.max_pages > 0 || opt.auto_pages;
  if (sched.preempt && !bounded_pool) {
    std::fprintf(stderr, "--preempt=1 requires a bounded page pool (--max-pages)\n");
    return 2;
  }
  if (engine_cfg.swap && (!sched.preempt || !bounded_pool)) {
    std::fprintf(stderr, "--swap=1 requires --preempt=1 and a bounded page pool (--max-pages)\n");
    return 2;
  }
  if (opt.prompt_max < opt.prompt_min || opt.decode_max < opt.decode_min) {
    std::fprintf(stderr, "need --prompt-min <= --prompt-max and --decode-min <= --decode-max\n");
    return 2;
  }
  // Flag value was well-formed (parse errors already exited 2); a backend
  // this machine cannot run is a runtime failure, not a usage error.
  const KernelBackend requested_backend = engine_cfg.kernel_backend;
  if (!ResolveKernelBackend(requested_backend, &engine_cfg.kernel_backend)) {
    std::fprintf(stderr, "kernel-backend %s is not runnable on this CPU\n",
                 KernelBackendName(requested_backend));
    return 1;
  }
  // The engine routes and activates with the served model's structure.
  engine_cfg.top_k = cfg.top_k;
  engine_cfg.activation = cfg.activation;

  if (opt.auto_pages) {
    // Page budget from the Table-3 memory model: KV capacity next to this
    // model's weights under Samoyeds storage, in whole pages.
    sched.max_pages = serving::PageCapacity(cfg, MoeFramework::kSamoyeds,
                                            SamoyedsConfig{1, 2, 32}, DefaultDevice(),
                                            sched.page_tokens);
    if (sched.max_pages < 1) {
      std::fprintf(stderr, "memory model leaves no KV page capacity for %s\n", cfg.name.c_str());
      return 2;
    }
  }

  // Trace: file path or synthetic:<count>.
  Rng rng(opt.seed);
  std::vector<serving::TraceEntry> entries;
  if (opt.trace.rfind("synthetic:", 0) == 0) {
    const int count = ParseInt(opt.trace.c_str() + std::strlen("synthetic:"), "synthetic count");
    if (count < 1) {
      std::fprintf(stderr, "synthetic count must be >= 1\n");
      return 2;
    }
    entries = serving::SyntheticTrace(rng, count, opt.rate, opt.prompt_min, opt.prompt_max,
                                      opt.decode_min, opt.decode_max);
  } else {
    std::string error;
    entries = serving::ParseTraceFile(opt.trace, &error);
    if (entries.empty()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
  }

  // Build the model and engine.
  const SamoyedsConfig fmt{1, 2, 32};
  std::vector<SamoyedsDecoderLayerWeights> layers;
  for (int l = 0; l < opt.layers; ++l) {
    const DecoderLayerWeights dense = DecoderLayerWeights::Random(rng, cfg);
    layers.push_back(SamoyedsDecoderLayerWeights::Encode(dense, fmt));
  }

  // On a liveness trip, dump the flight-recorder ring: the most recent
  // events per thread leading up to the stall, ready for Perfetto.
  const std::string watchdog_dump = opt.watchdog_dump;
  if (!watchdog_dump.empty()) {
    engine_cfg.watchdog_hook = [watchdog_dump](int64_t session_id, int64_t step) {
      std::fprintf(stderr,
                   "watchdog: session %lld made no progress through step %lld — "
                   "dumping flight recorder to %s\n",
                   static_cast<long long>(session_id), static_cast<long long>(step),
                   watchdog_dump.c_str());
      if (!obs::Tracer::Get().WriteChromeJson(watchdog_dump)) {
        std::fprintf(stderr, "cannot write %s\n", watchdog_dump.c_str());
      }
    };
  }
  serving::ServingEngine engine(std::move(layers), engine_cfg);

  // The banner is the report's config section: the engine's provenance plus
  // the workload fields and the command line, which records every flag.
  serving::ReportProvenance config = engine.Provenance();
  for (int i = 1; i < argc; ++i) {
    config.command += (i == 1 ? "" : " ") + std::string(argv[i]);
  }
  config.model = ModelEcho(cfg, opt.layers, engine_cfg.heads);
  config.trace = opt.trace;
  config.seed = static_cast<int64_t>(opt.seed);
  serving::EngineMetrics::PrintConfig(config, stdout);
  std::printf("\n");

  // Streaming delivery: rows print as they finalize inside Step(), tagged
  // with the session and sequence positions — the client-visible view of
  // iteration-level scheduling (chunked prefills surface as several partial
  // deliveries before the first decode row).
  serving::OnRowsCallback on_rows;
  if (opt.stream) {
    on_rows = [&engine](const serving::StreamDelta& delta) {
      std::printf("[step %5lld] session %lld: rows [%lld, %lld)%s\n",
                  static_cast<long long>(engine.current_step()),
                  static_cast<long long>(delta.session_id),
                  static_cast<long long>(delta.position_begin),
                  static_cast<long long>(delta.position_begin + delta.rows.rows()),
                  delta.finished ? " [finished]" : "");
    };
  }

  // Tracing starts before the first Submit so arrival events land in the
  // capture, and stops before export (Snapshot requires emitter quiescence,
  // which RunUntilDrained guarantees on return). A watchdog dump target also
  // needs the recorder running — there is nothing to dump otherwise.
  if (!opt.trace_out.empty() || !opt.watchdog_dump.empty()) {
    obs::SetThreadName("engine");
    obs::Tracer::Get().Start(opt.trace_detail, opt.trace_ring);
    std::printf("tracing: %s detail, ring %lld events/thread -> %s\n",
                obs::TraceDetailName(opt.trace_detail),
                static_cast<long long>(opt.trace_ring),
                !opt.trace_out.empty() ? opt.trace_out.c_str() : opt.watchdog_dump.c_str());
  }

  const std::vector<int64_t> ids = serving::AssignTraceIds(entries);
  int64_t iterations = 0;
  if (opt.async) {
    // Async front-end: the driver thread owns the engine; this (client)
    // thread talks to it through the mailbox. With the virtual clock and all
    // submissions enqueued before the first drain, the run is bit-identical
    // to the synchronous path below.
    serving::AsyncServer server(engine, opt.server);
    // Submit the whole trace before Start so the driver drains it in one
    // FIFO batch — under the virtual clock this pins the synchronous
    // schedule exactly.
    for (size_t i = 0; i < entries.size(); ++i) {
      serving::Request request = serving::MakeRequest(rng, ids[i], entries[i], cfg.hidden);
      request.deadline_steps = opt.deadline_steps;
      server.Submit(std::move(request));
    }
    server.Start();
    for (const int64_t id : opt.cancel_ids) {
      const serving::CancelOutcome outcome = server.Cancel(id);
      if (outcome == serving::CancelOutcome::kUnknownId) {
        std::fprintf(stderr, "cancel: unknown session id %lld\n", static_cast<long long>(id));
        return 1;
      }
      std::printf("cancel %lld: %s\n", static_cast<long long>(id),
                  serving::CancelOutcomeName(outcome));
    }
    server.Drain();
    for (const int64_t id : ids) {
      const serving::ServerPollResult result = server.WaitTerminal(id);
      if (opt.stream) {
        // Per-iteration streaming prints are a synchronous-mode feature (the
        // callback fires on the driver thread); async mode summarizes.
        std::printf("session %lld: %lld rows delivered, %s%s%s\n",
                    static_cast<long long>(id),
                    static_cast<long long>(result.delivered_rows),
                    serving::RequestStatusName(result.status),
                    result.reason.empty() ? "" : " — ", result.reason.c_str());
      }
    }
    iterations = server.steps();
    server.Stop();
  } else {
    for (size_t i = 0; i < entries.size(); ++i) {
      serving::Request request = serving::MakeRequest(rng, ids[i], entries[i], cfg.hidden);
      request.deadline_steps = opt.deadline_steps;
      engine.Submit(std::move(request), on_rows);
    }
    for (const int64_t id : opt.cancel_ids) {
      const serving::CancelOutcome outcome = engine.Cancel(id);
      if (outcome == serving::CancelOutcome::kUnknownId) {
        std::fprintf(stderr, "cancel: unknown session id %lld\n", static_cast<long long>(id));
        return 1;
      }
      std::printf("cancel %lld: %s\n", static_cast<long long>(id),
                  serving::CancelOutcomeName(outcome));
    }
    iterations = engine.RunUntilDrained(/*max_steps=*/1000000);
  }

  if (!opt.trace_out.empty()) {
    obs::Tracer& tracer = obs::Tracer::Get();
    tracer.Stop();
    if (!tracer.WriteChromeJson(opt.trace_out)) {
      // Runtime failure, not a usage error: the flags were fine, the
      // filesystem was not.
      std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
      return 1;
    }
    std::printf("wrote %s (%lld events, %lld overwritten by the flight-recorder ring)\n",
                opt.trace_out.c_str(), static_cast<long long>(tracer.total_events()),
                static_cast<long long>(tracer.dropped_events()));
  }

  // The config lines opened the run; the results close it.
  serving::ServingReport report = engine.Report();
  report.provenance = config;
  std::printf("\n");
  serving::EngineMetrics::PrintResults(report, stdout);
  if (!opt.report_json.empty()) {
    std::FILE* f = std::fopen(opt.report_json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", opt.report_json.c_str());
      return 1;
    }
    const std::string json = report.ToJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", opt.report_json.c_str());
  }
  if (engine.queued() > 0 || engine.resident_sequences() > 0) {
    std::fprintf(stderr,
                 "warning: undrained after %lld iterations (%lld queued, %lld resident) — "
                 "metrics above cover the completed portion only\n",
                 static_cast<long long>(iterations), static_cast<long long>(engine.queued()),
                 static_cast<long long>(engine.resident_sequences()));
    return 1;
  }
  return 0;
}

void PrintUsage(std::FILE* out) {
  std::fputs(
      "usage: samoyeds_cli <command> ...\n"
      "\n"
      "commands:\n"
      "  devices                                    list simulated GPU targets\n"
      "  analyze <m> <k> <n> [selected] [device]    per-kernel time/throughput estimate\n"
      "  autotune <m> <k> <n> [device]              SSMM tile-config search\n"
      "  maxbatch                                   Table 3 max-batch accounting\n"
      "  moe <model-name> <tokens>                  per-framework MoE layer cost\n"
      "  encode <rows> <cols> <N> <M> <V>           random-matrix encoding demo\n"
      "  serve <model|tiny> <trace|synthetic:N>     continuous-batching serving engine\n",
      out);
  PrintServeFlags(out);
  std::fputs(
      "\n"
      "exit codes: 0 success; 1 runtime failure (output write failed, engine\n"
      "left undrained, --cancel id never submitted); 2 usage error (unknown\n"
      "command/flag or bad value)\n",
      out);
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage(stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "devices") {
    return CmdDevices();
  }
  if (cmd == "analyze") {
    return CmdAnalyze(argc, argv);
  }
  if (cmd == "autotune") {
    return CmdAutotune(argc, argv);
  }
  if (cmd == "maxbatch") {
    return CmdMaxBatch();
  }
  if (cmd == "moe") {
    return CmdMoe(argc, argv);
  }
  if (cmd == "encode") {
    return CmdEncode(argc, argv);
  }
  if (cmd == "serve") {
    return CmdServe(argc, argv);
  }
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    PrintUsage(stdout);
    return 0;
  }
  std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  PrintUsage(stderr);
  return 2;
}

}  // namespace
}  // namespace samoyeds

int main(int argc, char** argv) { return samoyeds::Main(argc, argv); }
