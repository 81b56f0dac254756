// samoyeds_cli — command-line front end to the library, the performance
// simulator, and the continuous-batching serving engine.

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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
      "  serve <model|tiny> <trace|synthetic:N>     continuous-batching serving engine\n"
      "        [--policy=fcfs|smallest-first|token-budget] [--budget=N]\n"
      "        [--chunk-tokens=N] [--chunk-policy=fixed|decode-priority]\n"
      "        [--async[=0|1]] [--server-clock=virtual|wall] [--mailbox-cap=N]\n"
      "        [--cancel=ID[,ID...]] [--stream[=0|1]] [--report-json=FILE]\n"
      "        [--max-resident=N] [--page-tokens=N] [--max-pages=N|auto]\n"
      "        [--preempt=0|1] [--prefix-cache=0|1] [--swap=0|1] [--host-pages=N]\n"
      "        [--threads=N] [--layers=N] [--hidden=N]\n"
      "        [--inter=N] [--experts=N] [--top-k=N] [--heads=N] [--rate=R]\n"
      "        [--prompt-min=N] [--prompt-max=N] [--decode-min=N] [--decode-max=N]\n"
      "        [--seed=N] [--autotune=0|1] [--routing=top-k|expert-choice]\n"
      "        [--shards=N] [--placement=round-robin|capacity|gate-stats]\n"
      "        [--link-gbps=R] [--link-us=R] [--trace-out=FILE]\n"
      "        [--trace-detail=step|request|full] [--trace-ring=N]\n"
      "        [--faults=SPEC] [--fault-seed=N] [--fault-retries=N]\n"
      "        [--deadline-steps=N] [--ingress-cap=N]\n"
      "        [--watchdog-steps=N] [--watchdog-dump=FILE]\n"
      "        [--kernel-backend=auto|scalar|avx2|avx512|neon]\n"
      "        --chunk-tokens=N serves prompts longer than the token budget by\n"
      "        splitting prefill into <=N-row chunks interleaved with decode rows\n"
      "        (outputs bit-identical to one-shot prefill; 0 = off) with\n"
      "        --chunk-policy=decode-priority shrinking the chunk cap to\n"
      "        max(1, N - resident decode rows) so prompt work yields batch\n"
      "        slots to latency-sensitive decode (still bit-identical);\n"
      "        --async=1 serves through the AsyncServer front-end: a driver\n"
      "        thread runs Step() while submissions flow through a lock-\n"
      "        protected mailbox drained at step boundaries; --server-clock\n"
      "        picks virtual arrivals (deterministic, bit-identical to the\n"
      "        synchronous engine) or wall arrivals (stamped at drain time);\n"
      "        --mailbox-cap=N bounds the mailbox, shedding the lowest-priority\n"
      "        pending submission below each overflowing arrival (0 = off);\n"
      "        --cancel=ID[,ID...] cancels the listed sessions after submission\n"
      "        (an id never submitted is a runtime failure, exit 1);\n"
      "        --stream prints each session's rows as they finalize per iteration\n"
      "        (the OnRows streaming callback); --report-json=FILE writes the\n"
      "        machine-readable ServingReport;\n"
      "        --max-pages bounds the paged KV cache (admission switches to page\n"
      "        accounting; 'auto' derives the budget from the Table-3 memory model);\n"
      "        --preempt=1 evicts lowest-priority/youngest residents under pressure;\n"
      "        --prefix-cache=1 shares KV pages between sessions whose prompts\n"
      "        bit-match a cached prefix (radix tree, copy-on-write pages; outputs\n"
      "        identical to sharing off; ignored under expert-choice routing);\n"
      "        --swap=1 moves preemption victims' KV pages to a simulated host\n"
      "        tier and restores them bit-exactly on readmission (needs --preempt=1\n"
      "        and a bounded page pool) with --host-pages bounding the tier\n"
      "        (0 = unbounded; recompute is the fallback when it fills);\n"
      "        --autotune=1 resolves SSMM tile configs per batch shape (cached);\n"
      "        --shards=N partitions experts across N simulated devices (outputs are\n"
      "        bit-identical at any shard count) with --placement choosing the\n"
      "        expert layout and --link-gbps/--link-us overriding the per-link\n"
      "        interconnect of the simulated cluster;\n"
      "        --routing=expert-choice serves with expert-choice routing (perfect\n"
      "        per-layer expert balance; outputs depend on batch composition);\n"
      "        --trace-out=FILE captures a Chrome trace-event timeline of the run\n"
      "        (open in https://ui.perfetto.dev or chrome://tracing) with\n"
      "        --trace-detail choosing step phases+counters (step), + per-request\n"
      "        lifecycle rows (request), or + per-layer/per-tile worker spans\n"
      "        (full, default) and --trace-ring=N bounding the flight-recorder\n"
      "        ring to the most recent N events per thread;\n"
      "        --faults=SPEC injects a deterministic fault schedule — comma-\n"
      "        separated rules of the form point@step[:arg][xN] (fire at a step)\n"
      "        or point~prob[:arg][xN] (seeded per-probe probability) over the\n"
      "        points kv-alloc, swap-out, swap-in, swap-corrupt, shard-die,\n"
      "        shard-stall, link-degrade (e.g. 'kv-alloc~0.05,shard-die@6:1');\n"
      "        --fault-seed drives the probability draws (same schedule + seed\n"
      "        replays bit-exactly) and --fault-retries bounds transient-fault\n"
      "        retries before evict-and-recompute;\n"
      "        --deadline-steps=N terminates sessions still unfinished N steps\n"
      "        after arrival (timed-out, 0 = off); --ingress-cap=N bounds the\n"
      "        ingress queue, shedding the lowest-priority entry on overflow;\n"
      "        --watchdog-steps=K trips a liveness watchdog when a session makes\n"
      "        no progress for K steps, dumping the flight-recorder ring to\n"
      "        --watchdog-dump=FILE;\n"
      "        --kernel-backend selects the SSMM inner-loop implementation\n"
      "        (scalar is the bit-exact oracle and the default; avx2/avx512/neon\n"
      "        use runtime-dispatched FMA loops, ULP-bounded vs an fp64 oracle;\n"
      "        auto picks the widest ISA this CPU supports; requesting an ISA the\n"
      "        CPU lacks is a runtime failure)\n"
      "\n"
      "exit codes: 0 success; 1 runtime failure (output write failed, engine\n"
      "left undrained, --cancel id never submitted); 2 usage error (unknown\n"
      "command/flag or bad value)\n",
      out);
}

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

double ParseDouble(const char* s, const char* what) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0') {
    std::fprintf(stderr, "invalid %s: '%s' (expected a number)\n", what, s);
    std::exit(2);
  }
  return v;
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

struct ServeOptions {
  std::string model = "tiny";
  std::string trace;
  serving::SchedulerPolicy policy = serving::SchedulerPolicy::kTokenBudget;
  int64_t budget = 128;
  int64_t chunk_tokens = 0;   // 0 = chunked prefill off
  serving::ChunkPolicy chunk_policy = serving::ChunkPolicy::kFixed;
  bool async = false;         // serve through the AsyncServer front-end
  serving::ServerClock server_clock = serving::ServerClock::kVirtual;
  int64_t mailbox_cap = 0;    // AsyncServer mailbox bound (0 = unbounded)
  std::vector<int64_t> cancel_ids;  // --cancel targets, in order
  bool stream = false;        // print per-iteration streamed rows
  std::string report_json;    // write ServingReport::ToJson here
  int64_t max_resident = 4096;
  int64_t page_tokens = 16;
  int64_t max_pages = 0;      // 0 = monolithic token accounting
  bool auto_pages = false;    // --max-pages=auto: derive from TokenCapacity()
  bool preempt = false;
  bool prefix_cache = false;  // radix prefix sharing with COW pages
  bool swap = false;          // swap-style preemption to the host tier
  int64_t host_pages = 0;     // host-tier capacity in pages (0 = unbounded)
  bool autotune = false;
  serving::RoutingAlgo routing = serving::RoutingAlgo::kTopK;
  int shards = 1;
  serving::ShardPlacement placement = serving::ShardPlacement::kRoundRobin;
  double link_gbps = 0.0;   // 0 = device default
  double link_us = -1.0;    // < 0 = device default
  int threads = 4;
  int layers = 2;
  int hidden = 64;
  int inter = 96;
  int experts = 8;
  int top_k = 2;
  int heads = 4;
  int shared = 0;
  Activation activation = Activation::kSilu;
  double rate = 1.0;  // synthetic arrivals per step
  int64_t prompt_min = 4, prompt_max = 16;
  int64_t decode_min = 2, decode_max = 8;
  uint64_t seed = 1234;
  std::string trace_out;  // write Chrome trace-event JSON here; empty = off
  obs::TraceDetail trace_detail = obs::TraceDetail::kFull;
  int64_t trace_ring = obs::Tracer::kDefaultRingCapacity;
  std::vector<serving::FaultRule> faults;  // --faults schedule; empty = off
  uint64_t fault_seed = 0;
  int fault_retries = 3;
  int64_t deadline_steps = 0;   // per-request deadline (0 = off)
  int64_t ingress_cap = 0;      // bounded ingress queue (0 = unbounded)
  int64_t watchdog_steps = 0;   // liveness watchdog (0 = off)
  std::string watchdog_dump;    // flight-recorder dump target on a trip
  KernelBackend kernel_backend = KernelBackend::kScalar;  // SSMM inner loops
};

bool ParseServeFlag(const std::string& arg, ServeOptions& opt) {
  if (arg == "--stream") {  // bare form; --stream=0|1 also accepted below
    opt.stream = true;
    return true;
  }
  if (arg == "--async") {  // bare form; --async=0|1 also accepted below
    opt.async = true;
    return true;
  }
  const size_t eq = arg.find('=');
  if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
    return false;
  }
  const std::string key = arg.substr(0, eq);
  const char* value = arg.c_str() + eq + 1;
  if (key == "--policy") {
    if (std::strcmp(value, "fcfs") == 0) {
      opt.policy = serving::SchedulerPolicy::kFcfs;
    } else if (std::strcmp(value, "smallest-first") == 0) {
      opt.policy = serving::SchedulerPolicy::kSmallestFirst;
    } else if (std::strcmp(value, "token-budget") == 0) {
      opt.policy = serving::SchedulerPolicy::kTokenBudget;
    } else {
      std::fprintf(stderr, "unknown policy: %s\n", value);
      std::exit(2);
    }
  } else if (key == "--budget") {
    opt.budget = ParseI64(value, key.c_str());
  } else if (key == "--chunk-tokens") {
    // Shared strict parser (no raw atoi): garbage or trailing junk exits
    // with a diagnostic instead of silently serving with chunking off.
    opt.chunk_tokens = ParseI64(value, key.c_str());
  } else if (key == "--chunk-policy") {
    if (!serving::ParseChunkPolicy(value, &opt.chunk_policy)) {
      std::fprintf(stderr, "unknown chunk-policy: %s (fixed | decode-priority)\n", value);
      std::exit(2);
    }
  } else if (key == "--async") {
    const int64_t v = ParseI64(value, key.c_str());
    if (v != 0 && v != 1) {
      std::fprintf(stderr, "invalid async: '%s' (expected 0 or 1)\n", value);
      std::exit(2);
    }
    opt.async = v == 1;
  } else if (key == "--server-clock") {
    if (!serving::ParseServerClock(value, &opt.server_clock)) {
      std::fprintf(stderr, "unknown server-clock: %s (virtual | wall)\n", value);
      std::exit(2);
    }
  } else if (key == "--mailbox-cap") {
    opt.mailbox_cap = ParseI64(value, key.c_str());
    if (opt.mailbox_cap < 0) {
      std::fprintf(stderr, "need mailbox-cap >= 0 (0 = unbounded)\n");
      std::exit(2);
    }
  } else if (key == "--cancel") {
    // Comma-separated session ids; validated strictly like every number.
    std::string list = value;
    size_t start = 0;
    if (list.empty()) {
      std::fprintf(stderr, "need --cancel=ID[,ID...]\n");
      std::exit(2);
    }
    while (start <= list.size()) {
      const size_t comma = list.find(',', start);
      const std::string tok =
          list.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
      opt.cancel_ids.push_back(ParseI64(tok.c_str(), "cancel id"));
      if (comma == std::string::npos) {
        break;
      }
      start = comma + 1;
    }
  } else if (key == "--stream") {
    const int64_t v = ParseI64(value, key.c_str());
    if (v != 0 && v != 1) {
      std::fprintf(stderr, "invalid stream: '%s' (expected 0 or 1)\n", value);
      std::exit(2);
    }
    opt.stream = v == 1;
  } else if (key == "--report-json") {
    opt.report_json = value;
  } else if (key == "--max-resident") {
    opt.max_resident = ParseI64(value, key.c_str());
  } else if (key == "--page-tokens") {
    opt.page_tokens = ParseI64(value, key.c_str());
  } else if (key == "--max-pages") {
    if (std::strcmp(value, "auto") == 0) {
      opt.auto_pages = true;
    } else {
      opt.max_pages = ParseI64(value, key.c_str());
    }
  } else if (key == "--preempt") {
    const int64_t v = ParseI64(value, key.c_str());
    if (v != 0 && v != 1) {
      std::fprintf(stderr, "invalid preempt: '%s' (expected 0 or 1)\n", value);
      std::exit(2);
    }
    opt.preempt = v == 1;
  } else if (key == "--prefix-cache") {
    const int64_t v = ParseI64(value, key.c_str());
    if (v != 0 && v != 1) {
      std::fprintf(stderr, "invalid prefix-cache: '%s' (expected 0 or 1)\n", value);
      std::exit(2);
    }
    opt.prefix_cache = v == 1;
  } else if (key == "--swap") {
    const int64_t v = ParseI64(value, key.c_str());
    if (v != 0 && v != 1) {
      std::fprintf(stderr, "invalid swap: '%s' (expected 0 or 1)\n", value);
      std::exit(2);
    }
    opt.swap = v == 1;
  } else if (key == "--host-pages") {
    opt.host_pages = ParseI64(value, key.c_str());
  } else if (key == "--autotune") {
    const int64_t v = ParseI64(value, key.c_str());
    if (v != 0 && v != 1) {
      std::fprintf(stderr, "invalid autotune: '%s' (expected 0 or 1)\n", value);
      std::exit(2);
    }
    opt.autotune = v == 1;
  } else if (key == "--routing") {
    if (std::strcmp(value, "top-k") == 0) {
      opt.routing = serving::RoutingAlgo::kTopK;
    } else if (std::strcmp(value, "expert-choice") == 0) {
      opt.routing = serving::RoutingAlgo::kExpertChoice;
    } else {
      std::fprintf(stderr, "unknown routing: %s (top-k | expert-choice)\n", value);
      std::exit(2);
    }
  } else if (key == "--shards") {
    opt.shards = ParseInt(value, key.c_str());
  } else if (key == "--placement") {
    if (!serving::ParseShardPlacement(value, &opt.placement)) {
      std::fprintf(stderr, "unknown placement: %s (round-robin | capacity | gate-stats)\n",
                   value);
      std::exit(2);
    }
  } else if (key == "--link-gbps") {
    opt.link_gbps = ParseDouble(value, key.c_str());
  } else if (key == "--link-us") {
    opt.link_us = ParseDouble(value, key.c_str());
  } else if (key == "--threads") {
    opt.threads = ParseInt(value, key.c_str());
  } else if (key == "--layers") {
    opt.layers = ParseInt(value, key.c_str());
  } else if (key == "--hidden") {
    opt.hidden = ParseInt(value, key.c_str());
  } else if (key == "--inter") {
    opt.inter = ParseInt(value, key.c_str());
  } else if (key == "--experts") {
    opt.experts = ParseInt(value, key.c_str());
  } else if (key == "--top-k") {
    opt.top_k = ParseInt(value, key.c_str());
  } else if (key == "--heads") {
    opt.heads = ParseInt(value, key.c_str());
  } else if (key == "--rate") {
    opt.rate = ParseDouble(value, key.c_str());
  } else if (key == "--prompt-min") {
    opt.prompt_min = ParseI64(value, key.c_str());
  } else if (key == "--prompt-max") {
    opt.prompt_max = ParseI64(value, key.c_str());
  } else if (key == "--decode-min") {
    opt.decode_min = ParseI64(value, key.c_str());
  } else if (key == "--decode-max") {
    opt.decode_max = ParseI64(value, key.c_str());
  } else if (key == "--seed") {
    opt.seed = static_cast<uint64_t>(ParseI64(value, key.c_str()));
  } else if (key == "--trace-out") {
    opt.trace_out = value;
  } else if (key == "--trace-detail") {
    if (!obs::ParseTraceDetail(value, &opt.trace_detail)) {
      std::fprintf(stderr, "unknown trace-detail: %s (step | request | full)\n", value);
      std::exit(2);
    }
  } else if (key == "--trace-ring") {
    opt.trace_ring = ParseI64(value, key.c_str());
    if (opt.trace_ring < 1) {
      std::fprintf(stderr, "need trace-ring >= 1\n");
      std::exit(2);
    }
  } else if (key == "--faults") {
    std::string error;
    if (!serving::ParseFaultSchedule(value, &opt.faults, &error)) {
      std::fprintf(stderr, "invalid --faults: %s\n", error.c_str());
      std::exit(2);
    }
  } else if (key == "--fault-seed") {
    opt.fault_seed = static_cast<uint64_t>(ParseI64(value, key.c_str()));
  } else if (key == "--fault-retries") {
    opt.fault_retries = ParseInt(value, key.c_str());
    if (opt.fault_retries < 0) {
      std::fprintf(stderr, "need fault-retries >= 0\n");
      std::exit(2);
    }
  } else if (key == "--deadline-steps") {
    opt.deadline_steps = ParseI64(value, key.c_str());
    if (opt.deadline_steps < 0) {
      std::fprintf(stderr, "need deadline-steps >= 0 (0 disables deadlines)\n");
      std::exit(2);
    }
  } else if (key == "--ingress-cap") {
    opt.ingress_cap = ParseI64(value, key.c_str());
    if (opt.ingress_cap < 0) {
      std::fprintf(stderr, "need ingress-cap >= 0 (0 = unbounded)\n");
      std::exit(2);
    }
  } else if (key == "--watchdog-steps") {
    opt.watchdog_steps = ParseI64(value, key.c_str());
    if (opt.watchdog_steps < 0) {
      std::fprintf(stderr, "need watchdog-steps >= 0 (0 disables the watchdog)\n");
      std::exit(2);
    }
  } else if (key == "--watchdog-dump") {
    opt.watchdog_dump = value;
  } else if (key == "--kernel-backend") {
    if (!ParseKernelBackend(value, &opt.kernel_backend)) {
      std::fprintf(stderr,
                   "bad value for --kernel-backend: %s (auto | scalar | avx2 | avx512 | neon)\n",
                   value);
      std::exit(2);
    }
  } else {
    std::fprintf(stderr, "unknown serve flag: %s\n", key.c_str());
    std::exit(2);
  }
  return true;
}

int CmdServe(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: serve <model|tiny> <trace-file|synthetic:N> [--flags]\n"
                 "(run with no arguments for the full flag list)\n");
    return 2;
  }
  ServeOptions opt;
  opt.model = argv[2];
  opt.trace = argv[3];

  // Named paper models contribute routing/activation structure as *defaults*
  // (flags still override); hidden and intermediate stay miniature because
  // the SpTC path is emulated functionally (override with --hidden/--inter).
  if (opt.model != "tiny") {
    const MoeModelConfig* paper = nullptr;
    for (const auto& m : PaperModels()) {
      if (m.name == opt.model) {
        paper = &m;
        break;
      }
    }
    if (paper == nullptr) {
      std::fprintf(stderr, "unknown model: %s (use 'tiny' or a Table 2 name", opt.model.c_str());
      for (const auto& m : PaperModels()) {
        std::fprintf(stderr, ", %s", m.name.c_str());
      }
      std::fprintf(stderr, ")\n");
      return 2;
    }
    opt.experts = paper->num_experts;
    opt.top_k = paper->top_k;
    opt.shared = paper->shared_experts;
    opt.activation = paper->activation;
    std::printf("%s structure (%d experts, top-%d, %d shared), miniature dims by default\n",
                paper->name.c_str(), opt.experts, opt.top_k, opt.shared);
  }

  for (int i = 4; i < argc; ++i) {
    if (!ParseServeFlag(argv[i], opt)) {
      std::fprintf(stderr, "unknown serve argument: %s\n", argv[i]);
      return 2;
    }
  }

  if (opt.heads < 1 || opt.hidden < 32 || opt.inter < 32 || opt.hidden % 32 != 0 ||
      opt.inter % 32 != 0 || opt.hidden % opt.heads != 0) {
    std::fprintf(stderr,
                 "hidden/inter must be multiples of 32 and hidden %% heads == 0 (heads >= 1)\n");
    return 2;
  }
  if (opt.experts < 1 || opt.top_k < 1 || opt.top_k > opt.experts || opt.layers < 1 ||
      opt.budget < 1 || opt.max_resident < 1 || opt.threads < 1) {
    std::fprintf(stderr,
                 "need experts >= 1, 1 <= top-k <= experts, layers >= 1, budget >= 1, "
                 "max-resident >= 1, threads >= 1\n");
    return 2;
  }
  if (opt.page_tokens < 1 || opt.max_pages < 0) {
    std::fprintf(stderr, "need page-tokens >= 1 and max-pages >= 0\n");
    return 2;
  }
  if (opt.chunk_tokens < 0) {
    std::fprintf(stderr, "need chunk-tokens >= 0 (0 disables chunked prefill)\n");
    return 2;
  }
  if (opt.shards < 1) {
    std::fprintf(stderr, "need shards >= 1\n");
    return 2;
  }
  if (opt.preempt && opt.max_pages == 0 && !opt.auto_pages) {
    std::fprintf(stderr, "--preempt=1 requires a bounded page pool (--max-pages)\n");
    return 2;
  }
  if (opt.swap && (!opt.preempt || (opt.max_pages == 0 && !opt.auto_pages))) {
    std::fprintf(stderr, "--swap=1 requires --preempt=1 and a bounded page pool (--max-pages)\n");
    return 2;
  }
  if (opt.host_pages < 0) {
    std::fprintf(stderr, "need host-pages >= 0 (0 = unbounded host tier)\n");
    return 2;
  }
  if (opt.prompt_min < 1 || opt.prompt_max < opt.prompt_min || opt.decode_min < 0 ||
      opt.decode_max < opt.decode_min) {
    std::fprintf(stderr,
                 "need 1 <= prompt-min <= prompt-max and 0 <= decode-min <= decode-max\n");
    return 2;
  }
  // Flag value was well-formed (parse errors already exited 2); a backend
  // this machine cannot run is a runtime failure, not a usage error.
  KernelBackend resolved_backend = KernelBackend::kScalar;
  if (!ResolveKernelBackend(opt.kernel_backend, &resolved_backend)) {
    std::fprintf(stderr, "kernel-backend %s is not runnable on this CPU\n",
                 KernelBackendName(opt.kernel_backend));
    return 1;
  }

  MoeModelConfig cfg;
  cfg.name = opt.model;
  cfg.num_experts = opt.experts;
  cfg.hidden = opt.hidden;
  cfg.intermediate = opt.inter;
  cfg.top_k = opt.top_k;
  cfg.shared_experts = opt.shared;
  cfg.activation = opt.activation;

  if (opt.auto_pages) {
    // Page budget from the Table-3 memory model: resident-token capacity next
    // to this model's weights under Samoyeds storage, in whole pages.
    opt.max_pages = serving::PageCapacity(cfg, MoeFramework::kSamoyeds, SamoyedsConfig{1, 2, 32},
                                          DefaultDevice(), opt.page_tokens);
    if (opt.max_pages < 1) {
      std::fprintf(stderr, "memory model leaves no KV page capacity for %s\n", cfg.name.c_str());
      return 2;
    }
    std::printf("page budget from memory model: %lld pages of %lld tokens\n",
                static_cast<long long>(opt.max_pages), static_cast<long long>(opt.page_tokens));
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

  serving::EngineConfig engine_cfg;
  engine_cfg.heads = opt.heads;
  engine_cfg.top_k = opt.top_k;
  engine_cfg.activation = opt.activation;
  engine_cfg.threads = opt.threads;
  engine_cfg.autotune = opt.autotune;
  engine_cfg.routing = opt.routing;
  engine_cfg.shards = opt.shards;
  engine_cfg.placement = opt.placement;
  engine_cfg.link_bandwidth_gbps = opt.link_gbps;
  engine_cfg.link_latency_us = opt.link_us;
  engine_cfg.scheduler.policy = opt.policy;
  engine_cfg.scheduler.token_budget = opt.budget;
  engine_cfg.scheduler.chunk_tokens = opt.chunk_tokens;
  engine_cfg.scheduler.chunk_policy = opt.chunk_policy;
  engine_cfg.scheduler.max_resident_tokens = opt.max_resident;
  engine_cfg.scheduler.page_tokens = opt.page_tokens;
  engine_cfg.scheduler.max_pages = opt.max_pages;
  engine_cfg.scheduler.preempt = opt.preempt;
  engine_cfg.prefix_cache = opt.prefix_cache;
  engine_cfg.swap = opt.swap;
  engine_cfg.host_pages = opt.host_pages;
  engine_cfg.faults = opt.faults;
  engine_cfg.fault_seed = opt.fault_seed;
  engine_cfg.fault_retry_limit = opt.fault_retries;
  engine_cfg.ingress_capacity = opt.ingress_cap;
  engine_cfg.watchdog_steps = opt.watchdog_steps;
  engine_cfg.kernel_backend = resolved_backend;
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

  std::printf("serving %s: %d layers, hidden %d, %d experts (top-%d), %s activation\n",
              opt.model.c_str(), opt.layers, opt.hidden, opt.experts, opt.top_k,
              opt.activation == Activation::kSilu ? "SiLU" : "GELU-tanh");
  std::printf("scheduler: %s, token budget %lld, max resident tokens %lld, %d expert threads\n",
              serving::SchedulerPolicyName(opt.policy), static_cast<long long>(opt.budget),
              static_cast<long long>(opt.max_resident), opt.threads);
  if (opt.chunk_tokens > 0) {
    std::printf("chunked prefill: <= %lld rows per chunk, %s policy (long prompts interleave "
                "with decode; outputs identical to one-shot prefill)\n",
                static_cast<long long>(opt.chunk_tokens),
                serving::ChunkPolicyName(opt.chunk_policy));
  }
  if (opt.async) {
    std::printf("async server: %s clock, mailbox %s\n",
                serving::ServerClockName(opt.server_clock),
                opt.mailbox_cap > 0 ? std::to_string(opt.mailbox_cap).c_str() : "unbounded");
  }
  std::printf("routing: %s\n", serving::RoutingAlgoName(opt.routing));
  std::printf("kernel backend: %s (%s)\n", KernelBackendName(resolved_backend),
              resolved_backend == KernelBackend::kScalar
                  ? "bit-exact scalar oracle"
                  : "FMA SIMD, ULP-bounded vs fp64 oracle");
  if (opt.shards > 1) {
    const DeviceSpec& dev = engine.cluster().device(0);
    std::printf("sharding: %d shards, %s placement, link %.0f GB/s + %.1f us (%s)\n",
                opt.shards, serving::ShardPlacementName(opt.placement),
                dev.link_bandwidth_gbps, dev.link_latency_us, dev.name.c_str());
  }
  if (opt.max_pages > 0) {
    std::printf("kv-cache: %lld pages x %lld tokens (page-accounting admission), preemption %s\n",
                static_cast<long long>(opt.max_pages), static_cast<long long>(opt.page_tokens),
                opt.preempt ? "on" : "off");
  } else {
    std::printf("kv-cache: paged storage (%lld-token pages), monolithic token admission\n",
                static_cast<long long>(opt.page_tokens));
  }
  if (engine.prefix_cache() != nullptr) {
    std::printf("prefix-cache: on (radix sharing, copy-on-write pages)\n");
  } else if (opt.prefix_cache) {
    std::printf("prefix-cache: suppressed (expert-choice routing is batch-dependent)\n");
  }
  if (engine.swap_enabled()) {
    const DeviceSpec& dev = engine.cluster().device(0);
    std::printf("swap: host tier %s pages over %.0f GB/s + %.1f us host link\n",
                opt.host_pages > 0 ? std::to_string(opt.host_pages).c_str() : "unbounded",
                dev.host_bandwidth_gbps, dev.host_latency_us);
  }
  if (!opt.faults.empty()) {
    std::printf("faults: %zu rules, seed %llu (deterministic replay)\n", opt.faults.size(),
                static_cast<unsigned long long>(opt.fault_seed));
  }
  if (opt.deadline_steps > 0) {
    std::printf("deadlines: %lld steps from arrival (overdue sessions time out)\n",
                static_cast<long long>(opt.deadline_steps));
  }
  if (opt.ingress_cap > 0) {
    std::printf("overload: ingress queue capped at %lld (lowest-priority shed)\n",
                static_cast<long long>(opt.ingress_cap));
  }
  if (opt.watchdog_steps > 0) {
    std::printf("watchdog: trips after %lld steps without progress%s%s\n",
                static_cast<long long>(opt.watchdog_steps),
                opt.watchdog_dump.empty() ? "" : ", flight recorder -> ",
                opt.watchdog_dump.c_str());
  }
  std::printf("trace: %zu requests\n\n", entries.size());

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
    serving::ServerConfig server_cfg;
    server_cfg.clock = opt.server_clock;
    server_cfg.mailbox_capacity = opt.mailbox_cap;
    serving::AsyncServer server(engine, server_cfg);
    // Submit the whole trace before Start so the driver drains it in one
    // FIFO batch — under the virtual clock this pins the synchronous
    // schedule exactly.
    for (size_t i = 0; i < entries.size(); ++i) {
      serving::Request request = serving::MakeRequest(rng, ids[i], entries[i], opt.hidden);
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
      serving::Request request = serving::MakeRequest(rng, ids[i], entries[i], opt.hidden);
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

  serving::ServingReport report = engine.Report();
  char model_echo[128];
  std::snprintf(model_echo, sizeof(model_echo),
                "%s layers=%d hidden=%d inter=%d experts=%d top_k=%d heads=%d shared=%d",
                opt.model.c_str(), opt.layers, opt.hidden, opt.inter, opt.experts, opt.top_k,
                opt.heads, opt.shared);
  report.provenance.model = model_echo;
  report.provenance.trace = opt.trace;
  report.provenance.seed = static_cast<int64_t>(opt.seed);
  serving::EngineMetrics::Print(report, stdout);
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
