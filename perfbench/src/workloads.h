// The benchmark's three serving workloads and what a run of one reports.
//
//   decode_long_ctx        offline batch through the synchronous engine;
//                          long prompts, long decodes (attention-bound).
//   prefill_burst          offline batch through the synchronous engine;
//                          many short prompts, 1-2 decode rows (expert-bound).
//   shared_prefix_poisson  open loop through AsyncServer (wall clock):
//                          a saturating burst measures capacity, then
//                          pre-drawn Poisson arrivals at a fixed share of
//                          it; prompts share a few non-page-aligned
//                          system prefixes (prefix cache, COW, bounded pool).
//
// Every workload runs the engine's default configuration (scalar kernel
// backend, top-k routing) over a 2-layer, 8-expert, top-2 model with an
// expert pool of 2 threads. The workload seed only shapes the generated
// requests; the model weights come from a fixed seed so set-up does the same
// work on every run.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

constexpr int kPoolThreads = 2;

struct Workload {
  std::string name;
  bool open_loop = false;
  int intermediate = 128;
  int64_t token_budget = 256;
  // Offline: requests per round (every round serves the same batch).
  int64_t requests = 0;
  int64_t prompt_lo = 0, prompt_hi = 0;  // offline prompt / open-loop suffix
  int64_t decode_lo = 0, decode_hi = 0;
  // Open loop: shared prefix lengths and the page pool.
  std::vector<int64_t> prefixes;
  int64_t max_pages = 0;
  // Open loop, saturation: every request is due at the start, so the server
  // works from a full queue until it drains; repeated over `saturate_share`
  // of the run. Its completion rate there is its capacity (tok_s,
  // decode_tok_s, max_rate_rps): no arrival rate above it is sustainable.
  int64_t saturate_requests = 0;  // per repetition
  double saturate_share = 0.0;
  // Open loop, operating point: Poisson arrivals at `op_load` times the
  // capacity just measured, repeated over the rest of the run. The SLO
  // figures (goodput_tok_s, slo_attainment) and latencies are taken here.
  double op_load = 0.0;
  int64_t op_requests = 0;  // per repetition
  SloLimits slo;
  // The phase the traced run should find with the largest self-time share.
  // (Prefix hits and COW splits are expected on the open loop only.)
  std::string dominant_phase;
  int threads() const { return kPoolThreads + (open_loop ? 2 : 1); }
};

// nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOutput {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // why correct is false
  std::vector<std::string> notes;   // human-readable report lines

  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  // Reports an end-to-end percentile in the notes with its support, and
  // fails the run if fewer than kMinTailSamples samples lie beyond it.
  void ReportQuantile(const std::string& name, const Quantile& q, const std::string& unit);
  // A per-layer percentile: diagnostic, so an unsupported tail is flagged in
  // the notes instead of failing the run.
  void AddLayerQuantile(const std::string& name, const Quantile& q, const std::string& unit);
};

// Runs `w` for `seconds` of measured time with inputs drawn from `seed`.
// trace = false: end-to-end metrics from untraced runs. trace = true: an
// untraced and a traced window plus layer replays, reporting per-layer
// metrics.
RunOutput RunWorkload(const Workload& w, uint64_t seed, double seconds, bool trace);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
