// Serving metrics collector: request latency (TTFT, per-output-token),
// throughput, batch occupancy, preemption activity, paged-KV-cache
// utilization, and per-expert routed-token load.
//
// Latencies are tracked both in engine steps (deterministic, what tests
// assert on) and wall-clock milliseconds (what the CLI and bench report).

#ifndef SAMOYEDS_SRC_SERVING_METRICS_H_
#define SAMOYEDS_SRC_SERVING_METRICS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/moe/router.h"
#include "src/obs/metrics.h"

namespace samoyeds {
namespace serving {

struct RequestMetrics {
  int64_t prompt_len = 0;
  int64_t new_tokens = 0;
  int64_t arrival_step = -1;
  int64_t admit_step = -1;         // latest admission (readmissions overwrite)
  int64_t first_output_step = -1;  // prefill completed: first token streamed
  int64_t finish_step = -1;
  int64_t cancel_step = -1;        // Cancel() terminated the session
  int64_t timeout_step = -1;       // deadline expiry terminated the session
  int64_t preemptions = 0;         // times evicted (swapped out or recomputed)
  int64_t prefill_chunks = 0;      // prefill slices consumed (1 = one-shot)
  int64_t streamed_rows = 0;       // rows delivered incrementally (cursor/callback)
  int64_t cached_prompt_tokens = 0;  // prefix-cache tokens skipped at admission
  double arrival_ms = 0.0;
  double first_output_ms = 0.0;
  double finish_ms = 0.0;
};

struct StepMetrics {
  int64_t step = 0;
  int64_t batch_rows = 0;
  int64_t prefill_rows = 0;
  int64_t decode_rows = 0;
  // Prefill slices this iteration that were *partial* prompts — a chunked
  // prefill in flight (0 for every step of an unchunked run).
  int64_t prefill_chunk_slices = 0;
  int64_t running_sequences = 0;
  int64_t kv_used_pages = 0;   // pages held right after the forward
  int64_t kv_frag_tokens = 0;  // allocated-but-unused token slots (tail pages)
  double wall_ms = 0.0;        // forward duration (measured)

  // Analytic estimate of the same forward on the simulated cluster:
  // max-over-shards device time (MoE SSMM chains + the step's KV-page
  // traffic) plus interconnect all-to-all time, and the volumes that fed
  // the model. Single-shard runs keep est_alltoall_ms and the all-to-all
  // bytes at zero.
  double est_compute_ms = 0.0;
  double est_alltoall_ms = 0.0;
  double alltoall_dispatch_bytes = 0.0;
  double alltoall_combine_bytes = 0.0;
  double kv_read_bytes = 0.0;   // paged-KV gather traffic charged this step
  double kv_write_bytes = 0.0;  // appended cache rows

  // Prefix-cache / swap state this step (all zero with both features off).
  int64_t cow_splits = 0;    // copy-on-write page splits
  int64_t shared_pages = 0;  // pages with refcount >= 2 after the step
  int64_t host_pages = 0;    // pages parked in the host swap tier

  double est_total_ms() const { return est_compute_ms + est_alltoall_ms; }
};

// Where a report came from: schema version plus the run configuration, so a
// `BENCH_*.json` or `--report-json` artifact is self-describing long after
// the flags that produced it are forgotten. Emitted as the leading
// "schema_version" / "config" keys of `ServingReport::ToJson`.
struct ReportProvenance {
  int64_t schema_version = 2;
  std::string model;  // model-shape echo ("layers=2 experts=8 hidden=32 ...")
  std::string trace;  // workload description ("poisson n=24" / trace file)
  int64_t seed = 0;
  int64_t shards = 1;
  std::string placement;  // shard placement policy name
  std::string routing;    // routing algorithm name
  std::string policy;     // scheduler admission policy name
  int64_t threads = 0;
  int64_t token_budget = 0;
  int64_t chunk_tokens = 0;  // 0 = prefill never chunked
  int64_t page_tokens = 0;
  int64_t max_pages = 0;
  int64_t prefix_cache = 0;  // 1 = radix prefix sharing enabled
  int64_t swap = 0;          // 1 = swap-style preemption enabled
  int64_t host_pages = 0;    // host swap tier budget (0 = unbounded)
  // SSMM inner-loop backend the run executed with (resolved, not as
  // requested: "scalar" | "avx2" | "avx512" | "neon") and the memory-
  // hierarchy parameters the cache-aware autotuner modeled against. The
  // backend names the accumulation contract the outputs obey (scalar =
  // bit-exact oracle; SIMD = fused multiply-adds, ULP-bounded vs fp64).
  std::string kernel_backend;
  int64_t llc_bytes = 0;            // modeled last-level-cache capacity
  double llc_bandwidth_gbps = 0.0;  // modeled LLC bandwidth
  double dram_bandwidth_gbps = 0.0; // modeled DRAM bandwidth
  // Prefill chunk sizing policy ("fixed" | "decode-priority").
  std::string chunk_policy;
};

// One request's lifecycle in engine steps plus its wall-clock latency pair —
// the JSON mirror of the trace's per-request async span (same steps the
// "request" track instants carry), emitted as the "request_timelines" array
// of `ServingReport::ToJson`. Unset step markers stay -1 (e.g. a cancelled
// session's finish_step).
struct RequestTimeline {
  int64_t id = 0;
  int64_t prompt_len = 0;
  int64_t arrival_step = -1;
  int64_t admit_step = -1;
  int64_t first_output_step = -1;
  int64_t finish_step = -1;
  int64_t cancel_step = -1;
  int64_t timeout_step = -1;
  int64_t prefill_chunks = 0;
  int64_t preemptions = 0;
  int64_t cached_prompt_tokens = 0;  // prefix-cache tokens skipped at admission
  double ttft_ms = 0.0;        // 0 when no first output was produced
  double turnaround_ms = 0.0;  // 0 unless the request finished
};

// Aggregates over one engine run.
struct ServingReport {
  int64_t requests_finished = 0;
  int64_t requests_rejected = 0;
  int64_t requests_cancelled = 0;
  int64_t requests_timed_out = 0;  // deadline expiries (kTimedOut)
  int64_t requests_shed = 0;       // overload-control drops (kShedded)
  int64_t steps = 0;
  int64_t prefill_rows = 0;
  int64_t decode_rows = 0;
  // Chunked prefill activity: partial-prompt prefill slices across the run,
  // requests whose prefill spanned more than one iteration, and rows
  // delivered through the streaming session surface (cursor or callback).
  int64_t prefill_chunk_slices = 0;
  int64_t chunked_prefill_requests = 0;
  int64_t streamed_rows = 0;
  double wall_ms = 0.0;
  double mean_ttft_steps = 0.0;
  double p95_ttft_steps = 0.0;
  double mean_turnaround_steps = 0.0;  // arrival -> finish, inclusive
  double p95_turnaround_steps = 0.0;
  double mean_ttft_ms = 0.0;
  double p95_ttft_ms = 0.0;  // wall-clock, from the log-bucketed histogram
  double mean_turnaround_ms = 0.0;
  double p95_turnaround_ms = 0.0;
  double mean_step_ms = 0.0;
  double tokens_per_second = 0.0;       // (prefill + decode rows) / wall time
  double mean_batch_rows = 0.0;
  double mean_occupancy = 0.0;          // batch rows / token budget
  int64_t peak_batch_rows = 0;
  int64_t peak_sequences = 0;           // max concurrently resident sequences
  int64_t preemptions = 0;              // evictions under page pressure
  int64_t peak_used_pages = 0;
  double mean_page_utilization = 0.0;   // used pages / page budget (paged only)
  double mean_frag_tokens = 0.0;        // fragmentation waste per step

  // Prefix-sharing radix cache (zero with --prefix-cache off).
  int64_t prefix_hit_requests = 0;  // admissions that reused a cached prefix
  int64_t prefix_hit_tokens = 0;    // prompt tokens served from the cache
  // hit tokens / (hit tokens + prefill rows actually computed).
  double prefix_hit_rate = 0.0;
  int64_t cow_splits = 0;           // copy-on-write page splits across the run
  int64_t peak_shared_pages = 0;    // max pages mapped by >1 holder

  // Swap-style preemption (zero with --swap off; evictions then recompute).
  int64_t swap_outs = 0;
  int64_t swap_ins = 0;
  double swap_out_bytes = 0.0;
  double swap_in_bytes = 0.0;
  double est_swap_ms = 0.0;         // modeled host-link transfer time, both ways
  int64_t peak_host_pages = 0;      // max pages parked in the host tier
  std::vector<int64_t> expert_tokens;   // routed tokens per expert, all layers
  double expert_imbalance = 0.0;        // max / mean of expert_tokens

  // Per-request lifecycle summaries, ascending id (rejected requests are
  // dropped at rejection time and do not appear).
  std::vector<RequestTimeline> request_timelines;

  // Expert-parallel sharding (single-shard runs leave these trivial).
  std::vector<int64_t> shard_tokens;    // routed tokens per shard, all layers
  double shard_imbalance = 0.0;         // max / mean of shard_tokens
  double est_compute_ms = 0.0;          // Σ per-step max-over-shards estimates
  double est_alltoall_ms = 0.0;         // Σ per-step interconnect estimates
  double est_alltoall_share = 0.0;      // alltoall / (compute + alltoall)
  double alltoall_bytes = 0.0;          // Σ dispatch + combine volume
  double kv_traffic_bytes = 0.0;        // Σ KV-page gather + append volume

  // Fault injection + degradation activity (all zero on fault-free runs).
  int64_t injected_faults = 0;    // FaultInjector fires across the run
  int64_t fault_retries = 0;      // transient KV/swap failures retried
  double fault_backoff_ms = 0.0;  // modeled backoff time charged to retries
  int64_t swap_corruptions = 0;   // checksum mismatches caught at swap-in
  int64_t shard_failovers = 0;    // shard deaths absorbed by re-placement
  int64_t watchdog_trips = 0;     // liveness watchdog stall detections

  // SSMM autotuner activity (zero when --autotune is off).
  int64_t autotune_lookups = 0;      // per-layer tile-config resolutions
  int64_t autotune_cache_hits = 0;   // resolved from the per-shape cache
  double autotune_default_ms = 0.0;  // simulated kernel time, default config
  double autotune_tuned_ms = 0.0;    // simulated kernel time, tuned configs
  // default / tuned simulated time; 1.0 when autotuning never ran.
  double autotune_speedup = 0.0;

  // Run provenance, emitted first in ToJson. Summarize leaves the config
  // fields default; ServingEngine::Report and the CLI fill them in.
  ReportProvenance provenance;

  // Machine-readable form of the whole report (one JSON object; arrays for
  // the per-expert/per-shard histograms) — what `samoyeds_cli serve
  // --report-json=FILE` writes so sweeps never scrape the printed summary.
  std::string ToJson() const;

  // Zeroes every wall-clock-derived field (wall_ms, tokens/s, the ms latency
  // stats, per-timeline ms pairs), leaving only deterministic step counts and
  // analytic estimates — after which two runs of the same trace + seed +
  // fault schedule must produce byte-identical ToJson() output. The chaos
  // reproducibility gate diffs exactly this.
  void StripWallClock();
};

class EngineMetrics {
 public:
  EngineMetrics() : start_(Clock::now()) {}

  void OnArrival(int64_t id, int64_t step, int64_t prompt_len, int64_t new_tokens);
  void OnAdmit(int64_t id, int64_t step);
  void OnReject(int64_t id);
  void OnFirstOutput(int64_t id, int64_t step);
  void OnFinish(int64_t id, int64_t step);
  // Cancel() terminated the session; one cancelled before its arrival step
  // keeps no timeline entry.
  void OnCancel(int64_t id, int64_t step);
  // Deadline expiry terminated the session at `step`.
  void OnTimeout(int64_t id, int64_t step);
  // Overload control dropped the request (which may never have reached
  // OnArrival — shed-at-submit keeps no timeline entry).
  void OnShed(int64_t id, int64_t step);
  void OnPreempt(int64_t id, int64_t step);
  // Admission mapped `tokens` cached prefix tokens instead of prefilling them.
  void OnPrefixHit(int64_t id, int64_t step, int64_t tokens);
  // A preemption moved `bytes` of KV to the host tier (est_ms of link time)
  // instead of discarding it; OnSwapIn is the restore on re-admission.
  void OnSwapOut(int64_t id, int64_t step, double bytes, double est_ms);
  void OnSwapIn(int64_t id, int64_t step, double bytes, double est_ms);
  // One prefill slice consumed for `id` (chunked prefills record several).
  void OnPrefillSlice(int64_t id);
  // `rows` output rows delivered to the session (cursor drain or callback).
  void OnRowsDelivered(int64_t id, int64_t rows);
  void OnStep(const StepMetrics& step);
  // Accumulates one routed layer's per-expert token counts.
  void OnRoutingPlan(const RoutingPlan& plan);
  // Accumulates one step's per-shard routed token counts (all layers).
  void OnShardTokens(const std::vector<int64_t>& shard_tokens);
  // Records one autotune resolution: simulated default-config vs tuned time
  // for this layer's SSMM shape, and whether the per-shape cache hit.
  void OnAutotune(double default_ms, double tuned_ms, bool cache_hit);

  // Accessors return snapshots taken under the collector lock: the async
  // server's client threads read these (Poll paths, tests, the bench) while
  // the driver thread is still mutating inside Step(). A by-reference view
  // into live containers would be a data race the moment ingress went
  // multi-threaded, so every reader pays for a copy instead.
  std::vector<StepMetrics> steps() const {
    std::lock_guard<std::mutex> lock(mu_);
    return steps_;
  }
  std::map<int64_t, RequestMetrics> requests() const {
    std::lock_guard<std::mutex> lock(mu_);
    return requests_;
  }
  // Routed tokens per expert so far (all layers) — the observed loads shard
  // failover re-balances orphaned experts against.
  std::vector<int64_t> expert_tokens() const {
    std::lock_guard<std::mutex> lock(mu_);
    return expert_tokens_;
  }
  // Every eviction as (request id, step), in order — the record tests replay
  // to assert eviction-order determinism.
  std::vector<std::pair<int64_t, int64_t>> preemption_log() const {
    std::lock_guard<std::mutex> lock(mu_);
    return preemption_log_;
  }

  // `max_pages` == 0 (an unbounded page pool) leaves page utilization at 0.
  ServingReport Summarize(int64_t token_budget, int64_t max_pages = 0) const;
  static void Print(const ServingReport& report, std::FILE* out);

 private:
  using Clock = std::chrono::steady_clock;
  double NowMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_).count();
  }

  Clock::time_point start_;
  // Guards every container and counter below. On* hooks fire from the
  // engine driver thread while the snapshot accessors/Summarize read from
  // arbitrary client threads.
  mutable std::mutex mu_;
  std::map<int64_t, RequestMetrics> requests_;
  // Latency sketches, fed at OnFinish/OnStep: the step-count pairs stay
  // exact (linear histogram region), the ms pairs record at 1 µs resolution.
  obs::Histogram ttft_steps_hist_{1.0};
  obs::Histogram turnaround_steps_hist_{1.0};
  obs::Histogram ttft_ms_hist_{1000.0};
  obs::Histogram turnaround_ms_hist_{1000.0};
  std::vector<StepMetrics> steps_;
  std::vector<std::pair<int64_t, int64_t>> preemption_log_;
  std::vector<int64_t> expert_tokens_;
  std::vector<int64_t> shard_tokens_;
  int64_t rejected_ = 0;
  int64_t cancelled_ = 0;
  int64_t timed_out_ = 0;
  int64_t shed_ = 0;
  int64_t prefix_hit_requests_ = 0;
  int64_t prefix_hit_tokens_ = 0;
  int64_t swap_outs_ = 0;
  int64_t swap_ins_ = 0;
  double swap_out_bytes_ = 0.0;
  double swap_in_bytes_ = 0.0;
  double est_swap_ms_ = 0.0;
  int64_t autotune_lookups_ = 0;
  int64_t autotune_cache_hits_ = 0;
  double autotune_default_ms_ = 0.0;
  double autotune_tuned_ms_ = 0.0;
};

}  // namespace serving
}  // namespace samoyeds

#endif  // SAMOYEDS_SRC_SERVING_METRICS_H_
