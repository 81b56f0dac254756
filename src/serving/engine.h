// Continuous-batching serving engine over the Samoyeds decoder path, with a
// streaming session API and chunked prefill.
//
// Submit() returns a SessionHandle: output rows finalize iteration by
// iteration and are delivered incrementally — polled through the session's
// cursor (NewRows) or pushed through an optional OnRows callback fired
// inside Step() — instead of materializing as one matrix at drain time.
// Sessions are first-class: Cancel() tears one down at any point in its
// lifecycle (ingress queue, scheduler backlog, or resident mid-prefill/
// mid-decode), freeing its KV pages and recording a kCancelled terminal
// status.
//
// One Step() is one iteration of Orca-style iteration-level scheduling. It
// runs a fixed sequence of private phase functions; a phase with a tracer
// span opens it itself ("engine" category, named after the function), so the
// spans perfbench reads and the code structure coincide:
//
//   1. Ingest drains arrived requests from the ingress RequestQueue into the
//      Scheduler. ProbeShardFaults then fires the step's shard-level fault
//      probes, and SweepDeadlines expires overdue sessions (no spans).
//   2. Plan ("plan") sizes each resident's rows for this iteration: one
//      decode row per decode-phase sequence, then — under chunked prefill —
//      the next prompt chunk of each mid-prefill sequence, sized to the
//      leftover token budget (Sarathi-style prefill/decode interleaving).
//   3. Evict ("evict"): under page pressure (paged KV cache + preemption
//      enabled), evict the lowest-priority / youngest resident sequences
//      until this iteration's planned rows can get pages; evictees free their
//      pages and are requeued for recompute (or swap-in) on readmission.
//   4. Admit ("admit"): the Scheduler admits new sequences under the token
//      budget and KV-page accounting (an unbounded pool when max_pages is 0);
//      with chunking on, admission charges a prompt's *first chunk*, so
//      prompts longer than the token budget are served instead of rejected.
//   5. Assemble ("assemble") builds one batch from the planned rows and
//      extends each sequence's KV page table to cover them (chunks target
//      pages directly). An empty batch ends the step early: idle
//      fast-forward, drained, or a sit-out while sessions stay live.
//   6. Forward ("forward") runs the batch through the decoder stack.
//      Attention runs per-sequence against the paged per-layer cache of that
//      sequence's normed prefix rows (causal, so cached rows never change),
//      gathered through its page table; the MoE sub-block routes the *whole*
//      batch in one RoutingPlan and executes experts on the multi-threaded
//      ExpertPool. Only the forward itself is timed (the step's measured
//      cost); one modeled pass after it (EstimateStep) then charges the
//      step's modeled GPU cost from the routing plans the forward left.
//   7. Retire ("retire") splits outputs back per sequence, streams newly
//      finalized rows to OnRows callbacks and retires finished ones (freeing
//      pages). Record then samples the counter tracks, publishes the
//      StepMetrics and runs the watchdog, still inside the retire span.
//
// The incremental path computes exactly the rows a full-sequence
// DecoderStackForwardSamoyeds would: causality guarantees earlier positions'
// hidden states never change, so caching them is lossless — chunked prefill
// therefore produces outputs bit-identical to one-shot prefill, and a
// preempted sequence recomputes from row 0, reproducing the same rows
// bit-for-bit. Tests compare against DecoderStackForwardReference at bf16
// tolerance, against DecoderStackForwardSamoyeds bit for bit (on every
// kernel backend), and assert chunked == unchunked exactly.

#ifndef SAMOYEDS_SRC_SERVING_ENGINE_H_
#define SAMOYEDS_SRC_SERVING_ENGINE_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <functional>

#include "src/core/autotune.h"
#include "src/core/kernel_backend.h"
#include "src/moe/decoder_layer.h"
#include "src/serving/batch_assembler.h"
#include "src/serving/expert_pool.h"
#include "src/serving/faults.h"
#include "src/serving/kv_cache.h"
#include "src/serving/metrics.h"
#include "src/serving/prefix_cache.h"
#include "src/serving/request.h"
#include "src/serving/request_queue.h"
#include "src/serving/scheduler.h"
#include "src/serving/shard_plan.h"

namespace samoyeds {
namespace serving {

// What a cancellation attempt found (see ServingEngine::Cancel). The async
// front end and the CLI surface the distinction (an unknown id is an operator
// error, an already-terminal id is a benign race).
enum class CancelOutcome {
  kCancelled,        // live session torn down by this call
  kUnknownId,        // id was never submitted to this engine
  kAlreadyTerminal,  // session already reached a terminal status
};

const char* CancelOutcomeName(CancelOutcome o);

struct EngineConfig {
  int heads = 4;
  int top_k = 2;
  Activation activation = Activation::kSilu;
  // Expert pool workers; <= 1 runs every task inline on the engine thread.
  // Above 1 the engine thread still runs pool tasks while it waits, so a
  // forward computes on threads + 1 CPUs.
  int threads = 4;
  // Resolve each SSMM kernel's tile configuration via AutotuneSsmm,
  // memoized per (projection rows, cols, SEL length) — the
  // ROADMAP's "autotuned serving". Purely an analytic-model resolution:
  // functional outputs are unchanged (asserted by
  // ServingEngineTest.AutotuneDoesNotChangeOutputsAndCachesShapes); the
  // resolved configs feed the per-step modeled GPU time.
  bool autotune = false;
  // Expert-parallel sharding: experts partition across `shards` simulated
  // devices (per-shard expert-pool queues + per-shard analytic timing).
  // Outputs are bit-identical at any shard count.
  int shards = 1;
  ShardPlacement placement = ShardPlacement::kRoundRobin;
  // Interconnect overrides applied to every device of the simulated
  // cluster; link_bandwidth_gbps <= 0 and link_latency_us < 0 keep the
  // DeviceSpec defaults.
  double link_bandwidth_gbps = 0.0;
  double link_latency_us = -1.0;
  // Prefix-sharing radix KV cache: an admission whose prompt rows bit-match a
  // previously served prefix maps the cached pages (refcounted,
  // copy-on-write on the first divergent write) and replays the cached
  // output rows instead of re-prefilling them. Bit-lossless because a row's
  // output is independent of batch composition.
  bool prefix_cache = false;
  // Swap-style preemption: a victim's KV pages move to a simulated host tier
  // (transfer time charged against the device's host link for the bytes
  // actually moved) and are restored bit-exactly on readmission instead of
  // recomputed. Requires scheduler.preempt and a bounded page pool;
  // recompute stays the fallback whenever the host tier cannot hold the
  // victim.
  bool swap = false;
  // Host-tier capacity in KV pages for --swap (0 = unbounded).
  int64_t host_pages = 0;
  // Deterministic fault-injection schedule (see faults.h); empty = fault-free.
  // `fault_seed` drives the probability rules, so schedule + seed replay
  // bit-exactly.
  std::vector<FaultRule> faults;
  uint64_t fault_seed = 0;
  // Transient-fault handling: a failed KV allocation or swap transfer is
  // retried up to `fault_retry_limit` times (each retry charging
  // exponentially growing modeled backoff) before the engine falls back to
  // evict-and-recompute.
  int fault_retry_limit = 3;
  // Overload control: > 0 bounds the ingress queue. A Submit that finds the
  // queue full sheds the lowest-priority queued request below the arrival's
  // class (or the arrival itself) with a kShedded terminal status.
  int64_t ingress_capacity = 0;
  // Liveness watchdog: > 0 trips when any live session makes no progress
  // (admission, prefill, decode, or termination) for this many steps.
  // `watchdog_hook` fires once per stall episode — the CLI uses it to dump
  // the obs flight-recorder ring.
  int64_t watchdog_steps = 0;
  std::function<void(int64_t /*session_id*/, int64_t /*step*/)> watchdog_hook;
  // SSMM inner-loop backend for every expert projection this engine runs.
  // Every backend is bit-exact (kernel_backend.h), so this choice changes
  // speed, never outputs. Resolved once at engine construction, for this
  // engine only; kAuto resolves to the widest ISA the CPU supports, and an
  // unsupported specific request falls back to scalar (the CLI rejects it
  // before getting here).
  KernelBackend kernel_backend = KernelBackend::kScalar;
  SchedulerConfig scheduler;
};

// Terminal record of a session, kept after it leaves the engine. The
// streaming session surface (SessionHandle::NewRows / OnRows) is the primary
// delivery path; `outputs` is the materialized compatibility view — for a
// finished session it is bit-identical to the concatenation of every
// streamed delta.
struct RequestResult {
  RequestStatus status = RequestStatus::kQueued;
  // Why the session ended short of finishing (rejection, cancellation,
  // timeout, shedding). Exactly one terminal transition ever runs (enforced
  // by ServingEngine::Finalize), and it sets this: non-empty for every
  // terminal status except kFinished, empty for kFinished.
  std::string reason;
  // One output row per consumed input position (total_tokens x hidden for a
  // finished request; the rows produced before termination for a cancelled
  // one). Row prompt_len - 1 is the "first token" hidden state; later rows
  // are the decode outputs.
  MatrixF outputs;
};

class ServingEngine;

// Caller-side view of one submitted session. A default-constructed or
// rejected handle is !ok(); the bool conversion keeps the legacy
// `if (engine.Submit(r))` submission check working. All methods proxy to the
// owning engine and must run on the engine thread.
class SessionHandle {
 public:
  SessionHandle() = default;

  int64_t id() const { return id_; }
  // Accepted at submit (well-formed, not a duplicate id).
  bool ok() const { return accepted_; }
  explicit operator bool() const { return accepted_; }

  // Handles for submissions rejected at Submit still reach the engine, so
  // status() reports kRejected and Result() is reachable through the id.
  RequestStatus status() const;
  // Finalized-but-undelivered output rows: returns them and advances the
  // session's delivery cursor (empty matrix when nothing new finalized).
  MatrixF NewRows();
  // Rows NewRows() would return right now, without consuming them.
  int64_t available_rows() const;
  // Rows delivered so far through NewRows() or the OnRows callback.
  int64_t delivered_rows() const;
  // Terminates the session (see ServingEngine::Cancel).
  CancelOutcome Cancel();

 private:
  friend class ServingEngine;
  SessionHandle(ServingEngine* engine, int64_t id, bool accepted)
      : engine_(engine), id_(id), accepted_(accepted) {}

  ServingEngine* engine_ = nullptr;
  int64_t id_ = -1;
  bool accepted_ = false;
};

class ServingEngine {
 public:
  ServingEngine(std::vector<SamoyedsDecoderLayerWeights> layers, const EngineConfig& config);

  int64_t hidden() const { return hidden_; }
  const EngineConfig& config() const { return config_; }

  // Validates and opens a session; the returned handle is !ok() (and a
  // rejection is recorded) on a malformed request, or !ok() with no state
  // change on a duplicate id. `on_rows`, when set, is invoked inside Step()
  // each time rows finalize for this session; rows it receives count as
  // delivered (the polling cursor advances past them). Not thread-safe:
  // call from the engine thread only.
  SessionHandle Submit(Request request, OnRowsCallback on_rows = nullptr);

  // Runs one iteration. Returns false when there was nothing to do and
  // nothing is pending (engine fully drained).
  bool Step();

  // Steps until drained; returns the number of iterations run. `max_steps`
  // bounds runaway loops (0 = no bound).
  int64_t RunUntilDrained(int64_t max_steps = 0);

  RequestStatus Status(int64_t id) const;
  // Result for a terminal (finished / rejected / cancelled) request;
  // nullptr otherwise.
  const RequestResult* Result(int64_t id) const;

  // Streaming cursor (see SessionHandle::NewRows): rows of session `id` that
  // finalized since the last delivery. Works while the session runs and
  // after it finishes; an unknown id yields an empty matrix.
  MatrixF NewRows(int64_t id);
  int64_t AvailableRows(int64_t id) const;
  int64_t DeliveredRows(int64_t id) const;

  // Terminates session `id` wherever it is in its lifecycle: drops it from
  // the ingress queue or scheduler backlog, or — when resident — frees its
  // KV pages (the allocator's free list returns to its pre-submit state) and
  // retires it with the rows produced so far. Records a kCancelled terminal
  // status and returns kCancelled. Otherwise nothing changes: kUnknownId when
  // `id` was never submitted to this engine, kAlreadyTerminal when the
  // session already finished, was rejected, shed, timed out, or cancelled.
  CancelOutcome Cancel(int64_t id);

  int64_t current_step() const { return step_; }
  int64_t resident_sequences() const { return static_cast<int64_t>(running_.size()); }
  int64_t queued() const { return queue_.size() + scheduler_.pending(); }

  const PagedKvCache& kv_cache() const { return cache_; }
  const HostSwapTier& swap_tier() const { return swap_tier_; }
  // Swap preemption actually in effect (config.swap gated on preempt, a
  // bounded page pool, and a modeled host link).
  bool swap_enabled() const { return swap_enabled_; }
  const ExpertShardPlan& shard_plan() const { return shard_plan_; }
  const EngineMetrics& metrics() const { return metrics_; }
  const FaultInjector& fault_injector() const { return injector_; }
  // Physical shard ids still alive, ascending. shard_plan() is a plan over
  // live_shards().size() *logical* shards; logical shard s executes on
  // physical device live_shards()[s].
  const std::vector<int>& live_shards() const { return live_shards_; }
  // Kills physical shard `shard` and re-places its experts onto the
  // survivors (LPT over observed expert loads; see FailoverPlan). The fault
  // injector's shard-die point routes here; tests may call it directly.
  // False (no state change) for an unknown/already-dead shard or when it is
  // the last one standing. Outputs stay bit-identical across failover.
  bool FailShard(int shard);
  int64_t shard_failovers() const { return shard_failovers_; }
  int64_t watchdog_trips() const { return watchdog_trips_; }
  int64_t fault_retries() const { return fault_retries_total_; }
  // Distinct kernel shapes the autotuner has resolved (0 with autotune off).
  int64_t autotune_cache_size() const { return static_cast<int64_t>(autotune_cache_.size()); }
  // The engine-known provenance fields (shards, placement, policy, threads,
  // budgets, resolved backend), fixed at construction; the CLI layers the
  // workload-level fields (command, model, trace, seed) on top.
  ReportProvenance Provenance() const;
  // Summarized metrics with Provenance() filled in.
  ServingReport Report() const;

 private:
  struct Sequence {
    Request request;
    int64_t consumed = 0;   // input rows consumed so far
    int64_t admit_seq = 0;  // engine-wide admission counter; larger = younger
    std::vector<float> out_rows;  // produced output rows, row-major
    // Consecutive transient KV-allocation failures absorbed without progress;
    // reset on a successful extend, escalated to Preempt past the retry limit.
    int fault_retries = 0;
  };

  // Per-session delivery state. Lives outside Sequence because it must
  // survive preemption: a preemptee's recompute re-produces bit-identical
  // rows, and rows already streamed to the caller are never re-delivered.
  struct SessionState {
    OnRowsCallback on_rows;  // empty = polling only
    int64_t delivered = 0;   // output rows handed to the caller so far
    // Delivered rows stashed at preemption (row-major): Preempt discards the
    // Sequence's partial outputs for recompute, but rows already streamed
    // are part of the client-visible record — if the session is cancelled
    // before the recompute catches back up, the terminal result still
    // materializes them. Cleared when the session finishes.
    std::vector<float> retained;
    // Liveness-watchdog bookkeeping: the last step at which this session's
    // progress mark changed, the mark itself, and whether the watchdog has
    // already fired for the current stall episode (it re-arms on progress).
    int64_t last_progress_step = 0;
    int64_t last_progress_mark = -1;
    bool watchdog_tripped = false;
  };

  // Snapshot for admission; `growth_pages` is what this iteration's planned
  // rows are about to claim (already guaranteed by the preemption pass).
  ResidentSnapshot Resident(int64_t growth_pages) const;
  // One iteration's plan: the rows each resident (by running_ index)
  // contributes, and the pages those rows would claim across all residents.
  struct StepPlan {
    std::vector<int64_t> rows;
    int64_t growth_pages = 0;
  };
  // One decode row per decode-phase sequence, then prompt chunks for
  // mid-prefill sequences out of the leftover token budget (possibly 0 — the
  // sequence sits the iteration out). Chunking off degenerates to the legacy
  // one-decode-row-or-whole-prompt plan.
  StepPlan PlanResidentRows() const;

  // Step() phases, in order (see the file comment).
  void Ingest();
  void ProbeShardFaults();
  StepPlan Plan() const;
  // Evicts until the plan's growth fits the page pool, re-planning after
  // each eviction.
  void Evict(StepPlan& plan);
  // Admits new sequences (charging each its first chunk into the plan) and
  // retires fully cached admissions. Returns the plan as (id, rows) pairs,
  // resolved before any session callback can reenter the engine.
  using PlannedRows = std::vector<std::pair<int64_t, int64_t>>;
  PlannedRows Admit(StepPlan plan);
  // Extends page tables and builds the batch; empty when nothing runs.
  AssembledBatch Assemble(const PlannedRows& planned);
  // Runs the batch and fills `sm` with the step's measured and modeled cost.
  MatrixF Forward(const AssembledBatch& batch, StepMetrics* sm);
  // Scatters `out` back per sequence, retires finished ones, then Record()s.
  void Retire(const AssembledBatch& batch, const MatrixF& out, StepMetrics* sm);
  // Counter tracks, OnStep, the watchdog sweep, and the step advance.
  void Record(StepMetrics* sm);

  // Evicts `id` and requeues it at the head of the scheduler queue. With
  // swap enabled (and host-tier room) its KV rows and partial outputs move
  // to the host tier for bit-exact restoration at readmission; otherwise its
  // pages are donated to the prefix cache (when on) and the request recomputes
  // from row 0.
  void Preempt(int64_t id);
  // Admission discount for a candidate: a swapped victim's restorable
  // progress, or the prefix-cache match for its prompt (see AdmitHint).
  AdmitHint AdmitHintFor(const Request& r) const;
  // Evicts cold prefix-cache entries until `pages` are free (or nothing
  // reclaimable is left). No-op with an unbounded pool or no prefix cache.
  void ReclaimFor(int64_t pages);
  // Terminal bookkeeping for a sequence that consumed its full lifetime:
  // donates its pages to the prefix cache, materializes the result, frees
  // the page table and fires the terminal stream delta.
  void RetireFinished(int64_t id);
  // Frees a resident's pages and drops it from running_ and sequences_ (the
  // shared tail of Terminate, Preempt and RetireFinished).
  void ReleaseResident(int64_t id);
  // Restores a readmitted victim's parked KV rows into `tokens` fresh pages.
  // False when the transfer exhausts its retries or a page fails its
  // checksum: the host-tier entry is gone and no pages stay mapped.
  bool SwapIn(int64_t id, int64_t tokens);
  // Modeled one-way host-link transfer time for `bytes` (0 without a link).
  double SwapTransferMs(int64_t bytes) const;
  // Rows finalized for session `id` so far (running: produced rows;
  // terminal: the materialized result).
  int64_t ProducedRows(int64_t id) const;
  // Copies the finalized-but-undelivered rows out and advances the cursor
  // (the shared delivery path under NewRows and the OnRows callbacks).
  MatrixF DrainRows(int64_t id, SessionState& session);
  // Fires the session's OnRows callback with every finalized-but-undelivered
  // row (no-op without a callback); `finished` tags the terminal delta.
  void StreamToCallback(int64_t id, bool finished);

  // Forwards the assembled batch through all layers and returns the final
  // hidden rows. Computes only: each layer's routing plan is left in
  // layer_plans_ for EstimateStep, and nothing here touches the timing model.
  MatrixF ForwardBatch(const AssembledBatch& batch);
  // The step's one modeled pass, run after the timed forward: per layer,
  // each expert's SSMM chain charged to its shard (every kernel with its own
  // tile config), shared experts data-parallel and the cross-shard
  // all-to-all; then the KV-page stream and the stalled-shard penalty.
  // Fills every est_*, all-to-all and KV-traffic field of `sm` and reports
  // the step's per-shard tokens.
  void EstimateStep(const AssembledBatch& batch, StepMetrics* sm);
  // Resolves (and caches) the tuned SSMM tile config of one projection
  // kernel: `proj` over a `shape.n`-column panel of which it selects
  // `selected`. Records simulated default-vs-tuned time in the metrics and
  // returns the config the estimate charges that kernel with.
  SsmmConfig ResolveTileConfig(const SamoyedsMatrix& proj, const GemmShape& shape,
                               int64_t selected);
  // Expert->shard map for this engine's layers under config_.placement.
  ExpertShardPlan BuildShardPlan() const;
  // Decode-phase residents right now — the count PlanResidentRows will plan
  // one decode row for, and the ResidentSnapshot::decode_rows the scheduler's
  // decode-priority chunk sizing keys off.
  int64_t DecodeResidentRows() const;
  // The session's single terminal transition: asserts `id` is not already
  // terminal, sets status + reason, runs the terminal metrics dispatch for
  // kCancelled / kTimedOut / kShedded, and returns the result record for the
  // caller to materialize outputs into. Every terminal path funnels here.
  RequestResult& Finalize(int64_t id, RequestStatus status, std::string reason);
  // Tears a live session down wherever it is (ingress queue, scheduler
  // backlog, swapped out, or resident) and finalizes it with `status` —
  // the shared body behind Cancel (kCancelled), the deadline sweep
  // (kTimedOut) and overload shedding (kShedded). False when `id` is
  // unknown or already terminal.
  bool Terminate(int64_t id, RequestStatus status, std::string reason);
  // Expires every live session whose deadline_steps elapsed (arrival_step +
  // deadline_steps <= current step), wherever it sits.
  void SweepDeadlines();
  // Trips the watchdog (once per stall episode) for any live session whose
  // progress mark has not moved for config_.watchdog_steps steps.
  void WatchdogSweep();
  // Monotone per-session progress value: admission and every consumed row
  // advance it; a queued/evicted session holds at 0 (so backlog starvation
  // is visible to the watchdog, by design).
  int64_t ProgressMark(int64_t id) const;
  // Charges one exponential-backoff retry (base kFaultBackoffMs in
  // engine.cc, doubling per consecutive attempt) to the fault counters.
  void ChargeRetry(int attempt);
  // Probes `point` (a swap transfer) with bounded retries: true once a probe
  // passes, false past config_.fault_retry_limit.
  bool SwapTransferSucceeds(FaultPoint point);

  const std::vector<SamoyedsDecoderLayerWeights> layers_;
  // Per layer: wq/wk/wv/wo and the router gate transposed once at
  // construction.
  const std::vector<AttentionWeights> attention_t_;
  const std::vector<MatrixF> router_gate_t_;
  const EngineConfig config_;
  const int64_t hidden_;

  RequestQueue queue_;
  Scheduler scheduler_;
  PagedKvCache cache_;
  HostSwapTier swap_tier_;
  // Radix prefix cache over the allocator's pages; null when disabled.
  std::unique_ptr<PrefixCache> prefix_cache_;
  SimCluster cluster_;
  ExpertShardPlan shard_plan_;
  ExpertPool pool_;
  EngineMetrics metrics_;
  // Per layer: the last forward's routing plan, read by EstimateStep and
  // refilled in place by the next forward.
  std::vector<RoutingPlan> layer_plans_;
  MatrixF router_logits_;  // RouteInto's scratch
  // Persistent scratch, so steady-state steps stay allocation-quiet.
  ParallelMoeWorkspace pool_ws_;
  MatrixF moe_out_;
  AllToAllScratch a2a_scratch_;
  // Tuned SSMM config per projection kernel (rows, cols, SEL length):
  // gate/up and down, hot and cold experts each get their own. Neither the
  // panel width nor the kernel backend is part of the key: the tuner's
  // model reads neither.
  std::map<std::array<int64_t, 3>, AutotuneResult> autotune_cache_;
  // The backend this engine runs (kAuto resolved, fallbacks applied).
  KernelBackend effective_backend_ = KernelBackend::kScalar;

  // A swapped-out victim's host-side shadow: the rows it had produced and
  // how many input rows those cover. Restored (and erased) at readmission;
  // dropped exactly once if the session is cancelled while evicted.
  struct SwappedSeq {
    std::vector<float> out_rows;
    int64_t consumed = 0;
  };
  std::map<int64_t, SwappedSeq> swapped_;
  bool swap_enabled_ = false;
  int64_t last_cow_splits_ = 0;  // cache_.cow_splits() at the last OnStep

  // Deterministic fault injection (probed only from the engine thread, so a
  // schedule + seed replays bit-exactly) and the hardening counters Report()
  // exports.
  FaultInjector injector_;
  // Physical device ids still serving, ascending; shrinks on FailShard.
  // shard_plan_ always spans exactly live_shards_.size() logical shards.
  std::vector<int> live_shards_;
  int64_t fault_retries_total_ = 0;
  double fault_backoff_ms_total_ = 0.0;
  int64_t shard_failovers_ = 0;
  int64_t watchdog_trips_ = 0;
  // Logical shard whose modeled step time is doubled for the current step
  // (a shard-stall fault); -1 when none. Cleared after each forward.
  int stalled_shard_ = -1;
  // Physical-indexed scatter buffer for OnShardTokens: EstimateStep counts
  // tokens per logical shard (compacted after failover), but the per-shard
  // metrics tracks keep physical device identity.
  std::vector<int64_t> physical_shard_tokens_;

  int64_t step_ = 0;
  int64_t admit_counter_ = 0;     // total admissions ever (eviction ordering)
  std::set<int64_t> known_ids_;   // every id ever submitted (duplicate guard)
  std::vector<int64_t> running_;  // resident sequence ids, admission order
  std::map<int64_t, Sequence> sequences_;
  std::map<int64_t, SessionState> sessions_;  // accepted ids, incl. terminal
  std::map<int64_t, RequestResult> results_;
};

}  // namespace serving
}  // namespace samoyeds

#endif  // SAMOYEDS_SRC_SERVING_ENGINE_H_
