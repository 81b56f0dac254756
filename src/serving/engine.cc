#include "src/serving/engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>

#include "src/core/samoyeds_kernel.h"
#include "src/obs/tracer.h"
#include "src/simgpu/timing_model.h"
#include "src/tensor/bf16.h"

namespace samoyeds {
namespace serving {

// Modeled backoff charged to the first retry of a transient fault; each
// consecutive retry doubles it.
constexpr double kFaultBackoffMs = 0.05;

const char* RoutingAlgoName(RoutingAlgo r) {
  switch (r) {
    case RoutingAlgo::kTopK:
      return "top-k";
    case RoutingAlgo::kExpertChoice:
      return "expert-choice";
  }
  return "?";
}

bool ParseRoutingAlgo(const char* text, RoutingAlgo* out) {
  for (RoutingAlgo r : {RoutingAlgo::kTopK, RoutingAlgo::kExpertChoice}) {
    if (std::strcmp(text, RoutingAlgoName(r)) == 0) {
      *out = r;
      return true;
    }
  }
  return false;
}

const char* RequestStatusName(RequestStatus s) {
  switch (s) {
    case RequestStatus::kQueued:
      return "queued";
    case RequestStatus::kRunning:
      return "running";
    case RequestStatus::kFinished:
      return "finished";
    case RequestStatus::kRejected:
      return "rejected";
    case RequestStatus::kCancelled:
      return "cancelled";
    case RequestStatus::kTimedOut:
      return "timed-out";
    case RequestStatus::kShedded:
      return "shedded";
  }
  return "?";
}

bool IsTerminal(RequestStatus s) {
  return s == RequestStatus::kFinished || s == RequestStatus::kRejected ||
         s == RequestStatus::kCancelled || s == RequestStatus::kTimedOut ||
         s == RequestStatus::kShedded;
}

const char* CancelOutcomeName(CancelOutcome o) {
  switch (o) {
    case CancelOutcome::kCancelled:
      return "cancelled";
    case CancelOutcome::kUnknownId:
      return "unknown-id";
    case CancelOutcome::kAlreadyTerminal:
      return "already-terminal";
  }
  return "?";
}

RequestStatus SessionHandle::status() const {
  return engine_ == nullptr ? RequestStatus::kRejected : engine_->Status(id_);
}

MatrixF SessionHandle::NewRows() {
  return engine_ == nullptr ? MatrixF(0, 0) : engine_->NewRows(id_);
}

int64_t SessionHandle::available_rows() const {
  return engine_ == nullptr ? 0 : engine_->AvailableRows(id_);
}

int64_t SessionHandle::delivered_rows() const {
  return engine_ == nullptr ? 0 : engine_->DeliveredRows(id_);
}

CancelOutcome SessionHandle::Cancel() {
  return engine_ == nullptr ? CancelOutcome::kUnknownId : engine_->Cancel(id_);
}

ServingEngine::ServingEngine(std::vector<SamoyedsDecoderLayerWeights> layers,
                             const EngineConfig& config)
    : layers_(std::move(layers)),
      config_(config),
      hidden_(static_cast<int64_t>(layers_.empty() ? 0 : layers_.front().attn_norm_gamma.size())),
      scheduler_(config.scheduler),
      cache_(KvCacheConfig{config.scheduler.page_tokens, config.scheduler.max_pages},
             static_cast<int64_t>(layers_.size()), hidden_),
      swap_tier_(static_cast<int64_t>(layers_.size()), hidden_,
                 config.scheduler.page_tokens, config.host_pages),
      pool_(config.threads, std::max(1, config.shards)) {
  assert(!layers_.empty());
  assert(hidden_ % config_.heads == 0);
  assert(config_.scheduler.page_tokens >= 1);
  assert(config_.shards >= 1);
  // Simulated serving cluster: one DefaultDevice per shard, with the CLI's
  // interconnect overrides applied uniformly.
  cluster_ = SimCluster::Homogeneous(DefaultDevice(), std::max(1, config_.shards));
  for (DeviceSpec& d : cluster_.devices) {
    if (config_.link_bandwidth_gbps > 0.0) {
      d.link_bandwidth_gbps = config_.link_bandwidth_gbps;
    }
    if (config_.link_latency_us >= 0.0) {
      d.link_latency_us = config_.link_latency_us;
    }
  }
  shard_plan_ = BuildShardPlan();
  assert(shard_plan_.IsValid());
  live_shards_.resize(static_cast<size_t>(cluster_.num_shards()));
  for (size_t s = 0; s < live_shards_.size(); ++s) {
    live_shards_[s] = static_cast<int>(s);
  }
  // Install the SSMM inner-loop backend process-wide: the expert forward
  // chain picks it up through RunPanel's default backend argument.
  // SetKernelBackend resolves kAuto and applies SAMOYEDS_FORCE_BACKEND.
  effective_backend_ = SetKernelBackend(config_.kernel_backend);
  injector_.Configure(config_.faults, config_.fault_seed);
  // Prefix sharing relies on per-row outputs being independent of batch
  // composition; expert-choice routing breaks that, so the cache is silently
  // suppressed there (replaying another batch's rows would not be
  // bit-lossless). Swap preemption needs an eviction path (preempt + bounded
  // pool) and a modeled host link to charge transfers against.
  if (config_.prefix_cache && config_.routing != RoutingAlgo::kExpertChoice) {
    prefix_cache_ = std::make_unique<PrefixCache>(config_.scheduler.page_tokens, hidden_);
  }
  swap_enabled_ = config_.swap && config_.scheduler.preempt &&
                  config_.scheduler.max_pages > 0 && cluster_.device(0).has_host_link();
}

ExpertShardPlan ServingEngine::BuildShardPlan() const {
  const int shards = std::max(1, config_.shards);
  const int experts = static_cast<int>(layers_.front().moe.experts.size());
  switch (config_.placement) {
    case ShardPlacement::kRoundRobin:
      break;
    case ShardPlacement::kCapacityBalanced: {
      // Bin-pack each expert index's total weight storage across the stack
      // (heterogeneous layers make expert indices differ in bytes).
      std::vector<int64_t> bytes(static_cast<size_t>(experts), 0);
      for (const SamoyedsDecoderLayerWeights& layer : layers_) {
        assert(static_cast<int>(layer.moe.experts.size()) == experts);
        for (int e = 0; e < experts; ++e) {
          const SamoyedsExpertWeights& w = layer.moe.experts[static_cast<size_t>(e)];
          bytes[static_cast<size_t>(e)] +=
              w.gate.StorageBytes() + w.up.StorageBytes() + w.down.StorageBytes();
        }
      }
      return ExpertShardPlan::CapacityBalanced(bytes, shards);
    }
    case ShardPlacement::kGateStats: {
      // Expected-load proxy: each expert index's router-gate row norm summed
      // across layers (larger rows win top-k more often).
      std::vector<double> loads(static_cast<size_t>(experts), 0.0);
      for (const SamoyedsDecoderLayerWeights& layer : layers_) {
        const std::vector<double> norms = GateRowNorms(layer.moe.router_gate);
        assert(static_cast<int>(norms.size()) == experts);
        for (int e = 0; e < experts; ++e) {
          loads[static_cast<size_t>(e)] += norms[static_cast<size_t>(e)];
        }
      }
      return ExpertShardPlan::FromLoads(loads, shards);
    }
  }
  return ExpertShardPlan::RoundRobin(experts, shards);
}

SessionHandle ServingEngine::Submit(Request request, OnRowsCallback on_rows) {
  if (!known_ids_.insert(request.id).second) {
    return SessionHandle();  // duplicate id: leave the original session alone
  }
  const int64_t id = request.id;
  if (!request.ShapeValid(hidden_)) {
    Finalize(id, RequestStatus::kRejected, "malformed request (bad prompt/decode/input shape)");
    return SessionHandle(this, id, /*accepted=*/false);
  }
  // Overload control: a bounded ingress queue sheds the lowest-priority
  // entry strictly below the arrival's class to make room — or, when the
  // arrival itself is the lowest class offered, the arrival.
  if (config_.ingress_capacity > 0 && queue_.size() >= config_.ingress_capacity) {
    const int64_t victim = queue_.ShedVictim(request.priority);
    if (victim < 0) {
      Finalize(id, RequestStatus::kShedded, "shed: ingress queue full (overload)");
      return SessionHandle(this, id, /*accepted=*/false);
    }
    const bool shed = Terminate(victim, RequestStatus::kShedded,
                                "shed: displaced by a higher-priority arrival "
                                "(ingress queue full)");
    assert(shed);
    (void)shed;
  }
  SessionState session;
  session.on_rows = std::move(on_rows);
  session.last_progress_step = step_;
  sessions_.emplace(id, std::move(session));
  queue_.Push(std::move(request));
  return SessionHandle(this, id, /*accepted=*/true);
}

RequestResult& ServingEngine::Finalize(int64_t id, RequestStatus status, std::string reason) {
  RequestResult& result = results_[id];
  // Exactly one terminal transition per session, and exactly one reason:
  // non-empty for every terminal status except kFinished (whose "reason" is
  // the full output matrix), empty for kFinished.
  assert(!IsTerminal(result.status));
  assert(IsTerminal(status));
  assert((status == RequestStatus::kFinished) == reason.empty());
  result.status = status;
  result.reason = std::move(reason);
  switch (status) {
    case RequestStatus::kFinished:
      metrics_.OnFinish(id, step_);
      break;
    case RequestStatus::kRejected:
      metrics_.OnReject(id);
      break;
    case RequestStatus::kCancelled:
      metrics_.OnCancel(id, step_);
      break;
    case RequestStatus::kTimedOut:
      metrics_.OnTimeout(id, step_);
      break;
    case RequestStatus::kShedded:
      metrics_.OnShed(id, step_);
      break;
    default:
      break;
  }
  return result;
}

int64_t ServingEngine::ProducedRows(int64_t id) const {
  if (const auto it = sequences_.find(id); it != sequences_.end()) {
    return static_cast<int64_t>(it->second.out_rows.size()) / hidden_;
  }
  if (const auto it = results_.find(id); it != results_.end()) {
    return it->second.outputs.rows();
  }
  return 0;
}

int64_t ServingEngine::AvailableRows(int64_t id) const {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return 0;
  }
  // A preempted sequence's recompute can briefly trail the delivery cursor;
  // those rows were already streamed and are never re-delivered.
  return std::max<int64_t>(0, ProducedRows(id) - it->second.delivered);
}

int64_t ServingEngine::DeliveredRows(int64_t id) const {
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? 0 : it->second.delivered;
}

MatrixF ServingEngine::DrainRows(int64_t id, SessionState& session) {
  const int64_t begin = session.delivered;
  const int64_t produced = ProducedRows(id);
  if (produced <= begin) {
    // A preempted sequence's recompute can briefly trail the cursor; those
    // rows were already streamed and are never re-delivered.
    return MatrixF(0, 0);
  }
  MatrixF rows(produced - begin, hidden_);
  const float* src = nullptr;
  if (const auto seq = sequences_.find(id); seq != sequences_.end()) {
    src = seq->second.out_rows.data() + begin * hidden_;
  } else {
    src = results_.at(id).outputs.data() + begin * hidden_;
  }
  std::copy(src, src + rows.size(), rows.data());
  session.delivered = produced;
  metrics_.OnRowsDelivered(id, rows.rows());
  return rows;
}

MatrixF ServingEngine::NewRows(int64_t id) {
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? MatrixF(0, 0) : DrainRows(id, it->second);
}

void ServingEngine::StreamToCallback(int64_t id, bool finished) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end() || !it->second.on_rows) {
    return;
  }
  SessionState& session = it->second;
  const int64_t begin = session.delivered;
  const MatrixF rows = DrainRows(id, session);
  if (rows.rows() == 0 && !finished) {
    return;  // nothing new; the terminal delta always fires, even if empty
  }
  const StreamDelta delta{id, begin, rows, finished};
  session.on_rows(delta);
}

CancelOutcome ServingEngine::Cancel(int64_t id) {
  if (known_ids_.count(id) == 0) {
    return CancelOutcome::kUnknownId;  // never submitted: not a session at all
  }
  return Terminate(id, RequestStatus::kCancelled, "cancelled by client")
             ? CancelOutcome::kCancelled
             : CancelOutcome::kAlreadyTerminal;
}

bool ServingEngine::Terminate(int64_t id, RequestStatus status, std::string reason) {
  if (sessions_.count(id) == 0 || IsTerminal(Status(id))) {
    return false;  // unknown, rejected/shed at submit, or already terminal
  }
  SessionState& session = sessions_.at(id);
  if (const auto it = sequences_.find(id); it != sequences_.end()) {
    // Resident (possibly mid-prefill): retire with the rows produced so far
    // and return every page to the allocator's free list. After a
    // preemption the recompute may not have caught back up to the rows
    // already streamed — the stashed prefix is the longer record then.
    Sequence& seq = it->second;
    if (prefix_cache_ != nullptr) {
      // The rows computed so far are still bit-exact prefix state — donate
      // them before the page table goes away.
      prefix_cache_->Donate(id, seq.request.inputs, seq.consumed, seq.out_rows,
                            cache_.mutable_allocator());
    }
    std::vector<float> rows = session.retained.size() > seq.out_rows.size()
                                  ? std::move(session.retained)
                                  : std::move(seq.out_rows);
    const int64_t produced = static_cast<int64_t>(rows.size()) / hidden_;
    RequestResult& result = Finalize(id, status, std::move(reason));
    result.outputs = MatrixF::FromRowMajor(produced, hidden_, std::move(rows));
    ReleaseResident(id);
    StreamToCallback(id, /*finished=*/true);  // unblock push-mode consumers
    return true;
  }
  // Still queued: in the ingress queue (not yet arrived) or awaiting
  // admission in the scheduler backlog — which includes sessions requeued
  // by preemption, whose already-streamed rows live in the stash.
  const bool removed = queue_.Remove(id) || scheduler_.Cancel(id);
  assert(removed);
  (void)removed;
  // A victim terminated at the evicted-but-requeued stage may hold a
  // host-tier shadow: drop it exactly once so readmission can never
  // resurrect the session, and prefer its rows when they extend past the
  // streamed stash (the swap shadow holds *all* rows produced, not just the
  // delivered ones).
  if (const auto sw = swapped_.find(id); sw != swapped_.end()) {
    const bool dropped = swap_tier_.Drop(id);
    assert(dropped);
    (void)dropped;
    if (sw->second.out_rows.size() > session.retained.size()) {
      session.retained = std::move(sw->second.out_rows);
    }
    swapped_.erase(sw);
  }
  const int64_t retained_rows = static_cast<int64_t>(session.retained.size()) / hidden_;
  RequestResult& result = Finalize(id, status, std::move(reason));
  result.outputs = MatrixF::FromRowMajor(retained_rows, hidden_, std::move(session.retained));
  StreamToCallback(id, /*finished=*/true);
  return true;
}

void ServingEngine::SweepDeadlines() {
  // Snapshot the expired ids first: Terminate mutates running_ and the
  // scheduler backlog (and may fire reentrant session callbacks).
  std::vector<std::pair<int64_t, int64_t>> expired;  // (id, deadline_steps)
  for (int64_t id : running_) {
    const Request& r = sequences_.at(id).request;
    if (r.deadline_steps > 0 && step_ >= r.arrival_step + r.deadline_steps) {
      expired.emplace_back(id, r.deadline_steps);
    }
  }
  for (const Request& r : scheduler_.pending_requests()) {
    if (r.deadline_steps > 0 && step_ >= r.arrival_step + r.deadline_steps) {
      expired.emplace_back(r.id, r.deadline_steps);
    }
  }
  for (const auto& [id, deadline] : expired) {
    Terminate(id, RequestStatus::kTimedOut,
              "deadline exceeded (" + std::to_string(deadline) + " steps)");
  }
}

int64_t ServingEngine::ProgressMark(int64_t id) const {
  // Residency itself counts as progress (admission moved the session), and
  // every consumed row advances the mark; queued/evicted sessions hold at 0,
  // so backlog starvation is visible to the watchdog — by design.
  const auto it = sequences_.find(id);
  return it == sequences_.end() ? 0 : 1 + it->second.consumed;
}

void ServingEngine::WatchdogSweep() {
  if (config_.watchdog_steps <= 0) {
    return;
  }
  for (auto& [id, session] : sessions_) {
    if (session.last_progress_mark < 0 || IsTerminal(Status(id))) {
      continue;  // not yet arrived (its clock starts at arrival), or done
    }
    const int64_t mark = ProgressMark(id);
    if (mark != session.last_progress_mark) {
      session.last_progress_mark = mark;
      session.last_progress_step = step_;
      session.watchdog_tripped = false;  // re-arm for the next stall episode
      continue;
    }
    if (!session.watchdog_tripped &&
        step_ - session.last_progress_step >= config_.watchdog_steps) {
      session.watchdog_tripped = true;
      ++watchdog_trips_;
      obs::TraceAsyncInstant("request", "watchdog_trip", obs::TraceDetail::kRequest, id, step_);
      if (config_.watchdog_hook) {
        config_.watchdog_hook(id, step_);
      }
    }
  }
}

void ServingEngine::ChargeRetry(int attempt) {
  assert(attempt >= 1);
  ++fault_retries_total_;
  // Exponential backoff, capped so a pathological schedule cannot overflow.
  fault_backoff_ms_total_ +=
      kFaultBackoffMs * static_cast<double>(1ll << std::min(attempt - 1, 20));
}

bool ServingEngine::SwapTransferSucceeds(FaultPoint point) {
  for (int attempt = 1; injector_.ShouldFail(point); ++attempt) {
    ChargeRetry(attempt);
    if (attempt > config_.fault_retry_limit) {
      return false;
    }
  }
  return true;
}

bool ServingEngine::FailShard(int shard) {
  if (live_shards_.size() <= 1) {
    return false;  // the last shard standing keeps serving
  }
  const auto pos = std::find(live_shards_.begin(), live_shards_.end(), shard);
  if (pos == live_shards_.end()) {
    return false;  // unknown or already dead
  }
  const int logical = static_cast<int>(pos - live_shards_.begin());
  // Re-place the dead shard's experts using the loads actually observed so
  // far; before any routing happened the rebalance falls back to uniform.
  const std::vector<int64_t>& tokens = metrics_.expert_tokens();
  shard_plan_ = FailoverPlan(shard_plan_, logical,
                             std::vector<double>(tokens.begin(), tokens.end()));
  assert(shard_plan_.IsValid());
  live_shards_.erase(pos);
  if (stalled_shard_ == logical) {
    stalled_shard_ = -1;  // a dead shard cannot also stall
  } else if (stalled_shard_ > logical) {
    --stalled_shard_;  // logical ids above the dead shard compact down
  }
  ++shard_failovers_;
  return true;
}

int64_t ServingEngine::DecodeResidentRows() const {
  int64_t rows = 0;
  for (int64_t id : running_) {
    const Sequence& seq = sequences_.at(id);
    if (seq.consumed >= seq.request.prompt_len) {
      ++rows;
    }
  }
  return rows;
}

ResidentSnapshot ServingEngine::Resident(int64_t growth_pages) const {
  ResidentSnapshot snap;
  snap.decode_rows = DecodeResidentRows();
  // Cold prefix-cache pages (held by the tree alone) are handed back on
  // demand by ReclaimFor, so for admission purposes they are free.
  snap.used_pages =
      cache_.allocator().used_pages() + growth_pages -
      (prefix_cache_ != nullptr ? prefix_cache_->reclaimable_pages(cache_.allocator()) : 0);
  for (int64_t id : running_) {
    snap.reserved_pages +=
        PagesForTokens(sequences_.at(id).request.total_tokens(), config_.scheduler.page_tokens);
  }
  return snap;
}

ServingEngine::StepPlan ServingEngine::PlanResidentRows() const {
  const SchedulerConfig& cfg = config_.scheduler;
  StepPlan out;
  std::vector<int64_t>& plan = out.rows;
  plan.assign(running_.size(), 0);
  int64_t budget_left = cfg.token_budget;
  // Decode rows first: one per decode-phase resident. Admission charges
  // every sequence at least one row, so these always fit the budget.
  int64_t decode_rows = 0;
  for (size_t i = 0; i < running_.size(); ++i) {
    const Sequence& seq = sequences_.at(running_[i]);
    if (seq.consumed >= seq.request.prompt_len) {
      plan[i] = 1;
      budget_left -= 1;
      ++decode_rows;
    }
  }
  // Then the next prompt chunk of each mid-prefill resident, admission
  // order, out of the leftover budget — resident prefills outrank new
  // admissions, so a chunked prompt can never be starved by later arrivals.
  // A plan of 0 rows (budget exhausted) sits the iteration out. The decode
  // row count feeds the decode-priority chunk policy: chunks shrink while
  // decode rows are resident so decode latency is insulated from long
  // prompts (a no-op under the fixed policy).
  for (size_t i = 0; i < running_.size(); ++i) {
    const Sequence& seq = sequences_.at(running_[i]);
    if (seq.consumed < seq.request.prompt_len) {
      plan[i] = PrefillChunkRows(seq.request.prompt_len - seq.consumed, budget_left, cfg,
                                 decode_rows);
      budget_left -= plan[i];
    }
  }
  assert(budget_left >= 0);
  for (size_t i = 0; i < running_.size(); ++i) {
    // PagesToPrepareWrite, not PagesToExtend: a sequence about to append to a
    // still-shared partial tail page needs one extra page for the
    // copy-on-write split.
    out.growth_pages += cache_.allocator().PagesToPrepareWrite(running_[i], plan[i]);
  }
  return out;
}

void ServingEngine::Preempt(int64_t id) {
  Sequence& seq = sequences_.at(id);
  // Rows already streamed to the client are frozen: stash that prefix so a
  // Cancel() racing the recompute can still materialize them in the
  // terminal result. (Monotone: an earlier preemption may have retained
  // more than this recompute had re-produced.)
  SessionState& session = sessions_.at(id);
  const size_t keep = std::min(static_cast<size_t>(session.delivered * hidden_),
                               seq.out_rows.size());
  if (keep > session.retained.size()) {
    session.retained.assign(seq.out_rows.begin(),
                            seq.out_rows.begin() + static_cast<int64_t>(keep));
  }
  const int64_t tokens = seq.consumed;
  // Swap path: KV rows and the produced outputs move to the host tier and
  // are restored bit-exactly at readmission — no recompute. The transfer is
  // charged against the device's host link for the bytes actually moved.
  // An injected transfer failure is retried with exponential backoff; past
  // the retry limit the victim falls through to the recompute path.
  if (swap_enabled_ && tokens > 0 && swap_tier_.CanHold(tokens) &&
      SwapTransferSucceeds(FaultPoint::kSwapOut)) {
    swap_tier_.SwapOut(id, cache_, tokens);
    if (const FaultDecision d = injector_.Probe(FaultPoint::kSwapCorrupt); d.fire) {
      // Deterministic bit flip in the parked pages; the per-page checksum
      // catches it at swap-in and forces a recompute instead of serving
      // corrupted KV state.
      const uint64_t salt =
          d.arg != 0 ? static_cast<uint64_t>(d.arg)
                     : static_cast<uint64_t>(id) * 0x9e3779b97f4a7c15ull ^
                           static_cast<uint64_t>(step_);
      swap_tier_.CorruptEntry(id, salt);
    }
    SwappedSeq& shadow = swapped_[id];
    shadow.out_rows = std::move(seq.out_rows);
    shadow.consumed = tokens;
    const int64_t bytes = swap_tier_.BytesForTokens(tokens);
    metrics_.OnSwapOut(id, step_, static_cast<double>(bytes), SwapTransferMs(bytes));
  } else if (prefix_cache_ != nullptr) {
    // Recompute fallback: at least donate the computed prefix to the radix
    // tree, so the readmission (or anyone sharing the prompt) skips it.
    prefix_cache_->Donate(id, seq.request.inputs, tokens, seq.out_rows,
                          cache_.mutable_allocator());
  }
  Request request = std::move(seq.request);
  ReleaseResident(id);
  metrics_.OnPreempt(id, step_);
  // Without a swap shadow, undelivered partial outputs are discarded with
  // the Sequence: readmission recomputes the whole prefix, which reproduces
  // the same rows (per-row compute is independent of batch composition).
  scheduler_.Requeue(std::move(request));
}

AdmitHint ServingEngine::AdmitHintFor(const Request& r) const {
  AdmitHint hint;
  if (const auto it = swapped_.find(r.id); it != swapped_.end()) {
    // A swapped victim restores its full progress; its pages come out of the
    // free pool, so there is no resident-page discount.
    hint.ready_tokens = it->second.consumed;
    return hint;
  }
  if (prefix_cache_ != nullptr) {
    int64_t shared_path_pages = 0;
    hint.ready_tokens = prefix_cache_->ProbeTokens(
        r.inputs, r.total_tokens(), &cache_.allocator(), &shared_path_pages);
    // Only path pages live sequences already map are discounted; pinning a
    // tree-only page costs the pool like a fresh allocation, and a shared
    // partial tail additionally owes its copy-on-write page (hence the
    // possible -1).
    hint.resident_pages =
        shared_path_pages -
        (hint.ready_tokens % config_.scheduler.page_tokens != 0 ? 1 : 0);
  }
  return hint;
}

void ServingEngine::ReclaimFor(int64_t pages) {
  if (prefix_cache_ == nullptr || !cache_.allocator().bounded()) {
    return;
  }
  while (cache_.allocator().free_pages() < pages &&
         prefix_cache_->ReclaimOne(cache_.mutable_allocator())) {
  }
}

double ServingEngine::SwapTransferMs(int64_t bytes) const {
  const DeviceSpec& device = cluster_.device(live_shards_.front());
  if (!device.has_host_link()) {
    return 0.0;
  }
  // GB/s over the host attach: bytes / (gbps * 1e9) seconds, plus latency.
  return device.host_latency_us * 1e-3 +
         static_cast<double>(bytes) / (device.host_bandwidth_gbps * 1e6);
}

void ServingEngine::RetireFinished(int64_t id) {
  Sequence& seq = sequences_.at(id);
  if (prefix_cache_ != nullptr) {
    // Donation covers every consumed row — decode rows are teacher-forced
    // inputs too, so a future identical prompt can skip past them as well.
    prefix_cache_->Donate(id, seq.request.inputs, seq.consumed, seq.out_rows,
                          cache_.mutable_allocator());
  }
  RequestResult& result = Finalize(id, RequestStatus::kFinished, "");
  result.outputs = MatrixF::FromRowMajor(seq.consumed, hidden_, std::move(seq.out_rows));
  ReleaseResident(id);
  sessions_.at(id).retained.clear();  // full outputs exist now
  StreamToCallback(id, /*finished=*/true);
}

void ServingEngine::ReleaseResident(int64_t id) {
  cache_.Free(id);
  const auto pos = std::find(running_.begin(), running_.end(), id);
  assert(pos != running_.end());
  running_.erase(pos);
  sequences_.erase(id);
}

bool ServingEngine::SwapIn(int64_t id, int64_t tokens) {
  if (!SwapTransferSucceeds(FaultPoint::kSwapIn)) {
    const bool dropped = swap_tier_.Drop(id);
    assert(dropped);
    (void)dropped;
    return false;
  }
  ReclaimFor(cache_.allocator().PagesToExtend(id, tokens));
  const bool ok = cache_.Extend(id, tokens);
  assert(ok);
  (void)ok;
  if (!swap_tier_.SwapIn(id, cache_)) {
    // A parked page failed its checksum: the tier dropped the whole entry
    // (never a partial restore). Free the just-extended pages — corrupted KV
    // state must not reach attention.
    cache_.Free(id);
    return false;
  }
  const int64_t bytes = swap_tier_.BytesForTokens(tokens);
  metrics_.OnSwapIn(id, step_, static_cast<double>(bytes), SwapTransferMs(bytes));
  return true;
}

MatrixF ServingEngine::ForwardBatch(const AssembledBatch& batch) {
  // Everything below runs over *logical* shards — the survivors after any
  // failover. Logical shard s executes on physical device live_shards_[s];
  // the shard plan spans exactly the logical count, so outputs stay
  // bit-identical across a mid-run failover (the global fold order over
  // experts never changes).
  const int num_shards = static_cast<int>(live_shards_.size());
  acct_.Reset(num_shards);

  MatrixF h = batch.rows;
  for (size_t layer = 0; layer < layers_.size(); ++layer) {
    const SamoyedsDecoderLayerWeights& w = layers_[layer];
    obs::ScopedSpan layer_span("engine", "layer", obs::TraceDetail::kFull,
                               static_cast<int64_t>(layer));

    // Attention sub-block, per sequence: normed new rows extend the paged
    // cached prefix (gathered through the page table); causal attention over
    // the full prefix yields the new rows' outputs. Sequences are
    // independent — and own disjoint pages — so they fan out over the pool.
    // Each pooled slice runs on the home shard of its batch rows — the same
    // contiguous data-parallel split the all-to-all model and the shared
    // experts use, so the simulation has one notion of where a token lives.
    MatrixF h1 = h;  // residual base
    {
      obs::ScopedSpan attn_span("engine", "attn", obs::TraceDetail::kFull);
      const auto attn_slice = [this, &h, &h1, &w, layer](const BatchSlice& slice) {
        obs::ScopedSpan slice_span("attn", "slice", obs::TraceDetail::kFull,
                                   slice.request_id);
        MatrixF x_new(slice.row_count, hidden_);
        for (int64_t r = 0; r < slice.row_count; ++r) {
          for (int64_t c = 0; c < hidden_; ++c) {
            x_new(r, c) = h(slice.row_begin + r, c);
          }
        }
        const MatrixF normed_new = RmsNorm(x_new, w.attn_norm_gamma);

        const int64_t prefix = slice.position_begin;
        MatrixF full(prefix + slice.row_count, hidden_);
        cache_.GatherRows(slice.request_id, static_cast<int64_t>(layer), prefix, full.data());
        std::copy(normed_new.data(), normed_new.data() + normed_new.size(),
                  full.data() + prefix * hidden_);

        const MatrixF attn = AttentionForward(full, w.attention, config_.heads);
        for (int64_t r = 0; r < slice.row_count; ++r) {
          for (int64_t c = 0; c < hidden_; ++c) {
            h1(slice.row_begin + r, c) += attn(prefix + r, c);
          }
          std::copy(normed_new.row(r).begin(), normed_new.row(r).end(),
                    cache_.Row(slice.request_id, static_cast<int64_t>(layer), prefix + r));
        }
      };
      for (const BatchSlice& slice : batch.slices) {
        pool_.SubmitToShard(TokenHomeShard(slice.row_begin, h.rows(), num_shards),
                            [&attn_slice, slice] { attn_slice(slice); });
      }
      pool_.WaitIdle();
    }

    // MoE sub-block, whole batch: one routing plan covers every sequence's
    // tokens, so each expert runs once per iteration over its tile-split
    // SEL slices, on its placement shard's queue.
    obs::ScopedSpan moe_span("engine", "moe", obs::TraceDetail::kFull);
    MatrixF normed = RmsNorm(h1, w.moe_norm_gamma);
    RoundMatrixToBf16(normed);
    const RoutingPlan plan = config_.routing == RoutingAlgo::kExpertChoice
                                 ? RouteExpertChoice(normed, w.moe.router_gate, config_.top_k)
                                 : Route(normed, w.moe.router_gate, config_.top_k);
    metrics_.OnRoutingPlan(plan);
    SsmmConfig tile_cfg = SsmmConfig::Default();
    if (config_.autotune) {
      tile_cfg = ResolveTileConfig(w.moe, plan);
    }
    AccountMoeLayer(w.moe, plan, tile_cfg);
    ParallelMoeForwardSamoyeds(pool_, normed, w.moe, plan, config_.activation, shard_plan_,
                               acct_.pool_ws, acct_.moe_out);
    MatrixAxpy(1.0f, acct_.moe_out, h1);
    h = std::move(h1);
  }
  return h;
}

void ServingEngine::AccountMoeLayer(const SamoyedsMoeLayerWeights& moe, const RoutingPlan& plan,
                                    const SsmmConfig& tile_cfg) {
  const auto account_t0 = std::chrono::steady_clock::now();
  const int num_shards = static_cast<int>(live_shards_.size());
  // Each routed expert's gate/up/down SSMM chain is charged to its shard;
  // the tuned tile configuration (autotuned serving) shapes every per-kernel
  // estimate. gate/up select this expert's tokens out of the whole batch
  // panel; down consumes the already-compressed intermediate.
  for (int e = 0; e < static_cast<int>(moe.experts.size()); ++e) {
    const int64_t count = plan.TokensForExpert(e);
    if (count == 0) {
      continue;
    }
    const int s = shard_plan_.shard_of(e);
    const DeviceSpec& device = cluster_.device(live_shards_[static_cast<size_t>(s)]);
    const TimingModel model(device);
    const SamoyedsExpertWeights& w = moe.experts[static_cast<size_t>(e)];
    for (const SamoyedsMatrix* proj : {&w.gate, &w.up}) {
      const GemmShape shape{proj->rows, proj->cols, plan.tokens};
      acct_.shard_ms[static_cast<size_t>(s)] +=
          model.Estimate(SamoyedsKernel::Analyze(shape, count, proj->config, tile_cfg, device)
                             .traffic)
              .total_ms;
    }
    const GemmShape down{w.down.rows, w.down.cols, count};
    acct_.shard_ms[static_cast<size_t>(s)] +=
        model.Estimate(
                 SamoyedsKernel::Analyze(down, count, w.down.config, tile_cfg, device).traffic)
            .total_ms;
  }
  // Shared experts are replicated: each shard runs them over its home token
  // slice (the data-parallel split the execution path uses too).
  for (const SamoyedsExpertWeights& w : moe.shared_experts) {
    for (int s = 0; s < num_shards; ++s) {
      const int64_t range = ShardHomeBegin(s + 1, plan.tokens, num_shards) -
                            ShardHomeBegin(s, plan.tokens, num_shards);
      if (range == 0) {
        continue;
      }
      const DeviceSpec& device = cluster_.device(live_shards_[static_cast<size_t>(s)]);
      const TimingModel model(device);
      for (const SamoyedsMatrix* proj : {&w.gate, &w.up}) {
        const GemmShape shape{proj->rows, proj->cols, plan.tokens};
        acct_.shard_ms[static_cast<size_t>(s)] +=
            model.Estimate(SamoyedsKernel::Analyze(shape, range, proj->config, tile_cfg, device)
                               .traffic)
                .total_ms;
      }
      const GemmShape down{w.down.rows, w.down.cols, range};
      acct_.shard_ms[static_cast<size_t>(s)] +=
          model.Estimate(
                   SamoyedsKernel::Analyze(down, range, w.down.config, tile_cfg, device).traffic)
              .total_ms;
    }
  }
  plan.AccumulateTokensPerBucket(shard_plan_.shard_of_expert(), acct_.shard_tokens);
  // All-to-all: exact per-shard send/receive volumes feed the busiest-link
  // interconnect roofline (both phases pay link latency + serialization).
  const AllToAllTraffic traffic =
      ComputeAllToAllTraffic(plan, shard_plan_, hidden_, /*bytes_per_value=*/2, acct_.a2a_scratch);
  const TimingModel model(cluster_.device(live_shards_.front()));
  acct_.alltoall_ms += model.InterconnectPhaseMs(traffic.max_shard_dispatch_bytes) +
                        model.InterconnectPhaseMs(traffic.max_shard_combine_bytes);
  traffic.AddTo(acct_.traffic);
  acct_.account_ms += std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - account_t0)
                           .count();
}

SsmmConfig ServingEngine::ResolveTileConfig(const SamoyedsMoeLayerWeights& moe,
                                            const RoutingPlan& plan) {
  assert(!moe.experts.empty());
  // This layer's SSMM shape: every expert projection is (intermediate x
  // hidden) against this batch's token panel; the SEL length that drives
  // tile efficiency is the hottest expert's token count.
  const SamoyedsMatrix& gate = moe.experts.front().gate;
  const int64_t selected = std::max<int64_t>(1, plan.MaxTokensPerExpert());
  const std::array<int64_t, 5> key{gate.rows, gate.cols, plan.tokens, selected,
                                   static_cast<int64_t>(effective_backend_)};
  auto it = autotune_cache_.find(key);
  const bool cache_hit = it != autotune_cache_.end();
  if (!cache_hit) {
    const GemmShape shape{gate.rows, gate.cols, plan.tokens};
    it = autotune_cache_
             .emplace(key, AutotuneSsmm(shape, selected, gate.config, DefaultDevice(),
                                        effective_backend_))
             .first;
  }
  metrics_.OnAutotune(it->second.default_ms, it->second.simulated_ms, cache_hit);
  return it->second.config;
}

bool ServingEngine::Step() {
  obs::ScopedSpan step_span("engine", "step", obs::TraceDetail::kStep, step_);
  Ingest();
  ProbeShardFaults();
  // Expire overdue sessions before planning so a timed-out resident never
  // occupies batch rows or pages this iteration.
  SweepDeadlines();
  StepPlan plan = Plan();
  Evict(plan);
  const PlannedRows planned = Admit(std::move(plan));
  const AssembledBatch batch = Assemble(planned);
  if (batch.slices.empty()) {
    if (running_.empty() && scheduler_.pending() == 0) {
      // Idle: fast-forward to the next trace arrival, or report drained.
      const int64_t next = queue_.NextArrivalStep();
      if (next < 0) {
        return false;
      }
      step_ = next;
      return true;
    }
    // Sessions are live but none runs this iteration: every resident sat it
    // out (possible only transiently — e.g. a budget-starved prefill next to
    // retirements), injected allocation faults dropped every part, or a
    // swap-in failure requeued a session *after* this step's admission pass
    // emptied the backlog into running_. The iteration still counts; never
    // report drained while sessions are live.
    WatchdogSweep();
    ++step_;
    return true;
  }
  StepMetrics sm;
  const MatrixF out = Forward(batch, &sm);
  Retire(batch, out, &sm);
  return true;
}

void ServingEngine::Ingest() {
  for (Request& r : queue_.DrainArrived(step_)) {
    metrics_.OnArrival(r.id, step_, r.prompt_len, r.max_new_tokens);
    // Arm the liveness watchdog: the session's stall clock starts now (a
    // request parked in the ingress queue for a future arrival step is not
    // stalled, it just has not arrived yet).
    SessionState& session = sessions_.at(r.id);
    session.last_progress_mark = 0;
    session.last_progress_step = step_;
    scheduler_.Enqueue(std::move(r));
  }
}

void ServingEngine::ProbeShardFaults() {
  // Shard-level fault probes fire once per step, before any planning, so a
  // failover's compacted plan governs the whole iteration.
  injector_.BeginStep(step_);
  if (!injector_.enabled()) {
    return;
  }
  if (const FaultDecision d = injector_.Probe(FaultPoint::kShardDeath); d.fire) {
    FailShard(static_cast<int>(d.arg));
  }
  if (const FaultDecision d = injector_.Probe(FaultPoint::kShardStall); d.fire) {
    const auto pos =
        std::find(live_shards_.begin(), live_shards_.end(), static_cast<int>(d.arg));
    if (pos != live_shards_.end()) {
      stalled_shard_ = static_cast<int>(pos - live_shards_.begin());
    }
  }
  if (const FaultDecision d = injector_.Probe(FaultPoint::kLinkDegrade); d.fire) {
    // Persistent interconnect degradation: every link's bandwidth divides
    // by the rule's factor (the analytic all-to-all model slows down; the
    // functional outputs are untouched).
    const double factor = static_cast<double>(std::max<int64_t>(2, d.arg));
    for (DeviceSpec& dev : cluster_.devices) {
      dev.link_bandwidth_gbps /= factor;
    }
  }
}

ServingEngine::StepPlan ServingEngine::Plan() const {
  obs::ScopedSpan plan_span("engine", "plan", obs::TraceDetail::kStep);
  return PlanResidentRows();
}

void ServingEngine::Evict(StepPlan& plan) {
  // Victims are lowest-priority, then youngest — and may be a grower itself,
  // in which case it simply sits out this batch from the queue head. A lone
  // resident always fits (admission rejects lifetimes beyond the pool), so
  // this terminates with at least one survivor. Evicting re-plans: freed
  // budget can enlarge another resident's prefill chunk.
  const SchedulerConfig& cfg = config_.scheduler;
  if (cfg.max_pages <= 0 || (!cfg.preempt && prefix_cache_ == nullptr)) {
    return;
  }
  obs::ScopedSpan evict_span("engine", "evict", obs::TraceDetail::kStep);
  while (cache_.allocator().used_pages() + plan.growth_pages > cfg.max_pages) {
    // Dropping a cold prefix-cache entry is strictly cheaper than evicting
    // a live sequence, so the tree yields first.
    if (prefix_cache_ != nullptr && prefix_cache_->ReclaimOne(cache_.mutable_allocator())) {
      continue;
    }
    if (!cfg.preempt || running_.empty()) {
      break;
    }
    std::vector<VictimCandidate> candidates;
    candidates.reserve(running_.size());
    for (int64_t id : running_) {
      const Sequence& seq = sequences_.at(id);
      const Request& r = seq.request;
      const int64_t slack =
          r.deadline_steps > 0 ? r.arrival_step + r.deadline_steps - step_ : INT64_MAX;
      candidates.push_back(VictimCandidate{id, r.priority, seq.admit_seq, slack});
    }
    Preempt(candidates[Scheduler::PickVictim(candidates)].id);
    plan = PlanResidentRows();
  }
}

ServingEngine::PlannedRows ServingEngine::Admit(StepPlan plan) {
  // Admission runs under the iteration token budget and the KV page cap. The
  // committed rows are everything the residents planned; an admitted prompt
  // is charged its first chunk.
  const SchedulerConfig& cfg = config_.scheduler;
  int64_t committed_rows = 0;
  std::vector<int64_t> finished_at_admit;
  {
    obs::ScopedSpan admit_span("engine", "admit", obs::TraceDetail::kStep);
    for (int64_t rows : plan.rows) {
      committed_rows += rows;
    }
    AdmitProbe probe;
    if (prefix_cache_ != nullptr || swap_enabled_) {
      probe = [this](const Request& r) { return AdmitHintFor(r); };
    }
    // Decode-phase resident count at admission time, captured once so the
    // scheduler's decode-priority chunk sizing (through ResidentSnapshot)
    // and the engine's first-chunk charge below stay in lockstep — new
    // admissions this step must not perturb the cap mid-pass.
    const int64_t admit_decode_rows = DecodeResidentRows();
    AdmissionDecision decision =
        scheduler_.Admit(committed_rows, Resident(plan.growth_pages), probe);
    for (Rejection& rejection : decision.rejected) {
      Finalize(rejection.request.id, RequestStatus::kRejected, rejection.reason);
    }
    // Pass 1: create every admitted sequence and map its cached prefix. All
    // matched paths are pinned (CreateMapped references their pages) before
    // any swap-in below can trigger reclaim, so a path probed at admission
    // can never be evicted out from under its own mapping.
    const size_t first_new = running_.size();
    for (Request& r : decision.admitted) {
      const int64_t id = r.id;
      Sequence seq;
      seq.request = std::move(r);
      seq.admit_seq = admit_counter_++;
      auto [it, inserted] = sequences_.emplace(id, std::move(seq));
      assert(inserted);
      (void)inserted;
      running_.push_back(id);
      metrics_.OnAdmit(id, step_);
      Sequence& s = it->second;
      if (prefix_cache_ != nullptr && swapped_.count(id) == 0) {
        PrefixCache::Match match =
            prefix_cache_->Acquire(s.request.inputs, s.request.total_tokens());
        if (match.tokens > 0) {
          const bool mapped = cache_.CreateMapped(id, match.pages, match.tokens);
          assert(mapped);
          (void)mapped;
          s.consumed = match.tokens;
          s.out_rows = std::move(match.out_rows);
          metrics_.OnPrefixHit(id, step_, match.tokens);
        }
      }
    }
    // Pass 2: restore swapped-out victims and charge each admission's first
    // prefill chunk, in admission order. A fully cached prompt+decode
    // lifetime retires below — every client-visible row replays from the
    // cache without touching the batch.
    for (size_t i = first_new; i < running_.size(); ++i) {
      const int64_t id = running_[i];
      Sequence& seq = sequences_.at(id);
      if (const auto sw = swapped_.find(id); sw != swapped_.end()) {
        const int64_t tokens = sw->second.consumed;
        seq.out_rows = std::move(sw->second.out_rows);
        swapped_.erase(sw);
        if (!SwapIn(id, tokens)) {
          // The shadow is gone: the session preempts straight back to the
          // queue head for a full recompute (consumed == 0). Its produced
          // rows moved into the sequence first, so the delivered prefix
          // survives in the stash.
          Preempt(id);
          --i;  // running_ compacted over this slot; re-visit the index
          continue;
        }
        seq.consumed = tokens;
      }
      // First prefill chunk of the *remaining* prompt, sized exactly as the
      // scheduler charged it (the shared PrefillChunkRows and the engine's
      // AdmitHint keep the two row accountings in lockstep). A prompt fully
      // covered by the cache or swap shadow decodes its first row instead:
      // every (re)admission makes forward progress in its own iteration.
      const int64_t remaining =
          std::max<int64_t>(0, seq.request.prompt_len - seq.consumed);
      int64_t chunk = 0;
      if (remaining > 0) {
        chunk = PrefillChunkRows(remaining, cfg.token_budget - committed_rows, cfg,
                                 admit_decode_rows);
        assert(chunk == FirstChunkRows(remaining, cfg, admit_decode_rows));
      } else if (seq.consumed < seq.request.total_tokens()) {
        chunk = 1;
      }
      plan.rows.push_back(chunk);
      committed_rows += chunk;
      if (seq.consumed >= seq.request.prompt_len) {
        // The cache (or swap shadow) already covers row prompt_len - 1: the
        // session's first token is available at admission.
        metrics_.OnFirstOutput(id, step_);
      }
      if (seq.consumed == seq.request.total_tokens()) {
        finished_at_admit.push_back(id);
      }
    }
  }
  assert(committed_rows <= cfg.token_budget || cfg.chunk_tokens <= 0);

  // The positional plan is resolved into id-keyed pairs before anything below
  // can fire a session callback: a reentrant Cancel() erases running_ entries
  // and would desynchronize plan indices, but the pairs stay valid (cancelled
  // ids simply stop resolving).
  PlannedRows planned;
  planned.reserve(running_.size());
  for (size_t i = 0; i < running_.size(); ++i) {
    planned.emplace_back(running_[i], plan.rows[i]);
  }
  // Retire fully-cached admissions (their planned rows are 0); their terminal
  // deltas fire here, before the batch assembles.
  for (int64_t id : finished_at_admit) {
    if (sequences_.count(id) == 0) {
      continue;  // a reentrant Cancel from an earlier terminal delta won
    }
    RetireFinished(id);
  }
  return planned;
}

AssembledBatch ServingEngine::Assemble(const PlannedRows& planned) {
  // Every sequence's page table is extended to cover its new rows up front
  // (prefill chunks target KV pages directly) so the forward's parallel tasks
  // never mutate allocator state. A 0-row plan (budget-starved prefill) sits
  // out but stays resident.
  obs::ScopedSpan assemble_span("engine", "assemble", obs::TraceDetail::kStep);
  std::vector<BatchAssembler::Contribution> parts;
  for (const auto& [id, rows] : planned) {
    const auto seq_it = sequences_.find(id);
    if (seq_it == sequences_.end() || rows == 0) {
      continue;  // retired at admission, cancelled reentrantly, or sits out
    }
    Sequence& seq = seq_it->second;
    BatchAssembler::Contribution p;
    p.request_id = id;
    p.source = &seq.request.inputs;
    p.row_begin = seq.consumed;
    p.row_count = rows;
    p.is_prefill = seq.consumed < seq.request.prompt_len;
    parts.push_back(p);
  }

  // An injected allocation failure drops the part from this iteration's
  // batch (the sequence sits the step out) and charges one backoff retry;
  // past the retry limit the sequence is preempted for recompute instead
  // of stalling forever. Kept parts extend as before: cold prefix-cache
  // pages yield first, then the extend cannot fail — decode growth was
  // reserved by the preemption pass and admitted prompts were checked
  // against the page budget.
  std::vector<int64_t> alloc_exhausted;
  for (auto it = parts.begin(); it != parts.end();) {
    if (injector_.ShouldFail(FaultPoint::kKvAlloc)) {
      Sequence& seq = sequences_.at(it->request_id);
      ++seq.fault_retries;
      ChargeRetry(seq.fault_retries);
      if (seq.fault_retries > config_.fault_retry_limit) {
        alloc_exhausted.push_back(it->request_id);
      }
      it = parts.erase(it);
      continue;
    }
    ReclaimFor(cache_.allocator().PagesToPrepareWrite(it->request_id, it->row_count));
    const bool ok = cache_.Extend(it->request_id, it->row_count);
    assert(ok);
    (void)ok;
    sequences_.at(it->request_id).fault_retries = 0;
    ++it;
  }
  for (int64_t id : alloc_exhausted) {
    if (sequences_.count(id) != 0) {
      Preempt(id);
    }
  }
  return parts.empty() ? AssembledBatch{} : BatchAssembler::Assemble(parts, hidden_);
}

MatrixF ServingEngine::Forward(const AssembledBatch& batch, StepMetrics* sm) {
  const auto t0 = std::chrono::steady_clock::now();
  MatrixF out;
  {
    obs::ScopedSpan forward_span("engine", "forward", obs::TraceDetail::kStep,
                                 batch.total_rows());
    out = ForwardBatch(batch);
  }
  const double forward_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();

  sm->step = step_;
  sm->batch_rows = batch.total_rows();
  sm->running_sequences = static_cast<int64_t>(running_.size());
  sm->kv_used_pages = cache_.allocator().used_pages();
  sm->kv_frag_tokens = cache_.allocator().FragmentationWaste();
  // Measured forward time, minus the host time the analytic accounting
  // itself spent inside ForwardBatch — simulation bookkeeping must not
  // contaminate the throughput metrics.
  sm->wall_ms = std::max(0.0, forward_ms - acct_.account_ms);

  // KV-page traffic this iteration: attention gathers every sequence's
  // cached prefix rows through its page table and appends the new normed
  // rows, once per layer.
  const double layer_count = static_cast<double>(layers_.size());
  for (const BatchSlice& slice : batch.slices) {
    sm->kv_read_bytes +=
        static_cast<double>(slice.position_begin * hidden_) * sizeof(float) * layer_count;
    sm->kv_write_bytes +=
        static_cast<double>(slice.row_count * hidden_) * sizeof(float) * layer_count;
  }
  // Analytic step estimate: the per-shard MoE device times accumulated by
  // ForwardBatch, plus the step's KV-page traffic as a bandwidth-roofline
  // stream split data-parallel across shards, plus the interconnect
  // all-to-all. The slowest shard gates the iteration.
  sm->alltoall_dispatch_bytes = acct_.traffic.alltoall_dispatch_bytes;
  sm->alltoall_combine_bytes = acct_.traffic.alltoall_combine_bytes;
  sm->est_alltoall_ms = acct_.alltoall_ms;
  // A stalled shard (injected fault) runs this one step at half speed; the
  // slowest-shard gate below then charges the stall to the whole iteration.
  if (stalled_shard_ >= 0 && stalled_shard_ < static_cast<int>(acct_.shard_ms.size())) {
    acct_.shard_ms[static_cast<size_t>(stalled_shard_)] *= 2.0;
  }
  stalled_shard_ = -1;
  const double max_shard_ms = *std::max_element(acct_.shard_ms.begin(), acct_.shard_ms.end());
  const double shard_count = static_cast<double>(live_shards_.size());
  TrafficReport kv;
  kv.gmem_read_bytes = sm->kv_read_bytes / shard_count;
  kv.gmem_write_bytes = sm->kv_write_bytes / shard_count;
  kv.gmem_unique_bytes = (sm->kv_read_bytes + sm->kv_write_bytes) / shard_count;
  // Page-granular gathers stream whole pages — coalesced, bandwidth-bound;
  // give the stand-in kernel a launch shape wide enough to saturate.
  kv.thread_blocks = 1 + static_cast<int64_t>(kv.gmem_unique_bytes) / (128 << 10);
  kv.warps_per_block = 8;
  kv.efficiency = 0.8;
  const double kv_stream_ms =
      TimingModel(cluster_.device(live_shards_.front())).Estimate(kv).total_ms;
  sm->est_compute_ms = max_shard_ms + kv_stream_ms;
  // The metrics' per-shard token tracks keep physical device identity, so a
  // dead shard's track simply flatlines after its failover.
  physical_shard_tokens_.assign(static_cast<size_t>(cluster_.num_shards()), 0);
  for (size_t s = 0; s < acct_.shard_tokens.size(); ++s) {
    physical_shard_tokens_[static_cast<size_t>(live_shards_[s])] += acct_.shard_tokens[s];
  }
  metrics_.OnShardTokens(physical_shard_tokens_);
  return out;
}

void ServingEngine::Retire(const AssembledBatch& batch, const MatrixF& out, StepMetrics* sm) {
  obs::ScopedSpan retire_span("engine", "retire", obs::TraceDetail::kStep);
  for (const BatchSlice& slice : batch.slices) {
    // Re-resolved per slice rather than cached across the loop: an OnRows
    // callback fired below may reentrantly Cancel() *another* session whose
    // slice is still pending, erasing its Sequence — its rows from this
    // forward are simply dropped (the cancel wins).
    const auto seq_it = sequences_.find(slice.request_id);
    if (seq_it == sequences_.end()) {
      continue;
    }
    Sequence& seq = seq_it->second;
    (slice.is_prefill ? sm->prefill_rows : sm->decode_rows) += slice.row_count;
    for (int64_t r = 0; r < slice.row_count; ++r) {
      const auto row = out.row(slice.row_begin + r);
      seq.out_rows.insert(seq.out_rows.end(), row.begin(), row.end());
    }
    seq.consumed += slice.row_count;
    if (slice.is_prefill) {
      metrics_.OnPrefillSlice(slice.request_id);
      if (slice.position_begin != 0 || slice.position_end() != seq.request.prompt_len) {
        ++sm->prefill_chunk_slices;  // a partial prompt: chunked prefill in flight
      }
      if (seq.consumed >= seq.request.prompt_len) {
        // The chunk containing row prompt_len - 1 finalized: the session's
        // first token just streamed.
        metrics_.OnFirstOutput(slice.request_id, step_);
      }
    }
    if (seq.consumed == seq.request.total_tokens()) {
      RetireFinished(slice.request_id);
    } else {
      StreamToCallback(slice.request_id, /*finished=*/false);
    }
  }
  Record(sm);
}

void ServingEngine::Record(StepMetrics* sm) {
  // Counter tracks: one sample per step, after the batch's rows resolved
  // into prefill/decode and retirements freed their pages.
  obs::TraceCounter("engine", "batch_rows", obs::TraceDetail::kStep, sm->batch_rows);
  obs::TraceCounter("engine", "prefill_rows", obs::TraceDetail::kStep, sm->prefill_rows);
  obs::TraceCounter("engine", "decode_rows", obs::TraceDetail::kStep, sm->decode_rows);
  obs::TraceCounter("engine", "resident_sequences", obs::TraceDetail::kStep,
                    static_cast<int64_t>(running_.size()));
  obs::TraceCounter("engine", "backlog", obs::TraceDetail::kStep,
                    queue_.size() + scheduler_.pending());
  obs::TraceCounter("kv", "used_pages", obs::TraceDetail::kStep,
                    cache_.allocator().used_pages());
  if (prefix_cache_ != nullptr) {
    obs::TraceCounter("kv", "shared_pages", obs::TraceDetail::kStep,
                      cache_.allocator().shared_pages());
  }
  if (swap_enabled_) {
    obs::TraceCounter("kv", "host_pages", obs::TraceDetail::kStep, swap_tier_.used_pages());
  }
  // COW splits since the last recorded step: splits in a step that records
  // nothing (a sit-out) fold into this one.
  sm->cow_splits = cache_.cow_splits() - last_cow_splits_;
  last_cow_splits_ = cache_.cow_splits();
  sm->shared_pages = cache_.allocator().shared_pages();
  sm->host_pages = swap_tier_.used_pages();
  metrics_.OnStep(*sm);
  WatchdogSweep();
  ++step_;
}

int64_t ServingEngine::RunUntilDrained(int64_t max_steps) {
  int64_t iterations = 0;
  while (Step()) {
    ++iterations;
    if (max_steps > 0 && iterations >= max_steps) {
      break;
    }
  }
  return iterations;
}

ServingReport ServingEngine::Report() const {
  ServingReport rep =
      metrics_.Summarize(config_.scheduler.token_budget, config_.scheduler.max_pages);
  rep.provenance.shards = config_.shards;
  rep.provenance.placement = ShardPlacementName(config_.placement);
  rep.provenance.routing = RoutingAlgoName(config_.routing);
  rep.provenance.policy = SchedulerPolicyName(config_.scheduler.policy);
  rep.provenance.threads = config_.threads;
  rep.provenance.token_budget = config_.scheduler.token_budget;
  rep.provenance.chunk_tokens = config_.scheduler.chunk_tokens;
  rep.provenance.page_tokens = config_.scheduler.page_tokens;
  rep.provenance.max_pages = config_.scheduler.max_pages;
  rep.provenance.prefix_cache = prefix_cache_ != nullptr ? 1 : 0;
  rep.provenance.swap = swap_enabled_ ? 1 : 0;
  rep.provenance.host_pages = config_.host_pages;
  rep.provenance.kernel_backend = KernelBackendName(effective_backend_);
  rep.provenance.chunk_policy = ChunkPolicyName(config_.scheduler.chunk_policy);
  {
    const DeviceSpec& dev = DefaultDevice();  // the autotuner's model target
    rep.provenance.llc_bytes = dev.l2_bytes;
    rep.provenance.llc_bandwidth_gbps = TimingModel(dev).LlcBandwidthBytesPerS() / 1e9;
    rep.provenance.dram_bandwidth_gbps = dev.dram_bandwidth_gbps;
  }
  rep.injected_faults = injector_.total_fires();
  rep.fault_retries = fault_retries_total_;
  rep.fault_backoff_ms = fault_backoff_ms_total_;
  rep.swap_corruptions = swap_tier_.corruptions_detected();
  rep.shard_failovers = shard_failovers_;
  rep.watchdog_trips = watchdog_trips_;
  return rep;
}

RequestStatus ServingEngine::Status(int64_t id) const {
  if (auto it = results_.find(id); it != results_.end()) {
    return it->second.status;
  }
  if (sequences_.count(id) != 0) {
    return RequestStatus::kRunning;
  }
  return RequestStatus::kQueued;
}

const RequestResult* ServingEngine::Result(int64_t id) const {
  const auto it = results_.find(id);
  return it == results_.end() ? nullptr : &it->second;
}

}  // namespace serving
}  // namespace samoyeds
