// Iteration-level scheduler, admission control and preemption policy for the
// serving engine.
//
// Every engine iteration runs one forward over a batch that mixes decode
// rows (one per resident sequence) with the prompt rows of newly admitted
// requests — Orca-style continuous batching. The scheduler decides which
// queued requests join the batch this iteration, under these resources:
//
//   * token_budget — the maximum rows a single iteration may carry (the
//     compute-side batch cap; decode rows are committed first).
//   * max_pages — the memory-side cap: the KV page pool (see
//     src/serving/kv_cache.h), sized from the Table-3 memory model via
//     PageCapacity(); 0 leaves the pool unbounded. With preemption off a
//     request is admitted only if its full prompt+decode lifetime fits next
//     to the residents' reserved pages (conservative, never evicts); with
//     preemption on only the prompt pages must fit right now (optimistic,
//     vLLM-style), and the engine evicts the lowest-priority / youngest
//     resident when decode growth later runs out of pages.
//
// Requests that can never satisfy these caps are rejected outright — with a
// reason — rather than queued forever.

#ifndef SAMOYEDS_SRC_SERVING_SCHEDULER_H_
#define SAMOYEDS_SRC_SERVING_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/moe/memory_model.h"
#include "src/serving/request.h"

namespace samoyeds {
namespace serving {

enum class SchedulerPolicy {
  kFcfs,           // arrival order, strict head-of-line (no overtaking)
  kSmallestFirst,  // shortest total length first (minimizes mean wait)
  kTokenBudget,    // arrival order, but later requests may fill leftover budget
};

const char* SchedulerPolicyName(SchedulerPolicy p);
bool ParseSchedulerPolicy(const char* text, SchedulerPolicy* out);

// How prefill chunks are sized when chunked prefill is on.
enum class ChunkPolicy {
  // Every chunk is capped at chunk_tokens regardless of batch composition.
  kFixed,
  // Decode-priority: when decode-phase residents hold rows in the iteration,
  // the chunk cap shrinks to max(1, chunk_tokens - decode_rows) so prompt
  // work yields batch slots to latency-sensitive decode instead of competing
  // with it. With no decode rows resident this is exactly kFixed.
  kDecodePriority,
};

const char* ChunkPolicyName(ChunkPolicy p);
bool ParseChunkPolicy(const char* text, ChunkPolicy* out);

struct SchedulerConfig {
  SchedulerPolicy policy = SchedulerPolicy::kFcfs;
  // Max rows per iteration (prefill + decode). With chunked prefill off
  // (chunk_tokens == 0) prompts longer than this are rejected outright.
  int64_t token_budget = 256;
  // Sarathi-style chunked prefill: when > 0, a prompt is consumed across
  // iterations in chunks of at most `chunk_tokens` rows (each chunk further
  // capped by the iteration's leftover token budget), interleaved with the
  // resident decode rows — so prompts longer than the token budget are
  // served instead of rejected, and admission charges the first chunk
  // rather than the whole prompt. Chunking is lossless: causal prefix
  // caching makes the chunked outputs bit-identical to one-shot prefill.
  // 0 disables chunking (legacy whole-prompt prefill).
  int64_t chunk_tokens = 0;
  // Chunk sizing policy; only meaningful when chunk_tokens > 0.
  ChunkPolicy chunk_policy = ChunkPolicy::kFixed;
  // Paged KV-cache accounting. page_tokens is the page size in token slots;
  // max_pages > 0 bounds the page pool (0 = unbounded).
  int64_t page_tokens = 16;
  int64_t max_pages = 0;
  // Evict residents under page pressure instead of only refusing admission.
  // Requires max_pages > 0 to have any effect.
  bool preempt = false;
};

// Memory-model-driven admission cap: how many whole KV pages of
// `page_tokens` slots fit on `device` next to one decoder layer's weights
// under `framework` storage — the page budget admission packs against.
// Returns 0 when even the weights do not fit.
int64_t PageCapacity(const MoeModelConfig& model, MoeFramework framework,
                     const SamoyedsConfig& sparse_format, const DeviceSpec& device,
                     int64_t page_tokens);

// Rows the next prefill slice of a sequence with `remaining_prompt` rows
// still unconsumed takes under `config`, given `budget_left` uncommitted
// batch rows this iteration. Chunking off: the whole remaining prompt (the
// caller guaranteed it fits — admission rejected longer prompts). Chunking
// on: min(remaining, chunk cap, budget_left), which may be 0 — the
// sequence sits the iteration out. The chunk cap is chunk_tokens under
// kFixed, max(1, chunk_tokens - decode_rows) under kDecodePriority (where
// `decode_rows` is the iteration's count of decode-phase residents — the
// planner and admission must pass the same value so they can never disagree
// on row accounting). Shared by Scheduler::Admit and the engine's batch
// planner for exactly that lockstep.
int64_t PrefillChunkRows(int64_t remaining_prompt, int64_t budget_left,
                         const SchedulerConfig& config, int64_t decode_rows = 0);

// The batch rows admission charges a not-yet-started prompt: its first
// prefill chunk (the whole prompt with chunking off).
int64_t FirstChunkRows(int64_t prompt_len, const SchedulerConfig& config,
                       int64_t decode_rows = 0);

// Current engine occupancy, input to the admission decision.
struct ResidentSnapshot {
  // Pages in use right now, including the pages this iteration's decode rows
  // are about to claim (the optimistic / preemptive accounting basis).
  int64_t used_pages = 0;
  // Sum of full-lifetime page needs of residents (the conservative basis).
  int64_t reserved_pages = 0;
  // Decode-phase residents contributing one row each this iteration — the
  // decode-priority chunk policy's input. Held constant through an admission
  // pass (admitted prompts are prefill-phase, so they never change it).
  int64_t decode_rows = 0;
};

// Per-request admission discount supplied by the engine: tokens the request
// does not have to prefill (a prefix-cache hit, or a swapped-out victim's
// restorable progress) and the pages already resident that cover them (shared
// prefix pages admission must not double-charge; 0 for a swap-in, whose pages
// come out of the free pool). Admission subtracts both before the fit test.
struct AdmitHint {
  int64_t ready_tokens = 0;
  int64_t resident_pages = 0;
};
using AdmitProbe = std::function<AdmitHint(const Request&)>;

struct Rejection {
  Request request;
  const char* reason = nullptr;  // static string, why it can never fit
};

struct AdmissionDecision {
  std::vector<Request> admitted;   // join the batch this iteration
  std::vector<Rejection> rejected; // can never fit under the config
};

// One resident sequence as seen by the eviction policy.
struct VictimCandidate {
  int64_t id = 0;
  int priority = 0;       // Request::priority — higher survives longer
  int64_t admit_seq = 0;  // monotone admission counter — larger is younger
  // Steps until the request's deadline (arrival + deadline - now); INT64_MAX
  // for requests without a deadline. Within a priority class the most-slack
  // resident is evicted first: evicting a near-deadline session guarantees
  // the miss, while a slack-rich one can absorb the recompute.
  int64_t slack = INT64_MAX;
};

class Scheduler {
 public:
  explicit Scheduler(const SchedulerConfig& config) : config_(config) {}

  void Enqueue(Request request);
  // Puts a preempted request at the head of the queue so it is readmitted
  // (and recomputed from scratch) as soon as pages free up.
  void Requeue(Request request);

  // Removes the pending request with `id` (session cancellation while
  // awaiting admission). False when `id` is not pending.
  bool Cancel(int64_t id);

  // Decides admissions for the iteration whose resident sequences already
  // committed `committed_rows` batch rows (one decode row per decode-phase
  // resident plus the prefill chunks of residents still mid-prompt).
  // Admitted requests are removed from the pending list; infeasible ones are
  // returned as rejected. An admitted prompt is charged its *first chunk*
  // against the token budget (the whole prompt with chunking off). `probe`,
  // when set, is consulted per candidate for prefix-cache / swap-in
  // discounts (see AdmitHint).
  AdmissionDecision Admit(int64_t committed_rows, const ResidentSnapshot& resident,
                          const AdmitProbe& probe = nullptr);

  // Eviction policy: index of the resident to preempt — lowest priority
  // first, then the most deadline slack (largest slack), then the youngest
  // (largest admit_seq), then the largest id. Deterministic for a
  // deterministic candidate list; with no deadlines in play (all slack
  // defaulted) this is exactly the pre-deadline policy.
  static size_t PickVictim(const std::vector<VictimCandidate>& residents);

  int64_t pending() const { return static_cast<int64_t>(pending_.size()); }
  // The pending list itself — the engine's deadline sweep walks it to expire
  // requests that timed out while waiting for admission (including requeued
  // preemptees). Mutation stays behind Enqueue/Cancel/Admit.
  const std::deque<Request>& pending_requests() const { return pending_; }
  const SchedulerConfig& config() const { return config_; }

 private:
  // nullptr when feasible, else a static human-readable rejection reason.
  const char* RejectReason(const Request& r) const;

  SchedulerConfig config_;
  std::deque<Request> pending_;  // arrival order; requeued preemptees in front
};

}  // namespace serving
}  // namespace samoyeds

#endif  // SAMOYEDS_SRC_SERVING_SCHEDULER_H_
