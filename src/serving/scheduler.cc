#include "src/serving/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/obs/tracer.h"
#include "src/serving/kv_cache.h"

namespace samoyeds {
namespace serving {

const char* SchedulerPolicyName(SchedulerPolicy p) {
  switch (p) {
    case SchedulerPolicy::kFcfs:
      return "fcfs";
    case SchedulerPolicy::kSmallestFirst:
      return "smallest-first";
    case SchedulerPolicy::kTokenBudget:
      return "token-budget";
  }
  return "?";
}

bool ParseSchedulerPolicy(const char* text, SchedulerPolicy* out) {
  for (SchedulerPolicy p : {SchedulerPolicy::kFcfs, SchedulerPolicy::kSmallestFirst,
                            SchedulerPolicy::kTokenBudget}) {
    if (std::strcmp(text, SchedulerPolicyName(p)) == 0) {
      *out = p;
      return true;
    }
  }
  return false;
}

const char* ChunkPolicyName(ChunkPolicy p) {
  switch (p) {
    case ChunkPolicy::kFixed:
      return "fixed";
    case ChunkPolicy::kDecodePriority:
      return "decode-priority";
  }
  return "?";
}

bool ParseChunkPolicy(const char* text, ChunkPolicy* out) {
  if (std::strcmp(text, "fixed") == 0) {
    *out = ChunkPolicy::kFixed;
    return true;
  }
  if (std::strcmp(text, "decode-priority") == 0) {
    *out = ChunkPolicy::kDecodePriority;
    return true;
  }
  return false;
}

int64_t PageCapacity(const MoeModelConfig& model, MoeFramework framework,
                     const SamoyedsConfig& sparse_format, const DeviceSpec& device,
                     int64_t page_tokens) {
  assert(page_tokens >= 1);
  const MemoryFootprint fp = EstimateFootprint(model, framework, sparse_format, device);
  const double free_bytes = fp.capacity_bytes - fp.weight_bytes - fp.fixed_bytes;
  if (free_bytes <= 0.0 || fp.bytes_per_token <= 0.0) {
    return 0;
  }
  // Whole tokens first, then whole pages: a page is only usable if every
  // one of its slots fits.
  return static_cast<int64_t>(free_bytes / fp.bytes_per_token) / page_tokens;
}

namespace {

// Effective per-chunk row cap: fixed at chunk_tokens, or shrunk by the
// resident decode rows under decode-priority — never below 1, so prefill
// always makes progress even in a decode-saturated iteration.
int64_t ChunkCap(const SchedulerConfig& config, int64_t decode_rows) {
  if (config.chunk_policy == ChunkPolicy::kDecodePriority) {
    return std::max<int64_t>(1, config.chunk_tokens - decode_rows);
  }
  return config.chunk_tokens;
}

}  // namespace

int64_t PrefillChunkRows(int64_t remaining_prompt, int64_t budget_left,
                         const SchedulerConfig& config, int64_t decode_rows) {
  assert(remaining_prompt >= 0);
  if (config.chunk_tokens <= 0) {
    return remaining_prompt;  // legacy: the whole prompt in one iteration
  }
  return std::max<int64_t>(
      0, std::min({remaining_prompt, ChunkCap(config, decode_rows), budget_left}));
}

int64_t FirstChunkRows(int64_t prompt_len, const SchedulerConfig& config,
                       int64_t decode_rows) {
  if (config.chunk_tokens <= 0) {
    return prompt_len;
  }
  // Capped by the whole iteration budget so a chunk_tokens larger than the
  // budget still admits (into an empty iteration) instead of livelocking.
  return std::min({prompt_len, ChunkCap(config, decode_rows), config.token_budget});
}

// Backlog-depth samples fire on every transition (enqueue, requeue, the
// admission sweep) so the counter track shows queue pressure between the
// engine's per-step samples too.

void Scheduler::Enqueue(Request request) {
  pending_.push_back(std::move(request));
  obs::TraceCounter("scheduler", "backlog", obs::TraceDetail::kStep,
                    static_cast<int64_t>(pending_.size()));
}

void Scheduler::Requeue(Request request) {
  pending_.push_front(std::move(request));
  obs::TraceCounter("scheduler", "backlog", obs::TraceDetail::kStep,
                    static_cast<int64_t>(pending_.size()));
}

bool Scheduler::Cancel(int64_t id) {
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->id == id) {
      pending_.erase(it);
      return true;
    }
  }
  return false;
}

const char* Scheduler::RejectReason(const Request& r) const {
  // Two conditions, with distinct reasons so operators can tell a page-pool
  // problem from a batch-shape problem (with chunked prefill enabled a prompt
  // of any length is served chunk by chunk, so only the first can happen).
  // The page check runs first: a request that overflows both the page pool
  // and the token budget dies of the memory condition either way, and the
  // "enable chunked prefill" hint would be a lie — chunking cannot shrink the
  // KV footprint.
  if (config_.max_pages > 0 &&
      PagesForTokens(r.total_tokens(), config_.page_tokens) > config_.max_pages) {
    // Even alone on an empty pool the sequence could never hold its full
    // prompt+decode KV footprint, so with recompute-on-readmission preemption
    // it would thrash forever.
    return "KV page capacity: total tokens exceed the page budget";
  }
  if (config_.chunk_tokens <= 0 && r.prompt_len > config_.token_budget) {
    return "prompt exceeds the iteration token budget (enable chunked prefill to serve it)";
  }
  return nullptr;
}

AdmissionDecision Scheduler::Admit(int64_t committed_rows, const ResidentSnapshot& resident,
                                   const AdmitProbe& probe) {
  AdmissionDecision decision;

  // Infeasible requests are filtered first so they never block a queue scan.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (const char* reason = RejectReason(*it)) {
      decision.rejected.push_back(Rejection{std::move(*it), reason});
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }

  // Candidate scan order differs per policy; the fit test is shared.
  std::vector<size_t> order(pending_.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  if (config_.policy == SchedulerPolicy::kSmallestFirst) {
    std::stable_sort(order.begin(), order.end(), [this](size_t a, size_t b) {
      return pending_[a].total_tokens() < pending_[b].total_tokens();
    });
  }

  int64_t batch_rows = committed_rows;
  // Page accounting basis: with preemption the admitted rows only have to
  // fit next to what is in use right now (later growth evicts residents);
  // without it the whole lifetime must be coverable so the sequence can
  // never strand. Chunked prefill narrows the optimistic charge further —
  // only the first chunk's pages are claimed this iteration; later chunks
  // are iteration growth exactly like decode rows.
  int64_t pages = config_.preempt ? resident.used_pages : resident.reserved_pages;
  std::vector<bool> taken(pending_.size(), false);
  for (size_t idx : order) {
    const Request& r = pending_[idx];
    // Batch-row charge: the first prefill chunk of the rows the engine will
    // actually prefill (whole remaining prompt when chunking is off; the
    // engine's hint removes cached-prefix / swap-restorable tokens first).
    // Chunks are never trimmed below chunk_tokens at admission — a request
    // waits rather than start with a sliver.
    const AdmitHint hint = probe ? probe(r) : AdmitHint{};
    const int64_t remaining_prompt = std::max<int64_t>(0, r.prompt_len - hint.ready_tokens);
    // A session whose whole prompt is already ready (full prefix hit, or a
    // swap-in restored mid-decode) computes its first decode row in the
    // admission iteration, so that row is the charge. Without it the session
    // would contribute zero rows at admission — and a readmitted swap victim
    // could be re-evicted before ever decoding, making no progress.
    const int64_t need_rows =
        remaining_prompt > 0 ? FirstChunkRows(remaining_prompt, config_, resident.decode_rows)
                             : (hint.ready_tokens < r.total_tokens() ? 1 : 0);
    const int64_t optimistic_tokens =
        hint.ready_tokens +
        (config_.chunk_tokens > 0 || remaining_prompt == 0 ? need_rows : remaining_prompt);
    // Page charge nets out the shared pages already resident under the hinted
    // prefix — mapping them again must not be double-billed against the pool.
    const int64_t need_pages =
        config_.max_pages <= 0
            ? 0
            : std::max<int64_t>(
                  0, PagesForTokens(config_.preempt ? optimistic_tokens : r.total_tokens(),
                                    config_.page_tokens) -
                         hint.resident_pages);
    const bool fits = batch_rows + need_rows <= config_.token_budget &&
                      (config_.max_pages <= 0 || pages + need_pages <= config_.max_pages);
    if (!fits) {
      if (config_.policy == SchedulerPolicy::kFcfs) {
        break;  // strict head-of-line: nobody overtakes the blocked head
      }
      continue;  // smallest-first / token-budget: try the next candidate
    }
    batch_rows += need_rows;
    pages += need_pages;
    taken[idx] = true;
  }

  // Preserve arrival order within the admitted set.
  std::deque<Request> remaining;
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (taken[i]) {
      decision.admitted.push_back(std::move(pending_[i]));
    } else {
      remaining.push_back(std::move(pending_[i]));
    }
  }
  pending_ = std::move(remaining);
  obs::TraceCounter("scheduler", "backlog", obs::TraceDetail::kStep,
                    static_cast<int64_t>(pending_.size()));
  return decision;
}

size_t Scheduler::PickVictim(const std::vector<VictimCandidate>& residents) {
  assert(!residents.empty());
  size_t victim = 0;
  for (size_t i = 1; i < residents.size(); ++i) {
    const VictimCandidate& a = residents[i];
    const VictimCandidate& b = residents[victim];
    if (a.priority != b.priority     ? a.priority < b.priority
        : a.slack != b.slack         ? a.slack > b.slack
        : a.admit_seq != b.admit_seq ? a.admit_seq > b.admit_seq
                                     : a.id > b.id) {
      victim = i;
    }
  }
  return victim;
}

}  // namespace serving
}  // namespace samoyeds
