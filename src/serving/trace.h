// Request traces for the serving engine: file-based replay and synthetic
// generation (Poisson-ish arrivals, uniform prompt/decode lengths).
//
// Trace file format, one request per line, '#' comments:
//   <arrival_step> <prompt_len> <max_new_tokens> [priority [id]]
// The optional priority feeds the preemption policy (higher survives longer;
// omitted = 0). The optional id pins the request's session id (so a client
// can cancel or poll it by a stable name across trace edits); omitted ids
// are assigned sequentially, skipping pinned ones. Duplicate pinned ids are
// a parse error — the engine would refuse the second submission.

#ifndef SAMOYEDS_SRC_SERVING_TRACE_H_
#define SAMOYEDS_SRC_SERVING_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/serving/request.h"
#include "src/tensor/rng.h"

namespace samoyeds {
namespace serving {

struct TraceEntry {
  int64_t arrival_step = 0;
  int64_t prompt_len = 0;
  int64_t max_new_tokens = 0;
  int priority = 0;
  int64_t id = -1;  // pinned session id; -1 = assign sequentially
};

// Parses a trace file; on failure returns an empty vector and sets *error.
// Tolerates CRLF line endings, arbitrary inter-field whitespace, blank
// lines and '#' comments; rejects malformed fields, wrong column counts,
// negative values and duplicate pinned ids, with a file:line error.
std::vector<TraceEntry> ParseTraceFile(const std::string& path, std::string* error);

// Session ids for a parsed trace, in entry order: pinned ids verbatim,
// unpinned entries numbered sequentially from 0 skipping every pinned id.
std::vector<int64_t> AssignTraceIds(const std::vector<TraceEntry>& entries);

// `arrivals_per_step` > 0 spaces requests with geometric inter-arrival gaps
// of mean 1/arrivals_per_step (arrival steps saturate at half the int64
// range, so any positive rate yields non-decreasing arrivals); lengths are
// uniform in the given ranges.
std::vector<TraceEntry> SyntheticTrace(Rng& rng, int count, double arrivals_per_step,
                                       int64_t prompt_lo, int64_t prompt_hi, int64_t decode_lo,
                                       int64_t decode_hi);

// Materializes a request: bf16-rounded Gaussian input rows for the whole
// prompt + decode horizon (the teacher-forced synthetic workload).
Request MakeRequest(Rng& rng, int64_t id, const TraceEntry& entry, int64_t hidden);

}  // namespace serving
}  // namespace samoyeds

#endif  // SAMOYEDS_SRC_SERVING_TRACE_H_
