#include "src/serving/trace.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "src/tensor/bf16.h"

namespace samoyeds {
namespace serving {

std::vector<TraceEntry> ParseTraceFile(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open trace file: " + path;
    return {};
  }
  std::vector<TraceEntry> entries;
  std::set<int64_t> pinned_ids;
  std::string line;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;  // blank / comment-only line
    }
    std::istringstream fields(line);
    TraceEntry e;
    std::string trailing;
    bool ok = static_cast<bool>(fields >> e.arrival_step >> e.prompt_len >> e.max_new_tokens);
    if (ok && !(fields >> e.priority)) {
      fields.clear();  // fourth column (priority) is optional
    } else if (ok && !(fields >> e.id)) {
      fields.clear();  // fifth column (pinned id) is optional too
    }
    if (!ok || (fields >> trailing) || e.arrival_step < 0 || e.prompt_len < 1 ||
        e.max_new_tokens < 0 || (e.id < 0 && e.id != -1)) {
      *error = path + ":" + std::to_string(line_no) +
               ": expected '<arrival_step> <prompt_len> <max_new_tokens> [priority [id]]'";
      return {};
    }
    if (e.id >= 0 && !pinned_ids.insert(e.id).second) {
      *error = path + ":" + std::to_string(line_no) + ": duplicate request id " +
               std::to_string(e.id);
      return {};
    }
    entries.push_back(e);
  }
  if (entries.empty()) {
    *error = "trace file has no requests: " + path;
  }
  return entries;
}

std::vector<int64_t> AssignTraceIds(const std::vector<TraceEntry>& entries) {
  std::set<int64_t> pinned;
  for (const TraceEntry& e : entries) {
    if (e.id >= 0) {
      pinned.insert(e.id);
    }
  }
  std::vector<int64_t> ids;
  ids.reserve(entries.size());
  int64_t next = 0;
  for (const TraceEntry& e : entries) {
    if (e.id >= 0) {
      ids.push_back(e.id);
      continue;
    }
    while (pinned.count(next) != 0) {
      ++next;
    }
    ids.push_back(next++);
  }
  return ids;
}

std::vector<TraceEntry> SyntheticTrace(Rng& rng, int count, double arrivals_per_step,
                                       int64_t prompt_lo, int64_t prompt_hi, int64_t decode_lo,
                                       int64_t decode_hi) {
  assert(prompt_lo >= 1 && prompt_hi >= prompt_lo);
  assert(decode_lo >= 0 && decode_hi >= decode_lo);
  std::vector<TraceEntry> entries;
  entries.reserve(static_cast<size_t>(count));
  // Arrivals saturate here instead of overflowing when a tiny rate draws a
  // gap beyond int64 range; half the range leaves the engine's step
  // arithmetic past the last arrival room to run.
  constexpr int64_t kMaxArrivalStep = std::numeric_limits<int64_t>::max() / 2;
  int64_t step = 0;
  for (int i = 0; i < count; ++i) {
    TraceEntry e;
    e.arrival_step = step;
    e.prompt_len = prompt_lo + rng.NextIndex(prompt_hi - prompt_lo + 1);
    e.max_new_tokens = decode_lo + rng.NextIndex(decode_hi - decode_lo + 1);
    entries.push_back(e);
    if (arrivals_per_step > 0.0) {
      // Geometric inter-arrival with mean 1/rate (discrete Poisson process).
      const double u = std::max(rng.NextDouble(), 1e-12);
      const double gap = std::floor(-std::log(u) / arrivals_per_step);
      step = gap < static_cast<double>(kMaxArrivalStep - step)
                 ? step + static_cast<int64_t>(gap)
                 : kMaxArrivalStep;
    }
  }
  return entries;
}

Request MakeRequest(Rng& rng, int64_t id, const TraceEntry& entry, int64_t hidden) {
  Request r;
  r.id = id;
  r.arrival_step = entry.arrival_step;
  r.prompt_len = entry.prompt_len;
  r.max_new_tokens = entry.max_new_tokens;
  r.priority = entry.priority;
  r.inputs = rng.GaussianMatrix(entry.prompt_len + entry.max_new_tokens, hidden, 0.5f);
  RoundMatrixToBf16(r.inputs);
  return r;
}

}  // namespace serving
}  // namespace samoyeds
