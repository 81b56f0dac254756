#include "src/serving/metrics.h"

#include <algorithm>
#include <variant>

#include "src/obs/tracer.h"

namespace samoyeds {
namespace serving {

// Request-lifecycle hooks double as trace emitters: each session becomes an
// async span keyed by its id (its own Perfetto timeline row), with admission,
// first output, preemptions, and termination as instants on that row. Most
// instants carry the engine step as their argument (prefill_chunk carries the
// chunk ordinal, prefix_hit the cached token count), so a trace reconciles
// event-for-event with the RequestMetrics the same hooks record.

void EngineMetrics::OnArrival(int64_t id, int64_t step, int64_t prompt_len, int64_t new_tokens) {
  std::lock_guard<std::mutex> lock(mu_);
  RequestMetrics& r = requests_[id];
  r.prompt_len = prompt_len;
  r.new_tokens = new_tokens;
  r.arrival_step = step;
  r.arrival_ms = NowMs();
  obs::TraceAsyncBegin("request", "session", obs::TraceDetail::kRequest, id, step);
}

void EngineMetrics::OnAdmit(int64_t id, int64_t step) {
  std::lock_guard<std::mutex> lock(mu_);
  requests_[id].admit_step = step;
  obs::TraceAsyncInstant("request", "admit", obs::TraceDetail::kRequest, id, step);
}

void EngineMetrics::OnReject(int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  ++totals_.requests_rejected;
  // A request rejected at Submit (malformed shape) never reached OnArrival:
  // no session begin, so no reject instant or session end either.
  if (requests_.erase(id) > 0) {
    obs::TraceAsyncInstant("request", "reject", obs::TraceDetail::kRequest, id);
    obs::TraceAsyncEnd("request", "session", obs::TraceDetail::kRequest, id);
  }
}

void EngineMetrics::OnFirstOutput(int64_t id, int64_t step) {
  std::lock_guard<std::mutex> lock(mu_);
  RequestMetrics& r = requests_[id];
  if (r.first_output_step >= 0) {
    return;  // re-prefill after preemption: TTFT keeps the original emission
  }
  r.first_output_step = step;
  r.first_output_ms = NowMs();
  obs::TraceAsyncInstant("request", "first_output", obs::TraceDetail::kRequest, id, step);
}

void EngineMetrics::OnFinish(int64_t id, int64_t step) {
  std::lock_guard<std::mutex> lock(mu_);
  RequestMetrics& r = requests_[id];
  r.finish_step = step;
  r.finish_ms = NowMs();
  ttft_steps_hist_.Record(static_cast<double>(r.first_output_step - r.arrival_step + 1));
  turnaround_steps_hist_.Record(static_cast<double>(r.finish_step - r.arrival_step + 1));
  ttft_ms_hist_.Record(r.first_output_ms - r.arrival_ms);
  turnaround_ms_hist_.Record(r.finish_ms - r.arrival_ms);
  obs::TraceAsyncEnd("request", "session", obs::TraceDetail::kRequest, id, step);
}

void EngineMetrics::OnCancel(int64_t id, int64_t step) {
  std::lock_guard<std::mutex> lock(mu_);
  ++totals_.requests_cancelled;
  // A session cancelled before its arrival step never reached OnArrival:
  // no timeline entry, and no session end without a begin.
  const auto it = requests_.find(id);
  if (it != requests_.end()) {
    it->second.cancel_step = step;
    obs::TraceAsyncInstant("request", "cancel", obs::TraceDetail::kRequest, id, step);
    obs::TraceAsyncEnd("request", "session", obs::TraceDetail::kRequest, id, step);
  }
}

void EngineMetrics::OnTimeout(int64_t id, int64_t step) {
  std::lock_guard<std::mutex> lock(mu_);
  requests_[id].timeout_step = step;
  ++totals_.requests_timed_out;
  obs::TraceAsyncInstant("request", "timeout", obs::TraceDetail::kRequest, id, step);
  obs::TraceAsyncEnd("request", "session", obs::TraceDetail::kRequest, id, step);
}

void EngineMetrics::OnShed(int64_t id, int64_t step) {
  std::lock_guard<std::mutex> lock(mu_);
  ++totals_.requests_shed;
  // A request shed at Submit never reached OnArrival; don't let the map
  // lookup create a ghost timeline entry for it.
  const auto it = requests_.find(id);
  if (it != requests_.end()) {
    it->second.cancel_step = step;
    obs::TraceAsyncInstant("request", "shed", obs::TraceDetail::kRequest, id, step);
    obs::TraceAsyncEnd("request", "session", obs::TraceDetail::kRequest, id, step);
  }
}

void EngineMetrics::OnPrefillSlice(int64_t id, bool ends_before_prompt) {
  std::lock_guard<std::mutex> lock(mu_);
  RequestMetrics& r = requests_[id];
  ++r.prefill_chunks;
  r.chunked = r.chunked || ends_before_prompt;
  obs::TraceAsyncInstant("request", "prefill_chunk", obs::TraceDetail::kRequest, id,
                         r.prefill_chunks);
}

void EngineMetrics::OnRowsDelivered(int64_t id, int64_t rows) {
  std::lock_guard<std::mutex> lock(mu_);
  requests_[id].streamed_rows += rows;
}

void EngineMetrics::OnPreempt(int64_t id, int64_t step) {
  std::lock_guard<std::mutex> lock(mu_);
  ++requests_[id].preemptions;
  preemption_log_.emplace_back(id, step);
  obs::TraceAsyncInstant("request", "preempt", obs::TraceDetail::kRequest, id, step);
}

void EngineMetrics::OnPrefixHit(int64_t id, int64_t step, int64_t tokens) {
  std::lock_guard<std::mutex> lock(mu_);
  requests_[id].cached_prompt_tokens = tokens;  // latest admission overwrites
  ++totals_.prefix_hit_requests;
  totals_.prefix_hit_tokens += tokens;
  obs::TraceAsyncInstant("request", "prefix_hit", obs::TraceDetail::kRequest, id, tokens);
  (void)step;
}

void EngineMetrics::OnSwapOut(int64_t id, int64_t step, double bytes, double est_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  ++totals_.swap_outs;
  totals_.swap_out_bytes += bytes;
  totals_.est_swap_ms += est_ms;
  obs::TraceAsyncInstant("request", "swap_out", obs::TraceDetail::kRequest, id, step);
}

void EngineMetrics::OnSwapIn(int64_t id, int64_t step, double bytes, double est_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  ++totals_.swap_ins;
  totals_.swap_in_bytes += bytes;
  totals_.est_swap_ms += est_ms;
  obs::TraceAsyncInstant("request", "swap_in", obs::TraceDetail::kRequest, id, step);
}

void EngineMetrics::OnStep(const StepMetrics& step) {
  std::lock_guard<std::mutex> lock(mu_);
  steps_.push_back(step);
}

void EngineMetrics::OnRoutingPlan(const RoutingPlan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t>& tokens = totals_.expert_tokens;
  if (static_cast<int>(tokens.size()) < plan.num_experts) {
    tokens.resize(static_cast<size_t>(plan.num_experts));
  }
  for (int e = 0; e < plan.num_experts; ++e) {
    tokens[static_cast<size_t>(e)] += plan.TokensForExpert(e);
  }
}

void EngineMetrics::OnShardTokens(const std::vector<int64_t>& shard_tokens) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t>& totals = totals_.shard_tokens;
  if (totals.size() < shard_tokens.size()) {
    totals.resize(shard_tokens.size());
  }
  for (size_t s = 0; s < shard_tokens.size(); ++s) {
    totals[s] += shard_tokens[s];
  }
}

void EngineMetrics::OnAutotune(double default_ms, double tuned_ms, bool cache_hit) {
  std::lock_guard<std::mutex> lock(mu_);
  ++totals_.autotune_lookups;
  totals_.autotune_cache_hits += cache_hit ? 1 : 0;
  totals_.autotune_default_ms += default_ms;
  totals_.autotune_tuned_ms += tuned_ms;
}

ServingReport EngineMetrics::Summarize(int64_t token_budget, int64_t max_pages) const {
  std::lock_guard<std::mutex> lock(mu_);
  ServingReport rep = totals_;
  rep.autotune_speedup =
      rep.autotune_tuned_ms > 0.0 ? rep.autotune_default_ms / rep.autotune_tuned_ms : 1.0;
  rep.steps = static_cast<int64_t>(steps_.size());
  rep.preemptions = static_cast<int64_t>(preemption_log_.size());

  rep.request_timelines.reserve(requests_.size());
  for (const auto& [id, r] : requests_) {
    rep.streamed_rows += r.streamed_rows;
    if (r.finish_step >= 0 && r.chunked) {
      ++rep.chunked_prefill_requests;
    }
    // Per-request timeline summary — the report-side mirror of the trace's
    // async "request" track (map iteration keeps ids ascending).
    RequestTimeline tl;
    tl.id = id;
    tl.prompt_len = r.prompt_len;
    tl.arrival_step = r.arrival_step;
    tl.admit_step = r.admit_step;
    tl.first_output_step = r.first_output_step;
    tl.finish_step = r.finish_step;
    tl.cancel_step = r.cancel_step;
    tl.timeout_step = r.timeout_step;
    tl.prefill_chunks = r.prefill_chunks;
    tl.preemptions = r.preemptions;
    tl.cached_prompt_tokens = r.cached_prompt_tokens;
    if (r.first_output_step >= 0) {
      tl.ttft_ms = r.first_output_ms - r.arrival_ms;
    }
    if (r.finish_step >= 0) {
      tl.turnaround_ms = r.finish_ms - r.arrival_ms;
    }
    rep.request_timelines.push_back(tl);
    if (r.finish_step < 0) {
      continue;  // still in flight, cancelled, or never admitted
    }
    ++rep.requests_finished;
  }
  // Latency stats come from the histograms OnFinish fed — the step-count
  // pairs live entirely in the exact linear region, so means and
  // nearest-rank percentiles match the old sort-the-samples path digit for
  // digit, while the ms pairs give wall-clock p95s no sample vector kept.
  if (rep.requests_finished > 0) {
    rep.mean_ttft_steps = ttft_steps_hist_.mean();
    rep.p95_ttft_steps = ttft_steps_hist_.Percentile(0.95);
    rep.mean_turnaround_steps = turnaround_steps_hist_.mean();
    rep.p95_turnaround_steps = turnaround_steps_hist_.Percentile(0.95);
    rep.mean_ttft_ms = ttft_ms_hist_.mean();
    rep.p95_ttft_ms = ttft_ms_hist_.Percentile(0.95);
    rep.mean_turnaround_ms = turnaround_ms_hist_.mean();
    rep.p95_turnaround_ms = turnaround_ms_hist_.Percentile(0.95);
  }

  int64_t rows = 0;
  int64_t frag_tokens = 0;
  int64_t used_pages = 0;
  for (const auto& s : steps_) {
    rep.prefill_rows += s.prefill_rows;
    rep.decode_rows += s.decode_rows;
    rep.prefill_chunk_slices += s.prefill_chunk_slices;
    rows += s.batch_rows;
    rep.peak_batch_rows = std::max(rep.peak_batch_rows, s.batch_rows);
    rep.peak_sequences = std::max(rep.peak_sequences, s.running_sequences);
    rep.peak_used_pages = std::max(rep.peak_used_pages, s.kv_used_pages);
    rep.peak_shared_pages = std::max(rep.peak_shared_pages, s.shared_pages);
    rep.peak_host_pages = std::max(rep.peak_host_pages, s.host_pages);
    rep.cow_splits += s.cow_splits;
    used_pages += s.kv_used_pages;
    frag_tokens += s.kv_frag_tokens;
    rep.wall_ms += s.wall_ms;
    rep.est_compute_ms += s.est_compute_ms;
    rep.est_alltoall_ms += s.est_alltoall_ms;
    rep.alltoall_bytes += s.alltoall_dispatch_bytes + s.alltoall_combine_bytes;
    rep.kv_traffic_bytes += s.kv_read_bytes + s.kv_write_bytes;
  }
  if (rep.est_compute_ms + rep.est_alltoall_ms > 0.0) {
    rep.est_alltoall_share = rep.est_alltoall_ms / (rep.est_compute_ms + rep.est_alltoall_ms);
  }
  if (rep.prefix_hit_tokens + rep.prefill_rows > 0) {
    rep.prefix_hit_rate = static_cast<double>(rep.prefix_hit_tokens) /
                          static_cast<double>(rep.prefix_hit_tokens + rep.prefill_rows);
  }
  if (rep.steps > 0) {
    rep.mean_step_ms = rep.wall_ms / static_cast<double>(rep.steps);
    rep.mean_batch_rows = static_cast<double>(rows) / static_cast<double>(rep.steps);
    rep.mean_frag_tokens = static_cast<double>(frag_tokens) / static_cast<double>(rep.steps);
    if (token_budget > 0) {
      rep.mean_occupancy = rep.mean_batch_rows / static_cast<double>(token_budget);
    }
    if (max_pages > 0) {
      rep.mean_page_utilization = static_cast<double>(used_pages) /
                                  static_cast<double>(rep.steps) /
                                  static_cast<double>(max_pages);
    }
  }
  if (rep.wall_ms > 0.0) {
    rep.tokens_per_second = static_cast<double>(rows) / (rep.wall_ms * 1e-3);
  }

  const auto imbalance = [](const std::vector<int64_t>& tokens) {
    int64_t sum = 0;
    int64_t max = 0;
    for (int64_t t : tokens) {
      sum += t;
      max = std::max(max, t);
    }
    if (sum <= 0 || tokens.empty()) {
      return 0.0;
    }
    return static_cast<double>(max) /
           (static_cast<double>(sum) / static_cast<double>(tokens.size()));
  };
  rep.expert_imbalance = imbalance(rep.expert_tokens);
  rep.shard_imbalance = imbalance(rep.shard_tokens);
  return rep;
}

namespace {

// The clock a serialized value is read from. Measured fields are wall-clock
// times of this run; deterministic ones are a function of the trace, seed,
// config and fault schedule alone. StripWallClock zeroes the measured ones.
enum class FieldClock { kDeterministic, kMeasured };
constexpr FieldClock kMeasured = FieldClock::kMeasured;

// One serialized field of `S`: its JSON key, the member it reads, its clock.
template <typename S>
struct Field {
  const char* key;
  std::variant<int64_t S::*, double S::*, std::vector<int64_t> S::*, std::string S::*> member;
  FieldClock clock = FieldClock::kDeterministic;
};

// The report schema: one table per struct, in emission order. ToJson emits
// "schema_version", then this table as the "config" object.
const Field<ReportProvenance> kProvenanceFields[] = {
    {"command", &ReportProvenance::command},
    {"model", &ReportProvenance::model},
    {"trace", &ReportProvenance::trace},
    {"seed", &ReportProvenance::seed},
    {"shards", &ReportProvenance::shards},
    {"placement", &ReportProvenance::placement},
    {"policy", &ReportProvenance::policy},
    {"threads", &ReportProvenance::threads},
    {"token_budget", &ReportProvenance::token_budget},
    {"chunk_tokens", &ReportProvenance::chunk_tokens},
    {"page_tokens", &ReportProvenance::page_tokens},
    {"max_pages", &ReportProvenance::max_pages},
    {"prefix_cache", &ReportProvenance::prefix_cache},
    {"swap", &ReportProvenance::swap},
    {"host_pages", &ReportProvenance::host_pages},
    {"kernel_backend", &ReportProvenance::kernel_backend},
    {"llc_bytes", &ReportProvenance::llc_bytes},
    {"llc_bandwidth_gbps", &ReportProvenance::llc_bandwidth_gbps},
    {"dram_bandwidth_gbps", &ReportProvenance::dram_bandwidth_gbps},
    {"chunk_policy", &ReportProvenance::chunk_policy},
};

// The top-level report keys after "config"; "request_timelines" follows.
const Field<ServingReport> kReportFields[] = {
    {"requests_finished", &ServingReport::requests_finished},
    {"requests_rejected", &ServingReport::requests_rejected},
    {"requests_cancelled", &ServingReport::requests_cancelled},
    {"requests_timed_out", &ServingReport::requests_timed_out},
    {"requests_shed", &ServingReport::requests_shed},
    {"steps", &ServingReport::steps},
    {"prefill_rows", &ServingReport::prefill_rows},
    {"decode_rows", &ServingReport::decode_rows},
    {"prefill_chunk_slices", &ServingReport::prefill_chunk_slices},
    {"chunked_prefill_requests", &ServingReport::chunked_prefill_requests},
    {"streamed_rows", &ServingReport::streamed_rows},
    {"wall_ms", &ServingReport::wall_ms, kMeasured},
    {"mean_ttft_steps", &ServingReport::mean_ttft_steps},
    {"p95_ttft_steps", &ServingReport::p95_ttft_steps},
    {"mean_turnaround_steps", &ServingReport::mean_turnaround_steps},
    {"p95_turnaround_steps", &ServingReport::p95_turnaround_steps},
    {"mean_ttft_ms", &ServingReport::mean_ttft_ms, kMeasured},
    {"p95_ttft_ms", &ServingReport::p95_ttft_ms, kMeasured},
    {"mean_turnaround_ms", &ServingReport::mean_turnaround_ms, kMeasured},
    {"p95_turnaround_ms", &ServingReport::p95_turnaround_ms, kMeasured},
    {"mean_step_ms", &ServingReport::mean_step_ms, kMeasured},
    {"tokens_per_second", &ServingReport::tokens_per_second, kMeasured},
    {"mean_batch_rows", &ServingReport::mean_batch_rows},
    {"mean_occupancy", &ServingReport::mean_occupancy},
    {"peak_batch_rows", &ServingReport::peak_batch_rows},
    {"peak_sequences", &ServingReport::peak_sequences},
    {"preemptions", &ServingReport::preemptions},
    {"peak_used_pages", &ServingReport::peak_used_pages},
    {"mean_page_utilization", &ServingReport::mean_page_utilization},
    {"mean_frag_tokens", &ServingReport::mean_frag_tokens},
    {"prefix_hit_requests", &ServingReport::prefix_hit_requests},
    {"prefix_hit_tokens", &ServingReport::prefix_hit_tokens},
    {"prefix_hit_rate", &ServingReport::prefix_hit_rate},
    {"cow_splits", &ServingReport::cow_splits},
    {"peak_shared_pages", &ServingReport::peak_shared_pages},
    {"swap_outs", &ServingReport::swap_outs},
    {"swap_ins", &ServingReport::swap_ins},
    {"swap_out_bytes", &ServingReport::swap_out_bytes},
    {"swap_in_bytes", &ServingReport::swap_in_bytes},
    {"est_swap_ms", &ServingReport::est_swap_ms},
    {"peak_host_pages", &ServingReport::peak_host_pages},
    {"expert_tokens", &ServingReport::expert_tokens},
    {"expert_imbalance", &ServingReport::expert_imbalance},
    {"shard_tokens", &ServingReport::shard_tokens},
    {"shard_imbalance", &ServingReport::shard_imbalance},
    {"est_compute_ms", &ServingReport::est_compute_ms},
    {"est_alltoall_ms", &ServingReport::est_alltoall_ms},
    {"est_alltoall_share", &ServingReport::est_alltoall_share},
    {"alltoall_bytes", &ServingReport::alltoall_bytes},
    {"kv_traffic_bytes", &ServingReport::kv_traffic_bytes},
    {"injected_faults", &ServingReport::injected_faults},
    {"fault_retries", &ServingReport::fault_retries},
    {"fault_backoff_ms", &ServingReport::fault_backoff_ms},
    {"swap_corruptions", &ServingReport::swap_corruptions},
    {"shard_failovers", &ServingReport::shard_failovers},
    {"watchdog_trips", &ServingReport::watchdog_trips},
    {"autotune_lookups", &ServingReport::autotune_lookups},
    {"autotune_cache_hits", &ServingReport::autotune_cache_hits},
    {"autotune_default_ms", &ServingReport::autotune_default_ms},
    {"autotune_tuned_ms", &ServingReport::autotune_tuned_ms},
    {"autotune_speedup", &ServingReport::autotune_speedup},
};

// One inline object per "request_timelines" entry.
const Field<RequestTimeline> kTimelineFields[] = {
    {"id", &RequestTimeline::id},
    {"prompt_len", &RequestTimeline::prompt_len},
    {"arrival_step", &RequestTimeline::arrival_step},
    {"admit_step", &RequestTimeline::admit_step},
    {"first_output_step", &RequestTimeline::first_output_step},
    {"finish_step", &RequestTimeline::finish_step},
    {"cancel_step", &RequestTimeline::cancel_step},
    {"timeout_step", &RequestTimeline::timeout_step},
    {"prefill_chunks", &RequestTimeline::prefill_chunks},
    {"preemptions", &RequestTimeline::preemptions},
    {"cached_prompt_tokens", &RequestTimeline::cached_prompt_tokens},
    {"ttft_ms", &RequestTimeline::ttft_ms, kMeasured},
    {"turnaround_ms", &RequestTimeline::turnaround_ms, kMeasured},
};

void EmitValue(std::string& out, int64_t value, const char* /*double_fmt*/) {
  out += std::to_string(value);
}

void EmitValue(std::string& out, double value, const char* double_fmt) {
  char buf[320];  // fits %.6f of any finite double
  std::snprintf(buf, sizeof(buf), double_fmt, value);
  out += buf;
}

void EmitValue(std::string& out, const std::vector<int64_t>& values, const char* /*double_fmt*/) {
  out += '[';
  for (size_t i = 0; i < values.size(); ++i) {
    out += i == 0 ? "" : ", ";
    out += std::to_string(values[i]);
  }
  out += ']';
}

void EmitValue(std::string& out, const std::string& s, const char* /*double_fmt*/) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

// Appends `<quote>key<quote>: value` for every field of `s`, joined by
// `separator`: quoted keys for ToJson, bare ones for the printed summary.
template <typename S, size_t N>
void EmitFields(std::string& out, const S& s, const Field<S> (&fields)[N], const char* separator,
                const char* double_fmt, const char* quote = "\"") {
  for (size_t i = 0; i < N; ++i) {
    out += i == 0 ? "" : separator;
    out += quote;
    out += fields[i].key;
    out += quote;
    out += ": ";
    std::visit([&](auto member) { EmitValue(out, s.*member, double_fmt); }, fields[i].member);
  }
}

// Double formats per object, shared by ToJson and the printed summary.
constexpr const char* kConfigDoubleFmt = "%.6g";
constexpr const char* kReportDoubleFmt = "%.6f";

// One "key: value" line per field of `s`.
template <typename S, size_t N>
void PrintFields(std::FILE* out, const S& s, const Field<S> (&fields)[N], const char* double_fmt) {
  std::string text;
  EmitFields(text, s, fields, "\n", double_fmt, /*quote=*/"");
  text += '\n';
  std::fputs(text.c_str(), out);
}

template <typename S, size_t N>
void ZeroMeasured(S& s, const Field<S> (&fields)[N]) {
  for (const Field<S>& f : fields) {
    if (f.clock == kMeasured) {
      std::visit([&](auto member) { s.*member = {}; }, f.member);
    }
  }
}

}  // namespace

std::string ServingReport::ToJson() const {
  std::string out = "{\n  \"schema_version\": " + std::to_string(provenance.schema_version) +
                    ",\n  \"config\": {\n    ";
  EmitFields(out, provenance, kProvenanceFields, ",\n    ", kConfigDoubleFmt);
  out += "\n  },\n  ";
  EmitFields(out, *this, kReportFields, ",\n  ", kReportDoubleFmt);
  out += ",\n  \"request_timelines\": [";
  for (size_t i = 0; i < request_timelines.size(); ++i) {
    out += i == 0 ? "\n    {" : ",\n    {";
    EmitFields(out, request_timelines[i], kTimelineFields, ", ", kReportDoubleFmt);
    out += '}';
  }
  out += request_timelines.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

void ServingReport::StripWallClock() {
  ZeroMeasured(*this, kReportFields);
  for (RequestTimeline& tl : request_timelines) {
    ZeroMeasured(tl, kTimelineFields);
  }
}

void EngineMetrics::PrintConfig(const ReportProvenance& provenance, std::FILE* out) {
  PrintFields(out, provenance, kProvenanceFields, kConfigDoubleFmt);
}

void EngineMetrics::PrintResults(const ServingReport& report, std::FILE* out) {
  PrintFields(out, report, kReportFields, kReportDoubleFmt);
}

void EngineMetrics::Print(const ServingReport& report, std::FILE* out) {
  PrintConfig(report.provenance, out);
  PrintResults(report, out);
}

}  // namespace serving
}  // namespace samoyeds
