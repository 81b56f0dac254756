#include "src/serving/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstring>

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
  requests_.erase(id);
  ++rejected_;
  obs::TraceAsyncInstant("request", "reject", obs::TraceDetail::kRequest, id);
  obs::TraceAsyncEnd("request", "session", obs::TraceDetail::kRequest, id);
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
  ++cancelled_;
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
  ++timed_out_;
  obs::TraceAsyncInstant("request", "timeout", obs::TraceDetail::kRequest, id, step);
  obs::TraceAsyncEnd("request", "session", obs::TraceDetail::kRequest, id, step);
}

void EngineMetrics::OnShed(int64_t id, int64_t step) {
  std::lock_guard<std::mutex> lock(mu_);
  ++shed_;
  // A request shed at Submit never reached OnArrival; don't let the map
  // lookup create a ghost timeline entry for it.
  const auto it = requests_.find(id);
  if (it != requests_.end()) {
    it->second.cancel_step = step;
    obs::TraceAsyncInstant("request", "shed", obs::TraceDetail::kRequest, id, step);
    obs::TraceAsyncEnd("request", "session", obs::TraceDetail::kRequest, id, step);
  }
}

void EngineMetrics::OnPrefillSlice(int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  RequestMetrics& r = requests_[id];
  ++r.prefill_chunks;
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
  ++prefix_hit_requests_;
  prefix_hit_tokens_ += tokens;
  obs::TraceAsyncInstant("request", "prefix_hit", obs::TraceDetail::kRequest, id, tokens);
  (void)step;
}

void EngineMetrics::OnSwapOut(int64_t id, int64_t step, double bytes, double est_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  ++swap_outs_;
  swap_out_bytes_ += bytes;
  est_swap_ms_ += est_ms;
  obs::TraceAsyncInstant("request", "swap_out", obs::TraceDetail::kRequest, id, step);
}

void EngineMetrics::OnSwapIn(int64_t id, int64_t step, double bytes, double est_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  ++swap_ins_;
  swap_in_bytes_ += bytes;
  est_swap_ms_ += est_ms;
  obs::TraceAsyncInstant("request", "swap_in", obs::TraceDetail::kRequest, id, step);
}

void EngineMetrics::OnStep(const StepMetrics& step) {
  std::lock_guard<std::mutex> lock(mu_);
  steps_.push_back(step);
}

void EngineMetrics::OnRoutingPlan(const RoutingPlan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  if (static_cast<int>(expert_tokens_.size()) < plan.num_experts) {
    expert_tokens_.resize(static_cast<size_t>(plan.num_experts));
  }
  for (int e = 0; e < plan.num_experts; ++e) {
    expert_tokens_[static_cast<size_t>(e)] += plan.TokensForExpert(e);
  }
}

void EngineMetrics::OnShardTokens(const std::vector<int64_t>& shard_tokens) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shard_tokens_.size() < shard_tokens.size()) {
    shard_tokens_.resize(shard_tokens.size());
  }
  for (size_t s = 0; s < shard_tokens.size(); ++s) {
    shard_tokens_[s] += shard_tokens[s];
  }
}

void EngineMetrics::OnAutotune(double default_ms, double tuned_ms, bool cache_hit) {
  std::lock_guard<std::mutex> lock(mu_);
  ++autotune_lookups_;
  autotune_cache_hits_ += cache_hit ? 1 : 0;
  autotune_default_ms_ += default_ms;
  autotune_tuned_ms_ += tuned_ms;
}

ServingReport EngineMetrics::Summarize(int64_t token_budget, int64_t max_pages) const {
  std::lock_guard<std::mutex> lock(mu_);
  ServingReport rep;
  rep.requests_rejected = rejected_;
  rep.requests_cancelled = cancelled_;
  rep.requests_timed_out = timed_out_;
  rep.requests_shed = shed_;
  rep.autotune_lookups = autotune_lookups_;
  rep.autotune_cache_hits = autotune_cache_hits_;
  rep.autotune_default_ms = autotune_default_ms_;
  rep.autotune_tuned_ms = autotune_tuned_ms_;
  rep.autotune_speedup =
      autotune_tuned_ms_ > 0.0 ? autotune_default_ms_ / autotune_tuned_ms_ : 1.0;
  rep.steps = static_cast<int64_t>(steps_.size());
  rep.preemptions = static_cast<int64_t>(preemption_log_.size());
  rep.prefix_hit_requests = prefix_hit_requests_;
  rep.prefix_hit_tokens = prefix_hit_tokens_;
  rep.swap_outs = swap_outs_;
  rep.swap_ins = swap_ins_;
  rep.swap_out_bytes = swap_out_bytes_;
  rep.swap_in_bytes = swap_in_bytes_;
  rep.est_swap_ms = est_swap_ms_;
  rep.expert_tokens = expert_tokens_;
  rep.shard_tokens = shard_tokens_;

  rep.request_timelines.reserve(requests_.size());
  for (const auto& [id, r] : requests_) {
    rep.streamed_rows += r.streamed_rows;
    if (r.finish_step >= 0 && r.prefill_chunks > 1) {
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
  rep.expert_imbalance = imbalance(expert_tokens_);
  rep.shard_imbalance = imbalance(shard_tokens_);
  return rep;
}

namespace {

void AppendField(std::string& out, const char* key, double value, bool last = false) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "  \"%s\": %.6f%s\n", key, value, last ? "" : ",");
  out += buf;
}

void AppendField(std::string& out, const char* key, int64_t value, bool last = false) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "  \"%s\": %lld%s\n", key, static_cast<long long>(value),
                last ? "" : ",");
  out += buf;
}

void AppendField(std::string& out, const char* key, const std::vector<int64_t>& values,
                 bool last = false) {
  out += "  \"";
  out += key;
  out += "\": [";
  for (size_t i = 0; i < values.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%lld", i == 0 ? "" : ", ",
                  static_cast<long long>(values[i]));
    out += buf;
  }
  out += last ? "]\n" : "],\n";
}

void AppendJsonString(std::string& out, const std::string& s) {
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

void AppendConfigField(std::string& out, const char* key, const std::string& value,
                       bool last = false) {
  out += "    \"";
  out += key;
  out += "\": ";
  AppendJsonString(out, value);
  out += last ? "\n" : ",\n";
}

void AppendConfigField(std::string& out, const char* key, int64_t value, bool last = false) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "    \"%s\": %lld%s\n", key, static_cast<long long>(value),
                last ? "" : ",");
  out += buf;
}

void AppendConfigField(std::string& out, const char* key, double value, bool last = false) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "    \"%s\": %.6g%s\n", key, value, last ? "" : ",");
  out += buf;
}

}  // namespace

std::string ServingReport::ToJson() const {
  std::string out = "{\n";
  AppendField(out, "schema_version", provenance.schema_version);
  out += "  \"config\": {\n";
  AppendConfigField(out, "model", provenance.model);
  AppendConfigField(out, "trace", provenance.trace);
  AppendConfigField(out, "seed", provenance.seed);
  AppendConfigField(out, "shards", provenance.shards);
  AppendConfigField(out, "placement", provenance.placement);
  AppendConfigField(out, "routing", provenance.routing);
  AppendConfigField(out, "policy", provenance.policy);
  AppendConfigField(out, "threads", provenance.threads);
  AppendConfigField(out, "token_budget", provenance.token_budget);
  AppendConfigField(out, "chunk_tokens", provenance.chunk_tokens);
  AppendConfigField(out, "page_tokens", provenance.page_tokens);
  AppendConfigField(out, "max_pages", provenance.max_pages);
  AppendConfigField(out, "prefix_cache", provenance.prefix_cache);
  AppendConfigField(out, "swap", provenance.swap);
  AppendConfigField(out, "host_pages", provenance.host_pages);
  AppendConfigField(out, "kernel_backend", provenance.kernel_backend);
  AppendConfigField(out, "llc_bytes", provenance.llc_bytes);
  AppendConfigField(out, "llc_bandwidth_gbps", provenance.llc_bandwidth_gbps);
  AppendConfigField(out, "dram_bandwidth_gbps", provenance.dram_bandwidth_gbps);
  AppendConfigField(out, "chunk_policy", provenance.chunk_policy, /*last=*/true);
  out += "  },\n";
  AppendField(out, "requests_finished", requests_finished);
  AppendField(out, "requests_rejected", requests_rejected);
  AppendField(out, "requests_cancelled", requests_cancelled);
  AppendField(out, "requests_timed_out", requests_timed_out);
  AppendField(out, "requests_shed", requests_shed);
  AppendField(out, "steps", steps);
  AppendField(out, "prefill_rows", prefill_rows);
  AppendField(out, "decode_rows", decode_rows);
  AppendField(out, "prefill_chunk_slices", prefill_chunk_slices);
  AppendField(out, "chunked_prefill_requests", chunked_prefill_requests);
  AppendField(out, "streamed_rows", streamed_rows);
  AppendField(out, "wall_ms", wall_ms);
  AppendField(out, "mean_ttft_steps", mean_ttft_steps);
  AppendField(out, "p95_ttft_steps", p95_ttft_steps);
  AppendField(out, "mean_turnaround_steps", mean_turnaround_steps);
  AppendField(out, "p95_turnaround_steps", p95_turnaround_steps);
  AppendField(out, "mean_ttft_ms", mean_ttft_ms);
  AppendField(out, "p95_ttft_ms", p95_ttft_ms);
  AppendField(out, "mean_turnaround_ms", mean_turnaround_ms);
  AppendField(out, "p95_turnaround_ms", p95_turnaround_ms);
  AppendField(out, "mean_step_ms", mean_step_ms);
  AppendField(out, "tokens_per_second", tokens_per_second);
  AppendField(out, "mean_batch_rows", mean_batch_rows);
  AppendField(out, "mean_occupancy", mean_occupancy);
  AppendField(out, "peak_batch_rows", peak_batch_rows);
  AppendField(out, "peak_sequences", peak_sequences);
  AppendField(out, "preemptions", preemptions);
  AppendField(out, "peak_used_pages", peak_used_pages);
  AppendField(out, "mean_page_utilization", mean_page_utilization);
  AppendField(out, "mean_frag_tokens", mean_frag_tokens);
  AppendField(out, "prefix_hit_requests", prefix_hit_requests);
  AppendField(out, "prefix_hit_tokens", prefix_hit_tokens);
  AppendField(out, "prefix_hit_rate", prefix_hit_rate);
  AppendField(out, "cow_splits", cow_splits);
  AppendField(out, "peak_shared_pages", peak_shared_pages);
  AppendField(out, "swap_outs", swap_outs);
  AppendField(out, "swap_ins", swap_ins);
  AppendField(out, "swap_out_bytes", swap_out_bytes);
  AppendField(out, "swap_in_bytes", swap_in_bytes);
  AppendField(out, "est_swap_ms", est_swap_ms);
  AppendField(out, "peak_host_pages", peak_host_pages);
  AppendField(out, "expert_tokens", expert_tokens);
  AppendField(out, "expert_imbalance", expert_imbalance);
  AppendField(out, "shard_tokens", shard_tokens);
  AppendField(out, "shard_imbalance", shard_imbalance);
  AppendField(out, "est_compute_ms", est_compute_ms);
  AppendField(out, "est_alltoall_ms", est_alltoall_ms);
  AppendField(out, "est_alltoall_share", est_alltoall_share);
  AppendField(out, "alltoall_bytes", alltoall_bytes);
  AppendField(out, "kv_traffic_bytes", kv_traffic_bytes);
  AppendField(out, "injected_faults", injected_faults);
  AppendField(out, "fault_retries", fault_retries);
  AppendField(out, "fault_backoff_ms", fault_backoff_ms);
  AppendField(out, "swap_corruptions", swap_corruptions);
  AppendField(out, "shard_failovers", shard_failovers);
  AppendField(out, "watchdog_trips", watchdog_trips);
  AppendField(out, "autotune_lookups", autotune_lookups);
  AppendField(out, "autotune_cache_hits", autotune_cache_hits);
  AppendField(out, "autotune_default_ms", autotune_default_ms);
  AppendField(out, "autotune_tuned_ms", autotune_tuned_ms);
  AppendField(out, "autotune_speedup", autotune_speedup);
  out += "  \"request_timelines\": [";
  for (size_t i = 0; i < request_timelines.size(); ++i) {
    const RequestTimeline& tl = request_timelines[i];
    char buf[448];
    std::snprintf(buf, sizeof(buf),
                  "%s\n    {\"id\": %lld, \"prompt_len\": %lld, \"arrival_step\": %lld, "
                  "\"admit_step\": %lld, \"first_output_step\": %lld, \"finish_step\": %lld, "
                  "\"cancel_step\": %lld, \"timeout_step\": %lld, \"prefill_chunks\": %lld, "
                  "\"preemptions\": %lld, \"cached_prompt_tokens\": %lld, \"ttft_ms\": %.6f, "
                  "\"turnaround_ms\": %.6f}",
                  i == 0 ? "" : ",", static_cast<long long>(tl.id),
                  static_cast<long long>(tl.prompt_len),
                  static_cast<long long>(tl.arrival_step),
                  static_cast<long long>(tl.admit_step),
                  static_cast<long long>(tl.first_output_step),
                  static_cast<long long>(tl.finish_step),
                  static_cast<long long>(tl.cancel_step),
                  static_cast<long long>(tl.timeout_step),
                  static_cast<long long>(tl.prefill_chunks),
                  static_cast<long long>(tl.preemptions),
                  static_cast<long long>(tl.cached_prompt_tokens), tl.ttft_ms,
                  tl.turnaround_ms);
    out += buf;
  }
  out += request_timelines.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

void ServingReport::StripWallClock() {
  wall_ms = 0.0;
  mean_step_ms = 0.0;
  tokens_per_second = 0.0;
  mean_ttft_ms = 0.0;
  p95_ttft_ms = 0.0;
  mean_turnaround_ms = 0.0;
  p95_turnaround_ms = 0.0;
  for (RequestTimeline& tl : request_timelines) {
    tl.ttft_ms = 0.0;
    tl.turnaround_ms = 0.0;
  }
}

void EngineMetrics::Print(const ServingReport& rep, std::FILE* out) {
  std::fprintf(out, "requests: %lld finished, %lld rejected, %lld cancelled\n",
               static_cast<long long>(rep.requests_finished),
               static_cast<long long>(rep.requests_rejected),
               static_cast<long long>(rep.requests_cancelled));
  if (rep.requests_timed_out > 0 || rep.requests_shed > 0) {
    std::fprintf(out, "degraded: %lld timed out (deadline), %lld shed (overload)\n",
                 static_cast<long long>(rep.requests_timed_out),
                 static_cast<long long>(rep.requests_shed));
  }
  if (rep.injected_faults > 0 || rep.watchdog_trips > 0) {
    std::fprintf(out,
                 "faults: %lld injected, %lld retried (%.3f ms backoff), %lld corrupt "
                 "swap pages caught, %lld shard failovers, %lld watchdog trips\n",
                 static_cast<long long>(rep.injected_faults),
                 static_cast<long long>(rep.fault_retries), rep.fault_backoff_ms,
                 static_cast<long long>(rep.swap_corruptions),
                 static_cast<long long>(rep.shard_failovers),
                 static_cast<long long>(rep.watchdog_trips));
  }
  std::fprintf(out, "steps: %lld (%lld prefill rows, %lld decode rows)\n",
               static_cast<long long>(rep.steps), static_cast<long long>(rep.prefill_rows),
               static_cast<long long>(rep.decode_rows));
  if (rep.prefill_chunk_slices > 0 || rep.streamed_rows > 0) {
    std::fprintf(out,
                 "streaming: %lld rows delivered incrementally; chunked prefill: %lld partial "
                 "slices across %lld requests\n",
                 static_cast<long long>(rep.streamed_rows),
                 static_cast<long long>(rep.prefill_chunk_slices),
                 static_cast<long long>(rep.chunked_prefill_requests));
  }
  std::fprintf(out,
               "latency: TTFT %.1f steps (p95 %.1f) / %.2f ms (p95 %.2f), turnaround %.1f "
               "steps (p95 %.1f) / %.2f ms (p95 %.2f), %.3f ms per step\n",
               rep.mean_ttft_steps, rep.p95_ttft_steps, rep.mean_ttft_ms, rep.p95_ttft_ms,
               rep.mean_turnaround_steps, rep.p95_turnaround_steps, rep.mean_turnaround_ms,
               rep.p95_turnaround_ms, rep.mean_step_ms);
  std::fprintf(out, "throughput: %.1f tokens/s over %.2f ms of forward time\n",
               rep.tokens_per_second, rep.wall_ms);
  std::fprintf(out, "batch: mean %.1f rows (%.0f%% of budget), peak %lld rows, "
               "peak concurrency %lld sequences\n",
               rep.mean_batch_rows, 100.0 * rep.mean_occupancy,
               static_cast<long long>(rep.peak_batch_rows),
               static_cast<long long>(rep.peak_sequences));
  std::fprintf(out,
               "kv-cache: %lld preemptions, peak %lld pages, mean utilization %.0f%%, "
               "mean fragmentation waste %.1f token slots\n",
               static_cast<long long>(rep.preemptions),
               static_cast<long long>(rep.peak_used_pages), 100.0 * rep.mean_page_utilization,
               rep.mean_frag_tokens);
  if (rep.prefix_hit_requests > 0 || rep.cow_splits > 0) {
    std::fprintf(out,
                 "prefix-cache: %lld hit admissions, %lld cached prompt tokens "
                 "(hit rate %.0f%%), %lld cow splits, peak %lld shared pages\n",
                 static_cast<long long>(rep.prefix_hit_requests),
                 static_cast<long long>(rep.prefix_hit_tokens), 100.0 * rep.prefix_hit_rate,
                 static_cast<long long>(rep.cow_splits),
                 static_cast<long long>(rep.peak_shared_pages));
  }
  if (rep.swap_outs > 0) {
    std::fprintf(out,
                 "swap: %lld out / %lld in, %.2f MiB out / %.2f MiB in, est %.3f ms on the "
                 "host link, peak %lld host pages\n",
                 static_cast<long long>(rep.swap_outs), static_cast<long long>(rep.swap_ins),
                 rep.swap_out_bytes / (1024.0 * 1024.0), rep.swap_in_bytes / (1024.0 * 1024.0),
                 rep.est_swap_ms, static_cast<long long>(rep.peak_host_pages));
  }
  if (rep.autotune_lookups > 0) {
    std::fprintf(out,
                 "autotune: %lld lookups (%lld cache hits), simulated SSMM %.3f ms tuned vs "
                 "%.3f ms default (%.2fx)\n",
                 static_cast<long long>(rep.autotune_lookups),
                 static_cast<long long>(rep.autotune_cache_hits), rep.autotune_tuned_ms,
                 rep.autotune_default_ms, rep.autotune_speedup);
  }
  if (rep.est_compute_ms + rep.est_alltoall_ms > 0.0) {
    std::fprintf(out,
                 "analytic: est forward %.3f ms (compute %.3f + all-to-all %.3f, %.0f%% "
                 "all-to-all), kv-page traffic %.2f MiB, all-to-all volume %.2f MiB\n",
                 rep.est_compute_ms + rep.est_alltoall_ms, rep.est_compute_ms,
                 rep.est_alltoall_ms, 100.0 * rep.est_alltoall_share,
                 rep.kv_traffic_bytes / (1024.0 * 1024.0),
                 rep.alltoall_bytes / (1024.0 * 1024.0));
  }
  if (rep.shard_tokens.size() > 1) {
    std::fprintf(out, "shard load (tokens/shard, imbalance %.2fx):", rep.shard_imbalance);
    for (int64_t t : rep.shard_tokens) {
      std::fprintf(out, " %lld", static_cast<long long>(t));
    }
    std::fprintf(out, "\n");
  }
  std::fprintf(out, "expert load (tokens/expert, imbalance %.2fx):", rep.expert_imbalance);
  for (int64_t t : rep.expert_tokens) {
    std::fprintf(out, " %lld", static_cast<long long>(t));
  }
  std::fprintf(out, "\n");
}

}  // namespace serving
}  // namespace samoyeds
