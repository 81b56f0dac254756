// ServingReport::ToJson: the machine-readable report artifact --report-json
// and the bench emitters build on. Pins down —
//
//   * well-formedness and key coverage (provenance header first, every
//     latency/throughput/expert field present) on a real engine run;
//   * numeric round-trip: values read back out of the JSON equal the struct
//     fields that went in;
//   * the empty-run edge: a freshly-constructed EngineMetrics summarizes and
//     serializes to valid JSON full of zeros, not NaNs ("nan" is not JSON);
//   * provenance strings are escaped, so a hostile trace path ("ba\"d.txt")
//     cannot corrupt the artifact;
//   * the printed summary (EngineMetrics::Print) is the same tables: one
//     "key: value" line per config and report key ToJson emits, in order;
//   * every cell of the committed BENCH_serving.json says which command,
//     model, trace and seed produced it.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "src/moe/decoder_layer.h"
#include "src/moe/model_configs.h"
#include "src/serving/engine.h"
#include "src/serving/metrics.h"
#include "src/serving/scheduler.h"
#include "src/serving/trace.h"
#include "src/tensor/rng.h"
#include "tests/test_util.h"

namespace samoyeds {
namespace serving {
namespace {

MoeModelConfig TinyConfig() {
  MoeModelConfig cfg;
  cfg.name = "tiny";
  cfg.num_experts = 4;
  cfg.hidden = 32;
  cfg.intermediate = 64;
  cfg.top_k = 2;
  cfg.shared_experts = 0;
  return cfg;
}

ServingReport RunTinyWorkload() {
  Rng rng(201);
  const MoeModelConfig cfg = TinyConfig();
  const SamoyedsConfig fmt{1, 2, 32};
  std::vector<SamoyedsDecoderLayerWeights> model{
      SamoyedsDecoderLayerWeights::Encode(DecoderLayerWeights::Random(rng, cfg), fmt)};
  EngineConfig engine_cfg;
  engine_cfg.heads = 4;
  engine_cfg.top_k = 2;
  engine_cfg.threads = 2;
  engine_cfg.scheduler.policy = SchedulerPolicy::kTokenBudget;
  engine_cfg.scheduler.token_budget = 16;
  ServingEngine engine(model, engine_cfg);
  for (int64_t i = 0; i < 3; ++i) {
    TraceEntry e{/*arrival_step=*/0, /*prompt_len=*/5, /*max_new_tokens=*/3};
    EXPECT_TRUE(engine.Submit(MakeRequest(rng, i, e, cfg.hidden)));
  }
  engine.RunUntilDrained(1000);
  return engine.Report();
}

TEST(ReportJsonTest, KeyCoverageOnARealRun) {
  const ServingReport rep = RunTinyWorkload();
  const std::string json = rep.ToJson();
  ASSERT_TRUE(JsonParses(json)) << json;

  // The provenance header leads the object so artifacts are self-describing
  // from the first lines.
  EXPECT_LT(json.find("\"schema_version\""), json.find("\"requests_finished\""));
  EXPECT_LT(json.find("\"config\""), json.find("\"requests_finished\""));

  for (const char* key :
       {"schema_version", "config", "placement", "policy", "token_budget",
        "requests_finished", "requests_rejected", "requests_cancelled", "steps",
        "prefill_rows", "decode_rows", "prefill_chunk_slices", "streamed_rows",
        "wall_ms", "mean_ttft_steps", "p95_ttft_steps", "mean_turnaround_steps",
        "p95_turnaround_steps", "mean_ttft_ms", "p95_ttft_ms", "mean_turnaround_ms",
        "p95_turnaround_ms", "mean_step_ms", "tokens_per_second", "mean_occupancy",
        "peak_sequences", "preemptions", "expert_tokens", "expert_imbalance",
        "shard_tokens", "est_compute_ms", "est_alltoall_ms", "request_timelines"}) {
    EXPECT_TRUE(HasJsonKey(json, key)) << "missing key: " << key;
  }
  // Schema version 2 dropped the overlapped-execution keys; version 3 dropped
  // the routing echo (top-k is the only router).
  for (const char* key : {"overlap", "est_overlap_saved_ms", "routing"}) {
    EXPECT_FALSE(HasJsonKey(json, key)) << "dropped key present: " << key;
  }

  // The whole schema, in emission order: the independent oracle for the
  // field tables in metrics.cc. Each object's keys appear exactly once, in
  // this order; timeline keys repeat once per request.
  const std::vector<std::string> header = {"schema_version", "config"};
  const std::vector<std::string> config = {
      "command", "model", "trace", "seed", "shards", "placement", "policy", "threads", "token_budget",
      "chunk_tokens", "page_tokens", "max_pages", "prefix_cache", "swap", "host_pages",
      "kernel_backend", "llc_bytes", "llc_bandwidth_gbps", "dram_bandwidth_gbps",
      "chunk_policy"};
  const std::vector<std::string> report = {
      "requests_finished", "requests_rejected", "requests_cancelled", "requests_timed_out",
      "requests_shed", "steps", "prefill_rows", "decode_rows", "prefill_chunk_slices",
      "chunked_prefill_requests", "streamed_rows", "wall_ms", "mean_ttft_steps",
      "p95_ttft_steps", "mean_turnaround_steps", "p95_turnaround_steps", "mean_ttft_ms",
      "p95_ttft_ms", "mean_turnaround_ms", "p95_turnaround_ms", "mean_step_ms",
      "tokens_per_second", "mean_batch_rows", "mean_occupancy", "peak_batch_rows",
      "peak_sequences", "preemptions", "peak_used_pages", "mean_page_utilization",
      "mean_frag_tokens", "prefix_hit_requests", "prefix_hit_tokens", "prefix_hit_rate",
      "cow_splits", "peak_shared_pages", "swap_outs", "swap_ins", "swap_out_bytes",
      "swap_in_bytes", "est_swap_ms", "peak_host_pages", "expert_tokens", "expert_imbalance",
      "shard_tokens", "shard_imbalance", "est_compute_ms", "est_alltoall_ms",
      "est_alltoall_share", "alltoall_bytes", "kv_traffic_bytes", "injected_faults",
      "fault_retries", "fault_backoff_ms", "swap_corruptions", "shard_failovers",
      "watchdog_trips", "autotune_lookups", "autotune_cache_hits", "autotune_default_ms",
      "autotune_tuned_ms", "autotune_speedup", "request_timelines"};
  const std::vector<std::string> timeline = {
      "id", "prompt_len", "arrival_step", "admit_step", "first_output_step", "finish_step",
      "cancel_step", "timeout_step", "prefill_chunks", "preemptions", "cached_prompt_tokens",
      "ttft_ms", "turnaround_ms"};
  EXPECT_EQ(config.size(), 20u);
  EXPECT_EQ(report.size(), 62u);  // 61 fields + "request_timelines"
  EXPECT_EQ(timeline.size(), 13u);
  std::vector<std::string> expected = header;
  expected.insert(expected.end(), config.begin(), config.end());
  expected.insert(expected.end(), report.begin(), report.end());
  for (size_t i = 0; i < rep.request_timelines.size(); ++i) {
    expected.insert(expected.end(), timeline.begin(), timeline.end());
  }
  const std::regex key_pattern("\"(\\w+)\":");
  std::vector<std::string> keys;
  for (auto it = std::sregex_iterator(json.begin(), json.end(), key_pattern);
       it != std::sregex_iterator(); ++it) {
    keys.push_back((*it)[1].str());
  }
  EXPECT_EQ(keys, expected);
}

TEST(ReportJsonTest, RequestTimelinesMirrorTheRun) {
  const ServingReport rep = RunTinyWorkload();
  ASSERT_EQ(rep.request_timelines.size(), 3u);
  int64_t prev_id = -1;
  for (const RequestTimeline& tl : rep.request_timelines) {
    EXPECT_GT(tl.id, prev_id);  // ascending id
    prev_id = tl.id;
    EXPECT_EQ(tl.prompt_len, 5);
    EXPECT_GE(tl.admit_step, tl.arrival_step);
    EXPECT_GE(tl.first_output_step, tl.admit_step);
    EXPECT_GE(tl.finish_step, tl.first_output_step);
    EXPECT_EQ(tl.cancel_step, -1);
    EXPECT_GT(tl.ttft_ms, 0.0);
    EXPECT_GE(tl.turnaround_ms, tl.ttft_ms);
  }
  const std::string json = rep.ToJson();
  ASSERT_TRUE(JsonParses(json)) << json;
  for (const char* key : {"arrival_step", "admit_step", "first_output_step",
                          "finish_step", "prefill_chunks", "turnaround_ms"}) {
    EXPECT_TRUE(HasJsonKey(json, key)) << "missing timeline key: " << key;
  }
}

TEST(ReportJsonTest, NumbersRoundTrip) {
  const ServingReport rep = RunTinyWorkload();
  const std::string json = rep.ToJson();
  ASSERT_TRUE(JsonParses(json));

  double v = 0.0;
  ASSERT_TRUE(FindJsonNumber(json, "requests_finished", &v));
  EXPECT_EQ(static_cast<int64_t>(v), rep.requests_finished);
  EXPECT_EQ(rep.requests_finished, 3);
  ASSERT_TRUE(FindJsonNumber(json, "steps", &v));
  EXPECT_EQ(static_cast<int64_t>(v), rep.steps);
  ASSERT_TRUE(FindJsonNumber(json, "schema_version", &v));
  EXPECT_EQ(static_cast<int64_t>(v), 4);
  EXPECT_EQ(rep.provenance.schema_version, 4);
  ASSERT_TRUE(FindJsonNumber(json, "token_budget", &v));
  EXPECT_EQ(static_cast<int64_t>(v), 16);
  // Doubles are printed with enough digits to survive a parse round-trip at
  // report precision.
  ASSERT_TRUE(FindJsonNumber(json, "mean_ttft_steps", &v));
  EXPECT_NEAR(v, rep.mean_ttft_steps, 1e-4);
  ASSERT_TRUE(FindJsonNumber(json, "p95_turnaround_ms", &v));
  EXPECT_NEAR(v, rep.p95_turnaround_ms, 1e-4);
  EXPECT_GT(rep.p95_turnaround_ms, 0.0);  // wall-clock p95s actually populate
  ASSERT_TRUE(FindJsonNumber(json, "tokens_per_second", &v));
  EXPECT_NEAR(v, rep.tokens_per_second, rep.tokens_per_second * 1e-5 + 1e-4);
}

TEST(ReportJsonTest, EmptyRunSerializesToZeros) {
  EngineMetrics metrics;
  const ServingReport rep = metrics.Summarize(/*token_budget=*/0);
  const std::string json = rep.ToJson();
  ASSERT_TRUE(JsonParses(json)) << json;  // rejects "nan" / "inf" spellings

  double v = 1.0;
  ASSERT_TRUE(FindJsonNumber(json, "requests_finished", &v));
  EXPECT_EQ(v, 0.0);
  ASSERT_TRUE(FindJsonNumber(json, "mean_ttft_steps", &v));
  EXPECT_EQ(v, 0.0);
  ASSERT_TRUE(FindJsonNumber(json, "p95_ttft_ms", &v));
  EXPECT_EQ(v, 0.0);
  ASSERT_TRUE(FindJsonNumber(json, "tokens_per_second", &v));
  EXPECT_EQ(v, 0.0);
  ASSERT_TRUE(FindJsonNumber(json, "mean_occupancy", &v));
  EXPECT_EQ(v, 0.0);
}

TEST(ReportJsonTest, ProvenanceStringsAreEscaped) {
  ServingReport rep;
  rep.provenance.model = "tiny \"quoted\" model";
  rep.provenance.trace = "path\\with\\backslashes\nand a newline";
  rep.provenance.placement = "round-robin";
  const std::string json = rep.ToJson();
  ASSERT_TRUE(JsonParses(json)) << json;
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\\u000a"), std::string::npos);  // control chars as \uXXXX
  EXPECT_EQ(json.find("backslashes\nand"), std::string::npos);  // never raw
}

// Print and ToJson walk the same field tables: every config and report key
// of the JSON (request_timelines aside) is one printed "key: value" line,
// with the JSON's value text, in the JSON's order, and nothing else prints.
TEST(ReportJsonTest, PrintedSummaryIsTheJsonFields) {
  ServingReport rep = RunTinyWorkload();
  rep.provenance.command = "serve tiny synthetic:3 --budget=16";
  rep.provenance.model = "tiny \"quoted\" model";
  const std::string json = rep.ToJson();

  std::vector<std::string> expected;
  std::istringstream json_lines(json.substr(0, json.find("\"request_timelines\"")));
  const std::regex field("^ *\"(\\w+)\": (.*)$");
  for (std::string line; std::getline(json_lines, line);) {
    std::smatch m;
    if (!std::regex_match(line, m, field) || m[1] == "schema_version" || m[1] == "config") {
      continue;
    }
    std::string value = m[2].str();
    if (!value.empty() && value.back() == ',') {
      value.pop_back();
    }
    expected.push_back(m[1].str() + ": " + value);
  }
  EXPECT_EQ(expected.size(), 20u + 61u);

  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  EngineMetrics::Print(rep, f);
  std::rewind(f);
  std::vector<std::string> printed;
  std::string line;
  for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f)) {
    if (c == '\n') {
      printed.push_back(line);
      line.clear();
    } else {
      line += static_cast<char>(c);
    }
  }
  std::fclose(f);
  EXPECT_TRUE(line.empty());  // every line newline-terminated
  EXPECT_EQ(printed, expected);
}

TEST(ReportJsonTest, ServingBenchCellsCarryTheirProvenance) {
  std::ifstream in(SAMOYEDS_BENCH_SERVING_PATH);
  ASSERT_TRUE(in) << SAMOYEDS_BENCH_SERVING_PATH;
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  const auto count = [&json](const std::regex& re) {
    return std::distance(std::sregex_iterator(json.begin(), json.end(), re),
                         std::sregex_iterator());
  };
  const auto cells = count(std::regex("\"section\": "));
  ASSERT_GT(cells, 0);
  EXPECT_EQ(count(std::regex("\"command\": \"bench_serving_throughput[^\"]*\"")), cells);
  EXPECT_EQ(count(std::regex("\"model\": \"serving-bench layers=1 [^\"]+\"")), cells);
  EXPECT_EQ(count(std::regex("\"trace\": \"(synthetic|poisson):[1-9][^\"]*\"")), cells);
  // A cell's seed is followed by its shards; the envelope's seed is not.
  EXPECT_EQ(count(std::regex("\"seed\": [1-9][0-9]*,\\s+\"shards\"")), cells);
}

TEST(ReportJsonTest, ModelEchoNamesTheShape) {
  MoeModelConfig cfg = TinyConfig();
  cfg.shared_experts = 1;
  EXPECT_EQ(ModelEcho(cfg, /*layers=*/2, /*heads=*/4),
            "tiny layers=2 hidden=32 inter=64 experts=4 top_k=2 heads=4 shared=1");
}

}  // namespace
}  // namespace serving
}  // namespace samoyeds
