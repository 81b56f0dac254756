// Observability layer: the flight-recorder tracer and the log-bucketed
// metric sketches —
//
//   * Histogram percentiles are *exact* (digit-for-digit with a sort-based
//     nearest-rank oracle) in the linear region where every step-count
//     latency lives, and within the documented 2/kSubBuckets relative error
//     everywhere else;
//   * a disabled tracer records nothing; detail levels nest (a kFull event
//     never leaks into a kStep capture);
//   * rings wrap flight-recorder style: the newest `capacity` events
//     survive, the overwritten count is exact, snapshots come out
//     oldest-first with monotonic timestamps;
//   * ToChromeJson emits well-formed JSON with the trace-event envelope;
//   * a sharded + chunked + genuinely-preempting engine run produces a
//     request timeline that reconciles event-for-event with EngineMetrics
//     (same admit/first-output/finish steps, same preemption count), and
//     tracing does not perturb outputs (bit-identical traced vs untraced);
//   * a request rejected at Submit never arrived, so it leaves no session
//     end (nor any other request event) on the timeline;
//   * the same run's "engine" spans keep the shape perfbench's per-phase
//     breakdown reads: each step's phases in order, forward exactly when
//     retire, one layer per decoder layer with attn then moe inside.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/moe/decoder_layer.h"
#include "src/obs/metrics.h"
#include "src/obs/tracer.h"
#include "src/serving/engine.h"
#include "src/serving/scheduler.h"
#include "src/serving/trace.h"
#include "src/tensor/rng.h"
#include "tests/test_util.h"

namespace samoyeds {
namespace obs {
namespace {

// ---- Histogram --------------------------------------------------------------

// Sort-based nearest-rank oracle the old metrics.cc percentile path used.
double OraclePercentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const size_t rank = static_cast<size_t>(
      std::max<int64_t>(1, static_cast<int64_t>(std::ceil(q * static_cast<double>(
                                                                  samples.size())))));
  return samples[rank - 1];
}

TEST(HistogramTest, ExactInTheLinearRegion) {
  // Step-count latencies: small integers, all below kSubBuckets units.
  Rng rng(11);
  Histogram h(1.0);
  std::vector<double> samples;
  for (int i = 0; i < 500; ++i) {
    const double v = static_cast<double>(rng.NextIndex(Histogram::kSubBuckets));
    samples.push_back(v);
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 500);
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.Percentile(q), OraclePercentile(samples, q)) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.min(), *std::min_element(samples.begin(), samples.end()));
  EXPECT_DOUBLE_EQ(h.max(), *std::max_element(samples.begin(), samples.end()));
}

TEST(HistogramTest, LogRegionRelativeErrorIsBounded) {
  Rng rng(13);
  Histogram h(1.0);
  std::vector<double> samples;
  for (int i = 0; i < 2000; ++i) {
    // Log-uniform over ~6 octaves above the linear region.
    const double v = 256.0 * std::pow(2.0, 6.0 * rng.NextDouble());
    samples.push_back(v);
    h.Record(v);
  }
  const double bound = 2.0 / static_cast<double>(Histogram::kSubBuckets);
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    const double exact = OraclePercentile(samples, q);
    const double approx = h.Percentile(q);
    EXPECT_GE(approx, exact) << "q=" << q;  // upper bounds never undershoot
    EXPECT_LE((approx - exact) / exact, bound) << "q=" << q;
  }
  // The true max is reported exactly regardless of bucketing.
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), h.max());
}

TEST(HistogramTest, ScaleEmptyAndClamps) {
  Histogram empty(1000.0);
  EXPECT_EQ(empty.count(), 0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  EXPECT_DOUBLE_EQ(empty.Percentile(0.95), 0.0);
  EXPECT_DOUBLE_EQ(empty.max(), 0.0);

  // Milliseconds at scale 1000: microsecond resolution keeps sub-unit
  // samples distinguishable.
  Histogram ms(1000.0);
  ms.Record(0.125);
  ms.Record(0.25);
  ms.Record(-3.0);  // clamps to 0
  EXPECT_EQ(ms.count(), 3);
  EXPECT_DOUBLE_EQ(ms.Percentile(1.0), 0.25);
  EXPECT_DOUBLE_EQ(ms.min(), 0.0);

  Histogram sat(1.0);
  sat.Record(1e30);  // saturates, must not crash or wrap
  EXPECT_EQ(sat.count(), 1);
  EXPECT_GT(sat.Percentile(1.0), 0.0);
}

// ---- Tracer -----------------------------------------------------------------

// Every tracer test owns the process-wide singleton for its duration and
// stops it on exit so engine tests stay untraced.
class TracerTest : public ::testing::Test {
 protected:
  void TearDown() override { Tracer::Get().Stop(); }
};

TEST_F(TracerTest, DisabledRecordsNothing) {
  Tracer& tracer = Tracer::Get();
  tracer.Stop();
  EXPECT_FALSE(tracer.enabled());
  TraceInstant("test", "ignored", TraceDetail::kStep);
  TraceCounter("test", "ignored", TraceDetail::kStep, 7);
  { ScopedSpan span("test", "ignored", TraceDetail::kStep); }
  EXPECT_EQ(tracer.total_events(), 0);
}

TEST_F(TracerTest, DetailLevelsNest) {
  Tracer& tracer = Tracer::Get();
  tracer.Start(TraceDetail::kStep);
  EXPECT_TRUE(tracer.enabled(TraceDetail::kStep));
  EXPECT_FALSE(tracer.enabled(TraceDetail::kRequest));
  EXPECT_FALSE(tracer.enabled(TraceDetail::kFull));
  TraceInstant("test", "step", TraceDetail::kStep);
  TraceAsyncBegin("test", "request", TraceDetail::kRequest, 1);
  TraceInstant("test", "full", TraceDetail::kFull);
  EXPECT_EQ(tracer.total_events(), 1);

  tracer.Start(TraceDetail::kRequest);  // fresh capture, prior events gone
  TraceInstant("test", "step", TraceDetail::kStep);
  TraceAsyncBegin("test", "request", TraceDetail::kRequest, 1);
  TraceInstant("test", "full", TraceDetail::kFull);
  EXPECT_EQ(tracer.total_events(), 2);
}

TEST_F(TracerTest, SpansNestAndTimestampsAreMonotonic) {
  SetThreadName("obs-test");
  Tracer& tracer = Tracer::Get();
  tracer.Start(TraceDetail::kFull);
  {
    ScopedSpan outer("test", "outer", TraceDetail::kStep, 41);
    ScopedSpan inner("test", "inner", TraceDetail::kFull, 42);
    TraceInstant("test", "mark", TraceDetail::kStep, 43);
  }
  const std::vector<TraceThread> threads = tracer.Snapshot();
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_EQ(threads[0].name, "obs-test");
  EXPECT_EQ(threads[0].dropped, 0);
  const std::vector<TraceEvent>& ev = threads[0].events;
  ASSERT_EQ(ev.size(), 5u);  // B B i E E
  EXPECT_EQ(ev[0].type, EventType::kBegin);
  EXPECT_EQ(std::string(ev[0].name), "outer");
  EXPECT_EQ(ev[0].value, 41);
  EXPECT_EQ(ev[1].type, EventType::kBegin);
  EXPECT_EQ(ev[2].type, EventType::kInstant);
  EXPECT_EQ(ev[3].type, EventType::kEnd);
  EXPECT_EQ(std::string(ev[3].name), "inner");  // LIFO close order
  EXPECT_EQ(ev[4].type, EventType::kEnd);
  EXPECT_EQ(std::string(ev[4].name), "outer");
  for (size_t i = 1; i < ev.size(); ++i) {
    EXPECT_GE(ev[i].ts_ns, ev[i - 1].ts_ns);
  }
}

TEST_F(TracerTest, RingWrapsKeepingTheNewestEvents) {
  Tracer& tracer = Tracer::Get();
  tracer.Start(TraceDetail::kStep, /*ring_capacity=*/16);
  for (int64_t i = 0; i < 100; ++i) {
    TraceCounter("test", "i", TraceDetail::kStep, i);
  }
  EXPECT_EQ(tracer.total_events(), 100);
  EXPECT_EQ(tracer.dropped_events(), 84);
  const std::vector<TraceThread> threads = tracer.Snapshot();
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_EQ(threads[0].dropped, 84);
  ASSERT_EQ(threads[0].events.size(), 16u);
  for (size_t i = 0; i < 16; ++i) {  // oldest-first unroll of 84..99
    EXPECT_EQ(threads[0].events[i].value, 84 + static_cast<int64_t>(i));
  }
}

TEST_F(TracerTest, ChromeJsonIsWellFormed) {
  Tracer& tracer = Tracer::Get();
  tracer.Start(TraceDetail::kFull);
  {
    ScopedSpan span("engine", "step", TraceDetail::kStep, 1);
    TraceCounter("kv", "used_pages", TraceDetail::kStep, 5);
  }
  TraceAsyncBegin("request", "session", TraceDetail::kRequest, 42, 0);
  TraceAsyncInstant("request", "admit", TraceDetail::kRequest, 42, 1);
  TraceAsyncEnd("request", "session", TraceDetail::kRequest, 42, 3);
  tracer.Stop();

  const std::string json = tracer.ToChromeJson();
  EXPECT_TRUE(JsonParses(json)) << json;
  EXPECT_TRUE(HasJsonKey(json, "traceEvents"));
  EXPECT_TRUE(HasJsonKey(json, "displayTimeUnit"));
  // One thread-name metadata record, the async span keyed by a hex id, and
  // the counter carrying its sample in args.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"0x2a\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
}

// ---- Engine integration: trace <-> metrics reconciliation --------------------

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

std::vector<SamoyedsDecoderLayerWeights> BuildTinyModel(Rng& rng, int layers,
                                                        const MoeModelConfig& cfg) {
  const SamoyedsConfig fmt{1, 2, 32};
  std::vector<SamoyedsDecoderLayerWeights> model;
  for (int l = 0; l < layers; ++l) {
    model.push_back(
        SamoyedsDecoderLayerWeights::Encode(DecoderLayerWeights::Random(rng, cfg), fmt));
  }
  return model;
}

// Sharded + chunked + page-starved: 4 requests of 8 prompt + 8 decode against
// an 8-page pool of 4-token pages forces decode-time evictions (the same
// shape serving_test's preemption suite pins down).
serving::EngineConfig PreemptingShardedConfig() {
  serving::EngineConfig cfg;
  cfg.heads = 4;
  cfg.top_k = 2;
  cfg.threads = 2;
  cfg.shards = 2;
  cfg.scheduler.policy = serving::SchedulerPolicy::kTokenBudget;
  cfg.scheduler.token_budget = 40;
  cfg.scheduler.chunk_tokens = 4;
  cfg.scheduler.page_tokens = 4;
  cfg.scheduler.max_pages = 8;
  cfg.scheduler.preempt = true;
  return cfg;
}

struct EngineRun {
  std::vector<MatrixF> outputs;  // submission order
  std::map<int64_t, serving::RequestMetrics> requests;
  int64_t preemptions = 0;
};

EngineRun RunPreemptingWorkload(const std::vector<SamoyedsDecoderLayerWeights>& model) {
  serving::ServingEngine engine(model, PreemptingShardedConfig());
  Rng rng(96);  // identical workload every run
  for (int64_t i = 0; i < 4; ++i) {
    serving::TraceEntry e{/*arrival_step=*/0, /*prompt_len=*/8, /*max_new_tokens=*/8};
    EXPECT_TRUE(engine.Submit(serving::MakeRequest(rng, i, e, 32)));
  }
  engine.RunUntilDrained(/*max_steps=*/10000);
  EngineRun run;
  for (int64_t i = 0; i < 4; ++i) {
    const serving::RequestResult* result = engine.Result(i);
    run.outputs.push_back(result != nullptr ? result->outputs : MatrixF(0, 0));
  }
  run.requests = engine.metrics().requests();
  run.preemptions = static_cast<int64_t>(engine.metrics().preemption_log().size());
  return run;
}

// Per-request view of the "request" async track, rebuilt from a snapshot.
struct RequestTrack {
  int64_t begin_step = -1;   // "session" b value (arrival)
  int64_t admit_step = -1;   // latest "admit" n value
  int64_t first_output_step = -1;
  int64_t end_step = -1;     // "session" e value (finish)
  int64_t preempts = 0;
  int64_t prefill_chunks = 0;  // max "prefill_chunk" n value
};

std::map<int64_t, RequestTrack> CollectRequestTracks(const Tracer& tracer) {
  std::map<int64_t, RequestTrack> tracks;
  for (const TraceThread& thread : tracer.Snapshot()) {
    EXPECT_EQ(thread.dropped, 0) << "ring too small for the test workload";
    for (const TraceEvent& ev : thread.events) {
      if (std::string(ev.category) != "request") {
        continue;
      }
      RequestTrack& track = tracks[ev.id];
      const std::string name = ev.name;
      if (name == "session" && ev.type == EventType::kAsyncBegin) {
        track.begin_step = ev.value;
      } else if (name == "session" && ev.type == EventType::kAsyncEnd) {
        track.end_step = ev.value;
      } else if (name == "admit") {
        track.admit_step = ev.value;
      } else if (name == "first_output" && track.first_output_step < 0) {
        track.first_output_step = ev.value;
      } else if (name == "preempt") {
        ++track.preempts;
      } else if (name == "prefill_chunk") {
        track.prefill_chunks = std::max(track.prefill_chunks, ev.value);
      }
    }
  }
  return tracks;
}

TEST_F(TracerTest, RequestTimelineReconcilesWithEngineMetricsUnderPreemption) {
  Rng seed_rng(95);
  const auto model = BuildTinyModel(seed_rng, /*layers=*/2, TinyConfig());

  Tracer& tracer = Tracer::Get();
  tracer.Start(TraceDetail::kFull);
  const EngineRun traced = RunPreemptingWorkload(model);
  tracer.Stop();

  // The workload genuinely exercised every lifecycle edge being reconciled.
  ASSERT_GT(traced.preemptions, 0);
  ASSERT_EQ(traced.requests.size(), 4u);

  const std::map<int64_t, RequestTrack> tracks = CollectRequestTracks(tracer);
  ASSERT_EQ(tracks.size(), 4u);
  int64_t traced_preempts = 0;
  for (const auto& [id, rm] : traced.requests) {
    ASSERT_TRUE(tracks.count(id)) << "request " << id << " missing from the trace";
    const RequestTrack& track = tracks.at(id);
    EXPECT_EQ(track.begin_step, rm.arrival_step) << "request " << id;
    EXPECT_EQ(track.admit_step, rm.admit_step) << "request " << id;
    EXPECT_EQ(track.first_output_step, rm.first_output_step) << "request " << id;
    EXPECT_EQ(track.end_step, rm.finish_step) << "request " << id;
    EXPECT_EQ(track.preempts, rm.preemptions) << "request " << id;
    EXPECT_EQ(track.prefill_chunks, rm.prefill_chunks) << "request " << id;
    traced_preempts += track.preempts;
  }
  EXPECT_EQ(traced_preempts, traced.preemptions);

  // The whole capture exports as valid Chrome trace JSON.
  EXPECT_TRUE(JsonParses(tracer.ToChromeJson()));

  // Tracing must not perturb the computation: re-run untraced, bit-identical.
  const EngineRun untraced = RunPreemptingWorkload(model);
  ASSERT_EQ(untraced.outputs.size(), traced.outputs.size());
  for (size_t i = 0; i < traced.outputs.size(); ++i) {
    EXPECT_TRUE(traced.outputs[i] == untraced.outputs[i]) << "request " << i;
  }
  EXPECT_EQ(untraced.preemptions, traced.preemptions);
}

TEST_F(TracerTest, RejectedAtSubmitLeavesNoGhostSession) {
  Rng seed_rng(97);
  const MoeModelConfig cfg = TinyConfig();
  const auto model = BuildTinyModel(seed_rng, /*layers=*/1, cfg);

  Tracer& tracer = Tracer::Get();
  tracer.Start(TraceDetail::kFull);
  serving::ServingEngine engine(model, PreemptingShardedConfig());
  Rng rng(98);
  const serving::TraceEntry e{/*arrival_step=*/0, /*prompt_len=*/4, /*max_new_tokens=*/2};
  // Wrong hidden size: rejected at Submit, before it could ever arrive.
  EXPECT_FALSE(engine.Submit(serving::MakeRequest(rng, 0, e, cfg.hidden + 1)));
  EXPECT_TRUE(engine.Submit(serving::MakeRequest(rng, 1, e, cfg.hidden)));
  engine.RunUntilDrained(/*max_steps=*/1000);
  tracer.Stop();

  EXPECT_EQ(engine.Report().requests_rejected, 1);
  EXPECT_EQ(engine.Status(1), serving::RequestStatus::kFinished);
  const std::map<int64_t, RequestTrack> tracks = CollectRequestTracks(tracer);
  // No session end without a begin, and no reject instant either.
  EXPECT_EQ(tracks.count(0), 0u);
  ASSERT_EQ(tracks.count(1), 1u);
  EXPECT_GE(tracks.at(1).begin_step, 0);
  EXPECT_GE(tracks.at(1).end_step, tracks.at(1).begin_step);
}

// One "engine" span with the engine spans nested directly inside it. Spans
// of other categories (pool dispatch/barrier/fold) are transparent, as in
// perfbench's per-phase breakdown, which credits the nearest engine span.
struct SpanNode {
  std::string name;
  std::vector<SpanNode> children;
};

// The outermost engine spans of the thread that ran Step().
std::vector<SpanNode> EngineSpanForest(const Tracer& tracer) {
  for (const TraceThread& thread : tracer.Snapshot()) {
    EXPECT_EQ(thread.dropped, 0) << "ring too small for the test workload";
    std::vector<SpanNode> roots;
    std::vector<SpanNode> open;          // open engine spans, innermost last
    std::vector<bool> open_is_engine;    // every open span, innermost last
    for (const TraceEvent& ev : thread.events) {
      if (ev.type == EventType::kBegin) {
        const bool engine = std::string(ev.category) == "engine";
        open_is_engine.push_back(engine);
        if (engine) {
          open.push_back(SpanNode{ev.name, {}});
        }
      } else if (ev.type == EventType::kEnd && !open_is_engine.empty()) {
        const bool engine = open_is_engine.back();
        open_is_engine.pop_back();
        if (engine) {
          SpanNode done = std::move(open.back());
          open.pop_back();
          (open.empty() ? roots : open.back().children).push_back(std::move(done));
        }
      }
    }
    if (!roots.empty()) {
      return roots;
    }
  }
  return {};
}

TEST_F(TracerTest, StepPhaseSpansKeepTheirOrderAndNesting) {
  Rng seed_rng(95);
  const auto model = BuildTinyModel(seed_rng, /*layers=*/2, TinyConfig());

  Tracer& tracer = Tracer::Get();
  tracer.Start(TraceDetail::kFull);
  const EngineRun run = RunPreemptingWorkload(model);
  tracer.Stop();
  ASSERT_GT(run.preemptions, 0);

  const std::vector<SpanNode> steps = EngineSpanForest(tracer);
  ASSERT_FALSE(steps.empty());
  const std::vector<std::string> phases = {"plan",     "evict",   "admit",
                                           "assemble", "forward", "retire"};
  int64_t evicts = 0;
  int64_t forwards = 0;
  for (const SpanNode& step : steps) {
    ASSERT_EQ(step.name, "step");
    // The step's direct engine children are an ordered subsequence of the
    // phase list: each phase at most once, never out of order.
    auto next = phases.begin();
    bool forward = false;
    bool retire = false;
    for (const SpanNode& phase : step.children) {
      const auto pos = std::find(next, phases.end(), phase.name);
      ASSERT_NE(pos, phases.end()) << "phase '" << phase.name << "' repeated or out of order";
      next = pos + 1;
      evicts += phase.name == "evict" ? 1 : 0;
      retire = retire || phase.name == "retire";
      if (phase.name != "forward") {
        continue;
      }
      forward = true;
      ++forwards;
      ASSERT_EQ(phase.children.size(), model.size());
      for (const SpanNode& layer : phase.children) {
        EXPECT_EQ(layer.name, "layer");
        ASSERT_EQ(layer.children.size(), 2u);
        EXPECT_EQ(layer.children[0].name, "attn");
        EXPECT_EQ(layer.children[1].name, "moe");
      }
    }
    EXPECT_EQ(forward, retire);
  }
  EXPECT_GT(evicts, 0);
  EXPECT_GT(forwards, 0);
}

}  // namespace
}  // namespace obs
}  // namespace samoyeds
