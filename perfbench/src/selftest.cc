// Self-tests of the benchmark's own arithmetic, run before every workload:
// a wrong percentile or goodput formula would silently corrupt every figure.

#include "selftest.h"

#include <cmath>
#include <cstdio>
#include <limits>

#include "phases.h"
#include "stats.h"

namespace perfbench {

namespace {

namespace obs = samoyeds::obs;

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "self-test failed: %s\n", what);
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-9 * (1.0 + std::fabs(b)); }

void PercentileSelection() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) {
    v.push_back(i);  // 1..100, unsorted
  }
  Expect(Near(Percentile(v, 0.50), 50.0), "p50 of 1..100 is 50");
  Expect(Near(Percentile(v, 0.90), 90.0), "p90 of 1..100 is 90");
  Expect(Near(Percentile(v, 0.99), 99.0), "p99 of 1..100 is 99");
  Expect(Near(Percentile(v, 1.00), 100.0), "p100 is the maximum");
  Expect(Near(Percentile({7.0}, 0.99), 7.0), "any percentile of one sample is that sample");
  Expect(Near(Percentile({}, 0.5), 0.0), "empty input gives 0");
  Expect(Near(Percentile({1.0, 2.0, 3.0}, 0.5), 2.0), "p50 of three is the middle one");
  const Quantile q = QuantileOf(v, 0.90);
  Expect(q.samples == 100 && q.beyond == 10 && q.supported(), "p90 of 100 has 10 beyond");
  const Quantile t = QuantileOf(v, 0.99);
  Expect(t.beyond == 1 && !t.supported(), "p99 of 100 samples is unsupported");
  Expect(Near(Median({4.0, 1.0, 3.0, 2.0}), 2.5), "median of an even count averages");
}

void GoodputWithFailures() {
  const SloLimits limits{100.0, 10.0};
  std::vector<RequestOutcome> o(4);
  o[0] = {true, 50.0, 5.0, 100, 10};   // meets both
  o[1] = {true, 150.0, 5.0, 100, 10};  // late first token
  o[2] = {true, 50.0, 20.0, 100, 10};  // slow decode
  o[3] = {false, 1.0, 1.0, 100, 10};   // wrong output: never counts
  // Two more were sent but refused at submit: no outcome at all.
  const SloSummary s = SummarizeSlo(o, 6, limits, 2.0);
  Expect(s.finished_ok == 3, "three requests finished correctly");
  Expect(s.met == 1, "one request met the SLO");
  Expect(Near(s.attainment, 1.0 / 6.0), "attainment counts refused requests as misses");
  Expect(Near(s.tok_s, 150.0), "tok_s counts only correct finished requests");
  Expect(Near(s.goodput_tok_s, 50.0), "goodput counts only SLO-meeting requests");
  Expect(s.goodput_tok_s <= s.tok_s, "goodput never exceeds tok_s");
  const SloSummary none = SummarizeSlo({}, 5, limits, 1.0);
  Expect(none.attainment == 0.0 && none.goodput_tok_s == 0.0, "all refused: zero goodput");
  Expect(MeetsSlo({true, 1e9, 1.0, 1, 1}, SloLimits{0.0, 10.0}),
         "a zero TTFT limit means no TTFT limit");
}

void DueTimeAndBacklog() {
  // Prompt of 4 rows due at 10 ms: rows 0..3 (first token = row 3) arrive at
  // 40 ms, row 4 at 50 ms, rows 5 and 6 together at 70 ms.
  RowTimes r;
  r.Reset(4, 3);
  r.OnRows(0, 2, 30.0);  // prompt rows before the first token: ignored
  Expect(!r.has_first, "rows before the first token do not start the clock");
  r.OnRows(2, 2, 40.0);
  r.OnRows(4, 1, 50.0);
  r.OnRows(5, 2, 70.0);
  Expect(Near(r.TtftMs(10.0), 30.0), "TTFT runs from the due time");
  Expect(r.gaps_ms.size() == 3 && Near(r.gaps_ms[0], 10.0) && Near(r.gaps_ms[1], 20.0) &&
             Near(r.gaps_ms[2], 0.0),
         "one gap per decode row; rows delivered together are 0 ms apart");
  Expect(Near(r.MeanTbtMs(), 10.0), "mean TBT spreads first-to-last over decode rows");

  std::vector<double> steady, climbing, noisy_start;
  for (int i = 0; i < 120; ++i) {
    steady.push_back(20.0 + (i % 9) * 3.0);  // 20..44 ms throughout
    climbing.push_back(20.0 + 5.0 * i);      // each arrival waits 5 ms longer
    noisy_start.push_back(i < 40 ? 60.0 : 25.0);
  }
  Expect(!BacklogGrowing(steady), "a fluctuating TTFT is not a growing backlog");
  Expect(BacklogGrowing(climbing), "a TTFT climbing with every arrival is a growing backlog");
  Expect(!BacklogGrowing(noisy_start), "a slow start that recovers is not growing");
  std::vector<double> starved(steady);
  for (size_t i = 80; i < starved.size(); ++i) {
    starved[i] = std::numeric_limits<double>::infinity();  // never answered
  }
  Expect(BacklogGrowing(starved), "late requests that never answer are a growing backlog");
  Expect(!BacklogGrowing({}), "no samples: not growing");

  samoyeds::Rng rng(42);
  const std::vector<double> t = PoissonArrivals(rng, 400, 20.0);
  bool sorted = true;
  for (size_t i = 1; i < t.size(); ++i) {
    sorted = sorted && t[i] >= t[i - 1];
  }
  Expect(sorted && t.back() <= 20.0, "arrivals are sorted within count / rate seconds");
  const std::vector<int64_t> len = StratifiedLengths(rng, 64, 128, 191);
  int64_t sum = 0;
  for (int64_t l : len) {
    sum += l;
    Expect(l >= 128 && l <= 191, "stratified lengths stay in range");
  }
  Expect(std::llabs(sum - 64 * 159) <= 64, "stratified lengths keep the mean");
}

// Self times from a hand-built trace: step [0, 100] holds plan [0, 10] and
// forward [10, 90]; forward holds attn [20, 50] and a transparent pool span
// [60, 70] inside moe [55, 85].
void PhaseSelfTimes() {
  auto ev = [](const char* cat, const char* name, obs::EventType type, int64_t ms) {
    obs::TraceEvent e;
    e.category = cat;
    e.name = name;
    e.type = type;
    e.ts_ns = ms * 1000000;
    return e;
  };
  using T = obs::EventType;
  obs::TraceThread t;
  t.name = "engine";
  t.events = {ev("engine", "step", T::kBegin, 0),    ev("engine", "plan", T::kBegin, 0),
              ev("engine", "plan", T::kEnd, 10),     ev("engine", "forward", T::kBegin, 10),
              ev("engine", "attn", T::kBegin, 20),   ev("engine", "attn", T::kEnd, 50),
              ev("engine", "moe", T::kBegin, 55),    ev("pool", "dispatch", T::kBegin, 60),
              ev("pool", "dispatch", T::kEnd, 70),   ev("engine", "moe", T::kEnd, 85),
              ev("engine", "forward", T::kEnd, 90),  ev("engine", "step", T::kEnd, 100)};
  const PhaseBreakdown p = BreakdownOf({t}, "engine");
  Expect(Near(p.self_ms.at("plan"), 10.0), "plan self time");
  Expect(Near(p.self_ms.at("attn"), 30.0), "attn self time");
  Expect(Near(p.self_ms.at("moe"), 30.0), "moe keeps its transparent child span");
  Expect(Near(p.self_ms.at("forward"), 20.0), "forward self time excludes attn and moe");
  Expect(Near(p.self_ms.at("step"), 10.0), "step self time excludes its phases");
  double sum = 0.0;
  for (const auto& [name, ms] : p.self_ms) {
    sum += ms;
  }
  Expect(Near(sum, p.total_step_ms) && Near(p.total_step_ms, 100.0),
         "self times sum to the step durations");
  Expect(BreakdownOf({t}, "missing").step_ms.empty(), "unknown thread gives no steps");
}

}  // namespace

int RunSelfTests() {
  g_failures = 0;
  PercentileSelection();
  GoodputWithFailures();
  DueTimeAndBacklog();
  PhaseSelfTimes();
  return g_failures;
}

}  // namespace perfbench
