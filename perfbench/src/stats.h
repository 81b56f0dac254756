// Arithmetic the benchmark reports with: nearest-rank percentiles with their
// sample support, per-request SLO accounting (goodput, attainment), output-row
// clocks (TTFT from the due time, gaps between rows), the backlog-growth test
// that decides whether an open-loop rate is sustainable, and the seeded
// generators of arrival times and request lengths. Exercised by selftest.cc
// before every run.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/tensor/rng.h"

namespace perfbench {

// Minimum number of samples that must lie strictly beyond a reported
// percentile; fewer means the run is too short to support that tail.
constexpr int64_t kMinTailSamples = 10;

// Nearest-rank percentile: the smallest sample with at least q * n samples at
// or below it (q in (0, 1]). 0 for an empty input.
double Percentile(std::vector<double> samples, double q);

// A percentile together with the evidence behind it.
struct Quantile {
  double q = 0.0;
  double value = 0.0;
  int64_t samples = 0;  // sample count
  int64_t beyond = 0;   // samples strictly greater than value
  bool supported() const { return beyond >= kMinTailSamples; }
};

Quantile QuantileOf(const std::vector<double>& samples, double q);

double Median(std::vector<double> samples);

// What one sent request achieved. A refused, shed, cancelled, timed-out or
// wrong request has finished_ok = false and never meets the SLO.
struct RequestOutcome {
  bool finished_ok = false;
  double ttft_ms = 0.0;      // first output row, timed from the due time
  double mean_tbt_ms = 0.0;  // mean gap between consecutive output rows
  int64_t served_tokens = 0; // prompt rows (cache hits included) + output rows
  int64_t output_tokens = 0; // decode rows
};

struct SloLimits {
  double ttft_ms = 0.0;  // <= 0: no TTFT limit
  double tbt_ms = 0.0;   // <= 0: no TBT limit
};

bool MeetsSlo(const RequestOutcome& r, const SloLimits& limits);

struct SloSummary {
  int64_t sent = 0;
  int64_t finished_ok = 0;
  int64_t met = 0;
  double tok_s = 0.0;          // served tokens of finished_ok requests / window
  double goodput_tok_s = 0.0;  // served tokens of SLO-meeting requests / window
  double attainment = 0.0;     // met / sent
};

// `sent` counts every request offered, including ones that never produced an
// outcome (refused at submit); those are misses. Both token rates share the
// same window, so goodput_tok_s <= tok_s always.
SloSummary SummarizeSlo(const std::vector<RequestOutcome>& outcomes, int64_t sent,
                        const SloLimits& limits, double window_s);

// Whether a rung's backlog grew, from the due-time TTFT of its requests in
// arrival order (a request that never produced a first token counts as
// +infinity). By Little's law the wait of a request grows with the queue it
// finds: a stable queue gives the last third of the arrivals about the same
// median TTFT as the first third, an overloaded one a TTFT that climbs with
// every arrival. Growing means the late median exceeds twice the early one
// plus 50 ms.
bool BacklogGrowing(const std::vector<double>& ttft_ms);

// When each output row of one request reached the client, in ms from the
// start of the window. Row prompt_len - 1 is the first token; every later row
// is one decode step. Rows delivered together are 0 ms apart.
struct RowTimes {
  int64_t prompt_len = 0;
  int64_t new_tokens = 0;
  bool has_first = false;
  double first_ms = 0.0;
  double last_ms = 0.0;
  std::vector<double> gaps_ms;  // time between consecutive output rows

  void Reset(int64_t prompt, int64_t decode);
  // Rows [begin, begin + count) arrived at `now_ms`.
  void OnRows(int64_t begin, int64_t count, double now_ms);
  // Time to first token from the request's due time.
  double TtftMs(double due_ms) const { return first_ms - due_ms; }
  double MeanTbtMs() const;
};

// Arrival times (seconds from the rung's start) of `count` requests of a
// Poisson process at `rate_rps`, conditioned on the count: sorted uniform
// draws over count / rate_rps seconds, so every seed offers the same load.
std::vector<double> PoissonArrivals(samoyeds::Rng& rng, int64_t count, double rate_rps);

// `count` lengths in [lo, hi], one per equal-width stratum, ascending: every
// seed draws the same length profile, with different values within strata.
std::vector<int64_t> StratifiedLengths(samoyeds::Rng& rng, int64_t count, int64_t lo, int64_t hi);

// Fisher-Yates shuffle.
void Shuffle(samoyeds::Rng& rng, std::vector<int64_t>* v);

// FNV-1a over raw float bytes; equal iff bit-identical (with overwhelming
// probability). Chained so a checksum can span many matrices.
uint64_t Fnv1a(const float* data, int64_t count, uint64_t seed = 1469598103934665603ull);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
