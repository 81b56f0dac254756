// Log-bucketed histogram for serving latency metrics.
//
// `Histogram` is an HdrHistogram-style log-linear sketch: samples are mapped
// to integer units (`scale` units per 1.0 of input — record milliseconds at
// scale 1000 for microsecond resolution), units below kSubBuckets land in
// exact one-unit buckets, and each power-of-two octave above splits into
// kSubBuckets/2 sub-buckets, bounding relative quantile error by
// 2/kSubBuckets (< 1.6%). Recording is O(1) with no allocation, so the
// engine can feed every request's TTFT/turnaround in without keeping the
// per-sample vectors the old sort-then-index percentile path required —
// ServingReport's wall-clock p95s fall out of the buckets for free.
//
// Percentiles use the nearest-rank definition on bucket upper bounds, which
// makes them deterministic for a deterministic sample sequence and *exact*
// whenever every sample sits in the linear region (all the step-count
// latencies the tests assert on).
//
// Not thread-safe: the owner serializes access (EngineMetrics holds its
// mutex around every Record and Percentile).

#ifndef SAMOYEDS_SRC_OBS_METRICS_H_
#define SAMOYEDS_SRC_OBS_METRICS_H_

#include <cstdint>
#include <vector>

namespace samoyeds {
namespace obs {

class Histogram {
 public:
  static constexpr int kSubBucketBits = 7;                 // 128 exact low buckets
  static constexpr int64_t kSubBuckets = 1 << kSubBucketBits;

  explicit Histogram(double scale = 1.0) : scale_(scale) {}

  // Negative samples clamp to 0; values beyond ~2^62 units saturate the top
  // bucket. O(1), allocation-free.
  void Record(double value);

  int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

  // Nearest-rank percentile (q in [0, 1]): the bucket upper bound of the
  // ceil(q * count)-th smallest sample, clamped to the exact max. 0 when
  // empty. Exact for integer samples below kSubBuckets units.
  double Percentile(double q) const;

 private:
  static int BucketIndex(int64_t units);
  static int64_t BucketUpperBound(int index);  // inclusive, in units

  double scale_;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<int64_t> buckets_;  // sized on first Record
};

}  // namespace obs
}  // namespace samoyeds

#endif  // SAMOYEDS_SRC_OBS_METRICS_H_
