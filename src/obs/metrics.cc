#include "src/obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace samoyeds {
namespace obs {

namespace {

// Largest unit count the bucket math accepts (saturation bound, < 2^62 so
// the shift arithmetic in BucketUpperBound never overflows).
constexpr double kMaxUnits = 4.0e18;

// Buckets: kSubBuckets exact low buckets + 64 sub-buckets per octave for
// every octave a <= 2^62 value can land in.
constexpr int kNumBuckets =
    static_cast<int>(Histogram::kSubBuckets) + 57 * (static_cast<int>(Histogram::kSubBuckets) / 2);

}  // namespace

int Histogram::BucketIndex(int64_t units) {
  if (units < kSubBuckets) {
    return static_cast<int>(units);
  }
  // Octave of the leading bit; k sub-bucket shift keeps kSubBuckets/2
  // buckets per octave, so relative resolution stays 2/kSubBuckets.
  const int msb = std::bit_width(static_cast<uint64_t>(units)) - 1;  // >= kSubBucketBits
  const int k = msb - kSubBucketBits + 1;
  const int sub = static_cast<int>((units >> k) - kSubBuckets / 2);
  return static_cast<int>(kSubBuckets) + (k - 1) * static_cast<int>(kSubBuckets / 2) + sub;
}

int64_t Histogram::BucketUpperBound(int index) {
  if (index < kSubBuckets) {
    return index;  // exact: bucket holds exactly this unit value
  }
  const int rel = index - static_cast<int>(kSubBuckets);
  const int k = rel / static_cast<int>(kSubBuckets / 2) + 1;
  const int sub = rel % static_cast<int>(kSubBuckets / 2);
  return ((kSubBuckets / 2 + sub + 1) << k) - 1;
}

void Histogram::Record(double value) {
  if (!(value > 0.0)) {  // negatives and NaN clamp to 0 — stats and bucket alike
    value = 0.0;
  }
  const double scaled = std::min(value * scale_, kMaxUnits);
  const int64_t units = std::llround(scaled);
  if (buckets_.empty()) {
    buckets_.resize(static_cast<size_t>(kNumBuckets), 0);
  }
  ++buckets_[static_cast<size_t>(BucketIndex(units))];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

double Histogram::Percentile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const int64_t rank =
      std::max<int64_t>(1, static_cast<int64_t>(std::ceil(q * static_cast<double>(count_))));
  int64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      // Upper bound of the sample's bucket, never beyond the observed max
      // (keeps p100 exact and the sketch conservative from above).
      return std::min(static_cast<double>(BucketUpperBound(static_cast<int>(i))) / scale_,
                      max_);
    }
  }
  return max_;
}

}  // namespace obs
}  // namespace samoyeds
