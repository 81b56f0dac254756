#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

namespace perfbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const int64_t rank = std::max<int64_t>(1, static_cast<int64_t>(std::ceil(q * n - 1e-9)));
  return samples[static_cast<size_t>(std::min<int64_t>(rank, samples.size()) - 1)];
}

Quantile QuantileOf(const std::vector<double>& samples, double q) {
  Quantile out;
  out.q = q;
  out.value = Percentile(samples, q);
  out.samples = static_cast<int64_t>(samples.size());
  out.beyond = std::count_if(samples.begin(), samples.end(),
                             [&](double s) { return s > out.value; });
  return out;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

bool MeetsSlo(const RequestOutcome& r, const SloLimits& limits) {
  if (!r.finished_ok) {
    return false;
  }
  if (limits.ttft_ms > 0.0 && r.ttft_ms > limits.ttft_ms) {
    return false;
  }
  return !(limits.tbt_ms > 0.0 && r.mean_tbt_ms > limits.tbt_ms);
}

SloSummary SummarizeSlo(const std::vector<RequestOutcome>& outcomes, int64_t sent,
                        const SloLimits& limits, double window_s) {
  SloSummary s;
  s.sent = sent;
  double ok_tokens = 0.0;
  double met_tokens = 0.0;
  for (const RequestOutcome& r : outcomes) {
    if (!r.finished_ok) {
      continue;
    }
    ++s.finished_ok;
    ok_tokens += static_cast<double>(r.served_tokens);
    if (MeetsSlo(r, limits)) {
      ++s.met;
      met_tokens += static_cast<double>(r.served_tokens);
    }
  }
  if (window_s > 0.0) {
    s.tok_s = ok_tokens / window_s;
    s.goodput_tok_s = met_tokens / window_s;
  }
  s.attainment = sent > 0 ? static_cast<double>(s.met) / static_cast<double>(sent) : 0.0;
  return s;
}

bool BacklogGrowing(const std::vector<double>& ttft_ms) {
  const size_t third = ttft_ms.size() / 3;
  if (third == 0) {
    return false;
  }
  const double early = Median(std::vector<double>(ttft_ms.begin(), ttft_ms.begin() + third));
  const double late = Median(std::vector<double>(ttft_ms.end() - third, ttft_ms.end()));
  return late > 2.0 * early + 50.0;
}

void RowTimes::Reset(int64_t prompt, int64_t decode) {
  prompt_len = prompt;
  new_tokens = decode;
  has_first = false;
  gaps_ms.clear();
  gaps_ms.reserve(static_cast<size_t>(decode) + 1);
}

void RowTimes::OnRows(int64_t begin, int64_t count, double now_ms) {
  const int64_t end = begin + count;
  if (count <= 0 || end < prompt_len) {
    return;  // nothing new, or only rows before the first token
  }
  int64_t extra = count - 1;  // rows after the first one of this delivery
  if (!has_first) {
    has_first = true;
    first_ms = now_ms;
    extra = end - std::max(begin, prompt_len);  // decode rows beyond the first token
  } else {
    gaps_ms.push_back(now_ms - last_ms);
  }
  gaps_ms.insert(gaps_ms.end(), static_cast<size_t>(extra), 0.0);
  last_ms = now_ms;
}

double RowTimes::MeanTbtMs() const {
  return new_tokens > 0 ? (last_ms - first_ms) / static_cast<double>(new_tokens) : 0.0;
}

std::vector<double> PoissonArrivals(samoyeds::Rng& rng, int64_t count, double rate_rps) {
  const double span = static_cast<double>(count) / rate_rps;
  std::vector<double> t(static_cast<size_t>(count));
  for (double& x : t) {
    x = rng.NextDouble() * span;
  }
  std::sort(t.begin(), t.end());
  return t;
}

std::vector<int64_t> StratifiedLengths(samoyeds::Rng& rng, int64_t count, int64_t lo, int64_t hi) {
  std::vector<int64_t> out(static_cast<size_t>(count));
  const double width = static_cast<double>(hi - lo + 1) / static_cast<double>(count);
  for (int64_t i = 0; i < count; ++i) {
    const double x = (static_cast<double>(i) + rng.NextDouble()) * width;
    out[static_cast<size_t>(i)] = std::min<int64_t>(hi, lo + static_cast<int64_t>(x));
  }
  return out;
}

void Shuffle(samoyeds::Rng& rng, std::vector<int64_t>* v) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[static_cast<size_t>(rng.NextBounded(i))]);
  }
}

uint64_t Fnv1a(const float* data, int64_t count, uint64_t seed) {
  uint64_t h = seed;
  const auto* bytes = reinterpret_cast<const unsigned char*>(data);
  for (int64_t i = 0; i < count * static_cast<int64_t>(sizeof(float)); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
