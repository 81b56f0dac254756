#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <thread>

#include "alloc_count.h"
#include "phases.h"
#include "src/moe/decoder_layer.h"
#include "src/moe/router.h"
#include "src/obs/tracer.h"
#include "src/serving/engine.h"
#include "src/serving/expert_pool.h"
#include "src/serving/kv_cache.h"
#include "src/serving/prefix_cache.h"
#include "src/serving/server.h"
#include "src/tensor/bf16.h"
#include "src/tensor/gemm_ref.h"
#include "src/tensor/rng.h"

namespace perfbench {

namespace sv = samoyeds::serving;
namespace obs = samoyeds::obs;
using samoyeds::MatrixF;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kLayers = 2;
constexpr int kExperts = 8;
constexpr int kHidden = 64;
// The scheduler's default page size, which every workload runs with.
const int64_t kPageTokens = sv::SchedulerConfig{}.page_tokens;
constexpr uint64_t kWeightSeed = 0x5A1103EDull;
constexpr int kSetupSamples = 21;
constexpr int kMinRounds = 3;
// Bit-exactness is the contract of the scalar kernel backend; any other
// backend is checked against the dense reference at the bf16 tolerance the
// serving tests use.
constexpr double kBf16Tolerance = 2e-2;
constexpr double kReconcileTolerance = 0.05;
// Per-thread trace ring, in events: holds every engine-thread event of a
// traced window (a few tens of thousands) with room to spare.
constexpr int64_t kTraceRing = int64_t{1} << 17;
// How often the open-loop client polls every live session for new rows.
constexpr std::chrono::microseconds kPollPeriod{100};

double Ms(Clock::duration d) { return std::chrono::duration<double, std::milli>(d).count(); }
double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

std::string QuantileNote(const std::string& name, const Quantile& q, const std::string& unit) {
  return Fmt("%s = %.4f %s (p%.0f of n=%lld, %lld beyond%s)", name.c_str(), q.value,
             unit.c_str(), q.q * 100.0, static_cast<long long>(q.samples),
             static_cast<long long>(q.beyond), q.supported() ? "" : "; UNSUPPORTED");
}

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> all;

  Workload d;
  d.name = "decode_long_ctx";
  d.intermediate = 128;
  d.token_budget = 256;
  d.requests = 12;
  d.prompt_lo = 128;
  d.prompt_hi = 192;
  d.decode_lo = 96;
  d.decode_hi = 128;
  d.slo = SloLimits{0.0, 120.0};
  d.dominant_phase = "attn";
  all.push_back(d);

  Workload p;
  p.name = "prefill_burst";
  p.intermediate = 1024;
  p.token_budget = 512;
  p.requests = 1024;
  p.prompt_lo = 16;
  p.prompt_hi = 48;
  p.decode_lo = 1;
  p.decode_hi = 2;
  p.slo = SloLimits{0.0, 200.0};
  p.dominant_phase = "moe";
  all.push_back(p);

  Workload s;
  s.name = "shared_prefix_poisson";
  s.open_loop = true;
  s.intermediate = 128;
  s.token_budget = 256;
  s.prompt_lo = 8;  // unique suffix after the shared prefix
  s.prompt_hi = 32;
  s.decode_lo = 16;
  s.decode_hi = 32;
  s.prefixes = {88, 72, 56, 40};  // none a multiple of kPageTokens
  s.max_pages = 640;
  s.saturate_requests = 80;
  s.saturate_share = 0.6;
  s.op_load = 0.5;
  s.op_requests = 64;
  s.slo = SloLimits{250.0, 60.0};
  s.dominant_phase = "attn";
  all.push_back(s);
  return all;
}

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> kAll = MakeWorkloads();
  return kAll;
}

// ---- Model, engine, requests -------------------------------------------------

struct Model {
  std::vector<samoyeds::DecoderLayerWeights> dense;
  std::vector<samoyeds::SamoyedsDecoderLayerWeights> sparse;
};

Model BuildModel(const Workload& w) {
  samoyeds::MoeModelConfig mc;
  mc.name = w.name;
  mc.num_experts = kExperts;
  mc.hidden = kHidden;
  mc.intermediate = w.intermediate;
  mc.top_k = sv::EngineConfig{}.top_k;
  samoyeds::Rng rng(kWeightSeed);
  Model m;
  for (int l = 0; l < kLayers; ++l) {
    m.dense.push_back(samoyeds::DecoderLayerWeights::Random(rng, mc));
    m.sparse.push_back(samoyeds::SamoyedsDecoderLayerWeights::Encode(
        m.dense.back(), samoyeds::SamoyedsConfig{1, 2, 32}));
  }
  return m;
}

sv::EngineConfig MakeEngineConfig(const Workload& w) {
  sv::EngineConfig cfg;  // defaults: scalar backend, top-k routing
  cfg.threads = kPoolThreads;
  cfg.scheduler.token_budget = w.token_budget;
  if (w.open_loop) {
    cfg.prefix_cache = true;
    cfg.scheduler.max_pages = w.max_pages;
    cfg.scheduler.preempt = true;
  }
  return cfg;
}

MatrixF InputRows(samoyeds::Rng& rng, int64_t rows, int64_t hidden) {
  MatrixF m = rng.GaussianMatrix(rows, hidden, 0.5f);
  samoyeds::RoundMatrixToBf16(m);
  return m;
}

sv::Request MakeRequest(int64_t id, int64_t prompt, int64_t decode, MatrixF inputs) {
  sv::Request r;
  r.id = id;
  r.prompt_len = prompt;
  r.max_new_tokens = decode;
  r.inputs = std::move(inputs);
  return r;
}

// The batch's length profile is the same for every seed (ascending strata),
// so its admission schedule is too; the seed draws the row contents and the
// lengths within each stratum.
std::vector<sv::Request> OfflineRequests(const Workload& w, uint64_t seed) {
  samoyeds::Rng rng(seed);
  const auto prompts = StratifiedLengths(rng, w.requests, w.prompt_lo, w.prompt_hi);
  const auto decodes = StratifiedLengths(rng, w.requests, w.decode_lo, w.decode_hi);
  std::vector<sv::Request> out;
  for (int64_t i = 0; i < w.requests; ++i) {
    const size_t k = static_cast<size_t>(i);
    out.push_back(MakeRequest(i, prompts[k], decodes[k],
                              InputRows(rng, prompts[k] + decodes[k], kHidden)));
  }
  return out;
}

// Open-loop requests of one rung (0 saturation, 1 operating point): each
// prompt is one of the shared prefixes (identical rows for every request that
// uses it) plus a unique suffix. Arrivals are drawn at 1 req/s for the caller
// to rescale. The count per repetition is fixed, so the inputs depend on the
// seed alone.
struct TimedRequest {
  double due_s = 0.0;  // from the rung's start; 0 for the saturation rung
  sv::Request request;
};

std::vector<TimedRequest> RungRequests(const Workload& w, const std::vector<MatrixF>& prefixes,
                                       uint64_t seed, uint64_t rung, int64_t count) {
  samoyeds::Rng rng(seed * 1000003ull + rung * 7919ull + 17);
  const auto due = PoissonArrivals(rng, count, 1.0);
  auto suffixes = StratifiedLengths(rng, count, w.prompt_lo, w.prompt_hi);
  auto decodes = StratifiedLengths(rng, count, w.decode_lo, w.decode_hi);
  // Every prefix serves an equal share of the requests, in shuffled order.
  std::vector<int64_t> which(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    which[static_cast<size_t>(i)] = i % static_cast<int64_t>(prefixes.size());
  }
  Shuffle(rng, &suffixes);
  Shuffle(rng, &decodes);
  Shuffle(rng, &which);
  std::vector<TimedRequest> out;
  for (int64_t i = 0; i < count; ++i) {
    const size_t k = static_cast<size_t>(i);
    const MatrixF& prefix = prefixes[static_cast<size_t>(which[k])];
    const int64_t prompt = prefix.rows() + suffixes[k];
    MatrixF inputs = InputRows(rng, prompt + decodes[k], kHidden);
    std::copy(prefix.data(), prefix.data() + prefix.size(), inputs.data());
    out.push_back(TimedRequest{due[k], MakeRequest(i, prompt, decodes[k], std::move(inputs))});
  }
  return out;
}

std::vector<MatrixF> SharedPrefixes(const Workload& w, uint64_t seed) {
  samoyeds::Rng rng(seed ^ 0x2545F4914F6CDD1Dull);  // a stream no rung's seed reaches
  std::vector<MatrixF> out;
  for (int64_t len : w.prefixes) {
    out.push_back(InputRows(rng, len, kHidden));
  }
  return out;
}

// ---- Output verification (never inside a timed window) ----------------------

class Verifier {
 public:
  Verifier(const Model& model, const sv::EngineConfig& cfg)
      : model_(model), cfg_(cfg), exact_(cfg.kernel_backend == samoyeds::KernelBackend::kScalar) {}

  // What the served rows of a request with these inputs must equal: the
  // full-sequence Samoyeds decoder stack under the scalar backend, the dense
  // reference otherwise.
  MatrixF Reference(const MatrixF& inputs) const {
    return exact_ ? samoyeds::DecoderStackForwardSamoyeds(inputs, model_.sparse, cfg_.heads,
                                                          cfg_.top_k, cfg_.activation)
                  : samoyeds::DecoderStackForwardReference(inputs, model_.dense, cfg_.heads,
                                                           cfg_.top_k, cfg_.activation);
  }

  // Bit-exact under the scalar backend, within bf16 tolerance otherwise.
  bool Matches(const MatrixF& ref, const MatrixF& rows) const {
    if (rows.rows() != ref.rows() || rows.cols() != ref.cols()) {
      return false;
    }
    return exact_ ? std::memcmp(ref.data(), rows.data(), sizeof(float) * rows.size()) == 0
                  : samoyeds::RelativeError(rows, ref) < kBf16Tolerance;
  }

 private:
  const Model& model_;
  const sv::EngineConfig& cfg_;
  const bool exact_;
};

// ---- Counters common to both loops ------------------------------------------

struct EngineCounters {
  sv::ServingReport report;
  std::vector<sv::StepMetrics> steps;
  int64_t batch_rows = 0;
  double est_total_ms = 0.0;

  static EngineCounters Of(const sv::ServingEngine& engine) {
    EngineCounters c;
    c.report = engine.Report();
    c.steps = engine.metrics().steps();
    for (const sv::StepMetrics& s : c.steps) {
      c.batch_rows += s.batch_rows;
      c.est_total_ms += s.est_total_ms();
    }
    return c;
  }
};

double ReadPeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---- Set-up -------------------------------------------------------------------

// One set-up: weights, Samoyeds encode, engine + expert pool, and a fixed
// warm-up batch served to completion. Same work on every run.
double SetupOnce(const Workload& w, Model* model) {
  const auto t0 = Clock::now();
  *model = BuildModel(w);
  sv::ServingEngine engine(model->sparse, MakeEngineConfig(w));
  samoyeds::Rng rng(kWeightSeed + 1);
  for (int64_t i = 0; i < 4; ++i) {
    engine.Submit(MakeRequest(i, 32, 4, InputRows(rng, 36, kHidden)));
  }
  engine.RunUntilDrained();
  return Seconds(Clock::now() - t0);
}

// Set-up samples spread over the run: the first builds the run's model, the
// rest are taken between measured rounds or repetitions, evenly over the
// measured time, so they span the run instead of one moment of host load.
// One set-up takes tens of milliseconds, so each sample catches the host's
// speed at one instant; the figure is the samples' lower quartile, which a
// busy spell on the host moves far less than their median.
class SetupSampler {
 public:
  explicit SetupSampler(const Workload& w) : w_(w) {}
  void First(Model* model) { samples_.push_back(SetupOnce(w_, model)); }
  // Called between measured rounds or repetitions once `share` of the
  // measured time has run: takes the samples due by then.
  void Between(double share) {
    const double due = 1.0 + (kSetupSamples - 1) * std::min(1.0, share);
    while (static_cast<double>(samples_.size()) + 1.0 <= due) {
      Sample();
    }
  }
  // Tops the samples up to kSetupSamples, then reports their lower quartile.
  double LowerQuartileSeconds(RunOutput* out) {
    Between(1.0);
    const double s = Percentile(samples_, 0.25);
    out->notes.push_back(Fmt("setup_s = lower quartile of %zu set-ups: %.4f s (min %.4f, "
                             "median %.4f, max %.4f)",
                             samples_.size(), s,
                             *std::min_element(samples_.begin(), samples_.end()),
                             Median(samples_),
                             *std::max_element(samples_.begin(), samples_.end())));
    return s;
  }

 private:
  void Sample() {
    Model scratch;
    samples_.push_back(SetupOnce(w_, &scratch));
  }

  const Workload& w_;
  std::vector<double> samples_;
};

// ---- Offline batch -------------------------------------------------------------

struct OfflineRound {
  double wall_s = 0.0;
  double step_call_ms = 0.0;  // every Step() call, the final idle one included
  std::vector<double> step_ms;  // Step() calls that did work
  int64_t allocs = 0;
  uint64_t checksum = 0;
  int64_t wrong = 0;
  std::vector<double> tbt_ms;
  std::vector<RequestOutcome> outcomes;
  EngineCounters counters;
};

OfflineRound RunOfflineRound(const Model& model, const sv::EngineConfig& cfg,
                             const std::vector<sv::Request>& requests, const Verifier& verifier,
                             const std::vector<MatrixF>& refs) {
  OfflineRound out;
  std::vector<sv::Request> batch = requests;  // copied outside the window
  std::vector<RowTimes> clocks(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    clocks[i].Reset(batch[i].prompt_len, batch[i].max_new_tokens);
  }
  out.step_ms.reserve(4096);
  sv::ServingEngine engine(model.sparse, cfg);

  const int64_t allocs0 = AllocationCount();
  const auto t0 = Clock::now();
  for (size_t i = 0; i < batch.size(); ++i) {
    RowTimes* clock = &clocks[i];
    engine.Submit(std::move(batch[i]), [clock, t0](const sv::StreamDelta& d) {
      clock->OnRows(d.position_begin, d.rows.rows(), Ms(Clock::now() - t0));
    });
  }
  for (;;) {
    const auto s0 = Clock::now();
    const bool worked = engine.Step();
    const double ms = Ms(Clock::now() - s0);
    out.step_call_ms += ms;
    if (!worked) {
      break;
    }
    out.step_ms.push_back(ms);
  }
  const auto t1 = Clock::now();
  out.allocs = AllocationCount() - allocs0;
  out.wall_s = Seconds(t1 - t0);

  uint64_t checksum = 1469598103934665603ull;
  for (size_t i = 0; i < requests.size(); ++i) {
    const sv::Request& r = requests[i];
    const sv::RequestResult* res = engine.Result(r.id);
    RequestOutcome o;
    o.served_tokens = r.prompt_len + r.max_new_tokens;
    o.output_tokens = r.max_new_tokens;
    o.finished_ok = res != nullptr && res->status == sv::RequestStatus::kFinished &&
                    clocks[i].has_first && verifier.Matches(refs[i], res->outputs);
    if (res != nullptr) {
      checksum = Fnv1a(res->outputs.data(), res->outputs.size(), checksum);
    }
    if (o.finished_ok) {
      o.mean_tbt_ms = clocks[i].MeanTbtMs();  // no TTFT limit: TTFT is queue position here
      out.tbt_ms.insert(out.tbt_ms.end(), clocks[i].gaps_ms.begin(), clocks[i].gaps_ms.end());
    } else {
      ++out.wrong;
    }
    out.outcomes.push_back(o);
  }
  out.checksum = checksum;
  out.counters = EngineCounters::Of(engine);
  return out;
}

struct OfflineWindow {
  std::vector<OfflineRound> rounds;
};

// Serves the batch round after round until `seconds` of rounds have run, and
// at least kMinRounds rounds, so the medians and the round-to-round
// determinism check always have rounds to compare. A set-up sample follows
// each round when `setups` is given.
OfflineWindow RunOfflineWindow(const Model& model, const sv::EngineConfig& cfg,
                               const std::vector<sv::Request>& requests, const Verifier& verifier,
                               const std::vector<MatrixF>& refs, double seconds,
                               SetupSampler* setups) {
  OfflineWindow w;
  double measured = 0.0;
  while (static_cast<int>(w.rounds.size()) < kMinRounds || measured < seconds) {
    w.rounds.push_back(RunOfflineRound(model, cfg, requests, verifier, refs));
    measured += w.rounds.back().wall_s;
    if (setups != nullptr) {
      setups->Between(measured / seconds);
    }
  }
  return w;
}

// Median over the window's rounds of `f(round)`.
template <typename F>
double MedianOverRounds(const OfflineWindow& w, F f) {
  std::vector<double> v;
  for (const OfflineRound& r : w.rounds) {
    v.push_back(f(r));
  }
  return Median(v);
}

// Same seed, same schedule: every round must run the same steps over the same
// rows and produce bit-identical outputs.
void CheckDeterminism(const OfflineWindow& window, RunOutput* out) {
  const OfflineRound& first = window.rounds.front();
  for (const OfflineRound& r : window.rounds) {
    if (r.counters.steps.size() != first.counters.steps.size() ||
        r.counters.batch_rows != first.counters.batch_rows || r.checksum != first.checksum) {
      out->Fail(Fmt("schedule diverged between rounds: steps %zu vs %zu, rows %lld vs %lld",
                    r.counters.steps.size(), first.counters.steps.size(),
                    static_cast<long long>(r.counters.batch_rows),
                    static_cast<long long>(first.counters.batch_rows)));
      return;
    }
  }
  std::string walls;
  for (const OfflineRound& r : window.rounds) {
    walls += Fmt(" %.3f", r.wall_s);
  }
  out->notes.push_back("round wall times (s):" + walls);
  out->notes.push_back(Fmt("schedule: %zu rounds, each %zu steps, %lld batch rows, output "
                           "checksum %016llx",
                           window.rounds.size(), first.counters.steps.size(),
                           static_cast<long long>(first.counters.batch_rows),
                           static_cast<unsigned long long>(first.checksum)));
}

// ---- Open loop -----------------------------------------------------------------

struct RungResult {
  int64_t sent = 0;
  int64_t wrong = 0;
  double window_s = 0.0;  // first due time -> last terminal observation
  std::vector<RequestOutcome> outcomes;
  std::vector<double> ttft_ms;
  std::vector<double> tbt_ms;
  std::vector<double> submit_us;
  std::vector<double> lateness_ms;
  SloSummary slo;
  bool backlog_growing = false;
  double completion_rps = 0.0;
  int64_t driver_steps = 0;
  int64_t shed = 0;
  int64_t mailbox_peak = 0;
  int64_t engine_allocs = 0;  // allocations off the client thread
  EngineCounters counters;
};

// Serves `timed` (in arrival order, ids 0..n-1) through a fresh engine behind
// an AsyncServer on the wall clock. `refs` holds each request's expected rows.
RungResult RunRung(const Workload& w, const Model& model, const sv::EngineConfig& cfg,
                   const std::vector<TimedRequest>& timed, const Verifier& verifier,
                   const std::vector<MatrixF>& refs) {
  RungResult out;
  const size_t n = timed.size();
  out.sent = static_cast<int64_t>(n);
  std::vector<TimedRequest> requests = timed;  // copied outside the window
  std::vector<RowTimes> clocks(n);
  std::vector<std::vector<float>> row_data(n);
  std::vector<sv::RequestStatus> status(n, sv::RequestStatus::kQueued);
  std::vector<bool> accepted(n, false);
  for (size_t i = 0; i < n; ++i) {
    clocks[i].Reset(timed[i].request.prompt_len, timed[i].request.max_new_tokens);
    row_data[i].reserve(static_cast<size_t>(timed[i].request.inputs.size()));
  }
  std::vector<size_t> live;
  live.reserve(n);
  std::vector<double> arrival_ttft;  // due-time TTFT in arrival order

  sv::ServingEngine engine(model.sparse, cfg);
  {
    sv::AsyncServer server(engine, sv::ServerConfig{sv::ServerClock::kWall, 0});
    const int64_t allocs0 = AllocationCount() - ThreadAllocationCount();
    // Requests due at time 0 wait in the mailbox before the server starts, so
    // the driver takes them all in its first drain (the saturation rung's
    // schedule is then the same on every run). Later ones are submitted when
    // due, from 2 ms after the start.
    size_t next = 0;
    for (; next < n && requests[next].due_s <= 0.0; ++next) {
      const auto s0 = Clock::now();
      accepted[next] = server.Submit(std::move(requests[next].request));
      out.submit_us.push_back(Ms(Clock::now() - s0) * 1e3);
      live.push_back(next);
    }
    server.Start();
    const auto t0 = Clock::now() + std::chrono::milliseconds(next > 0 ? 0 : 2);
    auto last_terminal = t0;
    // Between polls the client sleeps until the next poll or the next due
    // submission, whichever is sooner, so the server's three threads keep a
    // CPU each. How late a wake-up makes a submission is reported as
    // gen.lateness_ms and counts in that request's TTFT.
    auto next_poll = t0;
    while (next < n || !live.empty()) {
      auto now = Clock::now();
      while (next < n) {
        const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(requests[next].due_s));
        if (due > now) {
          break;
        }
        out.lateness_ms.push_back(Ms(now - due));
        const auto s0 = Clock::now();
        accepted[next] = server.Submit(std::move(requests[next].request));
        const auto s1 = Clock::now();
        out.submit_us.push_back(Ms(s1 - s0) * 1e3);
        live.push_back(next);
        ++next;
        now = s1;
      }
      if (now < next_poll) {
        auto wake = next_poll;
        if (next < n) {
          wake = std::min(wake, t0 + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(requests[next].due_s)));
        }
        std::this_thread::sleep_until(wake);
        continue;
      }
      next_poll = now + kPollPeriod;
      for (size_t k = 0; k < live.size();) {
        const size_t i = live[k];
        sv::ServerPollResult p = server.Poll(static_cast<int64_t>(i));
        const auto seen = Clock::now();
        const int64_t got = p.new_rows.rows();
        if (got > 0) {
          clocks[i].OnRows(p.delivered_rows - got, got, Ms(seen - t0));
          row_data[i].insert(row_data[i].end(), p.new_rows.data(),
                             p.new_rows.data() + p.new_rows.size());
        }
        if (p.terminal || !p.known) {
          status[i] = p.status;
          last_terminal = seen;
          live[k] = live.back();
          live.pop_back();
          continue;
        }
        ++k;
      }
    }
    server.Drain();
    out.engine_allocs = AllocationCount() - ThreadAllocationCount() - allocs0;
    out.window_s = Seconds(last_terminal - t0);
    out.driver_steps = server.steps();
    out.shed = server.shed_submits();
    out.mailbox_peak = server.peak_mailbox_depth();
    server.Stop();

    // Verification and accounting, outside the window. Requests are in
    // arrival order.
    for (size_t i = 0; i < n; ++i) {
      const sv::Request& r = timed[i].request;
      RequestOutcome o;
      o.served_tokens = r.prompt_len + r.max_new_tokens;
      o.output_tokens = r.max_new_tokens;
      const int64_t got_rows = static_cast<int64_t>(row_data[i].size()) / kHidden;
      const MatrixF got = MatrixF::FromRowMajor(got_rows, kHidden, std::move(row_data[i]));
      o.finished_ok = accepted[i] && status[i] == sv::RequestStatus::kFinished &&
                      clocks[i].has_first && verifier.Matches(refs[i], got);
      if (o.finished_ok) {
        o.ttft_ms = clocks[i].TtftMs(timed[i].due_s * 1e3);
        o.mean_tbt_ms = clocks[i].MeanTbtMs();
        out.ttft_ms.push_back(o.ttft_ms);
        out.tbt_ms.insert(out.tbt_ms.end(), clocks[i].gaps_ms.begin(),
                          clocks[i].gaps_ms.end());
      } else {
        ++out.wrong;
      }
      arrival_ttft.push_back(clocks[i].has_first ? clocks[i].TtftMs(timed[i].due_s * 1e3)
                                                  : std::numeric_limits<double>::infinity());
      out.outcomes.push_back(o);
    }
  }
  out.counters = EngineCounters::Of(engine);
  out.slo = SummarizeSlo(out.outcomes, out.sent, w.slo, out.window_s);
  out.backlog_growing = BacklogGrowing(arrival_ttft);
  out.completion_rps =
      out.window_s > 0.0 ? static_cast<double>(out.slo.finished_ok) / out.window_s : 0.0;
  return out;
}

std::vector<MatrixF> References(const Verifier& verifier, const std::vector<TimedRequest>& t) {
  std::vector<MatrixF> refs;
  for (const TimedRequest& r : t) {
    refs.push_back(verifier.Reference(r.request.inputs));
  }
  return refs;
}

// Repetitions of one arrival schedule and what they add up to. Figures are
// medians over the repetitions: a burst of interference that slows one
// repetition does not move them.
struct RungSummary {
  std::vector<RungResult> reps;
  SloSummary slo;  // pooled over the repetitions
  bool passed = false;  // no backlog growth and >= 90% attainment

  template <typename F>
  double Median(F f) const {
    std::vector<double> v;
    for (const RungResult& r : reps) {
      v.push_back(f(r));
    }
    return perfbench::Median(v);
  }
  // The samples of every repetition together.
  std::vector<double> Pooled(const std::vector<double> RungResult::*samples) const {
    std::vector<double> out;
    for (const RungResult& r : reps) {
      out.insert(out.end(), (r.*samples).begin(), (r.*samples).end());
    }
    return out;
  }
};

// Serves `requests` on a fresh engine again and again, at least kMinRounds
// times and until the run's measured time reaches `until_s`. `measured` sums
// the windows of every repetition of the run; a set-up sample is taken when
// one is due.
RungSummary RunRepetitions(const Workload& w, const Model& model, const sv::EngineConfig& cfg,
                           const std::vector<TimedRequest>& requests,
                           const std::vector<MatrixF>& refs, const Verifier& verifier,
                           double seconds, double until_s, double* measured,
                           SetupSampler* setups) {
  RungSummary s;
  s.passed = true;
  std::vector<RequestOutcome> outcomes;
  while (static_cast<int>(s.reps.size()) < kMinRounds || *measured < until_s) {
    s.reps.push_back(RunRung(w, model, cfg, requests, verifier, refs));
    const RungResult& r = s.reps.back();
    *measured += r.window_s;
    setups->Between(*measured / seconds);
    outcomes.insert(outcomes.end(), r.outcomes.begin(), r.outcomes.end());
    s.passed = s.passed && !r.backlog_growing;
  }
  s.slo = SummarizeSlo(outcomes, static_cast<int64_t>(outcomes.size()), w.slo, 1.0);
  s.passed = s.passed && s.slo.attainment >= 0.9;
  return s;
}

// ---- Layer replays -----------------------------------------------------------

// Median wall time of `fn` in microseconds over at least `reps` calls and
// about 0.15 s, after two warm-up calls.
template <typename Fn>
double MedianCallUs(Fn&& fn, int reps = 20) {
  fn();
  fn();
  std::vector<double> us;
  const auto start = Clock::now();
  while (static_cast<int>(us.size()) < reps || Seconds(Clock::now() - start) < 0.15) {
    const auto t0 = Clock::now();
    fn();
    us.push_back(Ms(Clock::now() - t0) * 1e3);
    if (us.size() >= 2000) {
      break;
    }
  }
  return Median(us);
}

struct Replays {
  double attn_ctx64_us = 0.0;
  double attn_ctx256_us = 0.0;
  double experts_ms = 0.0;
  double experts_gflops = 0.0;
  double route_us = 0.0;
  double acquire_us = 0.0;
  int64_t batch_rows = 0;
};

Replays RunReplays(const Workload& w, const Model& model, const sv::EngineConfig& cfg,
                   int64_t batch_rows, const std::vector<MatrixF>& prefixes) {
  Replays r;
  r.batch_rows = std::max<int64_t>(1, batch_rows);
  samoyeds::Rng rng(kWeightSeed + 2);
  const auto& layer = model.sparse.front();
  for (int64_t ctx : {int64_t{64}, int64_t{256}}) {
    const MatrixF x = InputRows(rng, ctx, kHidden);
    const double us = MedianCallUs([&] {
      const MatrixF y = samoyeds::AttentionForward(x, layer.attention, cfg.heads);
      asm volatile("" : : "r"(y.data()) : "memory");
    });
    (ctx == 64 ? r.attn_ctx64_us : r.attn_ctx256_us) = us;
  }

  const MatrixF x = InputRows(rng, r.batch_rows, kHidden);
  r.route_us = MedianCallUs([&] {
    const samoyeds::RoutingPlan plan = samoyeds::Route(x, layer.moe.router_gate, cfg.top_k);
    asm volatile("" : : "r"(&plan) : "memory");
  });
  const samoyeds::RoutingPlan plan = samoyeds::Route(x, layer.moe.router_gate, cfg.top_k);
  {
    sv::ExpertPool pool(kPoolThreads);
    sv::ParallelMoeWorkspace ws;
    MatrixF out;
    r.experts_ms = MedianCallUs([&] {
                     sv::ParallelMoeForwardSamoyeds(pool, x, layer.moe, plan, cfg.activation,
                                                    ws, out);
                   }) * 1e-3;
  }
  // Useful FLOPs from tensor sizes: gate, up and down projections of each
  // routed token, counted dense-equivalent (2 * hidden * intermediate each).
  const double flops = static_cast<double>(r.batch_rows) * cfg.top_k * 3.0 * 2.0 * kHidden *
                       w.intermediate;
  r.experts_gflops = r.experts_ms > 0.0 ? flops / (r.experts_ms * 1e-3) / 1e9 : 0.0;

  // Prefix-cache lookup of a prompt-sized query against a cache holding one
  // donated sequence: the open loop's queries share its prefix, the offline
  // workloads' prompts do not.
  sv::KvPageAllocator alloc(sv::KvCacheConfig{kPageTokens, 0});
  sv::PrefixCache cache(kPageTokens, kHidden);
  const int64_t prompt = prefixes.empty() ? w.prompt_hi : prefixes.front().rows() + w.prompt_hi;
  MatrixF donor = InputRows(rng, prompt, kHidden);
  MatrixF query = InputRows(rng, prompt, kHidden);
  if (!prefixes.empty()) {
    const MatrixF& p = prefixes.front();
    std::copy(p.data(), p.data() + p.size(), donor.data());
    std::copy(p.data(), p.data() + p.size(), query.data());
  }
  alloc.Extend(1, prompt);
  cache.Donate(1, donor, prompt, std::vector<float>(static_cast<size_t>(donor.size()), 0.0f),
               alloc);
  alloc.Free(1);
  r.acquire_us = MedianCallUs([&] {
    const sv::PrefixCache::Match m = cache.Acquire(query, prompt);
    asm volatile("" : : "r"(&m) : "memory");
  });
  return r;
}

// ---- Metric assembly ---------------------------------------------------------

// End-to-end figures of one run. The measured rates and the set-up time are
// the metrics of the result line. The latency quantiles, the modeled
// throughput and the memory high-water mark go to the report lines, by name
// and unit with their sample counts: on a shared host their run-to-run spread
// on the open loop is wider than any useful regression bound, even for one
// seed run repeatedly. (The wake-up latency of idle threads comes and goes
// with the host's load, and a slower host batches more requests per step,
// which the modeled clock rewards.)
struct EndToEnd {
  double setup_s = 0.0;
  double tok_s = 0.0;
  double decode_tok_s = 0.0;
  double goodput_tok_s = 0.0;
  double slo_attainment = 0.0;
  double max_rate_rps = 0.0;
  std::vector<double> ttft_ms;  // open loop only: offline it measures queue position
  std::vector<double> tbt_ms;
  double modeled_tok_s = 0.0;
};

void AddEndToEnd(RunOutput* out, const EndToEnd& e) {
  out->Add("setup_s", e.setup_s, "s");
  out->Add("tok_s", e.tok_s, "tok/s");
  out->Add("decode_tok_s", e.decode_tok_s, "tok/s");
  out->Add("goodput_tok_s", e.goodput_tok_s, "tok/s");
  out->Add("slo_attainment", e.slo_attainment, "ratio");
  out->Add("max_rate_rps", e.max_rate_rps, "req/s");
  if (!e.ttft_ms.empty()) {
    out->ReportQuantile("ttft_p50_ms", QuantileOf(e.ttft_ms, 0.50), "ms");
    out->ReportQuantile("ttft_p90_ms", QuantileOf(e.ttft_ms, 0.90), "ms");
  }
  out->ReportQuantile("tbt_p50_ms", QuantileOf(e.tbt_ms, 0.50), "ms");
  out->ReportQuantile("tbt_p99_ms", QuantileOf(e.tbt_ms, 0.99), "ms");
  out->notes.push_back(Fmt("modeled_tok_s = %.4f tok/s (simulated-GPU clock; every other time is "
                           "CPU wall time)",
                           e.modeled_tok_s));
  out->notes.push_back(Fmt("peak_rss_mb = %.4f MB", ReadPeakRssMb()));
  if (e.goodput_tok_s > e.tok_s * (1.0 + 1e-12)) {
    out->Fail(Fmt("goodput %.3f exceeds tok_s %.3f", e.goodput_tok_s, e.tok_s));
  }
}

double ModeledTokS(const EngineCounters& c, int64_t served_tokens) {
  return c.est_total_ms > 0.0 ? static_cast<double>(served_tokens) / (c.est_total_ms * 1e-3)
                              : 0.0;
}

int64_t ServedTokens(const std::vector<RequestOutcome>& outcomes) {
  int64_t t = 0;
  for (const RequestOutcome& o : outcomes) {
    t += o.finished_ok ? o.served_tokens : 0;
  }
  return t;
}

int64_t OutputTokens(const std::vector<RequestOutcome>& outcomes) {
  int64_t t = 0;
  for (const RequestOutcome& o : outcomes) {
    t += o.finished_ok ? o.output_tokens : 0;
  }
  return t;
}

// Allocations of an untraced run per engine step.
double PerStep(int64_t allocs, const EngineCounters& c) {
  return static_cast<double>(allocs) / std::max<double>(1.0, static_cast<double>(c.steps.size()));
}

int64_t MedianBatchRows(const EngineCounters& c) {
  std::vector<double> rows;
  for (const sv::StepMetrics& s : c.steps) {
    rows.push_back(static_cast<double>(s.batch_rows));
  }
  return std::llround(Median(rows));
}

// Per-layer metrics shared by both loops. `step_ms` is the engine step time
// (measured from outside on the offline loops, from step spans on the open
// loop); `phases` the traced window's breakdown.
void AddLayerMetrics(RunOutput* out, const Workload& w, const PhaseBreakdown& phases,
                     const std::vector<double>& step_ms, const EngineCounters& c,
                     double allocs_per_step, const Replays& rp, double overhead) {
  const double steps = std::max<double>(1.0, static_cast<double>(phases.step_ms.size()));
  const double total = std::max(1e-9, phases.total_step_ms);
  auto self = [&](const char* name) {
    const auto it = phases.self_ms.find(name);
    return it == phases.self_ms.end() ? 0.0 : it->second;
  };
  // moe/attention
  out->Add("phase.attn_ms", self("attn") / steps, "ms");
  out->Add("phase.attn_share", self("attn") / total, "ratio");
  out->Add("attn.call_us_ctx64", rp.attn_ctx64_us, "us");
  out->Add("attn.call_us_ctx256", rp.attn_ctx256_us, "us");
  double read_rows = 0.0;
  for (const sv::StepMetrics& s : c.steps) {
    read_rows += s.kv_read_bytes / (sizeof(float) * static_cast<double>(kHidden));
  }
  const double kept = static_cast<double>(c.batch_rows) * kLayers;
  out->Add("attn.useful_row_ratio", kept / std::max(1.0, kept + read_rows), "ratio");
  // serving/expert_pool + core/samoyeds_kernel + moe/router
  out->Add("phase.moe_ms", self("moe") / steps, "ms");
  out->Add("phase.moe_share", self("moe") / total, "ratio");
  out->Add("experts.call_ms", rp.experts_ms, "ms");
  out->Add("experts.gflops", rp.experts_gflops, "GFLOP/s");
  int64_t routed = 0;
  for (int64_t t : c.report.expert_tokens) {
    routed += t;
  }
  out->Add("experts.routed_tokens", static_cast<double>(routed), "count");
  out->Add("experts.imbalance", c.report.expert_imbalance, "ratio");
  out->Add("router.route_us", rp.route_us, "us");
  // serving/engine
  out->AddLayerQuantile("engine.step_ms_p50", QuantileOf(step_ms, 0.50), "ms");
  out->AddLayerQuantile("engine.step_ms_p90", QuantileOf(step_ms, 0.90), "ms");
  out->Add("engine.steps", static_cast<double>(c.steps.size()), "count");
  out->Add("engine.batch_rows_mean", c.report.mean_batch_rows, "rows");
  out->Add("engine.occupancy", c.report.mean_occupancy, "ratio");
  out->Add("engine.allocs_per_step", allocs_per_step, "count");
  for (const char* p : {"plan", "evict", "admit", "assemble", "forward", "layer", "retire"}) {
    out->Add(std::string("phase.") + p + "_ms", self(p) / steps, "ms");
  }
  out->Add("phase.other_ms", self("step") / steps, "ms");
  // serving/scheduler
  out->AddLayerQuantile("sched.queue_wait_ms_p50", QuantileOf(phases.queue_wait_ms, 0.50), "ms");
  out->AddLayerQuantile("sched.queue_wait_ms_p90", QuantileOf(phases.queue_wait_ms, 0.90), "ms");
  out->Add("sched.preemptions", static_cast<double>(c.report.preemptions), "count");
  out->Add("sched.rejected", static_cast<double>(c.report.requests_rejected), "count");
  // serving/kv_cache
  double util = 0.0;
  int64_t util_steps = 0;
  double read_b = 0.0;
  double write_b = 0.0;
  for (const sv::StepMetrics& s : c.steps) {
    read_b += s.kv_read_bytes;
    write_b += s.kv_write_bytes;
    if (s.kv_used_pages > 0) {
      const double slots = static_cast<double>(s.kv_used_pages * kPageTokens);
      util += 1.0 - static_cast<double>(s.kv_frag_tokens) / slots;
      ++util_steps;
    }
  }
  out->Add("kv.peak_pages", static_cast<double>(c.report.peak_used_pages), "count");
  out->Add("kv.page_util_mean", util_steps > 0 ? util / static_cast<double>(util_steps) : 0.0,
           "ratio");
  out->Add("kv.frag_tokens_mean", c.report.mean_frag_tokens, "tokens");
  out->Add("kv.read_mb", read_b / 1e6, "MB");
  out->Add("kv.write_mb", write_b / 1e6, "MB");
  // serving/prefix_cache
  out->Add("prefix.hit_rate", c.report.prefix_hit_rate, "ratio");
  out->Add("prefix.hit_tokens", static_cast<double>(c.report.prefix_hit_tokens), "count");
  out->Add("prefix.cow_splits", static_cast<double>(c.report.cow_splits), "count");
  out->Add("prefix.acquire_us", rp.acquire_us, "us");
  // simgpu/timing_model
  out->Add("model.est_compute_ms", c.report.est_compute_ms, "ms");
  out->Add("model.est_alltoall_ms", c.report.est_alltoall_ms, "ms");
  out->Add("model.est_step_ms_mean",
           c.est_total_ms / std::max<double>(1.0, static_cast<double>(c.steps.size())), "ms");
  // obs
  out->Add("obs.trace_overhead", overhead, "ratio");
  std::string dominant;
  double dominant_ms = -1.0;
  for (const auto& [name, ms] : phases.self_ms) {
    if (ms > dominant_ms) {
      dominant = name;
      dominant_ms = ms;
    }
  }
  // The workload design: each workload exercises the layer it is named for.
  const bool hits = c.report.prefix_hit_tokens > 0 && c.report.cow_splits > 0;
  const bool any_hits = c.report.prefix_hit_tokens > 0 || c.report.cow_splits > 0;
  out->notes.push_back(Fmt("design: largest self-time phase %s (expected %s); prefix hits and "
                           "COW splits %s (expected %s)",
                           dominant.c_str(), w.dominant_phase.c_str(), hits ? "yes" : "no",
                           w.open_loop ? "yes" : "no"));
  if (dominant != w.dominant_phase) {
    out->Fail(Fmt("largest self-time phase is %s, not %s", dominant.c_str(),
                  w.dominant_phase.c_str()));
  }
  if (w.open_loop ? !hits : any_hits) {
    out->Fail(Fmt("prefix hits %lld and COW splits %lld, expected %s",
                  static_cast<long long>(c.report.prefix_hit_tokens),
                  static_cast<long long>(c.report.cow_splits),
                  w.open_loop ? "both above 0" : "both 0"));
  }
  out->notes.push_back(Fmt("replays at the median batch shape of %lld rows; experts.gflops "
                           "counts dense-equivalent useful FLOPs computed from tensor sizes",
                           static_cast<long long>(rp.batch_rows)));
}

// The server layer exists only on the open loop; the offline loops report 0.
void AddServerMetrics(RunOutput* out, const RungResult* rung) {
  if (rung == nullptr) {
    for (const char* name : {"server.submit_us_p50", "server.submit_us_p99"}) {
      out->Add(name, 0.0, "us");
    }
    for (const char* name : {"server.mailbox_peak", "server.shed", "server.driver_steps"}) {
      out->Add(name, 0.0, "count");
    }
    out->Add("gen.lateness_ms_p99", 0.0, "ms");
    return;
  }
  out->AddLayerQuantile("server.submit_us_p50", QuantileOf(rung->submit_us, 0.50), "us");
  out->AddLayerQuantile("server.submit_us_p99", QuantileOf(rung->submit_us, 0.99), "us");
  out->Add("server.mailbox_peak", static_cast<double>(rung->mailbox_peak), "count");
  out->Add("server.shed", static_cast<double>(rung->shed), "count");
  out->Add("server.driver_steps", static_cast<double>(rung->driver_steps), "count");
  out->AddLayerQuantile("gen.lateness_ms_p99", QuantileOf(rung->lateness_ms, 0.99), "ms");
}

void CheckReconciled(RunOutput* out, double phase_ms, double step_ms, const char* what) {
  const double gap = step_ms > 0.0 ? std::fabs(phase_ms - step_ms) / step_ms : 1.0;
  out->notes.push_back(Fmt("reconcile: phase self times %.1f ms vs %s %.1f ms (%.2f%%)", phase_ms,
                           what, step_ms, gap * 100.0));
  if (gap > kReconcileTolerance) {
    out->Fail(Fmt("phase self times do not reconcile with %s: %.2f%% apart", what, gap * 100.0));
  }
}

double SumSelf(const PhaseBreakdown& p) {
  double s = 0.0;
  for (const auto& [name, ms] : p.self_ms) {
    s += ms;
  }
  return s;
}

std::vector<obs::TraceThread> TracedCapture() {
  std::vector<obs::TraceThread> capture = obs::Tracer::Get().Snapshot();
  obs::Tracer::Get().Stop();
  return capture;
}

void CheckCapture(RunOutput* out, const std::vector<obs::TraceThread>& capture,
                  const std::string& thread, const PhaseBreakdown& phases) {
  for (const obs::TraceThread& t : capture) {
    if (t.name == thread && t.dropped > 0) {
      out->Fail(Fmt("trace ring of %s wrapped (%lld events lost)", thread.c_str(),
                    static_cast<long long>(t.dropped)));
    }
  }
  if (phases.step_ms.empty() || phases.unbalanced > 0) {
    out->Fail("trace holds no balanced step spans for " + thread);
  }
}

// ---- The two loops -------------------------------------------------------------

void RunOffline(const Workload& w, const Model& model, SetupSampler* setups, uint64_t seed,
                double seconds, bool trace, RunOutput* out) {
  const sv::EngineConfig cfg = MakeEngineConfig(w);
  const Verifier verifier(model, cfg);
  const std::vector<sv::Request> requests = OfflineRequests(w, seed);
  std::vector<MatrixF> refs;  // every round serves the same batch
  for (const sv::Request& r : requests) {
    refs.push_back(verifier.Reference(r.inputs));
  }
  const OfflineWindow win =
      RunOfflineWindow(model, cfg, requests, verifier, refs, seconds, trace ? nullptr : setups);
  CheckDeterminism(win, out);
  int64_t sent = 0;
  int64_t met = 0;
  for (const OfflineRound& r : win.rounds) {
    const SloSummary s = SummarizeSlo(r.outcomes, static_cast<int64_t>(r.outcomes.size()),
                                      w.slo, r.wall_s);
    sent += s.sent;
    met += s.met;
    out->attempted += s.sent;
    out->failed += r.wrong;
  }
  // Rates divide each round's tokens by that round's wall time; the figures
  // are medians over the rounds.
  const auto slo_of = [&w](const OfflineRound& r) {
    return SummarizeSlo(r.outcomes, static_cast<int64_t>(r.outcomes.size()), w.slo, r.wall_s);
  };
  const double tok_s = MedianOverRounds(win, [&](const OfflineRound& r) { return slo_of(r).tok_s; });
  const OfflineRound& first = win.rounds.front();
  out->notes.push_back(Fmt("threads: engine (main) 1, expert pool %d", kPoolThreads));
  out->notes.push_back(Fmt("slo: tbt mean per request <= %.0f ms (no ttft limit offline); "
                           "due time = batch submission",
                           w.slo.tbt_ms));
  if (!trace) {
    EndToEnd e;
    e.setup_s = setups->LowerQuartileSeconds(out);
    e.tok_s = tok_s;
    e.decode_tok_s = MedianOverRounds(
        win, [&](const OfflineRound& r) { return OutputTokens(r.outcomes) / r.wall_s; });
    for (const OfflineRound& r : win.rounds) {
      e.tbt_ms.insert(e.tbt_ms.end(), r.tbt_ms.begin(), r.tbt_ms.end());
    }
    e.goodput_tok_s =
        MedianOverRounds(win, [&](const OfflineRound& r) { return slo_of(r).goodput_tok_s; });
    e.slo_attainment = sent > 0 ? static_cast<double>(met) / static_cast<double>(sent) : 0.0;
    e.max_rate_rps = MedianOverRounds(
        win, [&](const OfflineRound& r) { return slo_of(r).finished_ok / r.wall_s; });
    e.modeled_tok_s = ModeledTokS(first.counters, ServedTokens(first.outcomes));
    AddEndToEnd(out, e);
    return;
  }

  // The traced window runs kMinRounds rounds: per-layer figures need no more,
  // and every round's fresh expert pool registers two more trace rings.
  obs::SetThreadName("bench.engine");
  obs::Tracer::Get().Start(obs::TraceDetail::kFull, kTraceRing);
  const OfflineWindow traced =
      RunOfflineWindow(model, cfg, requests, verifier, refs, 0.0, nullptr);
  const std::vector<obs::TraceThread> capture = TracedCapture();
  CheckDeterminism(traced, out);
  const PhaseBreakdown phases = BreakdownOf(capture, "bench.engine");
  CheckCapture(out, capture, "bench.engine", phases);
  std::vector<double> step_ms;
  double step_calls_ms = 0.0;
  for (const OfflineRound& r : traced.rounds) {
    step_ms.insert(step_ms.end(), r.step_ms.begin(), r.step_ms.end());
    step_calls_ms += r.step_call_ms;
    out->attempted += static_cast<int64_t>(r.outcomes.size());
    out->failed += r.wrong;
  }
  CheckReconciled(out, SumSelf(phases), step_calls_ms, "engine Step() wall time");
  const Replays rp = RunReplays(w, model, cfg, MedianBatchRows(first.counters), {});
  // Allocations come from an untraced round: the tracer's per-thread buffers
  // would otherwise show up as engine allocations.
  const double traced_tok_s = MedianOverRounds(
      traced, [&](const OfflineRound& r) { return ServedTokens(r.outcomes) / r.wall_s; });
  AddLayerMetrics(out, w, phases, step_ms, traced.rounds.front().counters,
                  PerStep(first.allocs, first.counters), rp, traced_tok_s / tok_s);
  AddServerMetrics(out, nullptr);
}

// The operating point's requests: unit-rate arrivals rescaled to `rate_rps`.
std::vector<TimedRequest> OperatingRequests(const Workload& w,
                                            const std::vector<MatrixF>& prefixes, uint64_t seed,
                                            double rate_rps) {
  std::vector<TimedRequest> out = RungRequests(w, prefixes, seed, 1, w.op_requests);
  for (TimedRequest& t : out) {
    t.due_s /= rate_rps;
  }
  return out;
}

void RunOpenLoop(const Workload& w, const Model& model, SetupSampler* setups, uint64_t seed,
                 double seconds, bool trace, RunOutput* out) {
  const sv::EngineConfig cfg = MakeEngineConfig(w);
  const Verifier verifier(model, cfg);
  const std::vector<MatrixF> prefixes = SharedPrefixes(w, seed);
  out->notes.push_back(
      Fmt("threads: generator and poller (main) 1, server driver 1, expert pool %d", kPoolThreads));
  out->notes.push_back(Fmt("slo: ttft <= %.0f ms from due time and mean tbt <= %.0f ms per "
                           "request; the operating point passes at >= 90%% attainment without "
                           "backlog growth",
                           w.slo.ttft_ms, w.slo.tbt_ms));
  const auto account = [out](const RungResult& r) {
    out->attempted += r.sent;
    out->failed += r.wrong;
  };
  std::vector<TimedRequest> saturate = RungRequests(w, prefixes, seed, 0, w.saturate_requests);
  for (TimedRequest& t : saturate) {
    t.due_s = 0.0;
  }
  const std::vector<MatrixF> saturate_refs = References(verifier, saturate);

  if (!trace) {
    double measured = 0.0;
    const RungSummary sat = RunRepetitions(w, model, cfg, saturate, saturate_refs, verifier,
                                           seconds, seconds * w.saturate_share, &measured,
                                           setups);
    std::string rates;
    for (const RungResult& rep : sat.reps) {
      account(rep);
      rates += Fmt(" %.2f (%zu steps)", rep.completion_rps, rep.counters.steps.size());
    }
    const double capacity_rps = sat.Median([](const RungResult& r) { return r.completion_rps; });
    out->notes.push_back(Fmt("saturation: %zu repetitions of %lld requests due at the start; "
                             "completion rate per repetition (req/s):%s",
                             sat.reps.size(), static_cast<long long>(w.saturate_requests),
                             rates.c_str()));
    if (capacity_rps <= 0.0) {
      out->Fail("no request finished under saturation");
      return;
    }
    const double op_rps = w.op_load * capacity_rps;
    const std::vector<TimedRequest> at_op = OperatingRequests(w, prefixes, seed, op_rps);
    const RungSummary op = RunRepetitions(w, model, cfg, at_op, References(verifier, at_op),
                                          verifier, seconds, seconds, &measured, setups);
    for (const RungResult& rep : op.reps) {
      account(rep);
    }
    out->notes.push_back(Fmt(
        "operating point: %.2f req/s (%.2f of capacity), %zu repetitions of %lld requests: "
        "tok_s %.1f, attainment %.3f, ttft p50 %.2f ms, tbt p99 %.2f ms, %s",
        op_rps, w.op_load, op.reps.size(), static_cast<long long>(w.op_requests),
        op.Median([](const RungResult& r) { return r.slo.tok_s; }), op.slo.attainment,
        QuantileOf(op.Pooled(&RungResult::ttft_ms), 0.5).value,
        QuantileOf(op.Pooled(&RungResult::tbt_ms), 0.99).value, op.passed ? "pass" : "fail"));
    EndToEnd e;
    e.setup_s = setups->LowerQuartileSeconds(out);
    e.tok_s = sat.Median([](const RungResult& r) { return r.slo.tok_s; });
    e.decode_tok_s = sat.Median(
        [](const RungResult& r) { return OutputTokens(r.outcomes) / r.window_s; });
    e.max_rate_rps = capacity_rps;
    e.goodput_tok_s = op.Median([](const RungResult& r) { return r.slo.goodput_tok_s; });
    e.slo_attainment = op.slo.attainment;
    e.ttft_ms = op.Pooled(&RungResult::ttft_ms);
    e.tbt_ms = op.Pooled(&RungResult::tbt_ms);
    e.modeled_tok_s = sat.Median(
        [](const RungResult& r) { return ModeledTokS(r.counters, ServedTokens(r.outcomes)); });
    AddEndToEnd(out, e);
    return;
  }

  // Saturation untraced and traced gives the tracer's overhead on capacity.
  // The operating point, traced, gives the breakdown; its untraced twin the
  // allocation count (the tracer's per-thread buffers would add to it).
  const RungResult sat_plain = RunRung(w, model, cfg, saturate, verifier, saturate_refs);
  account(sat_plain);
  obs::Tracer::Get().Start(obs::TraceDetail::kFull, kTraceRing);
  const RungResult sat_traced = RunRung(w, model, cfg, saturate, verifier, saturate_refs);
  TracedCapture();
  account(sat_traced);
  const std::vector<TimedRequest> at_op =
      OperatingRequests(w, prefixes, seed, w.op_load * std::max(1.0, sat_plain.completion_rps));
  const std::vector<MatrixF> op_refs = References(verifier, at_op);
  const RungResult plain = RunRung(w, model, cfg, at_op, verifier, op_refs);
  account(plain);
  obs::Tracer::Get().Start(obs::TraceDetail::kFull, kTraceRing);
  const RungResult traced = RunRung(w, model, cfg, at_op, verifier, op_refs);
  const std::vector<obs::TraceThread> capture = TracedCapture();
  account(traced);
  const PhaseBreakdown phases = BreakdownOf(capture, "server.driver");
  CheckCapture(out, capture, "server.driver", phases);
  // The driver's Step() calls are not reachable from outside the server, so
  // the step spans are the step times; their phases sum to them exactly.
  CheckReconciled(out, SumSelf(phases), phases.total_step_ms, "step spans");
  const Replays rp = RunReplays(w, model, cfg, MedianBatchRows(plain.counters), prefixes);
  AddLayerMetrics(out, w, phases, phases.step_ms, traced.counters,
                  PerStep(plain.engine_allocs, plain.counters), rp,
                  sat_plain.slo.tok_s > 0.0 ? sat_traced.slo.tok_s / sat_plain.slo.tok_s : 0.0);
  AddServerMetrics(out, &traced);
}

}  // namespace

void RunOutput::ReportQuantile(const std::string& name, const Quantile& q,
                               const std::string& unit) {
  notes.push_back(QuantileNote(name, q, unit));
  if (!q.supported()) {
    Fail(Fmt("%s: only %lld of %lld samples lie beyond the reported percentile", name.c_str(),
             static_cast<long long>(q.beyond), static_cast<long long>(q.samples)));
  }
}

void RunOutput::AddLayerQuantile(const std::string& name, const Quantile& q,
                                 const std::string& unit) {
  Add(name, q.value, unit);
  notes.push_back(QuantileNote(name, q, unit));
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : AllWorkloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Workload& w : AllWorkloads()) {
    names.push_back(w.name);
  }
  return names;
}

RunOutput RunWorkload(const Workload& w, uint64_t seed, double seconds, bool trace) {
  RunOutput out;
  Model model;
  SetupSampler setups(w);
  setups.First(&model);
  if (w.open_loop) {
    RunOpenLoop(w, model, &setups, seed, seconds, trace, &out);
  } else {
    RunOffline(w, model, &setups, seed, seconds, trace, &out);
  }
  if (out.failed > 0) {
    out.Fail(Fmt("%lld of %lld requests did not finish with verified outputs",
                 static_cast<long long>(out.failed), static_cast<long long>(out.attempted)));
  }
  out.notes.push_back(Fmt("fail_ratio %.4f (%lld of %lld requests)",
                          out.attempted > 0 ? static_cast<double>(out.failed) /
                                                  static_cast<double>(out.attempted)
                                            : 0.0,
                          static_cast<long long>(out.failed),
                          static_cast<long long>(out.attempted)));
  return out;
}

}  // namespace perfbench
