// Deterministic fault injection for the serving engine.
//
// A FaultInjector owns a set of named fault points threaded through the
// serving stack (KV page allocation, host-swap transfers and payload
// integrity, shard liveness, interconnect health). The engine probes a point
// wherever the real system could fail; the injector answers "fail here, now"
// according to a reproducible schedule:
//
//   * at-step rules fire on every probe of their point while the engine is
//     on exactly that step (so `kv-alloc@12` fails *all* page allocations of
//     step 12), and
//   * probability rules draw from a per-rule counter-based RNG seeded from
//     (seed, rule index), so a schedule replays bit-exactly for a given seed
//     regardless of which other rules exist.
//
// Probes are only ever issued from the engine thread at deterministic
// program points, which makes every chaos run replayable: the same schedule
// + seed + trace produces the same fault sequence, the same recovery
// actions, and byte-identical reports once ServingReport::StripWallClock has
// zeroed the measured (wall-clock) fields.
//
// The schedule grammar (CLI `--faults=`):
//
//   spec     := rule ("," rule)*
//   rule     := point ("@" step | "~" probability) [":" arg] ["x" max_fires]
//   point    := kv-alloc | swap-out | swap-in | swap-corrupt |
//               shard-die | shard-stall | link-degrade
//
// e.g. "kv-alloc~0.05,shard-die@40:1,swap-corrupt@12x2". `arg` is
// point-specific: the physical shard id for shard-die/shard-stall, the
// bandwidth divisor for link-degrade (default 2), unused elsewhere.

#ifndef SAMOYEDS_SRC_SERVING_FAULTS_H_
#define SAMOYEDS_SRC_SERVING_FAULTS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace samoyeds {
namespace serving {

enum class FaultPoint {
  kKvAlloc,     // KV page allocation fails (engine retries, then recomputes)
  kSwapOut,     // host-swap transfer out fails (transient; bounded retries)
  kSwapIn,      // host-swap transfer in fails (transient; bounded retries)
  kSwapCorrupt, // swapped payload bit-flips at rest (checksum catches it)
  kShardDeath,  // shard `arg` dies; its experts fail over to survivors
  kShardStall,  // shard `arg` stalls this step (analytic-time penalty)
  kLinkDegrade, // interconnect bandwidth divided by `arg` from here on
};
inline constexpr int kNumFaultPoints = 7;

const char* FaultPointName(FaultPoint p);
bool ParseFaultPoint(const char* name, FaultPoint* out);

// One schedule entry. Exactly one of at_step / probability drives it:
// at_step >= 0 makes the rule step-triggered (probability is ignored).
struct FaultRule {
  FaultPoint point = FaultPoint::kKvAlloc;
  int64_t at_step = -1;     // fire on probes at exactly this step; -1 = off
  double probability = 0.0; // else: per-probe fire probability in [0, 1]
  int64_t arg = 0;          // point-specific (shard id, bandwidth divisor)
  int64_t max_fires = -1;   // lifetime fire budget; -1 = unbounded
};

struct FaultDecision {
  bool fire = false;
  int64_t arg = 0;
};

// Parses the schedule grammar above into rules. On failure returns false and
// leaves a human-readable message in *error (rules is untouched on failure).
bool ParseFaultSchedule(const std::string& spec, std::vector<FaultRule>* rules,
                        std::string* error);

class FaultInjector {
 public:
  FaultInjector() = default;  // disabled: every probe answers "no fault"

  // Installs the schedule. `seed` drives the probability rules; rules with
  // the same (seed, position) always replay the same fire sequence.
  void Configure(std::vector<FaultRule> rules, uint64_t seed);

  // The engine advances this at the top of each Step(); at-step rules match
  // against it.
  void BeginStep(int64_t step) { step_ = step; }

  // One probe of `point`: the first rule for the point that fires wins (and
  // consumes one of its max_fires). Probes must come from deterministic
  // program points — the engine thread only.
  FaultDecision Probe(FaultPoint point);
  bool ShouldFail(FaultPoint point) { return Probe(point).fire; }

  bool enabled() const { return !rules_.empty(); }
  int64_t fires(FaultPoint point) const {
    return fires_[static_cast<size_t>(point)];
  }
  int64_t total_fires() const;

 private:
  struct RuleState {
    FaultRule rule;
    uint64_t rng = 0;  // splitmix64 state, advanced per probability draw
    int64_t fires = 0;
  };

  std::vector<RuleState> rules_;
  std::array<int64_t, kNumFaultPoints> fires_{};
  int64_t step_ = 0;
};

}  // namespace serving
}  // namespace samoyeds

#endif  // SAMOYEDS_SRC_SERVING_FAULTS_H_
