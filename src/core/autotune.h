// Tile-size / pipeline-depth autotuner for the Samoyeds kernel.
//
// §6.6 shows the kernel's optimal configuration shifts with the device
// (smaller tiles for many-SM/small-L2 parts, deeper pipelines for
// bandwidth-rich parts). This module enumerates the legal configuration
// space and picks the fastest under the timing model — the programmatic
// version of Table 6's "suggested adaptations".

#ifndef SAMOYEDS_SRC_CORE_AUTOTUNE_H_
#define SAMOYEDS_SRC_CORE_AUTOTUNE_H_

#include <vector>

#include "src/core/ssmm_config.h"
#include "src/formats/samoyeds_format.h"
#include "src/kernels/kernel_report.h"
#include "src/simgpu/device_spec.h"

namespace samoyeds {

struct AutotuneResult {
  SsmmConfig config;
  double simulated_ms = 0.0;
  // Simulated time of the default configuration, for speedup reporting.
  double default_ms = 0.0;

  // -- Cache model (see SsmmActiveWorkingSetBytes) --------------------------
  // Modeled active working set of the chosen config — the per-block staged
  // panels plus output tile, times the blocks concurrently resident — and
  // whether it fits the device's LLC. The tuner prefers LLC-resident
  // configs lexicographically: a config whose working set spills is never
  // chosen while a fitting candidate exists.
  double working_set_bytes = 0.0;
  bool fits_llc = true;
  // Modeled cost of serving the config's repeat traffic from the level the
  // working set resides in (TimingModel::ResidencyMs); part of the ranking
  // objective, reported for provenance.
  double residency_ms = 0.0;

  double speedup_over_default() const {
    return simulated_ms > 0.0 ? default_ms / simulated_ms : 0.0;
  }
};

// Candidate configurations: every combination of block tile, warp tile and
// pipeline depth that satisfies the SpTC tile constraints (mw % 16 == 0,
// nw % 8 == 0) and fits the device's shared memory.
std::vector<SsmmConfig> EnumerateSsmmConfigs(const DeviceSpec& device,
                                             const SamoyedsConfig& format);

// Modeled active working set of one tile configuration at a given problem
// shape: the multi-stage packed-A and gathered-B panels plus the fp32
// output tile per thread block, times the number of blocks concurrently
// resident on the device (capped by the grid). This is the footprint the
// LLC must hold for the config's repeat traffic to be cache-served.
double SsmmActiveWorkingSetBytes(const GemmShape& shape, int64_t selected,
                                 const SamoyedsConfig& format, const SsmmConfig& cfg,
                                 const DeviceSpec& device);

// Exhaustive search over EnumerateSsmmConfigs under the timing model plus
// the cache-residency term. The search models the GPU device alone: the
// host's kernel backend never enters it, so every backend gets the same
// tile. Configs whose modeled working set fits the LLC are preferred
// lexicographically over ones that spill; ties rank by simulated time +
// residency cost.
AutotuneResult AutotuneSsmm(const GemmShape& shape, int64_t selected,
                            const SamoyedsConfig& format, const DeviceSpec& device);

}  // namespace samoyeds

#endif  // SAMOYEDS_SRC_CORE_AUTOTUNE_H_
