#include "src/core/autotune.h"

#include <algorithm>
#include <limits>

#include "src/core/samoyeds_kernel.h"
#include "src/simgpu/timing_model.h"

namespace samoyeds {

std::vector<SsmmConfig> EnumerateSsmmConfigs(const DeviceSpec& device,
                                             const SamoyedsConfig& format) {
  std::vector<SsmmConfig> configs;
  const double row_frac = static_cast<double>(format.n) / format.m;
  for (int mb : {32, 64, 128, 256}) {
    for (int nb : {16, 32, 64, 128}) {
      for (int stages : {2, 3, 4}) {
        SsmmConfig c;
        c.mb = mb;
        c.nb = nb;
        c.kb = 32;
        c.mw = mb >= 64 ? mb / 2 : mb;
        c.nw = nb >= 16 ? nb / 2 : nb;
        c.stages = stages;
        if (c.mw % 16 != 0 || c.nw % 8 != 0) {
          continue;  // SpTC tile constraints (m16n8k32)
        }
        if (format.v % c.kb != 0) {
          continue;  // kb must divide the sub-row window
        }
        const int64_t smem = static_cast<int64_t>(stages) *
                             (static_cast<int64_t>(mb * row_frac) * c.kb + c.kb * nb) * 2;
        if (smem > device.smem_per_sm_bytes) {
          continue;
        }
        configs.push_back(c);
      }
    }
  }
  return configs;
}

double SsmmActiveWorkingSetBytes(const GemmShape& shape, int64_t selected,
                                 const SamoyedsConfig& format, const SsmmConfig& cfg,
                                 const DeviceSpec& device) {
  const KernelProfile prof = SamoyedsKernel::Analyze(shape, selected, format, cfg, device);
  const TrafficReport& t = prof.traffic;
  // Per-block footprint: the staged panels (already stages x (A + B) bf16
  // bytes plus the SEL slice, from Analyze) and the fp32 output tile the
  // block accumulates into.
  const double per_block = static_cast<double>(t.smem_bytes_per_block) +
                           static_cast<double>(cfg.mb) * cfg.nb * 4.0;
  const double concurrent =
      std::min(static_cast<double>(std::max<int64_t>(1, t.thread_blocks)),
               static_cast<double>(TimingModel::ResidentBlocksPerSm(device, t)) * device.sm_count);
  return per_block * concurrent;
}

namespace {

// Per-candidate scorecard for the lexicographic (fits-LLC, cost) ranking.
struct Scored {
  double cost_ms = std::numeric_limits<double>::infinity();
  double simulated_ms = 0.0;
  double working_set_bytes = 0.0;
  double residency_ms = 0.0;
  bool fits_llc = false;
};

Scored ScoreConfig(const TimingModel& model, const GemmShape& shape, int64_t selected,
                   const SamoyedsConfig& format, const SsmmConfig& cfg) {
  const DeviceSpec& device = model.device();
  const KernelProfile prof = SamoyedsKernel::Analyze(shape, selected, format, cfg, device);
  Scored s;
  s.simulated_ms = model.Estimate(prof.traffic).total_ms;
  s.working_set_bytes = SsmmActiveWorkingSetBytes(shape, selected, format, cfg, device);
  s.fits_llc = model.FitsLlc(s.working_set_bytes);
  // Repeat traffic: everything beyond the compulsory footprint — the A-panel
  // re-reads across column tiles and B-panel re-reads across row tiles.
  const double repeat = std::max(
      0.0, prof.traffic.gmem_read_bytes + prof.traffic.gmem_write_bytes -
               prof.traffic.gmem_unique_bytes);
  s.residency_ms = model.ResidencyMs(s.working_set_bytes, repeat);
  s.cost_ms = s.simulated_ms + s.residency_ms;
  return s;
}

}  // namespace

AutotuneResult AutotuneSsmm(const GemmShape& shape, int64_t selected,
                            const SamoyedsConfig& format, const DeviceSpec& device) {
  const TimingModel model(device);
  const int64_t sel = std::max<int64_t>(selected, 1);

  AutotuneResult result;
  result.default_ms =
      model
          .Estimate(SamoyedsKernel::Analyze(shape, sel, format, SsmmConfig::Default(), device)
                        .traffic)
          .total_ms;

  Scored best;
  bool first = true;
  for (const SsmmConfig& candidate : EnumerateSsmmConfigs(device, format)) {
    const Scored s = ScoreConfig(model, shape, sel, format, candidate);
    // Lexicographic: an LLC-resident working set beats any spilling one; a
    // config that spills is never picked while a fitting candidate exists.
    const bool better = first || (s.fits_llc && !best.fits_llc) ||
                        (s.fits_llc == best.fits_llc && s.cost_ms < best.cost_ms);
    if (better) {
      best = s;
      result.config = candidate;
      first = false;
    }
  }
  result.simulated_ms = best.simulated_ms;
  result.working_set_bytes = best.working_set_bytes;
  result.fits_llc = best.fits_llc;
  result.residency_ms = best.residency_ms;
  return result;
}

}  // namespace samoyeds
