// Roofline + occupancy timing model.
//
// Converts a TrafficReport (what a kernel moves and computes) plus a
// DeviceSpec (what the hardware can sustain) into a simulated execution
// time. The model captures the performance mechanisms the paper's
// evaluation discusses:
//
//   * compute vs memory rooflines with multi-stage pipeline overlap (§4.1),
//   * uncoalesced-access amplification (§3.3, Fig. 6),
//   * L2 capacity effects on repeated tile traffic (§6.6, Table 6),
//   * occupancy ramp with warp count, giving the linear throughput growth
//     in m/n and asymptotic growth in k of Fig. 13,
//   * tail-wave quantization for large grids,
//   * shared-memory bank-conflict penalties (§4.4).

#ifndef SAMOYEDS_SRC_SIMGPU_TIMING_MODEL_H_
#define SAMOYEDS_SRC_SIMGPU_TIMING_MODEL_H_

#include "src/simgpu/device_spec.h"
#include "src/simgpu/traffic.h"

namespace samoyeds {

struct TimingEstimate {
  double compute_ms = 0.0;     // tensor-core + CUDA-core time, post-occupancy
  double dram_ms = 0.0;        // DRAM/L2-bound time
  double smem_ms = 0.0;        // shared-memory-bound time
  double overlap_fraction = 0.0;
  double parallel_efficiency = 1.0;  // occupancy ramp x tail-wave efficiency
  double occupancy = 1.0;            // active warps / max warps per SM
  double total_ms = 0.0;

  bool memory_bound() const { return dram_ms > compute_ms; }
};

class TimingModel {
 public:
  explicit TimingModel(const DeviceSpec& device) : device_(device) {}

  TimingEstimate Estimate(const TrafficReport& report) const;

  // ---- Explicit memory hierarchy (LLC + DRAM levels) ----------------------
  // The device's last-level-cache bandwidth in bytes/s: the explicit
  // DeviceSpec::llc_bandwidth_gbps when set, else the historical
  // kL2BandwidthRatio multiple of DRAM bandwidth (identical for every
  // built-in device, so Estimate's numbers do not move).
  double LlcBandwidthBytesPerS() const;

  // Whether a modeled working set is resident in the LLC.
  bool FitsLlc(double working_set_bytes) const {
    return working_set_bytes <= static_cast<double>(device_.l2_bytes);
  }

  // Time to serve `bytes` from one level of the hierarchy: the level's fixed
  // access latency plus serialization at its bandwidth. `from_llc` selects
  // the LLC level; otherwise DRAM.
  double MemoryLevelMs(double bytes, bool from_llc) const;

  // Residency cost of a tile configuration: `repeat_bytes` (traffic beyond
  // the compulsory footprint — the re-reads of A panels across column tiles
  // and B panels across row tiles) is served by the LLC when
  // `working_set_bytes` fits it, and spills to DRAM when it does not. This
  // is the term the cache-aware autotuner ranks tile configs by; it is
  // intentionally *not* part of Estimate (whose L2-hit model covers the
  // average case) so existing simulated timings are unchanged.
  double ResidencyMs(double working_set_bytes, double repeat_bytes) const {
    return MemoryLevelMs(repeat_bytes, FitsLlc(working_set_bytes));
  }

  // Resident blocks per SM given a block's resource appetite (SMEM, warps,
  // registers). Exposed for the autotuner's active-working-set model.
  static int ResidentBlocksPerSm(const DeviceSpec& device, const TrafficReport& report);

  // Simulated throughput in TFLOP/s given the *useful* (dense-equivalent)
  // work of the operation; this is how the paper reports Fig. 12/13.
  double ThroughputTflops(double useful_flops, const TrafficReport& report) const;

  // Interconnect roofline for expert-parallel sharding. One all-to-all
  // phase over this device's peer link: fixed link latency plus
  // serialization at the per-link bandwidth. `bytes` is the busiest shard's
  // volume for the phase (max over shards of max(sent, received) — links
  // are full duplex). Returns 0 when nothing crosses a link or the device
  // has no interconnect.
  double InterconnectPhaseMs(double bytes) const;

  // Both all-to-all phases (dispatch + combine) of `report`, assuming the
  // cross-shard volume spreads evenly over `num_shards` links. Callers that
  // know the exact per-shard volumes (the serving engine does) should use
  // InterconnectPhaseMs with the busiest shard's bytes instead.
  double AllToAllMs(const TrafficReport& report, int num_shards) const;

  const DeviceSpec& device() const { return device_; }

  // Warps per SM needed to reach peak issue rate; the ramp below this is
  // what produces the low-parallelism regime at m = n = 256 (§6.1.2).
  static constexpr double kWarpsForPeakPerSm = 12.0;
  // Effective amplification of scattered 32-bit accesses relative to fully
  // coalesced 128-byte transactions.
  static constexpr double kUncoalescedAmplification = 4.0;
  // L2 bandwidth relative to DRAM bandwidth (~10x on Ampere/Ada class
  // chips).
  static constexpr double kL2BandwidthRatio = 10.0;

 private:
  const DeviceSpec& device_;
};

}  // namespace samoyeds

#endif  // SAMOYEDS_SRC_SIMGPU_TIMING_MODEL_H_
