#include "src/simgpu/timing_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace samoyeds {

int TimingModel::ResidentBlocksPerSm(const DeviceSpec& d, const TrafficReport& r) {
  int blocks = d.max_blocks_per_sm;
  if (r.smem_bytes_per_block > 0) {
    blocks = std::min<int64_t>(blocks, d.smem_per_sm_bytes / std::max<int64_t>(1, r.smem_bytes_per_block));
  }
  if (r.warps_per_block > 0) {
    blocks = std::min(blocks, d.max_warps_per_sm / r.warps_per_block);
    const int64_t regs_per_block =
        static_cast<int64_t>(r.warps_per_block) * 32 * std::max(1, r.regs_per_thread);
    blocks = std::min<int64_t>(blocks, d.regs_per_sm / std::max<int64_t>(1, regs_per_block));
  }
  return std::max(1, blocks);
}

namespace {

// Resident blocks per SM given the block's resource appetite.
int BlocksPerSm(const DeviceSpec& d, const TrafficReport& r) {
  return TimingModel::ResidentBlocksPerSm(d, r);
}

}  // namespace

double TimingModel::LlcBandwidthBytesPerS() const {
  const double gbps = device_.llc_bandwidth_gbps > 0.0
                          ? device_.llc_bandwidth_gbps
                          : device_.dram_bandwidth_gbps * kL2BandwidthRatio;
  return gbps * 1e9;
}

double TimingModel::MemoryLevelMs(double bytes, bool from_llc) const {
  if (bytes <= 0.0) {
    return 0.0;
  }
  const double bw = from_llc ? LlcBandwidthBytesPerS() : device_.dram_bandwidth_gbps * 1e9;
  const double latency_us = from_llc ? device_.llc_latency_us : device_.dram_latency_us;
  if (bw <= 0.0) {
    return 0.0;
  }
  return latency_us * 1e-3 + bytes / bw * 1e3;
}

TimingEstimate TimingModel::Estimate(const TrafficReport& r) const {
  TimingEstimate e;
  const DeviceSpec& d = device_;

  // ---- Parallelism --------------------------------------------------------
  const int blocks_per_sm = BlocksPerSm(d, r);
  const int warps_per_block = std::max(1, r.warps_per_block);
  const double warps_available = static_cast<double>(std::max<int64_t>(1, r.thread_blocks)) *
                                 warps_per_block;
  const double warps_for_peak = kWarpsForPeakPerSm * d.sm_count;
  // Linear ramp until the chip has enough warps in flight to hide latency.
  const double latency_eff = std::min(1.0, warps_available / warps_for_peak);

  const double concurrent_capacity = static_cast<double>(blocks_per_sm) * d.sm_count;
  double tail_eff = 1.0;
  if (static_cast<double>(r.thread_blocks) > concurrent_capacity) {
    const double waves = std::ceil(static_cast<double>(r.thread_blocks) / concurrent_capacity);
    tail_eff = static_cast<double>(r.thread_blocks) / (waves * concurrent_capacity);
  }
  e.parallel_efficiency = std::max(1e-3, latency_eff * tail_eff);
  e.occupancy = std::min(1.0, static_cast<double>(blocks_per_sm * warps_per_block) /
                                  d.max_warps_per_sm);
  // Bandwidth achieved also degrades when too few warps issue requests.
  const double mlp_eff = std::min(1.0, 0.25 + 0.75 * (warps_available / warps_for_peak));

  // ---- Compute ------------------------------------------------------------
  // mma_flops are *executed* FLOPs (skipped MACs excluded), issued at the
  // dense tensor-core rate; the 2x SpTC benefit therefore appears as fewer
  // executed FLOPs for 2:4-compressed operands.
  const double tc_rate = d.tc_dense_tflops * 1e12;
  const double simd_rate = d.simd_tflops * 1e12;
  double t_compute = 0.0;
  if (r.mma_flops > 0.0) {
    t_compute += r.mma_flops / tc_rate;
  }
  if (r.simd_flops > 0.0) {
    t_compute += r.simd_flops / simd_rate;
  }

  // ---- Global memory ------------------------------------------------------
  const double coalesced_reads = std::max(0.0, r.gmem_read_bytes - r.gmem_uncoalesced_bytes);
  const double l2_traffic = coalesced_reads +
                            r.gmem_uncoalesced_bytes * kUncoalescedAmplification +
                            r.gmem_write_bytes;
  const double unique = std::max(1.0, r.gmem_unique_bytes);
  // Repeat traffic hits in L2 when the *active* working set — the slice of
  // the footprint touched by concurrently resident blocks — fits. Tiled
  // kernels with far more blocks than the chip can host stream through small
  // hot panels, which is why real GEMMs stay compute-bound even when the
  // matrices dwarf the L2.
  const double resident_fraction =
      std::min(1.0, concurrent_capacity / static_cast<double>(std::max<int64_t>(1, r.thread_blocks)));
  const double active_ws = std::max(1.0, unique * resident_fraction);
  const double l2_hit = std::clamp(static_cast<double>(d.l2_bytes) / active_ws, 0.0, 1.0);
  // Writes are write-through to DRAM eventually; they floor the DRAM volume.
  const double dram_traffic = std::min(
      l2_traffic,
      std::max(unique + (l2_traffic - unique) * (1.0 - l2_hit), r.gmem_write_bytes));
  const double dram_bw = d.dram_bandwidth_gbps * 1e9 * mlp_eff;
  const double l2_bw = LlcBandwidthBytesPerS() * mlp_eff;
  const double t_dram = std::max(dram_traffic / dram_bw, l2_traffic / l2_bw);

  // ---- Shared memory ------------------------------------------------------
  const double t_smem = r.smem_bytes * std::max(1.0, r.bank_conflict_factor) /
                        (d.smem_bandwidth_gbps * 1e9);

  // ---- Combine with pipeline overlap -------------------------------------
  // Compute throughput needs the full warp complement (latency ramp); the
  // memory side is already scaled by the request-parallelism factor mlp_eff,
  // so it only pays the tail-wave quantization — charging it the latency
  // ramp again would double-count the same missing warps.
  const double t_compute_eff = t_compute / e.parallel_efficiency;
  const double t_dram_eff = t_dram / tail_eff;
  const double t_smem_eff = t_smem / tail_eff;

  const int stages = std::max(1, r.pipeline_stages);
  e.overlap_fraction = 1.0 - 1.0 / static_cast<double>(stages);
  const double t_mem = std::max(t_dram_eff, t_smem_eff);
  const double bound = std::max(t_compute_eff, t_mem);
  const double other = std::min(t_compute_eff, t_mem);
  double total = bound + (1.0 - e.overlap_fraction) * other;

  total /= std::clamp(r.efficiency, 0.05, 1.0);
  if (r.mainloop_iterations > 0) {
    // Pipeline fill/drain bubbles: (stages - 1) of the k-step iterations per
    // block produce no useful MMA issue.
    total *= 1.0 + static_cast<double>(stages - 1) / static_cast<double>(r.mainloop_iterations);
  }
  total += r.fixed_overhead_us * 1e-6;

  e.compute_ms = t_compute_eff * 1e3;
  e.dram_ms = t_dram_eff * 1e3;
  e.smem_ms = t_smem_eff * 1e3;
  e.total_ms = total * 1e3;
  assert(std::isfinite(e.total_ms) && e.total_ms >= 0.0);
  return e;
}

double TimingModel::InterconnectPhaseMs(double bytes) const {
  if (bytes <= 0.0 || !device_.has_interconnect()) {
    return 0.0;
  }
  return device_.link_latency_us * 1e-3 + bytes / (device_.link_bandwidth_gbps * 1e9) * 1e3;
}

double TimingModel::AllToAllMs(const TrafficReport& report, int num_shards) const {
  if (num_shards <= 1) {
    return 0.0;
  }
  const double shards = static_cast<double>(num_shards);
  return InterconnectPhaseMs(report.alltoall_dispatch_bytes / shards) +
         InterconnectPhaseMs(report.alltoall_combine_bytes / shards);
}

double TimingModel::ThroughputTflops(double useful_flops, const TrafficReport& report) const {
  const TimingEstimate e = Estimate(report);
  if (e.total_ms <= 0.0) {
    return 0.0;
  }
  return useful_flops / (e.total_ms * 1e-3) / 1e12;
}

}  // namespace samoyeds
