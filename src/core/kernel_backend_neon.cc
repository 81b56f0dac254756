// NEON variant of the SSMM panel-group kernel, compile-time gated: NEON is
// baseline on aarch64, so no extra flags are needed — the guard simply
// turns the unit into a stub on non-ARM builds.
//
// Bit-exact against the scalar loop like the other variants
// (kernel_backend.h): each output element keeps the scalar entry order with
// a separate multiply then add (vmulq then vaddq, never a fused one), and the
// remainder columns run the scalar loop's own `acc += a * b`.

#include "src/core/kernel_backend.h"

#if defined(__ARM_NEON) || defined(__aarch64__)

#include <arm_neon.h>

namespace samoyeds {

extern const bool kPanelKernelNeonCompiled = true;

void PanelKernelNeon(const PanelGroupTask& t) {
  const int64_t n_out = t.n_out;
  for (int64_t g = 0; g < t.n_groups; ++g) {
    const int64_t begin = t.a_off[g];
    const int64_t end = t.a_off[g + 1];
    if (begin == end) {
      continue;  // all-zero group contributes an exact +0
    }
    float* const orow = t.out + static_cast<int64_t>(t.group_rows[g]) * n_out;
    int64_t j = 0;
    for (; j + 4 <= n_out; j += 4) {
      float32x4_t acc = vdupq_n_f32(0.0f);
      for (int64_t e = begin; e < end; ++e) {
        const float* brow = t.panel + static_cast<int64_t>(t.a_cols[e]) * n_out + j;
        acc = vaddq_f32(acc, vmulq_n_f32(vld1q_f32(brow), t.a_vals[e]));
      }
      vst1q_f32(orow + j, vaddq_f32(vld1q_f32(orow + j), acc));
    }
    for (; j < n_out; ++j) {
      float acc = 0.0f;
      for (int64_t e = begin; e < end; ++e) {
        acc += t.a_vals[e] * t.panel[static_cast<int64_t>(t.a_cols[e]) * n_out + j];
      }
      orow[j] += acc;
    }
  }
}

}  // namespace samoyeds

#else  // !ARM

namespace samoyeds {

extern const bool kPanelKernelNeonCompiled = false;

void PanelKernelNeon(const PanelGroupTask&) {}  // unreachable: dispatch guards

}  // namespace samoyeds

#endif
