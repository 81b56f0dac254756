// Expert MLP: the gate_proj / up_proj / down_proj trio of Fig. 11(a), in
// dense form (reference / Transformers baseline) and Samoyeds-encoded form
// (running through the SSMM kernel).
//
// The Samoyeds path stages everything feature-major (tokens are columns):
// one fused pack of the selected token rows feeds both the gate and up
// projections, the gated activation runs in place, and the down projection
// consumes it directly — zero transpose copies between kernels, and with a
// caller-provided SsmmWorkspace, zero steady-state heap allocations.

#ifndef SAMOYEDS_SRC_MOE_EXPERT_H_
#define SAMOYEDS_SRC_MOE_EXPERT_H_

#include <cstdint>
#include <vector>

#include "src/core/samoyeds_kernel.h"
#include "src/core/ssmm_workspace.h"
#include "src/formats/samoyeds_format.h"
#include "src/formats/sel.h"
#include "src/moe/model_configs.h"
#include "src/tensor/matrix.h"
#include "src/tensor/rng.h"

namespace samoyeds {

// SiLU is x / (1 + ExpF(-x)) (src/tensor/expf.h), so it gives the same bits
// whatever the host's libm; GELU-tanh uses std::tanh.
float ApplyActivation(Activation act, float x);

// Weight layout: gate/up are (intermediate x hidden), down is
// (hidden x intermediate) — each row produces one output feature, matching
// the y = x W^T convention of the kernels.
struct ExpertWeights {
  MatrixF gate;
  MatrixF up;
  MatrixF down;

  static ExpertWeights Random(Rng& rng, int hidden, int intermediate, float scale = 0.3f);
  // In-place Samoyeds mask on all three projections (for equivalence tests).
  void ApplyMask(const SamoyedsConfig& cfg);
};

struct SamoyedsExpertWeights {
  SamoyedsMatrix gate;
  SamoyedsMatrix up;
  SamoyedsMatrix down;
  // Kernel-ready packed forms (SsmmPackedA), built once by Encode — weights
  // are immutable after encoding, so no Run ever re-derives them. The
  // forward requires them: Encode is the one way to build expert weights.
  SsmmPackedA gate_packed;
  SsmmPackedA up_packed;
  SsmmPackedA down_packed;
  // Intermediate rows that both a non-empty gate group and a non-empty up
  // group write, ascending. Every other row of act(gate) ⊙ up is ±0 for
  // finite activations and nothing reads it, so Encode empties every
  // gate_packed/up_packed group that writes such a row, drops down_packed's
  // entries in those columns, and the forward runs the gated activation on
  // these rows only. Bit-exact: each fp32 partial starts at +0 and a sum
  // that starts at +0 never becomes -0, so adding a ±0 product never
  // changes it.
  std::vector<int32_t> live_rows;

  static SamoyedsExpertWeights Encode(const ExpertWeights& dense, const SamoyedsConfig& cfg);
};

// y = (act(x G^T) ⊙ (x U^T)) D^T over the *selected rows* of x.
// The intermediate is rounded to bf16 between projections, mirroring the
// on-device storage format. Output has sel.selected() rows.
MatrixF ExpertForwardDense(const MatrixF& x, const ExpertWeights& w, const Selection& sel,
                           Activation act);

// gate := bf16(act(gate) ⊙ up) in place, on the listed rows only. SiLU runs
// the widest gated-SiLU row kernel this CPU has (resolved once from cpuid,
// no knob); every kernel gives the scalar loop's bits (kernel_backend.h).
void GatedActivationRows(MatrixF& gate, const MatrixF& up, Activation act,
                         const std::vector<int32_t>& rows);

// Same computation through the Samoyeds SSMM kernel (dual-side sparse).
MatrixF ExpertForwardSamoyeds(const MatrixF& x, const SamoyedsExpertWeights& w,
                              const Selection& sel, Activation act);

// Zero-allocation variant: writes rows [out_row_begin, out_row_begin +
// sel.selected()) of `out` (which must already span them; columns ==
// hidden). Per-token results are independent of how tokens are grouped into
// calls, so callers may split one expert's token set across several calls
// (tile-granular scheduling) and get bit-identical rows. `backend` runs all
// three projections; every backend gives the same bits.
void ExpertForwardSamoyeds(const MatrixF& x, const SamoyedsExpertWeights& w,
                           const Selection& sel, Activation act, SsmmWorkspace& ws,
                           MatrixF& out, int64_t out_row_begin = 0,
                           KernelBackend backend = KernelBackend::kScalar);

}  // namespace samoyeds

#endif  // SAMOYEDS_SRC_MOE_EXPERT_H_
