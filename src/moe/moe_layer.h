// Functional MoE layer (§2.1, Fig. 5): routing, expert dispatch, weighted
// un-permutation, optional shared experts. Two execution paths:
//
//   * MoeForwardReference — the Transformers-style data flow with explicit
//     permutation (gather) and weighted scatter-accumulate over dense
//     experts; the correctness oracle.
//   * MoeForwardSamoyeds — experts in the Samoyeds format executed through
//     the dual-side SSMM kernel with SEL arrays taken directly from the
//     routing plan (no permutation copies). A MoeWorkspace overload keeps
//     steady-state serving free of per-call heap allocation.
//
// Both paths produce a (tokens x hidden) output; with identical (masked)
// weights they agree to bf16 accumulation tolerance.

#ifndef SAMOYEDS_SRC_MOE_MOE_LAYER_H_
#define SAMOYEDS_SRC_MOE_MOE_LAYER_H_

#include <cassert>
#include <vector>

#include "src/core/ssmm_workspace.h"
#include "src/moe/expert.h"
#include "src/moe/model_configs.h"
#include "src/moe/router.h"
#include "src/tensor/matrix.h"
#include "src/tensor/rng.h"

namespace samoyeds {

struct MoeLayerWeights {
  MatrixF router_gate;  // num_experts x hidden
  std::vector<ExpertWeights> experts;
  std::vector<ExpertWeights> shared_experts;

  static MoeLayerWeights Random(Rng& rng, const MoeModelConfig& config);
  // Applies the Samoyeds mask to all routed and shared experts (router stays
  // dense; it is negligible and kept at full precision in the paper too).
  void ApplyMask(const SamoyedsConfig& cfg);
};

struct SamoyedsMoeLayerWeights {
  MatrixF router_gate;
  std::vector<SamoyedsExpertWeights> experts;
  std::vector<SamoyedsExpertWeights> shared_experts;

  static SamoyedsMoeLayerWeights Encode(const MoeLayerWeights& dense, const SamoyedsConfig& cfg);
};

// y[i] += alpha * x[i] over n contiguous elements — the one accumulation
// primitive every un-permutation path shares (weighted scatter rows, shared
// expert folds, residual adds).
inline void Axpy(float alpha, const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

// y += alpha * x over whole same-shaped matrices.
inline void MatrixAxpy(float alpha, const MatrixF& x, MatrixF& y) {
  assert(x.rows() == y.rows() && x.cols() == y.cols());
  Axpy(alpha, x.data(), y.data(), x.size());
}

// Scatter-accumulate one expert's output rows into the layer output with
// per-token gate weights (the weighted un-permutation phase of Fig. 5),
// addressed directly through plan.expert_tokens[expert_id] — no Selection
// materialization; each row is one straight axpy weighted by the plan's
// expert_gate. Exposed so alternative executors (the serving engine's
// tile-granular expert pool) reuse the exact reference accumulation.
void MoeScatterAdd(const MatrixF& expert_out, const RoutingPlan& plan, int expert_id,
                   MatrixF& out);

// Reference data flow over dense experts, using the supplied routing plan.
MatrixF MoeForwardReference(const MatrixF& x, const MoeLayerWeights& w, const RoutingPlan& plan,
                            Activation act);

// Dual-side sparse execution through the Samoyeds kernel.
MatrixF MoeForwardSamoyeds(const MatrixF& x, const SamoyedsMoeLayerWeights& w,
                           const RoutingPlan& plan, Activation act);

// Zero-allocation variant: all scratch lives in `ws`, the result is written
// into `out` (reshaped to tokens x hidden). Bit-identical to the allocating
// overload.
void MoeForwardSamoyeds(const MatrixF& x, const SamoyedsMoeLayerWeights& w,
                        const RoutingPlan& plan, Activation act, MoeWorkspace& ws,
                        MatrixF& out);

}  // namespace samoyeds

#endif  // SAMOYEDS_SRC_MOE_MOE_LAYER_H_
