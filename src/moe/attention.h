// Attention substrate for the decoder layer.
//
// The paper does not optimize attention; it runs Flash-Attention2 in every
// model-level experiment so that MoE-layer differences dominate (§6,
// "Baselines"). We provide (a) a functional multi-head attention for
// integration tests and (b) analytic profiles for both the naive
// (score-materializing) and Flash-Attention execution styles, used by the
// Fig. 2 time-breakdown experiment and the end-to-end benches.

#ifndef SAMOYEDS_SRC_MOE_ATTENTION_H_
#define SAMOYEDS_SRC_MOE_ATTENTION_H_

#include "src/kernels/kernel_report.h"
#include "src/tensor/matrix.h"
#include "src/tensor/rng.h"

namespace samoyeds {

struct AttentionWeights {
  MatrixF wq, wk, wv, wo;  // each hidden x hidden

  static AttentionWeights Random(Rng& rng, int hidden, float scale = 0.15f);
};

// Functional causal multi-head self-attention; hidden % heads == 0.
MatrixF AttentionForward(const MatrixF& x, const AttentionWeights& w, int heads);

// Causal attention context (before the output projection) of query rows
// [first, first + q.rows()), given projected K/V rows [0, first + q.rows()).
// Same loop nest and accumulation order as AttentionForward, so its rows are
// bit-identical to the matching rows of AttentionForward's context: feeding
// only a step's new rows costs linear, not quadratic, time in the context.
MatrixF CausalContextRows(const MatrixF& q, const MatrixF& k, const MatrixF& v, int64_t first,
                          int heads);

// Analytic profile of one attention block over a batch of `batch` sequences
// of `seq` tokens each (attention scores are quadratic in seq, linear in
// batch). flash = true fuses the softmax(QK^T)V pipeline (no score
// materialization). heads <= 0 selects hidden/128.
KernelProfile AttentionProfile(int64_t seq, int64_t batch, int hidden, int heads, bool flash);

// Elementwise profile for the two RMSNorm/LayerNorm + residual passes of a
// decoder layer.
KernelProfile NormResidualProfile(int64_t tokens, int hidden);

}  // namespace samoyeds

#endif  // SAMOYEDS_SRC_MOE_ATTENTION_H_
