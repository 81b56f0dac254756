#include "src/moe/baseline_forward.h"

#include <cassert>

#include "src/formats/block_sparse.h"
#include "src/tensor/bf16.h"
#include "src/tensor/gemm_ref.h"

namespace samoyeds {

namespace {

MatrixF GatherRows(const MatrixF& x, const std::vector<int32_t>& rows) {
  MatrixF out(static_cast<int64_t>(rows.size()), x.cols());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (int64_t c = 0; c < x.cols(); ++c) {
      out(static_cast<int64_t>(i), c) = x(rows[i], c);
    }
  }
  return out;
}

MatrixF GatedActivationBf16(const MatrixF& gate_out, const MatrixF& up_out, Activation act) {
  MatrixF h(gate_out.rows(), gate_out.cols());
  for (int64_t r = 0; r < h.rows(); ++r) {
    for (int64_t c = 0; c < h.cols(); ++c) {
      h(r, c) = RoundToBf16(ApplyActivation(act, gate_out(r, c)) * up_out(r, c));
    }
  }
  return h;
}

float GateWeight(const RoutingPlan& plan, int64_t token, int expert) {
  for (const auto& [e, w] : plan.TokenAssignment(token)) {
    if (e == expert) {
      return w;
    }
  }
  return 0.0f;
}

void WeightedScatter(const MatrixF& expert_out, const std::vector<int32_t>& tokens,
                     const RoutingPlan& plan, int expert, MatrixF& out) {
  for (size_t i = 0; i < tokens.size(); ++i) {
    const float w = GateWeight(plan, tokens[i], expert);
    for (int64_t c = 0; c < out.cols(); ++c) {
      out(tokens[i], c) += w * expert_out(static_cast<int64_t>(i), c);
    }
  }
}

void AddSharedExperts(const MatrixF& x, const MoeLayerWeights& w, Activation act, MatrixF& out) {
  const Selection all = Selection::All(x.rows());
  for (const auto& shared : w.shared_experts) {
    const MatrixF shared_out = ExpertForwardDense(x, shared, all, act);
    for (int64_t r = 0; r < out.rows(); ++r) {
      for (int64_t c = 0; c < out.cols(); ++c) {
        out(r, c) += shared_out(r, c);
      }
    }
  }
}

}  // namespace

MatrixF MoeForwardMegaBlocks(const MatrixF& x, const MoeLayerWeights& w, const RoutingPlan& plan,
                             Activation act, int block_size) {
  const int64_t hidden = x.cols();
  const int64_t inter = w.experts.front().gate.rows();
  const int num_experts = plan.num_experts;

  // Permutation: expert-major concatenation of routed token rows.
  std::vector<int32_t> perm_tokens;
  std::vector<int> perm_expert;
  for (int e = 0; e < num_experts; ++e) {
    for (int32_t tok : plan.expert_tokens[static_cast<size_t>(e)]) {
      perm_tokens.push_back(tok);
      perm_expert.push_back(e);
    }
  }
  const int64_t routed = static_cast<int64_t>(perm_tokens.size());
  MatrixF out(x.rows(), hidden);
  if (routed > 0) {
    // Stage the block-diagonal operand: row r holds its token's activations
    // in the column stripe of its expert; the block-sparse topology encodes
    // exactly the (token-block, expert) pairs MegaBlocks' dMoE would
    // schedule — off-diagonal blocks are absent, so no padding FLOPs.
    MatrixF staged(routed, static_cast<int64_t>(num_experts) * hidden);
    for (int64_t r = 0; r < routed; ++r) {
      const int64_t off = static_cast<int64_t>(perm_expert[static_cast<size_t>(r)]) * hidden;
      for (int64_t c = 0; c < hidden; ++c) {
        staged(r, off + c) = x(perm_tokens[static_cast<size_t>(r)], c);
      }
    }
    const BlockSparseMatrix bs = BlockSparseMatrix::FromDense(staged, block_size);

    // Stacked weights: [G_0^T; G_1^T; ...] etc., (E*hidden) x inter.
    MatrixF gate_stack(static_cast<int64_t>(num_experts) * hidden, inter);
    MatrixF up_stack(static_cast<int64_t>(num_experts) * hidden, inter);
    for (int e = 0; e < num_experts; ++e) {
      const ExpertWeights& ew = w.experts[static_cast<size_t>(e)];
      for (int64_t r = 0; r < hidden; ++r) {
        for (int64_t c = 0; c < inter; ++c) {
          gate_stack(static_cast<int64_t>(e) * hidden + r, c) = ew.gate(c, r);
          up_stack(static_cast<int64_t>(e) * hidden + r, c) = ew.up(c, r);
        }
      }
    }
    const MatrixF gate_out = bs.Multiply(gate_stack);
    const MatrixF up_out = bs.Multiply(up_stack);
    const MatrixF h = GatedActivationBf16(gate_out, up_out, act);

    // Down projection: the same grouped structure over the intermediate.
    MatrixF staged_h(routed, static_cast<int64_t>(num_experts) * inter);
    for (int64_t r = 0; r < routed; ++r) {
      const int64_t off = static_cast<int64_t>(perm_expert[static_cast<size_t>(r)]) * inter;
      for (int64_t c = 0; c < inter; ++c) {
        staged_h(r, off + c) = h(r, c);
      }
    }
    const BlockSparseMatrix bs_h = BlockSparseMatrix::FromDense(staged_h, block_size);
    MatrixF down_stack(static_cast<int64_t>(num_experts) * inter, hidden);
    for (int e = 0; e < num_experts; ++e) {
      const ExpertWeights& ew = w.experts[static_cast<size_t>(e)];
      for (int64_t r = 0; r < inter; ++r) {
        for (int64_t c = 0; c < hidden; ++c) {
          down_stack(static_cast<int64_t>(e) * inter + r, c) = ew.down(c, r);
        }
      }
    }
    const MatrixF y = bs_h.Multiply(down_stack);

    // Weighted un-permutation.
    for (int64_t r = 0; r < routed; ++r) {
      const int32_t tok = perm_tokens[static_cast<size_t>(r)];
      const float gw = GateWeight(plan, tok, perm_expert[static_cast<size_t>(r)]);
      for (int64_t c = 0; c < hidden; ++c) {
        out(tok, c) += gw * y(r, c);
      }
    }
  }
  AddSharedExperts(x, w, act, out);
  return out;
}

MatrixF MoeForwardVllmFused(const MatrixF& x, const MoeLayerWeights& w, const RoutingPlan& plan,
                            Activation act, int tile) {
  MatrixF out(x.rows(), x.cols());
  for (int e = 0; e < plan.num_experts; ++e) {
    const auto& tokens = plan.expert_tokens[static_cast<size_t>(e)];
    if (tokens.empty()) {
      continue;
    }
    const ExpertWeights& ew = w.experts[static_cast<size_t>(e)];
    // Token tiles aligned to `tile`; padding rows are zeros and produce
    // zero contributions.
    for (size_t start = 0; start < tokens.size(); start += static_cast<size_t>(tile)) {
      const size_t end = std::min(tokens.size(), start + static_cast<size_t>(tile));
      std::vector<int32_t> tile_tokens(tokens.begin() + static_cast<std::ptrdiff_t>(start),
                                       tokens.begin() + static_cast<std::ptrdiff_t>(end));
      const MatrixF xs = GatherRows(x, tile_tokens);
      // Fused: gate, up, activation in one pass (no standalone tensors
      // escape the "kernel"); then the down projection with the weighted
      // accumulation fused into the epilogue.
      const MatrixF h = GatedActivationBf16(GemmRef(xs, ew.gate.Transposed()),
                                            GemmRef(xs, ew.up.Transposed()), act);
      const MatrixF y = GemmRef(h, ew.down.Transposed());
      WeightedScatter(y, tile_tokens, plan, e, out);
    }
  }
  AddSharedExperts(x, w, act, out);
  return out;
}

MatrixF MoeForwardPit(const MatrixF& x, const MoeLayerWeights& w, const RoutingPlan& plan,
                      Activation act, int micro) {
  MatrixF out(x.rows(), x.cols());
  // PIT gathers sparse micro-tiles into dense compute tiles; the
  // permutation-invariant property means the gather order never changes the
  // result. We emulate by processing each expert's tokens in micro-tile
  // chunks assembled from the (already permutation-invariant) routing
  // lists.
  for (int e = 0; e < plan.num_experts; ++e) {
    const auto& tokens = plan.expert_tokens[static_cast<size_t>(e)];
    const ExpertWeights& ew = w.experts[static_cast<size_t>(e)];
    for (size_t start = 0; start < tokens.size(); start += static_cast<size_t>(micro)) {
      const size_t end = std::min(tokens.size(), start + static_cast<size_t>(micro));
      std::vector<int32_t> group(tokens.begin() + static_cast<std::ptrdiff_t>(start),
                                 tokens.begin() + static_cast<std::ptrdiff_t>(end));
      const MatrixF xs = GatherRows(x, group);
      const MatrixF h = GatedActivationBf16(GemmRef(xs, ew.gate.Transposed()),
                                            GemmRef(xs, ew.up.Transposed()), act);
      const MatrixF y = GemmRef(h, ew.down.Transposed());
      WeightedScatter(y, group, plan, e, out);
    }
  }
  AddSharedExperts(x, w, act, out);
  return out;
}

}  // namespace samoyeds
