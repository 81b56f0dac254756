#include "src/moe/moe_layer.h"

#include <cassert>
#include <numeric>

namespace samoyeds {

MoeLayerWeights MoeLayerWeights::Random(Rng& rng, const MoeModelConfig& config) {
  MoeLayerWeights w;
  w.router_gate = rng.GaussianMatrix(config.num_experts, config.hidden, 0.3f);
  w.experts.reserve(static_cast<size_t>(config.num_experts));
  for (int e = 0; e < config.num_experts; ++e) {
    w.experts.push_back(ExpertWeights::Random(rng, config.hidden, config.intermediate));
  }
  for (int s = 0; s < config.shared_experts; ++s) {
    w.shared_experts.push_back(ExpertWeights::Random(rng, config.hidden, config.intermediate));
  }
  return w;
}

void MoeLayerWeights::ApplyMask(const SamoyedsConfig& cfg) {
  for (auto& e : experts) {
    e.ApplyMask(cfg);
  }
  for (auto& e : shared_experts) {
    e.ApplyMask(cfg);
  }
}

SamoyedsMoeLayerWeights SamoyedsMoeLayerWeights::Encode(const MoeLayerWeights& dense,
                                                        const SamoyedsConfig& cfg) {
  SamoyedsMoeLayerWeights w;
  w.router_gate = dense.router_gate;
  for (const auto& e : dense.experts) {
    w.experts.push_back(SamoyedsExpertWeights::Encode(e, cfg));
  }
  for (const auto& e : dense.shared_experts) {
    w.shared_experts.push_back(SamoyedsExpertWeights::Encode(e, cfg));
  }
  return w;
}

void MoeScatterAdd(const MatrixF& expert_out, const RoutingPlan& plan, int expert_id,
                   MatrixF& out) {
  const auto& tokens = plan.expert_tokens[static_cast<size_t>(expert_id)];
  const auto& gates = plan.expert_gate[static_cast<size_t>(expert_id)];
  assert(expert_out.rows() >= static_cast<int64_t>(tokens.size()));
  assert(gates.size() == tokens.size());
  const int64_t cols = out.cols();
  for (size_t i = 0; i < tokens.size(); ++i) {
    Axpy(gates[i], expert_out.data() + static_cast<int64_t>(i) * cols,
         out.data() + static_cast<int64_t>(tokens[i]) * cols, cols);
  }
}

MatrixF MoeForwardReference(const MatrixF& x, const MoeLayerWeights& w, const RoutingPlan& plan,
                            Activation act) {
  assert(plan.tokens == x.rows());
  MatrixF out(x.rows(), x.cols());
  for (int e = 0; e < plan.num_experts; ++e) {
    const Selection sel = plan.SelectionForExpert(e);
    if (sel.selected() == 0) {
      continue;
    }
    const MatrixF expert_out = ExpertForwardDense(x, w.experts[static_cast<size_t>(e)], sel, act);
    MoeScatterAdd(expert_out, plan, e, out);
  }
  // Shared experts process every token with unit weight.
  const Selection all = Selection::All(x.rows());
  for (const auto& shared : w.shared_experts) {
    const MatrixF shared_out = ExpertForwardDense(x, shared, all, act);
    MatrixAxpy(1.0f, shared_out, out);
  }
  return out;
}

void MoeForwardSamoyeds(const MatrixF& x, const SamoyedsMoeLayerWeights& w,
                        const RoutingPlan& plan, Activation act, MoeWorkspace& ws,
                        MatrixF& out) {
  assert(plan.tokens == x.rows());
  out.Reshape(x.rows(), x.cols());
  out.Fill(0.0f);
  ws.sel.full_size = x.rows();
  for (int e = 0; e < plan.num_experts; ++e) {
    const auto& tokens = plan.expert_tokens[static_cast<size_t>(e)];
    if (tokens.empty()) {
      continue;
    }
    ws.sel.indices.assign(tokens.begin(), tokens.end());
    ws.expert_out.Reshape(static_cast<int64_t>(tokens.size()), x.cols());
    ExpertForwardSamoyeds(x, w.experts[static_cast<size_t>(e)], ws.sel, act, ws.ssmm,
                          ws.expert_out);
    MoeScatterAdd(ws.expert_out, plan, e, out);
  }
  if (!w.shared_experts.empty()) {
    ws.sel.indices.resize(static_cast<size_t>(x.rows()));
    std::iota(ws.sel.indices.begin(), ws.sel.indices.end(), 0);
    ws.expert_out.Reshape(x.rows(), x.cols());
    for (const auto& shared : w.shared_experts) {
      ExpertForwardSamoyeds(x, shared, ws.sel, act, ws.ssmm, ws.expert_out);
      MatrixAxpy(1.0f, ws.expert_out, out);
    }
  }
}

MatrixF MoeForwardSamoyeds(const MatrixF& x, const SamoyedsMoeLayerWeights& w,
                           const RoutingPlan& plan, Activation act) {
  MoeWorkspace ws;
  MatrixF out;
  MoeForwardSamoyeds(x, w, plan, act, ws, out);
  return out;
}

}  // namespace samoyeds
