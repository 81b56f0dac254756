#include "src/moe/expert.h"

#include <cassert>
#include <cmath>
#include <vector>

#include "src/core/kernel_backend.h"
#include "src/tensor/bf16.h"
#include "src/tensor/expf.h"
#include "src/tensor/gemm_ref.h"

namespace samoyeds {

float ApplyActivation(Activation act, float x) {
  switch (act) {
    case Activation::kSilu:
      return x / (1.0f + ExpF(-x));
    case Activation::kGeluTanh: {
      const float c = 0.7978845608028654f;  // sqrt(2/pi)
      return 0.5f * x * (1.0f + std::tanh(c * (x + 0.044715f * x * x * x)));
    }
  }
  return x;
}

ExpertWeights ExpertWeights::Random(Rng& rng, int hidden, int intermediate, float scale) {
  ExpertWeights w;
  w.gate = rng.GaussianMatrix(intermediate, hidden, scale);
  w.up = rng.GaussianMatrix(intermediate, hidden, scale);
  w.down = rng.GaussianMatrix(hidden, intermediate, scale);
  RoundMatrixToBf16(w.gate);
  RoundMatrixToBf16(w.up);
  RoundMatrixToBf16(w.down);
  return w;
}

void ExpertWeights::ApplyMask(const SamoyedsConfig& cfg) {
  ApplySamoyedsMask(gate, cfg);
  ApplySamoyedsMask(up, cfg);
  ApplySamoyedsMask(down, cfg);
}

SamoyedsExpertWeights SamoyedsExpertWeights::Encode(const ExpertWeights& dense,
                                                    const SamoyedsConfig& cfg) {
  SamoyedsExpertWeights w;
  w.gate = SamoyedsMatrix::Encode(dense.gate, cfg);
  w.up = SamoyedsMatrix::Encode(dense.up, cfg);
  w.down = SamoyedsMatrix::Encode(dense.down, cfg);
  SamoyedsKernel::PackWeights(w.gate, w.gate_packed);
  SamoyedsKernel::PackWeights(w.up, w.up_packed);
  SamoyedsKernel::PackWeights(w.down, w.down_packed);

  // A row is live when a non-empty group of each projection writes it.
  const auto written = [](const SsmmPackedA& packed, int64_t rows) {
    std::vector<bool> out(static_cast<size_t>(rows), false);
    for (size_t g = 0; g < packed.rows.size(); ++g) {
      if (packed.off[g] != packed.off[g + 1]) {
        out[static_cast<size_t>(packed.rows[g])] = true;
      }
    }
    return out;
  };
  std::vector<bool> live = written(w.gate_packed, w.gate.rows);
  const std::vector<bool> up_rows = written(w.up_packed, w.up.rows);
  for (size_t r = 0; r < live.size(); ++r) {
    live[r] = live[r] && up_rows[r];
    if (live[r]) {
      w.live_rows.push_back(static_cast<int32_t>(r));
    }
  }

  // Compact each pack in place to the entries `keep(group, entry)` accepts.
  // Every group stays, emptied if need be: the kernels skip an empty group.
  const auto compact = [](SsmmPackedA& packed, const auto& keep) {
    int64_t cursor = 0;
    for (size_t g = 0; g + 1 < packed.off.size(); ++g) {
      const int64_t begin = packed.off[g];
      const int64_t end = packed.off[g + 1];
      packed.off[g] = cursor;
      for (int64_t e = begin; e < end; ++e) {
        if (keep(g, static_cast<size_t>(e))) {
          packed.vals[static_cast<size_t>(cursor)] = packed.vals[static_cast<size_t>(e)];
          packed.cols[static_cast<size_t>(cursor)] = packed.cols[static_cast<size_t>(e)];
          ++cursor;
        }
      }
    }
    packed.off.back() = cursor;
    packed.vals.resize(static_cast<size_t>(cursor));
    packed.cols.resize(static_cast<size_t>(cursor));
  };
  // gate and up keep only the groups that write a live row; down keeps only
  // the entries that read one.
  for (SsmmPackedA* packed : {&w.gate_packed, &w.up_packed}) {
    compact(*packed, [&live, packed](size_t g, size_t) {
      return live[static_cast<size_t>(packed->rows[g])];
    });
  }
  compact(w.down_packed, [&live, &down = w.down_packed](size_t, size_t e) {
    return live[static_cast<size_t>(down.cols[e])];
  });
  return w;
}

namespace {

// act(gate) ⊙ up, rounded to bf16 (inter-kernel storage format).
MatrixF GatedActivation(const MatrixF& gate_out, const MatrixF& up_out, Activation act) {
  assert(gate_out.rows() == up_out.rows() && gate_out.cols() == up_out.cols());
  MatrixF h(gate_out.rows(), gate_out.cols());
  for (int64_t r = 0; r < h.rows(); ++r) {
    for (int64_t c = 0; c < h.cols(); ++c) {
      h(r, c) = RoundToBf16(ApplyActivation(act, gate_out(r, c)) * up_out(r, c));
    }
  }
  return h;
}

// The widest bit-exact SIMD gated-SiLU row kernel this machine runs,
// resolved once from cpuid; nullptr keeps the scalar loop (kernel_backend.h).
GatedSiluRowFn GatedSiluKernel() {
  static const GatedSiluRowFn kernel = WidestKernel(&GetGatedSiluKernel);
  return kernel;
}

MatrixF GatherRows(const MatrixF& x, const Selection& sel) {
  MatrixF out(sel.selected(), x.cols());
  for (int64_t i = 0; i < sel.selected(); ++i) {
    const int64_t r = sel.indices[static_cast<size_t>(i)];
    for (int64_t c = 0; c < x.cols(); ++c) {
      out(i, c) = x(r, c);
    }
  }
  return out;
}

}  // namespace

void GatedActivationRows(MatrixF& gate, const MatrixF& up, Activation act,
                         const std::vector<int32_t>& rows) {
  assert(gate.rows() == up.rows() && gate.cols() == up.cols());
  const int64_t n = gate.cols();
  const GatedSiluRowFn simd = act == Activation::kSilu ? GatedSiluKernel() : nullptr;
  for (const int32_t r : rows) {
    float* g = gate.data() + r * n;
    const float* u = up.data() + r * n;
    if (simd != nullptr) {
      simd(g, u, n);
      continue;
    }
    for (int64_t j = 0; j < n; ++j) {
      g[j] = RoundToBf16(ApplyActivation(act, g[j]) * u[j]);
    }
  }
}

MatrixF ExpertForwardDense(const MatrixF& x, const ExpertWeights& w, const Selection& sel,
                           Activation act) {
  const MatrixF xs = GatherRows(x, sel);
  const MatrixF gate_out = GemmRef(xs, w.gate.Transposed());
  const MatrixF up_out = GemmRef(xs, w.up.Transposed());
  const MatrixF h = GatedActivation(gate_out, up_out, act);
  return GemmRef(h, w.down.Transposed());
}

void ExpertForwardSamoyeds(const MatrixF& x, const SamoyedsExpertWeights& w,
                           const Selection& sel, Activation act, SsmmWorkspace& ws,
                           MatrixF& out, int64_t out_row_begin, KernelBackend backend) {
  const int64_t n_sel = sel.selected();
  const int64_t hidden = w.down.rows;
  assert(out.cols() == hidden);
  assert(out_row_begin >= 0 && out_row_begin + n_sel <= out.rows());
  if (n_sel == 0) {
    return;
  }

  // One fused gather + transpose + bf16 rounding of the selected token rows
  // feeds both projections (§4.5's staging done once per call), through the
  // weight packs Encode built.
  assert(!w.gate_packed.empty() && "experts are packed by Encode");
  SamoyedsKernel::PackSelectedTokens(x, sel, ws.panel);
  // gate and up: inter x n_sel; down: hidden x n_sel.
  SamoyedsKernel::RunPanel(w.gate, w.gate_packed, ws.panel, ws, ws.gate_t, backend);
  SamoyedsKernel::RunPanel(w.up, w.up_packed, ws.panel, ws, ws.up_t, backend);
  // gate_t becomes the bf16 intermediate on the live rows, already
  // feature-major — the panel layout the down projection consumes. Dead rows
  // stay as they are: down's pack never reads them.
  GatedActivationRows(ws.gate_t, ws.up_t, act, w.live_rows);
  SamoyedsKernel::RunPanel(w.down, w.down_packed, ws.gate_t, ws, ws.out_t, backend);

  // Single transpose back to token-major output rows.
  const float* src = ws.out_t.data();
  for (int64_t j = 0; j < n_sel; ++j) {
    float* dst = out.data() + (out_row_begin + j) * hidden;
    for (int64_t c = 0; c < hidden; ++c) {
      dst[c] = src[c * n_sel + j];
    }
  }
}

MatrixF ExpertForwardSamoyeds(const MatrixF& x, const SamoyedsExpertWeights& w,
                              const Selection& sel, Activation act) {
  SsmmWorkspace ws;
  MatrixF out(sel.selected(), w.down.rows);
  ExpertForwardSamoyeds(x, w, sel, act, ws, out);
  return out;
}

}  // namespace samoyeds
