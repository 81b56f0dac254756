// End-to-end integration tests: the whole pipeline from pruning through
// encoding through the dual-side kernel into a decoder layer, plus
// cross-experiment consistency checks between the analytic profiles used by
// different benches.

#include <gtest/gtest.h>

#include "src/core/autotune.h"
#include "src/core/samoyeds_kernel.h"
#include "src/frameworks/layer_cost.h"
#include "src/kernels/dense_gemm.h"
#include "src/moe/attention.h"
#include "src/moe/memory_model.h"
#include "src/moe/moe_layer.h"
#include "src/pruning/pruners.h"
#include "src/simgpu/timing_model.h"
#include "src/tensor/gemm_ref.h"
#include "tests/test_util.h"

namespace samoyeds {
namespace {

// Offline pipeline: prune a dense expert, encode it, and verify the kernel
// produces the masked-dense result.
TEST(IntegrationTest, PruneEncodeExecute) {
  Rng rng(201);
  const SamoyedsConfig fmt{1, 2, 32};
  MatrixF w = RandomBf16Matrix(rng, 64, 128);

  const SamoyedsMatrix encoded = SamoyedsMatrix::Encode(w, fmt);
  const MatrixF x = RandomBf16Matrix(rng, 128, 32);
  const Selection sel = RandomSelection(rng, 32, 20);
  const MatrixF y = SamoyedsKernel::Run(encoded, x, sel);

  MatrixF masked = w;
  ApplySamoyedsMask(masked, fmt);
  const MatrixF expect = GemmRef(masked, GatherColumns(x, sel));
  EXPECT_LE(MaxAbsDiff(y, expect), 2e-3f);
}

// Full functional decoder slice: attention + MoE layer, Samoyeds weights.
TEST(IntegrationTest, DecoderSliceFunctional) {
  Rng rng(202);
  MoeModelConfig cfg;
  cfg.num_experts = 4;
  cfg.hidden = 32;
  cfg.intermediate = 64;
  cfg.top_k = 2;
  const SamoyedsConfig fmt{1, 2, 32};

  const AttentionWeights attn = AttentionWeights::Random(rng, cfg.hidden);
  MoeLayerWeights moe = MoeLayerWeights::Random(rng, cfg);
  const SamoyedsMoeLayerWeights sparse_moe = SamoyedsMoeLayerWeights::Encode(moe, fmt);
  moe.ApplyMask(fmt);

  MatrixF x = RandomBf16Matrix(rng, 16, cfg.hidden, 0.5f);
  const MatrixF attn_out = AttentionForward(x, attn, 4);

  // Residual add, then MoE on both paths.
  MatrixF h(16, cfg.hidden);
  for (int64_t i = 0; i < h.size(); ++i) {
    h.flat()[static_cast<size_t>(i)] =
        x.flat()[static_cast<size_t>(i)] + attn_out.flat()[static_cast<size_t>(i)];
  }
  RoundMatrixToBf16(h);
  const RoutingPlan plan = Route(h, moe.router_gate, cfg.top_k);
  const MatrixF ref = MoeForwardReference(h, moe, plan, Activation::kSilu);
  const MatrixF got = MoeForwardSamoyeds(h, sparse_moe, plan, Activation::kSilu);
  EXPECT_LT(RelativeError(got, ref), 2e-2);
}

// Skewed routing must flow through the whole stack: plan -> SELs -> kernel.
TEST(IntegrationTest, SkewedRoutingFunctional) {
  Rng rng(203);
  MoeModelConfig cfg;
  cfg.num_experts = 8;
  cfg.hidden = 32;
  cfg.intermediate = 32;
  cfg.top_k = 2;
  const SamoyedsConfig fmt{1, 2, 32};
  MoeLayerWeights moe = MoeLayerWeights::Random(rng, cfg);
  const SamoyedsMoeLayerWeights sparse_moe = SamoyedsMoeLayerWeights::Encode(moe, fmt);
  moe.ApplyMask(fmt);

  const RoutingPlan plan = MakeSyntheticPlan(rng, 64, cfg.num_experts, cfg.top_k, 1.5);
  ASSERT_TRUE(plan.IsConsistent());
  MatrixF x = RandomBf16Matrix(rng, 64, cfg.hidden, 0.5f);
  const MatrixF ref = MoeForwardReference(x, moe, plan, Activation::kSilu);
  const MatrixF got = MoeForwardSamoyeds(x, sparse_moe, plan, Activation::kSilu);
  EXPECT_LT(RelativeError(got, ref), 2e-2);
}

// Cross-bench consistency: the Fig.14 layer costs must decompose into the
// same kernel profiles Fig.12 uses — the Samoyeds gate_up phase of a
// one-expert layer should match two grouped SSMM launches.
TEST(IntegrationTest, LayerPhaseMatchesKernelProfile) {
  MoeModelConfig cfg;
  cfg.num_experts = 1;
  cfg.hidden = 4096;
  cfg.intermediate = 14336;
  cfg.top_k = 1;
  const int64_t tokens = 4096;
  LayerCostOptions opts;
  opts.shared_experts_override = 0;
  const MoeLayerCost layer = EstimateMoeLayerCost(
      MoeFramework::kSamoyeds, cfg, {tokens}, tokens, opts);

  const TimingModel model(DefaultDevice());
  const KernelProfile gate = SamoyedsKernel::Analyze({cfg.intermediate, cfg.hidden, tokens},
                                                     tokens, opts.sparse_format, opts.ssmm);
  TrafficReport two = gate.traffic;
  TrafficReport second = gate.traffic;
  second.fixed_overhead_us = 0.0;
  two += second;
  const double expect_ms = model.Estimate(two).total_ms;
  EXPECT_NEAR(layer.PhaseMs("gate_up"), expect_ms, expect_ms * 0.01);
}

// OOM/NS coherence between the memory model (Table 3) and the end-to-end
// bench (Fig. 15): any framework the memory model rejects at batch 1 must
// also be flagged by FrameworkSupportsModel or footprint, never silently
// priced.
TEST(IntegrationTest, MemoryAndSupportCoherent) {
  const SamoyedsConfig fmt{1, 2, 32};
  for (const auto& model : PaperModels()) {
    for (MoeFramework fw : {MoeFramework::kTransformers, MoeFramework::kMegaBlocks,
                            MoeFramework::kVllmDs, MoeFramework::kSamoyeds}) {
      if (!FrameworkSupportsModel(fw, model)) {
        continue;
      }
      const auto fp = EstimateFootprint(model, fw, fmt, DefaultDevice());
      // Samoyeds must never be the framework that OOMs first.
      if (fw == MoeFramework::kSamoyeds) {
        EXPECT_GT(fp.MaxBatch(1024), 0) << model.name;
      }
      EXPECT_GT(fp.weight_bytes, 0.0);
      EXPECT_GT(fp.bytes_per_token, 0.0);
    }
  }
}

// Autotuned configurations must keep functional correctness knobs intact
// (tile sizes do not change semantics) and legal tile constraints.
TEST(IntegrationTest, AutotunedConfigStillValidForKernel) {
  const SamoyedsConfig fmt{1, 2, 32};
  const AutotuneResult r = AutotuneSsmm({512, 512, 512}, 512, fmt, DefaultDevice());
  EXPECT_TRUE(r.config.input_selection);
  EXPECT_TRUE(r.config.data_stationary);
  EXPECT_EQ(fmt.v % r.config.kb, 0);
  // And the profile with the tuned config is still well-formed.
  const KernelProfile p = SamoyedsKernel::Analyze({512, 512, 512}, 512, fmt, r.config);
  EXPECT_GT(p.traffic.thread_blocks, 0);
}

// The whole simulated device list must run the realistic benchmark without
// pathological outputs (guards the portability bench).
TEST(IntegrationTest, AllDevicesPriceRealisticShapes) {
  const SamoyedsConfig fmt{1, 2, 32};
  for (DeviceModel dm : AllDeviceModels()) {
    const DeviceSpec& device = GetDevice(dm);
    const TimingModel model(device);
    for (const auto& m : PaperModels()) {
      const GemmShape shape{m.intermediate, m.hidden, 4096};
      const double samoyeds_ms =
          model.Estimate(SamoyedsKernel::Analyze(shape, shape.n, fmt, SsmmConfig::Default(),
                                                 device)
                             .traffic)
              .total_ms;
      const double dense_ms = model.Estimate(DenseGemmKernel::Analyze(shape).traffic).total_ms;
      EXPECT_GT(samoyeds_ms, 0.0) << device.name << " " << m.name;
      EXPECT_LT(samoyeds_ms, dense_ms) << device.name << " " << m.name;
    }
  }
}

}  // namespace
}  // namespace samoyeds
