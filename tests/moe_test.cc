// MoE substrate: router invariants, expert forward equivalence (dense vs
// Samoyeds kernel path), full-layer equivalence, attention.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "src/moe/attention.h"
#include "src/moe/expert.h"
#include "src/moe/model_configs.h"
#include "src/moe/moe_layer.h"
#include "src/moe/router.h"
#include "src/tensor/bf16.h"
#include "src/tensor/gemm_ref.h"
#include "src/tensor/rng.h"
#include "tests/test_util.h"

namespace samoyeds {
namespace {

TEST(ModelConfigTest, TableTwoContents) {
  const auto models = PaperModels();
  ASSERT_EQ(models.size(), 6u);
  EXPECT_EQ(models[0].name, "Qwen2-MoE");
  EXPECT_EQ(models[0].num_experts, 60);
  EXPECT_EQ(models[1].num_experts, 64);
  EXPECT_EQ(models[4].name, "Mixtral-8x7B");
  EXPECT_EQ(models[4].hidden, 4096);
  EXPECT_EQ(models[4].intermediate, 14336);
  EXPECT_EQ(models[5].hidden, 6144);
  // CFG groups per Table 2.
  EXPECT_EQ(models[0].cfg_group, models[1].cfg_group);
  EXPECT_EQ(models[3].cfg_group, "CFG#3");
}

TEST(ModelConfigTest, LookupByName) {
  const auto& m = ModelByName("Mixtral-8x7B");
  EXPECT_EQ(m.num_experts, 8);
  EXPECT_EQ(ModelByName("OpenMoE-34B").activation, Activation::kGeluTanh);
}

TEST(RouterTest, NumericRoutingIsConsistent) {
  Rng rng(71);
  const MatrixF x = rng.GaussianMatrix(40, 32);
  const MatrixF gate = rng.GaussianMatrix(8, 32);
  const RoutingPlan plan = Route(x, gate, 2);
  EXPECT_TRUE(plan.IsConsistent());
  EXPECT_EQ(plan.tokens, 40);
  EXPECT_EQ(plan.top_k, 2);
}

TEST(RouterTest, TopKPicksHighestLogits) {
  // One token engineered so expert 3 then expert 1 dominate.
  MatrixF x(1, 4);
  x(0, 0) = 1.0f;
  MatrixF gate(4, 4);
  gate(0, 0) = 0.1f;
  gate(1, 0) = 2.0f;
  gate(2, 0) = -1.0f;
  gate(3, 0) = 5.0f;
  const RoutingPlan plan = Route(x, gate, 2);
  const auto a = plan.TokenAssignment(0);
  EXPECT_EQ(a[0].first, 3);
  EXPECT_EQ(a[1].first, 1);
  EXPECT_GT(a[0].second, a[1].second);  // softmax weight ordering
}

TEST(RouterTest, SyntheticPlanConsistent) {
  Rng rng(72);
  const RoutingPlan plan = MakeSyntheticPlan(rng, 512, 16, 2, 0.0);
  EXPECT_TRUE(plan.IsConsistent());
}

TEST(RouterTest, SkewConcentratesTokens) {
  Rng rng(73);
  const RoutingPlan uniform = MakeSyntheticPlan(rng, 4096, 16, 2, 0.0);
  const RoutingPlan skewed = MakeSyntheticPlan(rng, 4096, 16, 2, 1.2);
  EXPECT_GT(skewed.TokensForExpert(0), uniform.TokensForExpert(0) * 2);
  EXPECT_TRUE(skewed.IsConsistent());
}

TEST(RouterTest, SelectionForExpertIsValid) {
  Rng rng(74);
  const RoutingPlan plan = MakeSyntheticPlan(rng, 100, 4, 2, 0.5);
  for (int e = 0; e < 4; ++e) {
    const Selection sel = plan.SelectionForExpert(e);
    EXPECT_TRUE(sel.IsValid());
    EXPECT_EQ(sel.full_size, 100);
  }
}

TEST(ActivationTest, SiluValues) {
  EXPECT_NEAR(ApplyActivation(Activation::kSilu, 0.0f), 0.0f, 1e-6f);
  EXPECT_NEAR(ApplyActivation(Activation::kSilu, 10.0f), 10.0f, 1e-3f);
  EXPECT_LT(ApplyActivation(Activation::kSilu, -1.0f), 0.0f);
}

TEST(ActivationTest, SiluBf16MatchesTheStdExpDefinition) {
  // SiLU is defined with ExpF, not the host's std::exp. Through the bf16
  // rounding of the gated activation, the two definitions should agree on
  // all but a rare tie-breaking input.
  Rng rng(2024);
  const int64_t n = 1'000'000;
  int64_t differ = 0;
  for (int64_t i = 0; i < n; ++i) {
    const float x = 3.0f * rng.NextGaussian();
    const float u = rng.NextGaussian();
    const float libm = x / (1.0f + std::exp(-x));
    differ += RoundToBf16(ApplyActivation(Activation::kSilu, x) * u) != RoundToBf16(libm * u);
  }
  EXPECT_LE(differ, n / 10'000);
  EXPECT_TRUE(std::signbit(ApplyActivation(Activation::kSilu, -89.0f)));
  EXPECT_EQ(ApplyActivation(Activation::kSilu, -89.0f), 0.0f);
  EXPECT_EQ(ApplyActivation(Activation::kSilu, -1000.0f), 0.0f);
}

TEST(ActivationTest, GeluValues) {
  EXPECT_NEAR(ApplyActivation(Activation::kGeluTanh, 0.0f), 0.0f, 1e-6f);
  EXPECT_NEAR(ApplyActivation(Activation::kGeluTanh, 5.0f), 5.0f, 1e-3f);
}

TEST(ExpertTest, SamoyedsForwardMatchesMaskedDense) {
  Rng rng(75);
  const int hidden = 64;
  const int inter = 96;
  const SamoyedsConfig cfg{1, 2, 32};
  ExpertWeights w = ExpertWeights::Random(rng, hidden, inter);
  const SamoyedsExpertWeights sw = SamoyedsExpertWeights::Encode(w, cfg);
  w.ApplyMask(cfg);  // dense path must see the same surviving weights

  MatrixF x = RandomBf16Matrix(rng, 20, hidden);
  const Selection sel = RandomSelection(rng, 20, 12);

  const MatrixF dense_out = ExpertForwardDense(x, w, sel, Activation::kSilu);
  const MatrixF sparse_out = ExpertForwardSamoyeds(x, sw, sel, Activation::kSilu);
  ASSERT_EQ(dense_out.rows(), 12);
  ASSERT_EQ(sparse_out.rows(), 12);
  EXPECT_LT(RelativeError(sparse_out, dense_out), 2e-2);
}

TEST(ExpertTest, GeluVariantAlsoMatches) {
  Rng rng(76);
  const SamoyedsConfig cfg{2, 4, 32};
  ExpertWeights w = ExpertWeights::Random(rng, 32, 64);
  const SamoyedsExpertWeights sw = SamoyedsExpertWeights::Encode(w, cfg);
  w.ApplyMask(cfg);
  MatrixF x = RandomBf16Matrix(rng, 10, 32);
  const Selection sel = Selection::All(10);
  const MatrixF dense_out = ExpertForwardDense(x, w, sel, Activation::kGeluTanh);
  const MatrixF sparse_out = ExpertForwardSamoyeds(x, sw, sel, Activation::kGeluTanh);
  EXPECT_LT(RelativeError(sparse_out, dense_out), 2e-2);
}

// The expert chain over every intermediate row, packing each projection per
// call through the unpacked RunPanel overload: the oracle for the dead-row
// skip, which never computes the rows nothing reads.
MatrixF AllRowsExpertForward(const MatrixF& x, const SamoyedsExpertWeights& w,
                             const Selection& sel, Activation act) {
  SsmmWorkspace ws;
  SamoyedsKernel::PackSelectedTokens(x, sel, ws.panel);
  SamoyedsKernel::RunPanel(w.gate, ws.panel, ws, ws.gate_t);
  SamoyedsKernel::RunPanel(w.up, ws.panel, ws, ws.up_t);
  for (int64_t i = 0; i < ws.gate_t.size(); ++i) {
    ws.gate_t.data()[i] =
        RoundToBf16(ApplyActivation(act, ws.gate_t.data()[i]) * ws.up_t.data()[i]);
  }
  SamoyedsKernel::RunPanel(w.down, ws.gate_t, ws, ws.out_t);
  return ws.out_t.Transposed();
}

TEST(ExpertTest, DeadRowSkipIsBitExactAgainstPerCallPacking) {
  // Encode drops the gate/up groups that write an intermediate row no gate
  // or no up group writes, and down's entries that read one; the all-rows
  // oracle packs and runs every row. Both must give the same bits.
  const SamoyedsConfig cfgs[] = {{1, 2, 32}, {2, 4, 32}, {1, 4, 32}, {1, 2, 64}};
  Rng rng(77);
  for (const SamoyedsConfig& cfg : cfgs) {
    const int hidden = 128;
    const int inter = 192;
    const ExpertWeights w = ExpertWeights::Random(rng, hidden, inter);
    const SamoyedsExpertWeights encoded = SamoyedsExpertWeights::Encode(w, cfg);
    // The skip must have something to skip.
    EXPECT_GT(encoded.live_rows.size(), 0u);
    EXPECT_LT(encoded.live_rows.size(), static_cast<size_t>(inter));

    // No kept gate/up group writes a dead row, and every pack shrank.
    std::vector<bool> live(static_cast<size_t>(inter), false);
    for (const int32_t r : encoded.live_rows) {
      live[static_cast<size_t>(r)] = true;
    }
    for (const auto& [matrix, packed] :
         {std::pair{&encoded.gate, &encoded.gate_packed},
          std::pair{&encoded.up, &encoded.up_packed},
          std::pair{&encoded.down, &encoded.down_packed}}) {
      SsmmPackedA full;
      SamoyedsKernel::PackWeights(*matrix, full);
      EXPECT_EQ(packed->rows, full.rows);
      // PackWeights sizes vals/cols to an upper bound; off.back() counts.
      EXPECT_LT(packed->off.back(), full.off.back());
      ASSERT_EQ(packed->vals.size(), static_cast<size_t>(packed->off.back()));
      ASSERT_EQ(packed->cols.size(), packed->vals.size());
    }
    for (const SsmmPackedA* packed : {&encoded.gate_packed, &encoded.up_packed}) {
      for (size_t g = 0; g < packed->rows.size(); ++g) {
        if (packed->off[g] != packed->off[g + 1]) {
          EXPECT_TRUE(live[static_cast<size_t>(packed->rows[g])]) << "group " << g;
        }
      }
    }

    const MatrixF x = RandomBf16Matrix(rng, 80, hidden);
    for (const int64_t selected : {1, 2, 17, 64}) {
      const Selection sel = RandomSelection(rng, x.rows(), selected);
      for (const Activation act : {Activation::kSilu, Activation::kGeluTanh}) {
        const MatrixF got = ExpertForwardSamoyeds(x, encoded, sel, act);
        const MatrixF want = AllRowsExpertForward(x, encoded, sel, act);
        ASSERT_EQ(got.rows(), want.rows());
        ASSERT_EQ(got.cols(), want.cols());
        EXPECT_EQ(std::memcmp(got.data(), want.data(), sizeof(float) * got.size()), 0)
            << "format {" << cfg.n << ", " << cfg.m << ", " << cfg.v << "} SEL " << selected;
      }
    }
  }
}

// Full MoE layer: the Samoyeds dual-side execution must reproduce the
// Transformers-style reference on masked weights — the core end-to-end
// integration property of the system.
TEST(MoeLayerTest, SamoyedsForwardMatchesReference) {
  Rng rng(77);
  MoeModelConfig cfg;
  cfg.name = "test";
  cfg.num_experts = 4;
  cfg.hidden = 32;
  cfg.intermediate = 64;
  cfg.top_k = 2;
  cfg.shared_experts = 0;
  const SamoyedsConfig fmt{1, 2, 32};

  MoeLayerWeights w = MoeLayerWeights::Random(rng, cfg);
  const SamoyedsMoeLayerWeights sw = SamoyedsMoeLayerWeights::Encode(w, fmt);
  w.ApplyMask(fmt);

  MatrixF x = RandomBf16Matrix(rng, 24, cfg.hidden);
  const RoutingPlan plan = Route(x, w.router_gate, cfg.top_k);
  ASSERT_TRUE(plan.IsConsistent());

  const MatrixF ref = MoeForwardReference(x, w, plan, Activation::kSilu);
  const MatrixF got = MoeForwardSamoyeds(x, sw, plan, Activation::kSilu);
  EXPECT_LT(RelativeError(got, ref), 2e-2);
}

TEST(MoeLayerTest, SharedExpertsContribute) {
  Rng rng(78);
  MoeModelConfig cfg;
  cfg.num_experts = 2;
  cfg.hidden = 32;
  cfg.intermediate = 32;
  cfg.top_k = 1;
  cfg.shared_experts = 2;
  const SamoyedsConfig fmt{1, 2, 32};

  MoeLayerWeights w = MoeLayerWeights::Random(rng, cfg);
  ASSERT_EQ(w.shared_experts.size(), 2u);
  const SamoyedsMoeLayerWeights sw = SamoyedsMoeLayerWeights::Encode(w, fmt);
  w.ApplyMask(fmt);

  MatrixF x = RandomBf16Matrix(rng, 16, cfg.hidden);
  const RoutingPlan plan = Route(x, w.router_gate, cfg.top_k);
  const MatrixF ref = MoeForwardReference(x, w, plan, Activation::kSilu);
  const MatrixF got = MoeForwardSamoyeds(x, sw, plan, Activation::kSilu);
  EXPECT_LT(RelativeError(got, ref), 2e-2);

  // Removing the shared experts must change the output.
  MoeLayerWeights no_shared = w;
  no_shared.shared_experts.clear();
  const MatrixF without = MoeForwardReference(x, no_shared, plan, Activation::kSilu);
  EXPECT_GT(MaxAbsDiff(without, ref), 1e-3f);
}

TEST(MoeLayerTest, OutputShapePreserved) {
  Rng rng(79);
  MoeModelConfig cfg;
  cfg.num_experts = 4;
  cfg.hidden = 32;
  cfg.intermediate = 32;
  cfg.top_k = 2;
  MoeLayerWeights w = MoeLayerWeights::Random(rng, cfg);
  const MatrixF x = RandomBf16Matrix(rng, 8, cfg.hidden);
  const RoutingPlan plan = Route(x, w.router_gate, cfg.top_k);
  const MatrixF out = MoeForwardReference(x, w, plan, Activation::kSilu);
  EXPECT_EQ(out.rows(), 8);
  EXPECT_EQ(out.cols(), 32);
}

TEST(AttentionTest, ForwardShapeAndCausality) {
  Rng rng(80);
  const AttentionWeights w = AttentionWeights::Random(rng, 32);
  MatrixF x = rng.GaussianMatrix(12, 32, 0.5f);
  const MatrixF out = AttentionForward(x, w, 4);
  EXPECT_EQ(out.rows(), 12);
  EXPECT_EQ(out.cols(), 32);

  // Causality: changing a later token must not affect earlier outputs.
  MatrixF x2 = x;
  x2(11, 0) += 10.0f;
  const MatrixF out2 = AttentionForward(x2, w, 4);
  for (int64_t c = 0; c < 32; ++c) {
    EXPECT_FLOAT_EQ(out(0, c), out2(0, c));
    EXPECT_FLOAT_EQ(out(10, c), out2(10, c));
  }
  // ... but it must affect its own row.
  EXPECT_GT(MaxAbsDiff(out, out2), 1e-4f);
}

TEST(AttentionTest, SingleHeadMatchesManual) {
  Rng rng(81);
  const int hidden = 8;
  AttentionWeights w = AttentionWeights::Random(rng, hidden);
  MatrixF x = rng.GaussianMatrix(1, hidden, 0.5f);
  // With one token, attention output = Wo * v = Wo * (Wv x).
  const MatrixF v = GemmRef(x, w.wv.Transposed());
  const MatrixF expect = GemmRef(v, w.wo.Transposed());
  const MatrixF out = AttentionForward(x, w, 1);
  EXPECT_LE(MaxAbsDiff(out, expect), 1e-4f);
}

TEST(AttentionTest, CausalContextRowsMatchesForwardBitwise) {
  // Q for rows [first, ctx) only, K/V for every row: after the output
  // projection the rows equal AttentionForward's rows [first, ctx) bit for bit.
  for (const int heads : {1, 4}) {
    for (const int64_t ctx : {int64_t{1}, int64_t{7}, int64_t{64}}) {
      Rng rng(82 + ctx);
      const AttentionWeights w = AttentionWeights::Random(rng, 32);
      const MatrixF x = rng.GaussianMatrix(ctx, 32, 0.5f);
      const MatrixF full = AttentionForward(x, w, heads);
      for (const int64_t first : {int64_t{0}, ctx - 1, ctx / 2}) {
        MatrixF x_new(ctx - first, 32);
        std::memcpy(x_new.data(), x.data() + first * 32, sizeof(float) * x_new.size());
        const MatrixF ctx_rows =
            CausalContextRows(GemmRef(x_new, w.wq.Transposed()), GemmRef(x, w.wk.Transposed()),
                              GemmRef(x, w.wv.Transposed()), first, heads);
        const MatrixF out = GemmRef(ctx_rows, w.wo.Transposed());
        ASSERT_EQ(out.rows(), ctx - first);
        EXPECT_EQ(std::memcmp(out.data(), full.data() + first * 32, sizeof(float) * out.size()),
                  0)
            << "heads=" << heads << " ctx=" << ctx << " first=" << first;
      }
    }
  }
}

TEST(AttentionProfileTest, FlashRemovesScoreTraffic) {
  const KernelProfile naive = AttentionProfile(4096, 1, 4096, 32, false);
  const KernelProfile flash = AttentionProfile(4096, 1, 4096, 32, true);
  // The projections dominate total reads; the score tensor shows up in the
  // compulsory footprint, which Flash-Attention never materializes.
  EXPECT_GT(naive.traffic.gmem_unique_bytes, flash.traffic.gmem_unique_bytes * 1.5);
  EXPECT_GT(naive.traffic.gmem_read_bytes, flash.traffic.gmem_read_bytes);
  EXPECT_DOUBLE_EQ(naive.useful_flops, flash.useful_flops);
}

}  // namespace
}  // namespace samoyeds
