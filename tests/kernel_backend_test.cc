// Kernel backend dispatch and equivalence: cpuid-consistent feature
// detection, flag parsing, bit-exact SIMD-vs-reference agreement across
// formats, ragged shapes and subnormal products, bit-exact dense GEMM
// variants, the cache-aware autotuner's LLC-fitting preference, and the
// engine-level guarantee that switching backends does not change a bit of
// serving output.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/core/autotune.h"
#include "src/core/kernel_backend.h"
#include "src/core/samoyeds_kernel.h"
#include "src/core/ssmm_workspace.h"
#include "src/moe/decoder_layer.h"
#include "src/moe/expert.h"
#include "src/serving/engine.h"
#include "src/serving/trace.h"
#include "src/simgpu/device_spec.h"
#include "src/tensor/bf16.h"
#include "src/tensor/gemm_ref.h"
#include "src/tensor/rng.h"
#include "tests/test_util.h"

namespace samoyeds {
namespace {

const KernelBackend kAllRunnable[] = {KernelBackend::kScalar, KernelBackend::kAvx2,
                                      KernelBackend::kAvx512, KernelBackend::kNeon};

// ---- Parsing ----------------------------------------------------------------

TEST(KernelBackendTest, ParseRoundTripsEveryName) {
  const KernelBackend all[] = {KernelBackend::kScalar, KernelBackend::kAvx2,
                               KernelBackend::kAvx512, KernelBackend::kNeon,
                               KernelBackend::kAuto};
  for (KernelBackend b : all) {
    KernelBackend parsed = KernelBackend::kAuto;
    ASSERT_TRUE(ParseKernelBackend(KernelBackendName(b), &parsed))
        << KernelBackendName(b);
    EXPECT_EQ(parsed, b) << KernelBackendName(b);
  }
}

TEST(KernelBackendTest, ParseRejectsGarbageAndLeavesOutUntouched) {
  for (const char* bad : {"", "AVX2", "avx", "sse42", "scalar ", "auto2", "neon64"}) {
    KernelBackend out = KernelBackend::kAvx512;  // sentinel
    EXPECT_FALSE(ParseKernelBackend(bad, &out)) << "'" << bad << "'";
    EXPECT_EQ(out, KernelBackend::kAvx512) << "'" << bad << "'";
  }
}

// ---- Dispatch agrees with cpuid --------------------------------------------

TEST(KernelBackendTest, SupportMatchesCpuFeatures) {
  EXPECT_TRUE(KernelBackendSupported(KernelBackend::kScalar));
  EXPECT_FALSE(KernelBackendSupported(KernelBackend::kAuto));
  EXPECT_EQ(KernelBackendSupported(KernelBackend::kAvx2),
            KernelBackendCompiled(KernelBackend::kAvx2) && CpuHasAvx2());
  EXPECT_EQ(KernelBackendSupported(KernelBackend::kAvx512),
            KernelBackendCompiled(KernelBackend::kAvx512) && CpuHasAvx512());
  EXPECT_EQ(KernelBackendSupported(KernelBackend::kNeon),
            KernelBackendCompiled(KernelBackend::kNeon) && CpuHasNeon());
}

TEST(KernelBackendTest, AutoResolvesToWidestSupportedBackend) {
  KernelBackend expected = KernelBackend::kScalar;
  if (KernelBackendSupported(KernelBackend::kNeon)) {
    expected = KernelBackend::kNeon;
  }
  if (KernelBackendSupported(KernelBackend::kAvx2)) {
    expected = KernelBackend::kAvx2;
  }
  if (KernelBackendSupported(KernelBackend::kAvx512)) {
    expected = KernelBackend::kAvx512;
  }
  KernelBackend resolved = KernelBackend::kAuto;
  ASSERT_TRUE(ResolveKernelBackend(KernelBackend::kAuto, &resolved));
  EXPECT_EQ(resolved, expected);
}

TEST(KernelBackendTest, ResolveSpecificBackendMatchesSupport) {
  for (KernelBackend b : kAllRunnable) {
    KernelBackend resolved = KernelBackend::kAuto;
    const bool ok = ResolveKernelBackend(b, &resolved);
    EXPECT_EQ(ok, KernelBackendSupported(b)) << KernelBackendName(b);
    if (ok) {
      EXPECT_EQ(resolved, b) << KernelBackendName(b);
    }
  }
}

TEST(KernelBackendTest, PanelKernelPresenceMatchesCompilation) {
  // Scalar and auto use the built-in loop, never a function pointer.
  EXPECT_EQ(GetPanelKernel(KernelBackend::kScalar), nullptr);
  EXPECT_EQ(GetPanelKernel(KernelBackend::kAuto), nullptr);
  for (KernelBackend b :
       {KernelBackend::kAvx2, KernelBackend::kAvx512, KernelBackend::kNeon}) {
    EXPECT_EQ(GetPanelKernel(b) != nullptr, KernelBackendCompiled(b))
        << KernelBackendName(b);
  }
}

// ---- Randomized backend-vs-reference equivalence ---------------------------

TEST(KernelBackendEquivalenceTest, RandomizedBackendsMatchReference) {
  Rng rng(911);
  const SamoyedsConfig fmts[] = {{1, 2, 32}, {2, 4, 32}, {4, 8, 32},
                                 {8, 16, 32}, {1, 2, 64}, {1, 4, 32}};
  // One workspace reused across every backend and shape: stale packed data
  // must never leak between dispatch paths.
  SsmmWorkspace ws;
  MatrixF out;
  for (int trial = 0; trial < 48; ++trial) {
    const SamoyedsConfig fmt = fmts[trial % 6];
    const int64_t m = fmt.m * (1 + rng.NextIndex(12));
    const int64_t k = fmt.v * (1 + rng.NextIndex(4));
    // Ragged panel widths on purpose: n is rarely a multiple of any vector
    // width, so the masked/peeled tails of every SIMD variant get hit.
    const int64_t n = 1 + rng.NextIndex(40);
    // Every third trial is a zero-token expert (empty selection).
    const int64_t selected = (trial % 3 == 0) ? 0 : rng.NextIndex(n + 1);
    const MatrixF w = RandomBf16Matrix(rng, m, k);
    const MatrixF b = RandomBf16Matrix(rng, k, n);
    const Selection sel = RandomSelection(rng, n, selected);
    const SamoyedsMatrix enc = SamoyedsMatrix::Encode(w, fmt);

    const MatrixF expect = SamoyedsKernel::RunReference(enc, b, sel);
    for (KernelBackend backend : kAllRunnable) {
      if (!KernelBackendSupported(backend)) {
        continue;
      }
      SamoyedsKernel::Run(enc, b, sel, ws, out, backend);
      // Contract: every backend is bit-exact against the oracle.
      ASSERT_TRUE(out == expect) << KernelBackendName(backend) << " diverged at trial "
                                 << trial << " (m=" << m << " k=" << k << " n=" << n
                                 << " selected=" << selected << ")";
      // Allocating overload takes the same dispatch path.
      const MatrixF direct = SamoyedsKernel::Run(enc, b, sel, backend);
      ASSERT_TRUE(direct == out)
          << KernelBackendName(backend) << " allocating overload diverged at trial "
          << trial;
    }
  }
}

TEST(KernelBackendEquivalenceTest, TinyTailWidthsAllBackends) {
  // n_out in 1..17: every remainder of the 8- and 16-wide bodies, including
  // pure-tail widths narrower than every vector.
  Rng rng(913);
  const SamoyedsConfig fmt{1, 2, 32};
  const MatrixF w = RandomBf16Matrix(rng, 32, 64);
  const SamoyedsMatrix enc = SamoyedsMatrix::Encode(w, fmt);
  SsmmWorkspace ws;
  MatrixF out;
  for (int64_t n = 1; n <= 17; ++n) {
    const MatrixF b = RandomBf16Matrix(rng, 64, n);
    const Selection sel = Selection::All(n);
    const MatrixF expect = SamoyedsKernel::RunReference(enc, b, sel);
    for (KernelBackend backend : kAllRunnable) {
      if (!KernelBackendSupported(backend)) {
        continue;
      }
      SamoyedsKernel::Run(enc, b, sel, ws, out, backend);
      EXPECT_TRUE(out == expect) << KernelBackendName(backend) << " n_out=" << n;
    }
  }
}

uint32_t Bits(float f) {
  uint32_t u = 0;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

TEST(KernelBackendEquivalenceTest, SubnormalProductRoundsBeforeTheAdd) {
  // bf16 x bf16 products are exact in fp32 only above the subnormal range.
  // In packed order the entries give 2^-126, then 2^-149, then 2^-150; the
  // last rounds to 0 (a tie, to even) before the add, so the sum stays at
  // 0x00800001. A fused multiply-add keeps the 2^-150 and rounds the sum to
  // 0x00800002 instead. Widths 19 and 27 reach every vector body and tail.
  const float a_vals[] = {std::ldexp(1.0f, -63), std::ldexp(1.0f, -74), std::ldexp(1.0f, -75)};
  const float panel_rows[] = {std::ldexp(1.0f, -63), std::ldexp(1.0f, -75),
                              std::ldexp(1.0f, -75)};
  // The scalar panel loop's arithmetic for one output element.
  float partial = 0.0f;
  for (int e = 0; e < 3; ++e) {
    partial += a_vals[e] * panel_rows[e];
  }
  ASSERT_EQ(Bits(partial), 0x00800001u);

  const int32_t a_cols[] = {0, 1, 2};
  const int64_t a_off[] = {0, 3};
  const int32_t group_rows[] = {0};
  for (int64_t n_out : {19, 27}) {
    std::vector<float> panel;
    for (float v : panel_rows) {
      panel.insert(panel.end(), static_cast<size_t>(n_out), v);
    }
    PanelGroupTask task;
    task.a_vals = a_vals;
    task.a_cols = a_cols;
    task.a_off = a_off;
    task.group_rows = group_rows;
    task.n_groups = 1;
    task.panel = panel.data();
    task.n_out = n_out;
    for (KernelBackend backend : kAllRunnable) {
      PanelKernelFn fn = GetPanelKernel(backend);
      if (fn == nullptr) {
        continue;  // scalar has no panel kernel; its arithmetic is checked above
      }
      std::vector<float> got(static_cast<size_t>(n_out), 0.0f);
      task.out = got.data();
      fn(task);
      const auto wrong = std::count_if(got.begin(), got.end(),
                                       [](float v) { return Bits(v) != 0x00800001u; });
      EXPECT_EQ(wrong, 0) << KernelBackendName(backend) << " n_out=" << n_out
                          << ", column 0 holds 0x" << std::hex << Bits(got[0]);
    }
  }
}

// ---- Gated SiLU: every row kernel bit-exact against the scalar loop --------

TEST(GatedSiluTest, EveryKernelMatchesTheScalarLoopBitForBit) {
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  std::vector<float> specials = {0.0f,    -0.0f,   denorm,   -denorm,  1e-40f, -1e-40f,
                                 inf,     -inf,    std::nanf(""), -std::nanf("")};
  // Around the ends of ExpF's range: ln(FLT_MAX) ~ 88.72, the last normal
  // result at -87.34, the clamp at -104 and the +0 underflow just above it.
  for (float edge : {87.0f, 87.3365f, 88.0f, 88.7228f, 89.0f, 103.0f, 103.9721f, 104.0f}) {
    for (float v : {std::nextafter(edge, 0.0f), edge, std::nextafter(edge, 200.0f)}) {
      specials.push_back(v);
      specials.push_back(-v);
    }
  }
  const std::vector<int32_t> one_row = {0};
  Rng rng(1777);
  int kernels = 0;
  for (KernelBackend b : {KernelBackend::kAvx2, KernelBackend::kAvx512}) {
    const GatedSiluRowFn fn = GetGatedSiluKernel(b);
    if (fn == nullptr) {
      continue;
    }
    ++kernels;
    for (int64_t n = 1; n <= 33; ++n) {
      for (float scale : {3.0f, 40.0f}) {
        MatrixF g = rng.GaussianMatrix(1, n, scale);
        // Finite, non-NaN up values: two NaN operands of a multiply give
        // whichever payload the compiler puts first, on either path.
        MatrixF u = rng.GaussianMatrix(1, n, 1.0f);
        for (int64_t j = 0; j < n; ++j) {
          if (rng.NextU64() % 3 == 0) {
            g(0, j) = specials[rng.NextU64() % specials.size()];
          }
          if (rng.NextU64() % 17 == 0) {
            u(0, j) = rng.NextU64() % 2 == 0 ? inf : 0.0f;
          }
        }
        MatrixF want = g;
        for (int64_t j = 0; j < n; ++j) {
          want(0, j) = RoundToBf16(ApplyActivation(Activation::kSilu, g(0, j)) * u(0, j));
        }
        MatrixF got = g;
        fn(got.data(), u.data(), n);
        for (int64_t j = 0; j < n; ++j) {
          ASSERT_EQ(Bits(got(0, j)), Bits(want(0, j)))
              << KernelBackendName(b) << " n=" << n << " j=" << j << " g=" << g(0, j)
              << " u=" << u(0, j);
        }
        // The dispatched expert path gives the same bits.
        MatrixF dispatched = g;
        GatedActivationRows(dispatched, u, Activation::kSilu, one_row);
        ASSERT_EQ(std::memcmp(dispatched.data(), want.data(), sizeof(float) * n), 0)
            << "dispatched n=" << n;
      }
    }
  }
  if (kernels == 0) {
    GTEST_SKIP() << "no gated-SiLU SIMD kernel runnable on this machine";
  }
}

TEST(GatedSiluTest, KernelPresenceMatchesSupport) {
  for (KernelBackend b : {KernelBackend::kScalar, KernelBackend::kNeon, KernelBackend::kAuto}) {
    EXPECT_EQ(GetGatedSiluKernel(b), nullptr) << KernelBackendName(b);
  }
  for (KernelBackend b : {KernelBackend::kAvx2, KernelBackend::kAvx512}) {
    EXPECT_EQ(GetGatedSiluKernel(b) != nullptr, KernelBackendSupported(b))
        << KernelBackendName(b);
  }
}

// ---- Dense GEMM: every variant bit-exact against the scalar loop -----------

// The scalar loop GemmAccumulateRef falls back to, restated here so the
// oracle cannot drift with the library.
void ScalarGemmAccumulate(const MatrixF& a, const MatrixF& b, MatrixF& c) {
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t p = 0; p < a.cols(); ++p) {
      const float av = a(i, p);
      if (av == 0.0f) {
        continue;
      }
      for (int64_t j = 0; j < b.cols(); ++j) {
        c(i, j) += av * b(p, j);
      }
    }
  }
}

// Full-precision Gaussians (off the bf16 grid, so products round and a fused
// multiply-add would show) with the special cases the contract names: +-0
// in A (the zero skip), -0 in C (must keep its sign) and +-inf/NaN in B
// (0 * inf must never be formed). Every NaN here carries the bits x86
// itself produces for inf - inf, so results do not depend on which NaN
// operand an add returns.
MatrixF SpecialMatrix(Rng& rng, int64_t rows, int64_t cols, const float* specials,
                      int n_specials, uint64_t one_in) {
  MatrixF m = rng.GaussianMatrix(rows, cols, 1.0f);
  for (float& v : m.flat()) {
    if (rng.NextU64() % one_in == 0) {
      v = specials[rng.NextU64() % static_cast<uint64_t>(n_specials)];
    }
  }
  return m;
}

// Every compiled and runnable SIMD variant, by name.
std::vector<std::pair<std::string, DenseGemmFn>> DenseVariants() {
  std::vector<std::pair<std::string, DenseGemmFn>> variants;
  for (KernelBackend b : {KernelBackend::kAvx2, KernelBackend::kAvx512}) {
    if (DenseGemmFn fn = GetDenseGemmKernel(b)) {
      variants.emplace_back(KernelBackendName(b), fn);
    }
  }
  return variants;
}

bool BitEqual(const MatrixF& x, const MatrixF& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), sizeof(float) * static_cast<size_t>(x.size())) == 0;
}

TEST(DenseGemmTest, KernelPresenceMatchesSupport) {
  for (KernelBackend b : {KernelBackend::kScalar, KernelBackend::kNeon, KernelBackend::kAuto}) {
    EXPECT_EQ(GetDenseGemmKernel(b), nullptr) << KernelBackendName(b);
  }
  for (KernelBackend b : {KernelBackend::kAvx2, KernelBackend::kAvx512}) {
    EXPECT_EQ(GetDenseGemmKernel(b) != nullptr, KernelBackendSupported(b))
        << KernelBackendName(b);
  }
}

TEST(DenseGemmTest, EveryVariantIsBitExactAgainstTheScalarLoop) {
  float nan_bits = 0.0f;
  const uint32_t kX86DefaultNan = 0xFFC00000u;
  std::memcpy(&nan_bits, &kX86DefaultNan, sizeof(nan_bits));
  const float inf = std::numeric_limits<float>::infinity();
  const float a_specials[] = {0.0f, -0.0f};
  const float b_specials[] = {inf, -inf, nan_bits};
  const float c_specials[] = {-0.0f};

  // The dispatched GemmAccumulateRef is checked alongside each variant.
  const auto variants = DenseVariants();

  Rng rng(1931);
  int64_t cases = 0;
  for (int64_t m = 1; m <= 9; ++m) {
    for (int64_t n : {1, 7, 8, 15, 16, 17, 63, 64, 65, 130}) {
      for (int64_t k : {1, 3, 64}) {
        const MatrixF a = SpecialMatrix(rng, m, k, a_specials, 2, 4);
        // Specials in B are rare enough that most columns stay finite.
        const MatrixF b = SpecialMatrix(rng, k, n, b_specials, 3, 97);
        const MatrixF c0 = SpecialMatrix(rng, m, n, c_specials, 1, 4);
        MatrixF want = c0;
        ScalarGemmAccumulate(a, b, want);

        MatrixF got = c0;
        GemmAccumulateRef(a, b, got);
        ASSERT_TRUE(BitEqual(got, want)) << "dispatched m=" << m << " n=" << n << " k=" << k;
        for (const auto& [name, fn] : variants) {
          MatrixF c = c0;
          fn(DenseGemmTask{a.data(), b.data(), c.data(), m, n, k});
          ASSERT_TRUE(BitEqual(c, want)) << name << " m=" << m << " n=" << n << " k=" << k;
        }
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 9 * 10 * 3);
}

TEST(DenseGemmTest, NegativeZeroInCSurvivesAZeroRowOfA) {
  // Multiply-then-add over a zero a(i, p) would turn -0 + (+0 * b) into +0
  // and 0 * inf into NaN; the skip must leave C exactly as it was.
  const float inf = std::numeric_limits<float>::infinity();
  const MatrixF a = MatrixF::FromRowMajor(2, 2, {0.0f, -0.0f, -0.0f, 0.0f});
  const MatrixF b = MatrixF::FromRowMajor(2, 3, {1.0f, inf, -2.0f, inf, 3.0f, -inf});
  const MatrixF c0 = MatrixF::FromRowMajor(2, 3, {-0.0f, -0.0f, 5.0f, -0.0f, 1.0f, -0.0f});
  MatrixF got = c0;
  GemmAccumulateRef(a, b, got);
  EXPECT_TRUE(BitEqual(got, c0));
  for (const auto& [name, fn] : DenseVariants()) {
    MatrixF c = c0;
    fn(DenseGemmTask{a.data(), b.data(), c.data(), 2, 3, 2});
    EXPECT_TRUE(BitEqual(c, c0)) << name;
  }
}

// ---- Cache-aware autotuning -------------------------------------------------

TEST(KernelBackendAutotuneTest, NeverPicksSpillingConfigWhenFitExists) {
  const SamoyedsConfig fmt{1, 2, 32};
  for (DeviceModel model : AllDeviceModels()) {
    const DeviceSpec& dev = GetDevice(model);
    for (const GemmShape shape :
         {GemmShape{512, 1024, 256}, GemmShape{2048, 4096, 64}, GemmShape{128, 256, 16}}) {
      const int64_t selected = shape.n / 2;
      const AutotuneResult r = AutotuneSsmm(shape, selected, fmt, dev);
      EXPECT_GT(r.working_set_bytes, 0.0) << dev.name;
      EXPECT_EQ(r.fits_llc, r.working_set_bytes <= static_cast<double>(dev.l2_bytes))
          << dev.name;
      // The acceptance property: if any legal config's modeled working set
      // fits the LLC, the tuner must not return one that spills.
      bool any_fits = false;
      for (const SsmmConfig& cfg : EnumerateSsmmConfigs(dev, fmt)) {
        any_fits = any_fits || SsmmActiveWorkingSetBytes(shape, selected, fmt, cfg, dev) <=
                                   static_cast<double>(dev.l2_bytes);
      }
      if (any_fits) {
        EXPECT_TRUE(r.fits_llc) << dev.name << " m=" << shape.m;
      }
      EXPECT_GE(r.residency_ms, 0.0);
    }
  }
}

// ---- Engine: backends do not change serving behavior ------------------------

MoeModelConfig TinyConfig() {
  MoeModelConfig cfg;
  cfg.name = "tiny";
  cfg.num_experts = 4;
  cfg.hidden = 32;
  cfg.intermediate = 64;
  cfg.top_k = 2;
  cfg.shared_experts = 0;
  return cfg;
}

TEST(KernelBackendEngineTest, ScalarAndSimdServingAgree) {
  KernelBackend simd = KernelBackend::kScalar;
  if (KernelBackendSupported(KernelBackend::kAvx512)) {
    simd = KernelBackend::kAvx512;
  } else if (KernelBackendSupported(KernelBackend::kAvx2)) {
    simd = KernelBackend::kAvx2;
  } else if (KernelBackendSupported(KernelBackend::kNeon)) {
    simd = KernelBackend::kNeon;
  }
  if (simd == KernelBackend::kScalar) {
    GTEST_SKIP() << "no SIMD backend runnable on this machine";
  }

  Rng seed_rng(77);
  const MoeModelConfig cfg = TinyConfig();
  std::vector<SamoyedsDecoderLayerWeights> sparse;
  const SamoyedsConfig fmt{1, 2, 32};
  for (int l = 0; l < 2; ++l) {
    DecoderLayerWeights w = DecoderLayerWeights::Random(seed_rng, cfg);
    sparse.push_back(SamoyedsDecoderLayerWeights::Encode(w, fmt));
  }

  // Identical workload against a scalar engine and a SIMD engine.
  std::vector<std::vector<serving::RequestStatus>> statuses;
  std::vector<MatrixF> outputs;
  std::vector<std::string> provenance;
  std::vector<std::string> stripped;
  for (KernelBackend backend : {KernelBackend::kScalar, simd}) {
    serving::EngineConfig engine_cfg;
    engine_cfg.heads = 4;
    engine_cfg.top_k = 2;
    engine_cfg.threads = 2;
    engine_cfg.scheduler.policy = serving::SchedulerPolicy::kTokenBudget;
    engine_cfg.scheduler.token_budget = 24;
    engine_cfg.autotune = true;
    engine_cfg.kernel_backend = backend;
    serving::ServingEngine engine(sparse, engine_cfg);

    Rng rng(78);  // identical requests per run
    for (int64_t i = 0; i < 4; ++i) {
      serving::TraceEntry e{i / 2, 5 + i, 3};
      ASSERT_TRUE(engine.Submit(serving::MakeRequest(rng, i, e, cfg.hidden)));
    }
    engine.RunUntilDrained(1000);

    std::vector<serving::RequestStatus> st;
    MatrixF all(0, 0);
    for (int64_t i = 0; i < 4; ++i) {
      st.push_back(engine.Status(i));
      const serving::RequestResult* result = engine.Result(i);
      ASSERT_NE(result, nullptr);
      if (all.empty()) {
        all = result->outputs;
      } else {
        MatrixF merged(all.rows() + result->outputs.rows(), all.cols());
        for (int64_t r = 0; r < all.rows(); ++r) {
          for (int64_t c = 0; c < all.cols(); ++c) {
            merged(r, c) = all(r, c);
          }
        }
        for (int64_t r = 0; r < result->outputs.rows(); ++r) {
          for (int64_t c = 0; c < all.cols(); ++c) {
            merged(all.rows() + r, c) = result->outputs(r, c);
          }
        }
        all = std::move(merged);
      }
    }
    EXPECT_GT(engine.autotune_cache_size(), 0);
    statuses.push_back(std::move(st));
    outputs.push_back(std::move(all));
    provenance.push_back(engine.Report().ToJson());
    // The modeled clock (autotune included) describes the GPU, not the host
    // ISA: past the measured keys and the backend's own name, the reports
    // must match byte for byte.
    serving::ServingReport report = engine.Report();
    report.StripWallClock();
    report.provenance.kernel_backend = "scalar";
    stripped.push_back(report.ToJson());
  }
  EXPECT_EQ(stripped[1], stripped[0]);

  // Same terminal status per request, bit-identical outputs.
  ASSERT_EQ(statuses[0].size(), statuses[1].size());
  for (size_t i = 0; i < statuses[0].size(); ++i) {
    EXPECT_EQ(statuses[0][i], statuses[1][i]) << "request " << i;
  }
  EXPECT_TRUE(BitEqual(outputs[1], outputs[0]));
  // Provenance records which backend produced each report.
  EXPECT_NE(provenance[0].find("\"kernel_backend\": \"scalar\""), std::string::npos);
  EXPECT_NE(provenance[1].find(std::string("\"kernel_backend\": \"") +
                               KernelBackendName(simd) + "\""),
            std::string::npos);
  EXPECT_NE(provenance[0].find("\"llc_bytes\""), std::string::npos);
  EXPECT_NE(provenance[0].find("\"llc_bandwidth_gbps\""), std::string::npos);
  EXPECT_NE(provenance[0].find("\"dram_bandwidth_gbps\""), std::string::npos);
}

}  // namespace
}  // namespace samoyeds
