// Wall-clock micro-benchmarks of the functional CPU substrate: the SpTC
// fragment op, the SSMM execution paths (fragment-model reference vs the
// packed-panel optimized kernel), the workspace-driven expert/MoE forwards,
// and a steady-state serving decode step. These measure the *simulator's*
// own speed — not GPU performance (the domain of the fig*/table* harnesses).
//
// Self-contained harness (no google-benchmark) so it can also act as a CI
// gate:
//   * a global allocation counter (operator new override) reports
//     allocations per iteration for every benchmark, and the run FAILS if
//     the workspace-enabled MoE forward allocates in steady state;
//   * the run FAILS if the optimized kernel, on any backend, is not
//     bit-identical to the fragment-model reference, or the dispatched dense
//     GEMM or gated SiLU to its scalar loop, or if the dispatched gated SiLU
//     runs below 3x its scalar loop on an AVX2/AVX-512 host;
//   * --json=PATH emits machine-readable results (tokens/s, GFLOP/s, alloc
//     counts) so the perf trajectory is tracked from PR 3 onward;
//   * --smoke shrinks every measurement for fast CI sanity runs.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "src/core/samoyeds_kernel.h"
#include "src/core/ssmm_workspace.h"
#include "src/moe/decoder_layer.h"
#include "src/moe/expert.h"
#include "src/moe/moe_layer.h"
#include "src/moe/router.h"
#include "src/serving/engine.h"
#include "src/serving/expert_pool.h"
#include "src/sptc/mma_sp.h"
#include "src/tensor/bf16.h"
#include "src/tensor/gemm_ref.h"
#include "src/tensor/rng.h"

// ---- global allocation counter ---------------------------------------------
// Every usual allocation form is replaced as a set (plain, nothrow, and
// aligned new; all delete flavors) so no allocation can arrive from a
// default operator new and be released into std::free — and none escapes
// the counter. (libstdc++ reaches the nothrow form from std::stable_sort's
// temporary-buffer acquisition, for example.)

static std::atomic<int64_t> g_allocs{0};

namespace {

void* CountedAlloc(std::size_t size) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  // Extended-alignment news only fire for align > default new alignment, so
  // align satisfies posix_memalign's power-of-two, >= sizeof(void*) rules.
  void* p = nullptr;
  if (posix_memalign(&p, align, size ? size : align) != 0) {
    return nullptr;
  }
  return p;
}

// Every operator delete frees through this one out-of-line call. Were
// std::free inlined into a delete, GCC's -Wmismatched-new-delete would pair
// it with the operator new call it cannot see into and report a mismatch
// that depends only on what else got inlined nearby.
[[gnu::noinline]] void ReleaseAlloc(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  if (void* p = CountedAlloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = CountedAlignedAlloc(size, static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = CountedAlignedAlloc(size, static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { ReleaseAlloc(p); }
void operator delete[](void* p) noexcept { ReleaseAlloc(p); }
void operator delete(void* p, std::size_t) noexcept { ReleaseAlloc(p); }
void operator delete[](void* p, std::size_t) noexcept { ReleaseAlloc(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { ReleaseAlloc(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { ReleaseAlloc(p); }
void operator delete(void* p, std::align_val_t) noexcept { ReleaseAlloc(p); }
void operator delete[](void* p, std::align_val_t) noexcept { ReleaseAlloc(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { ReleaseAlloc(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { ReleaseAlloc(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  ReleaseAlloc(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  ReleaseAlloc(p);
}

namespace samoyeds {
namespace {

using Clock = std::chrono::steady_clock;

struct BenchResult {
  std::string name;
  int64_t iters = 0;
  double ms_per_iter = 0.0;
  double tokens_per_s = 0.0;  // 0 when the benchmark has no token dimension
  double gflops = 0.0;        // useful-FLOP rate; 0 when not meaningful
  double allocs_per_iter = 0.0;
};

// Runs fn() for ~min_seconds after two warm-up calls; `tokens` and `flops`
// are per-iteration counts used for the derived rates.
template <typename Fn>
BenchResult Measure(const std::string& name, double min_seconds, int64_t tokens, double flops,
                    Fn&& fn) {
  fn();
  fn();  // warm-up: buffers reach steady-state shape, caches warm
  const int64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  int64_t iters = 0;
  double elapsed = 0.0;
  do {
    fn();
    ++iters;
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (elapsed < min_seconds);
  const int64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;

  BenchResult r;
  r.name = name;
  r.iters = iters;
  r.ms_per_iter = elapsed * 1e3 / static_cast<double>(iters);
  r.tokens_per_s = tokens > 0 ? static_cast<double>(tokens * iters) / elapsed : 0.0;
  r.gflops = flops > 0.0 ? flops * static_cast<double>(iters) / elapsed * 1e-9 : 0.0;
  r.allocs_per_iter = static_cast<double>(allocs) / static_cast<double>(iters);
  return r;
}

void PrintResult(const BenchResult& r) {
  std::printf("%-28s %10.4f ms/iter %12.0f tokens/s %8.3f GFLOP/s %10.1f allocs/iter\n",
              r.name.c_str(), r.ms_per_iter, r.tokens_per_s, r.gflops, r.allocs_per_iter);
}

void AppendJson(std::string& out, const BenchResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "    {\"name\": \"%s\", \"iters\": %lld, \"ms_per_iter\": %.6f, "
                "\"tokens_per_s\": %.1f, \"gflops\": %.4f, \"allocs_per_iter\": %.2f}",
                r.name.c_str(), static_cast<long long>(r.iters), r.ms_per_iter, r.tokens_per_s,
                r.gflops, r.allocs_per_iter);
  if (!out.empty()) {
    out += ",\n";
  }
  out += buf;
}

// GemmAccumulateRef over a ctx-row prefix against a hidden x hidden weight
// (hidden 64, the perfbench model's). It runs the widest SIMD variant this
// CPU has, whatever the kernel backend. Returns false (and says why) unless
// every row matches the scalar loop bit for bit.
bool BenchDenseGemm(double seconds, std::vector<BenchResult>& results) {
  bool bit_identical = true;
  Rng rng(13);  // own stream: the other rows keep their inputs
  const int64_t hidden = 64;
  const MatrixF wt = rng.GaussianMatrix(hidden, hidden);
  for (const int64_t ctx : {int64_t{64}, int64_t{256}}) {
    const MatrixF a = rng.GaussianMatrix(ctx, hidden);
    MatrixF c(ctx, hidden);
    results.push_back(Measure("dense_gemm_ctx" + std::to_string(ctx), seconds, ctx,
                              2.0 * static_cast<double>(ctx * hidden * hidden), [&] {
                                c.Fill(0.0f);
                                GemmAccumulateRef(a, wt, c);
                              }));
    PrintResult(results.back());
    MatrixF want(ctx, hidden);
    for (int64_t i = 0; i < ctx; ++i) {
      for (int64_t p = 0; p < hidden; ++p) {
        const float av = a(i, p);
        if (av == 0.0f) {
          continue;
        }
        for (int64_t j = 0; j < hidden; ++j) {
          want(i, j) += av * wt(p, j);
        }
      }
    }
    if (std::memcmp(c.data(), want.data(), sizeof(float) * static_cast<size_t>(c.size())) != 0) {
      std::fprintf(stderr, "FAIL: dense GEMM (ctx %lld) is not bit-identical to the scalar loop\n",
                   static_cast<long long>(ctx));
      bit_identical = false;
    }
  }
  return bit_identical;
}

// gate := bf16(silu(gate) * up) on the live rows of one expert call at
// perfbench prefill_burst's shape (hidden 64, intermediate 1024, 120 selected
// tokens, format 1:2:32): the scalar loop against the row kernel
// GatedActivationRows dispatches to. Returns false (and says why) unless the
// two are bit-identical and, where a SIMD kernel runs, the dispatched one is
// at least 3x the scalar loop. Its tokens_per_s column counts elements.
bool BenchGatedSilu(double seconds, std::vector<BenchResult>& results) {
  Rng rng(17);  // own stream: the other rows keep their inputs
  const int64_t hidden = 64;
  const int64_t inter = 1024;
  const int64_t tokens = 120;
  const SamoyedsExpertWeights w = SamoyedsExpertWeights::Encode(
      ExpertWeights::Random(rng, static_cast<int>(hidden), static_cast<int>(inter)),
      SamoyedsConfig{1, 2, 32});
  const std::vector<int32_t>& rows = w.live_rows;
  const MatrixF gate0 = rng.GaussianMatrix(inter, tokens, 3.0f);
  const MatrixF up = rng.GaussianMatrix(inter, tokens);
  const int64_t elements = static_cast<int64_t>(rows.size()) * tokens;

  MatrixF scalar = gate0;
  BenchResult scalar_row = Measure("gated_silu_scalar", seconds, elements, 0.0, [&] {
    std::copy(gate0.data(), gate0.data() + gate0.size(), scalar.data());
    for (const int32_t r : rows) {
      float* g = scalar.data() + r * tokens;
      const float* u = up.data() + r * tokens;
      for (int64_t j = 0; j < tokens; ++j) {
        g[j] = RoundToBf16(ApplyActivation(Activation::kSilu, g[j]) * u[j]);
      }
    }
  });
  MatrixF dispatched = gate0;
  BenchResult dispatched_row = Measure("gated_silu", seconds, elements, 0.0, [&] {
    std::copy(gate0.data(), gate0.data() + gate0.size(), dispatched.data());
    GatedActivationRows(dispatched, up, Activation::kSilu, rows);
  });
  results.push_back(scalar_row);
  PrintResult(scalar_row);
  results.push_back(dispatched_row);
  PrintResult(dispatched_row);
  const double speedup = dispatched_row.ms_per_iter > 0.0
                             ? scalar_row.ms_per_iter / dispatched_row.ms_per_iter
                             : 0.0;
  const bool simd = WidestKernel(&GetGatedSiluKernel) != nullptr;
  std::printf("  gated_silu: %zu live rows x %lld tokens, %.2fx vs the scalar loop (%s)\n",
              rows.size(), static_cast<long long>(tokens), speedup,
              simd ? "SIMD row kernel" : "scalar loop");
  bool ok = true;
  if (std::memcmp(scalar.data(), dispatched.data(), sizeof(float) * scalar.size()) != 0) {
    std::fprintf(stderr, "FAIL: dispatched gated SiLU is not bit-identical to the scalar loop\n");
    ok = false;
  }
  if (simd && speedup < 3.0) {
    std::fprintf(stderr, "FAIL: dispatched gated SiLU is %.2fx the scalar loop, below 3x\n",
                 speedup);
    ok = false;
  }
  return ok;
}

// One routed expert call, ExpertForwardSamoyeds on the scalar backend, at the
// same prefill_burst shape.
void BenchExpertForward(double seconds, std::vector<BenchResult>& results) {
  Rng rng(19);
  const int64_t hidden = 64;
  const int64_t inter = 1024;
  const int64_t tokens = 120;
  const SamoyedsExpertWeights w = SamoyedsExpertWeights::Encode(
      ExpertWeights::Random(rng, static_cast<int>(hidden), static_cast<int>(inter)),
      SamoyedsConfig{1, 2, 32});
  const MatrixF x = rng.GaussianMatrix(tokens, hidden);
  const Selection sel = Selection::All(tokens);
  SsmmWorkspace ws;
  MatrixF out(tokens, hidden);
  results.push_back(Measure("expert_forward", seconds, tokens,
                            2.0 * 3.0 * static_cast<double>(hidden * inter * tokens),
                            [&] { ExpertForwardSamoyeds(x, w, sel, Activation::kSilu, ws, out); }));
  PrintResult(results.back());
}

int RunBench(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  double seconds = 0.15;
  int threads = 2;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(std::strlen("--json="));
    } else if (arg.rfind("--seconds=", 0) == 0) {
      seconds = std::atof(arg.c_str() + std::strlen("--seconds="));
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = std::atoi(arg.c_str() + std::strlen("--threads="));
    } else {
      std::fprintf(stderr,
                   "usage: bench_micro_kernel_wallclock [--smoke] [--json=PATH] "
                   "[--seconds=S] [--threads=N]\n");
      return 2;
    }
  }
  if (smoke) {
    seconds = 0.01;
  }

  // The default MoE shape the acceptance numbers quote: a routed expert of
  // the bench model (hidden 128, intermediate 256), batch of 64 tokens,
  // top-2 of 8 experts => ~16 tokens per expert per projection.
  const int64_t hidden = 128;
  const int64_t inter = 256;
  const int64_t tokens = 64;
  const int num_experts = 8;
  const int top_k = 2;
  const SamoyedsConfig fmt{1, 2, 32};

  Rng rng(7);
  std::vector<BenchResult> results;
  bool failed = false;

  // --- SpTC fragment op ---------------------------------------------------
  {
    SparseAFragment a;
    for (int i = 0; i < kMmaM * kMmaKCompressed; ++i) {
      a.values[static_cast<size_t>(i)] = rng.NextGaussian();
      a.meta[static_cast<size_t>(i)] = static_cast<uint8_t>(i % 2 == 0 ? 0 : 2);
    }
    DenseBFragment b;
    for (auto& v : b.values) {
      v = rng.NextGaussian();
    }
    Accumulator c;
    results.push_back(Measure("mma_sp_fragment", seconds, 0,
                              2.0 * kMmaM * kMmaN * kMmaK, [&] {
                                c = MmaSp(a, b, c);
                                // keep the accumulator live
                                if (c.at(0, 0) > 1e30f) {
                                  std::abort();
                                }
                              }));
    PrintResult(results.back());
  }

  // --- SSMM kernel: fragment-model reference vs packed optimized path -----
  const MatrixF w_gate = rng.GaussianMatrix(inter, hidden);
  const SamoyedsMatrix enc = SamoyedsMatrix::Encode(w_gate, fmt);
  const MatrixF b = rng.GaussianMatrix(hidden, tokens);
  Selection sel;
  sel.full_size = tokens;
  for (int64_t t = 0; t < tokens; t += 4) {
    sel.indices.push_back(static_cast<int32_t>(t));  // a quarter of the batch
  }
  const int64_t selected = sel.selected();
  const double kernel_flops = 2.0 * inter * hidden * static_cast<double>(selected);

  MatrixF ref_out;
  results.push_back(Measure("kernel_reference", seconds, selected, kernel_flops,
                            [&] { ref_out = SamoyedsKernel::RunReference(enc, b, sel); }));
  PrintResult(results.back());
  const double ref_tokens_per_s = results.back().tokens_per_s;

  SsmmWorkspace kernel_ws;
  MatrixF opt_out;
  results.push_back(Measure("kernel_optimized", seconds, selected, kernel_flops,
                            [&] { SamoyedsKernel::Run(enc, b, sel, kernel_ws, opt_out); }));
  PrintResult(results.back());
  const double opt_tokens_per_s = results.back().tokens_per_s;
  const double kernel_speedup =
      ref_tokens_per_s > 0.0 ? opt_tokens_per_s / ref_tokens_per_s : 0.0;

  const bool bit_identical = ref_out == opt_out;
  if (!bit_identical) {
    std::fprintf(stderr, "FAIL: optimized kernel is not bit-identical to the reference\n");
    failed = true;
  }
  std::printf("kernel speedup: %.2fx (optimized vs reference), bit-identical: %s\n",
              kernel_speedup, bit_identical ? "yes" : "NO");

  // --- kernel backend sweep -------------------------------------------------
  // Every backend this binary compiled AND this CPU can run, including in
  // --smoke mode (dispatch bugs should fail CI, not a weekly full run).
  struct BackendRow {
    KernelBackend backend;
    BenchResult bench;
    double speedup_vs_scalar = 0.0;
    bool bit_identical_to_ref = false;
  };
  std::vector<BackendRow> backend_rows;
  double scalar_backend_tokens_per_s = 0.0;
  for (KernelBackend backend : {KernelBackend::kScalar, KernelBackend::kAvx2,
                                KernelBackend::kAvx512, KernelBackend::kNeon}) {
    if (!KernelBackendCompiled(backend)) {
      continue;
    }
    if (!KernelBackendSupported(backend)) {
      std::printf("kernel_backend_%-14s compiled but not runnable on this CPU, skipped\n",
                  KernelBackendName(backend));
      continue;
    }
    BackendRow row;
    row.backend = backend;
    MatrixF out;
    row.bench = Measure(std::string("kernel_backend_") + KernelBackendName(backend), seconds,
                        selected, kernel_flops,
                        [&] { SamoyedsKernel::Run(enc, b, sel, kernel_ws, out, backend); });
    row.bit_identical_to_ref = out == ref_out;
    if (backend == KernelBackend::kScalar) {
      scalar_backend_tokens_per_s = row.bench.tokens_per_s;
    }
    row.speedup_vs_scalar = scalar_backend_tokens_per_s > 0.0
                                ? row.bench.tokens_per_s / scalar_backend_tokens_per_s
                                : 0.0;
    results.push_back(row.bench);
    PrintResult(row.bench);
    std::printf("  %s: %.2fx vs scalar, bit-identical to ref: %s\n", KernelBackendName(backend),
                row.speedup_vs_scalar, row.bit_identical_to_ref ? "yes" : "no");

    // Gates. Every backend is bit-exact (kernel_backend.h): any numeric
    // drift is a regression. Every backend runs out of the shared
    // workspace, so steady state must not touch the heap.
    if (!row.bit_identical_to_ref) {
      std::fprintf(stderr, "FAIL: %s backend is not bit-identical to the reference\n",
                   KernelBackendName(backend));
      failed = true;
    }
    if (row.bench.allocs_per_iter > 0.0) {
      std::fprintf(stderr, "FAIL: %s backend allocated %.2f times/iter in steady state\n",
                   KernelBackendName(backend), row.bench.allocs_per_iter);
      failed = true;
    }
    backend_rows.push_back(std::move(row));
  }
  // Scalar-path perf regression gate: the explicit-scalar row and the
  // default-path kernel_optimized row run the same loop, so a large gap
  // means dispatch overhead crept into the hot path.
  if (scalar_backend_tokens_per_s > 0.0 && opt_tokens_per_s > 0.0 &&
      scalar_backend_tokens_per_s < 0.5 * opt_tokens_per_s) {
    std::fprintf(stderr,
                 "FAIL: scalar backend regressed to %.0f tokens/s vs %.0f on the default path\n",
                 scalar_backend_tokens_per_s, opt_tokens_per_s);
    failed = true;
  }
  // The acceptance floor for the SIMD work: on an AVX2-capable machine the
  // avx2 backend must beat scalar by >= 1.5x.
  for (const BackendRow& row : backend_rows) {
    if (row.backend == KernelBackend::kAvx2 && row.speedup_vs_scalar < 1.5) {
      std::fprintf(stderr, "FAIL: avx2 backend speedup %.2fx vs scalar is below the 1.5x floor\n",
                   row.speedup_vs_scalar);
      failed = true;
    }
  }

  // --- dense GEMM: the engine's attention projections ---------------------
  const bool dense_bit_identical = BenchDenseGemm(seconds, results);
  failed = failed || !dense_bit_identical;

  // --- expert FFN: the gated SiLU and one whole expert call ---------------
  const bool gated_silu_ok = BenchGatedSilu(seconds, results);
  failed = failed || !gated_silu_ok;
  BenchExpertForward(seconds, results);

  // --- MoE forward through the workspace API ------------------------------
  MoeModelConfig cfg;
  cfg.name = "bench";
  cfg.hidden = static_cast<int>(hidden);
  cfg.intermediate = static_cast<int>(inter);
  cfg.num_experts = num_experts;
  cfg.top_k = top_k;
  cfg.shared_experts = 1;
  const MoeLayerWeights dense = MoeLayerWeights::Random(rng, cfg);
  const SamoyedsMoeLayerWeights sparse = SamoyedsMoeLayerWeights::Encode(dense, fmt);
  const MatrixF x = rng.GaussianMatrix(tokens, hidden);
  const RoutingPlan plan = Route(x, sparse.router_gate, top_k);

  MoeWorkspace moe_ws;
  MatrixF moe_out;
  const double moe_flops =
      2.0 * inter * hidden * 3.0 * static_cast<double>(tokens) * (top_k + 1);
  BenchResult moe_result =
      Measure("moe_forward_workspace", seconds, tokens, moe_flops,
              [&] { MoeForwardSamoyeds(x, sparse, plan, Activation::kSilu, moe_ws, moe_out); });
  results.push_back(moe_result);
  PrintResult(moe_result);
  const double moe_steady_allocs = moe_result.allocs_per_iter;
  if (moe_steady_allocs != 0.0) {
    std::fprintf(stderr,
                 "FAIL: workspace MoE forward allocated %.2f times/iter in steady state "
                 "(expected 0)\n",
                 moe_steady_allocs);
    failed = true;
  }

  // Tile-parallel executor (task submission allocates; the kernel path
  // itself runs out of per-slot workspaces).
  {
    serving::ExpertPool pool(threads);
    serving::ParallelMoeWorkspace par_ws;
    MatrixF par_out;
    results.push_back(Measure("moe_forward_parallel", seconds, tokens, moe_flops, [&] {
      serving::ParallelMoeForwardSamoyeds(pool, x, sparse, plan, Activation::kSilu, par_ws,
                                          par_out);
    }));
    PrintResult(results.back());
    if (!(par_out == moe_out)) {
      std::fprintf(stderr, "FAIL: tile-parallel MoE forward diverged from sequential\n");
      failed = true;
    }
  }

  // --- steady-state serving decode step -----------------------------------
  {
    Rng erng(11);
    std::vector<SamoyedsDecoderLayerWeights> layers;
    MoeModelConfig ecfg = cfg;
    layers.push_back(
        SamoyedsDecoderLayerWeights::Encode(DecoderLayerWeights::Random(erng, ecfg), fmt));
    serving::EngineConfig engine_cfg;
    engine_cfg.heads = 4;
    engine_cfg.top_k = top_k;
    engine_cfg.threads = 1;  // measure the single-thread workspace path
    engine_cfg.scheduler.token_budget = 256;
    const int64_t decode = smoke ? 512 : 8192;
    std::vector<MatrixF> request_inputs;
    for (int64_t id = 0; id < 4; ++id) {
      request_inputs.push_back(erng.GaussianMatrix(8 + decode, hidden));
    }
    // The engine is rebuilt and refilled whenever the workload drains, so
    // arbitrarily long --seconds runs keep measuring decode steps instead of
    // aborting (the occasional rebuild + prefill iteration is noise).
    std::unique_ptr<serving::ServingEngine> engine;
    auto refill = [&] {
      engine = std::make_unique<serving::ServingEngine>(layers, engine_cfg);
      for (int64_t id = 0; id < 4; ++id) {
        serving::Request r;
        r.id = id;
        r.arrival_step = 0;
        r.prompt_len = 8;
        r.max_new_tokens = decode;
        r.inputs = request_inputs[static_cast<size_t>(id)];
        engine->Submit(std::move(r));
      }
      engine->Step();  // prefill
    };
    refill();
    BenchResult step_result = Measure("engine_decode_step", seconds, 4, 0.0, [&] {
      if (!engine->Step()) {
        refill();
      }
    });
    results.push_back(step_result);
    PrintResult(step_result);
  }

  // --- JSON ---------------------------------------------------------------
  if (!json_path.empty()) {
    std::string items;
    for (const auto& r : results) {
      AppendJson(items, r);
    }
    // Per-backend sweep rows: throughput, speedup vs scalar and the bit
    // check against the reference.
    std::string backend_items;
    for (const BackendRow& row : backend_rows) {
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "    {\"backend\": \"%s\", \"tokens_per_s\": %.1f, \"gflops\": %.4f, "
                    "\"speedup_vs_scalar\": %.3f, \"allocs_per_iter\": %.2f, "
                    "\"bit_identical_to_ref\": %s}",
                    KernelBackendName(row.backend), row.bench.tokens_per_s, row.bench.gflops,
                    row.speedup_vs_scalar, row.bench.allocs_per_iter,
                    row.bit_identical_to_ref ? "true" : "false");
      if (!backend_items.empty()) {
        backend_items += ",\n";
      }
      backend_items += buf;
    }
    char head[512];
    std::snprintf(head, sizeof(head),
                  "{\n  \"bench\": \"micro_kernel_wallclock\",\n  \"schema_version\": 3,\n"
                  "  \"mode\": \"%s\",\n"
                  "  \"config\": {\"threads\": %d, \"seconds\": %.3f},\n"
                  "  \"shape\": {\"hidden\": %lld, \"intermediate\": %lld, \"tokens\": %lld, "
                  "\"experts\": %d, \"top_k\": %d, \"format\": [1, 2, 32]},\n"
                  "  \"kernel_speedup\": %.3f,\n  \"bit_identical\": %s,\n"
                  "  \"dense_gemm_bit_identical\": %s,\n"
                  "  \"gated_silu_ok\": %s,\n"
                  "  \"moe_workspace_steady_allocs\": %.2f,\n",
                  smoke ? "smoke" : "full", threads, seconds, static_cast<long long>(hidden),
                  static_cast<long long>(inter), static_cast<long long>(tokens), num_experts,
                  top_k, kernel_speedup, bit_identical ? "true" : "false",
                  dense_bit_identical ? "true" : "false", gated_silu_ok ? "true" : "false",
                  moe_steady_allocs);
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    std::fputs(head, f);
    std::fputs("  \"backends\": [\n", f);
    std::fputs(backend_items.c_str(), f);
    std::fputs("\n  ],\n  \"results\": [\n", f);
    std::fputs(items.c_str(), f);
    std::fputs("\n  ]\n}\n", f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  return failed ? 1 : 0;
}

}  // namespace
}  // namespace samoyeds

int main(int argc, char** argv) { return samoyeds::RunBench(argc, argv); }
