// Runtime-dispatched SIMD backends for the SSMM packed-panel inner loops, the
// dense GEMM and the expert's gated SiLU.
//
// The packed execution path (SamoyedsKernel::RunPanel) spends its time in
// branch-free contiguous axpys: for each (sub-row window, compressed row)
// group, out_row += sum_e a_vals[e] * panel_row(a_cols[e]). That loop nest
// vectorizes across the panel-column (token) dimension without changing the
// per-element order of operations.
//
// One contract for every kernel here: each variant keeps its scalar loop's
// arithmetic per output element — the same operations in the same order, a
// separate multiply then add (never a fused multiply-add) — so every
// backend is *bit-exact* by construction:
//
//   panel (scalar / avx2 / avx512 / neon) — per group, a +0 partial
//             accumulates partial += a_vals[e] * panel(a_cols[e], j) over
//             its packed entries in order, then out(row, j) += partial.
//             Every backend equals RunReference, the fragment-model oracle
//             every serving bit-identity gate is stated against, so the
//             backend choice never changes a result.
//   dense (avx512 / avx2; GemmAccumulateRef, under GemmRef: the engine's
//             attention projections and AttentionForward) — c(i,j) +=
//             a(i,p) * b(p,j) for p ascending with the same a(i,p) == 0
//             skip, so a -0 already in C keeps its sign and 0 * inf never
//             enters.
//   gated SiLU (avx512 / avx2; the Samoyeds expert forward's
//             GatedActivationRows) — g = bf16(silu(g) * u) with
//             silu(x) = x / (1 + ExpF(-x)): ExpF's steps (src/tensor/expf.h),
//             the add, the divide and the multiply in the scalar order, and
//             RoundToBf16's round-to-nearest-even and NaN rule in integer
//             lanes.
//
// Fusing would not be exact: the panel operands are bf16, but a product
// of two bf16 values below the fp32 normal range rounds, and an FMA that
// skips that rounding can land one ULP away. No x86 unit is compiled with
// -mfma; -ffp-contract=off (CMakeLists) is what keeps the compiler from
// fusing what the source keeps separate wherever the ISA has an FMA
// (aarch64's baseline does).
//
// Backends are selected at runtime: cpuid (plus XGETBV for OS state-save
// support) decides what the machine can run and `auto` resolves to the
// widest supported variant. Panel callers pass the backend explicitly (the
// serving engine resolves EngineConfig::kernel_backend once and threads it
// down; every other caller defaults to kScalar). The dense GEMM and the
// gated SiLU have no knob: GemmAccumulateRef and GatedActivationRows each
// resolve their kernel once from CpuHasAvx512() / CpuHasAvx2() (widest
// first, the scalar loop as the portable fallback and the tests' oracle). Each
// SIMD variant lives in its own translation unit compiled with just that
// ISA's flags, so the core library still runs on the baseline ISA.

#ifndef SAMOYEDS_SRC_CORE_KERNEL_BACKEND_H_
#define SAMOYEDS_SRC_CORE_KERNEL_BACKEND_H_

#include <cstdint>

namespace samoyeds {

enum class KernelBackend {
  kScalar = 0,  // plain loop (default)
  kAvx2 = 1,    // 8-wide fp32
  kAvx512 = 2,  // 16-wide fp32, masked ragged edges
  kNeon = 3,    // 4-wide fp32 (aarch64)
  kAuto = 4,    // resolve to the widest supported variant
};

// One RunPanel traversal in backend-ABI form: raw pointers only, so the
// per-ISA translation units depend on nothing but this header. Groups are
// (window, compressed-row) pairs in window-major order; group g owns packed
// entries [a_off[g], a_off[g+1]) and accumulates into output row
// group_rows[g]. `out` rows are += targets (callers pre-zero the matrix).
struct PanelGroupTask {
  const float* a_vals = nullptr;
  const int32_t* a_cols = nullptr;
  const int64_t* a_off = nullptr;      // n_groups + 1 offsets
  const int32_t* group_rows = nullptr; // output row per group
  int64_t n_groups = 0;
  const float* panel = nullptr;        // row-major (k x n_out)
  int64_t n_out = 0;                   // panel/output row width
  float* out = nullptr;                // row-major, pre-zeroed accumulate target
};

using PanelKernelFn = void (*)(const PanelGroupTask&);

// Dense C(m x n) += A(m x k) * B(k x n), every matrix row-major and
// contiguous (row stride == its column count).
struct DenseGemmTask {
  const float* a = nullptr;
  const float* b = nullptr;
  float* c = nullptr;
  int64_t m = 0;
  int64_t n = 0;
  int64_t k = 0;
};

using DenseGemmFn = void (*)(const DenseGemmTask&);

// gate[j] = RoundToBf16(silu(gate[j]) * up[j]) for j in [0, n), in place:
// one live row of the expert's gated activation (src/moe/expert.cc).
using GatedSiluRowFn = void (*)(float* gate, const float* up, int64_t n);

// ---- CPU feature detection (cpuid + xgetbv on x86, compile-time on arm) ----
bool CpuHasAvx2();
bool CpuHasAvx512();
bool CpuHasNeon();

// Whether this binary contains code for the backend (per-ISA TU compiled in).
bool KernelBackendCompiled(KernelBackend b);
// Compiled in AND runnable on this machine. kScalar is always supported;
// kAuto is a selector, not a runnable backend, and reports false.
bool KernelBackendSupported(KernelBackend b);

// The backend's panel kernel, or nullptr for kScalar/kAuto/uncompiled
// variants (callers fall back to the built-in scalar loop).
PanelKernelFn GetPanelKernel(KernelBackend b);

// The backend's dense GEMM, or nullptr unless b is avx2/avx512, compiled in
// and runnable here. GemmAccumulateRef picks its kernel from these once;
// tests call each variant explicitly.
DenseGemmFn GetDenseGemmKernel(KernelBackend b);

// The backend's gated-SiLU row kernel, under the same rule as
// GetDenseGemmKernel; GatedActivationRows picks from these once.
GatedSiluRowFn GetGatedSiluKernel(KernelBackend b);

// The widest variant `get` returns on this machine (avx512, then avx2), or
// nullptr for the portable scalar loop: how the knob-less kernels pick theirs.
template <typename Fn>
Fn WidestKernel(Fn (*get)(KernelBackend)) {
  for (KernelBackend b : {KernelBackend::kAvx512, KernelBackend::kAvx2}) {
    if (Fn fn = get(b)) {
      return fn;
    }
  }
  return nullptr;
}

const char* KernelBackendName(KernelBackend b);
// Parses "auto" | "scalar" | "avx2" | "avx512" | "neon". Returns false on
// anything else; *out is untouched on failure.
bool ParseKernelBackend(const char* text, KernelBackend* out);

// Resolves a requested backend to a runnable one: kAuto picks the widest
// supported variant (avx512 > avx2 > neon > scalar); a specific request
// resolves to itself when supported. Returns false (and leaves *out at
// kScalar) when the specific request is not runnable on this machine.
bool ResolveKernelBackend(KernelBackend requested, KernelBackend* out);

}  // namespace samoyeds

#endif  // SAMOYEDS_SRC_CORE_KERNEL_BACKEND_H_
