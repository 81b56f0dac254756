// Runtime-dispatched SIMD backends for the SSMM packed-panel inner loops.
//
// The packed execution path (SamoyedsKernel::RunPanel) spends its time in
// branch-free contiguous axpys: for each (sub-row window, compressed row)
// group, out_row += sum_e a_vals[e] * panel_row(a_cols[e]). That loop nest
// vectorizes across the panel-column (token) dimension without changing the
// per-element accumulation order, so SIMD variants differ from the scalar
// oracle only in using fused multiply-adds.
//
// Accumulation contract (recorded per run in ReportProvenance):
//
//   scalar  — separate multiply and add per element, identical association
//             to RunReference ⇒ *bit-exact* against the fragment-model
//             oracle (the property every serving bit-identity gate uses).
//   avx2 / avx512 / neon — same association (entries accumulate in packed
//             order per output element) but each step is a fused
//             multiply-add, so products are not rounded before adding ⇒
//             gated by a ULP-bounded oracle against an fp64 reference, not
//             by bit identity.
//
// Backends are selected at runtime: cpuid (plus XGETBV for OS state-save
// support) decides what the machine can run, `auto` resolves to the widest
// supported variant, and SAMOYEDS_FORCE_BACKEND overrides the process-wide
// default (explicit per-call backends, e.g. in tests, are never overridden).
// Each SIMD variant lives in its own translation unit compiled with just
// that ISA's flags, so the core library still runs on the baseline ISA.
//
// Dense GEMM contract (GemmAccumulateRef, under GemmRef: the engine's
// attention projections and AttentionForward):
//
//   avx512 / avx2 — register-blocked C += A * B that keeps the scalar loop's
//             arithmetic per element: c(i,j) += a(i,p) * b(p,j) for p
//             ascending, a separate multiply then add (never an FMA), and
//             the same a(i,p) == 0 skip, so a -0 already in C keeps its sign
//             and 0 * inf never enters. Each variant is therefore *bit-exact*
//             against the scalar loop. The avx2 unit is also compiled with
//             -mfma, so this relies on -ffp-contract=off (CMakeLists) to keep
//             the compiler from fusing the multiply and the add.
//
// Unlike the panel kernels, the dense dispatch has no knob: it is resolved
// once from CpuHasAvx512() / CpuHasAvx2() (widest first, scalar loop as the
// portable fallback) and ignores SetKernelBackend, EngineConfig and
// SAMOYEDS_FORCE_BACKEND — being bit-exact, there is nothing to choose.

#ifndef SAMOYEDS_SRC_CORE_KERNEL_BACKEND_H_
#define SAMOYEDS_SRC_CORE_KERNEL_BACKEND_H_

#include <cstdint>

namespace samoyeds {

enum class KernelBackend {
  kScalar = 0,  // bit-exact oracle path (default)
  kAvx2 = 1,    // 8-wide fp32 FMA
  kAvx512 = 2,  // 16-wide fp32 FMA, masked ragged edges
  kNeon = 3,    // 4-wide fp32 FMA (aarch64)
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

// The backend's bit-exact dense GEMM (see the contract above), or nullptr
// unless b is avx2/avx512, compiled in and runnable here. GemmAccumulateRef
// picks its kernel from these once; tests call each variant explicitly.
DenseGemmFn GetDenseGemmKernel(KernelBackend b);

// fp32 lanes per vector op (1 for scalar). Feeds the autotuner's
// lane-padding model: a SEL width that is not a multiple of the vector
// width wastes tail lanes.
int KernelBackendVectorWidth(KernelBackend b);

const char* KernelBackendName(KernelBackend b);
// Parses "auto" | "scalar" | "avx2" | "avx512" | "neon". Returns false on
// anything else; *out is untouched on failure.
bool ParseKernelBackend(const char* text, KernelBackend* out);

// Resolves a requested backend to a runnable one: kAuto picks the widest
// supported variant (avx512 > avx2 > neon > scalar); a specific request
// resolves to itself when supported. Returns false (and leaves *out at
// kScalar) when the specific request is not runnable on this machine.
bool ResolveKernelBackend(KernelBackend requested, KernelBackend* out);

// Process-wide default backend used by RunPanel calls that do not pass one
// explicitly (the serving engine sets this from EngineConfig). Starts at
// kScalar. When the SAMOYEDS_FORCE_BACKEND environment variable names a
// backend, Set requests are overridden by it (the CI sanitizer job uses
// this to pin the whole suite's implicit path to scalar); explicit per-call
// backends are never overridden. Returns the backend actually installed.
KernelBackend SetKernelBackend(KernelBackend b);
KernelBackend ActiveKernelBackend();

}  // namespace samoyeds

#endif  // SAMOYEDS_SRC_CORE_KERNEL_BACKEND_H_
