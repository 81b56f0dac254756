// The Samoyeds dual-side sparse-sparse matrix multiplication kernel (§4).
//
// Computes C = A x B_sel where A is a weight matrix in the Samoyeds format
// (sub-row vector sparsity + 2:4, §4.1) and B_sel is the subset of input
// columns named by a SEL selection array (the token-routing sparsity of the
// MoE layer).
//
// Two functional paths produce bit-identical results:
//
//   * RunReference — routes every inner product through the SpTC model
//     (mma.sp.m16n8k32 fragments) including the compressed-row accumulation
//     and the C_IR shuffle at sub-row window boundaries, so format or
//     metadata bugs produce wrong numbers exactly as they would on hardware.
//     It re-gathers B fragments per row tile, the way a naive kernel would.
//   * Run — the optimized execution path. The SEL gather, the input
//     transpose and the bf16 rounding of B are hoisted into one packed
//     (k x selected) panel per call (the code-level analogue of §4.5's
//     fused-transpose GMEM->SMEM staging); A's kept values are packed per
//     (window, compressed row) with absolute column positions so the inner
//     loops are branch-free contiguous axpys; per-window fp32 partial sums
//     accumulate in the same order as the fragment path, making the result
//     bit-identical (asserted by the randomized equivalence suite).
//
// The analytic path (Analyze) produces the TrafficReport the timing model
// consumes; each SsmmConfig toggle changes the traffic in the way §4.2-4.5
// describe.

#ifndef SAMOYEDS_SRC_CORE_SAMOYEDS_KERNEL_H_
#define SAMOYEDS_SRC_CORE_SAMOYEDS_KERNEL_H_

#include "src/core/kernel_backend.h"
#include "src/core/ssmm_config.h"
#include "src/core/ssmm_workspace.h"
#include "src/formats/samoyeds_format.h"
#include "src/formats/sel.h"
#include "src/kernels/kernel_report.h"
#include "src/simgpu/device_spec.h"
#include "src/tensor/matrix.h"

namespace samoyeds {

// Packed execution form of a Samoyeds weight matrix's kept values: per
// (sub-row window, compressed row) group, the non-zero bf16-rounded values
// and their absolute dense-k columns in ascending order — exactly the order
// (and zero-skip) of the SpTC fragment path's expanded iteration. Depends
// only on the weight matrix, so it is built once (at expert Encode time, or
// lazily per call into an SsmmWorkspace) and reused by every Run.
struct SsmmPackedA {
  std::vector<float> vals;
  std::vector<int32_t> cols;
  std::vector<int64_t> off;   // group start offsets, n_windows * c_rows + 1
  std::vector<int32_t> rows;  // output row per group (the C_IR shuffle target)

  bool empty() const { return off.empty(); }
};

class SamoyedsKernel {
 public:
  // Traffic profile for C(m x len_d) = A(m x k, Samoyeds fmt) * B(k x n)[SEL].
  // `selected` is the SEL length (ignored when cfg.input_selection is off,
  // in which case the kernel runs over all n columns).
  static KernelProfile Analyze(const GemmShape& shape, int64_t selected,
                               const SamoyedsConfig& format, const SsmmConfig& cfg,
                               const DeviceSpec& target);
  static KernelProfile Analyze(const GemmShape& shape, int64_t selected,
                               const SamoyedsConfig& format, const SsmmConfig& cfg);

  // Functional execution (optimized path). Returns the compressed output
  // (rows() x sel.selected()); use ScatterColumns for the full-width layout.
  // Requires format.v % 32 == 0 (one mma.sp step never straddles a sub-row
  // window).
  //
  // Every execution entry point takes a KernelBackend selecting the inner-
  // loop implementation (default: scalar). Every backend gives the same bits
  // (see the contract in kernel_backend.h).
  static MatrixF Run(const SamoyedsMatrix& a, const MatrixF& b, const Selection& sel,
                     KernelBackend backend = KernelBackend::kScalar);

  // Zero-allocation variant: stages operands in `ws` and writes the result
  // into `out` (reshaped in place). Steady-state calls at a fixed shape do
  // not touch the heap.
  static void Run(const SamoyedsMatrix& a, const MatrixF& b, const Selection& sel,
                  SsmmWorkspace& ws, MatrixF& out,
                  KernelBackend backend = KernelBackend::kScalar);

  // The original scalar fragment-by-fragment loop, kept as the bit-exact
  // oracle for the optimized path (see SamoyedsKernelBitIdentityTest).
  static MatrixF RunReference(const SamoyedsMatrix& a, const MatrixF& b, const Selection& sel);

  // Builds the reusable packed form of `a`'s kept values (see SsmmPackedA).
  static void PackWeights(const SamoyedsMatrix& a, SsmmPackedA& packed);

  // Core of the optimized path: multiplies A by an already packed panel
  // (k x n, SEL-gathered and bf16-rounded — see PackSelectedColumns /
  // PackSelectedTokens). `out` is reshaped to (a.rows x panel.cols()) and
  // overwritten. Exposed so the expert forward chain can feed one kernel's
  // feature-major output straight into the next without transposing.
  // The first overload packs A per call into `ws`; the second consumes a
  // prebuilt pack (the steady-state serving path — weights are immutable,
  // so experts pack once at Encode time).
  static void RunPanel(const SamoyedsMatrix& a, const MatrixF& panel, SsmmWorkspace& ws,
                       MatrixF& out, KernelBackend backend = KernelBackend::kScalar);
  static void RunPanel(const SamoyedsMatrix& a, const SsmmPackedA& packed,
                       const MatrixF& panel, SsmmWorkspace& ws, MatrixF& out,
                       KernelBackend backend = KernelBackend::kScalar);

  // Panel staging helpers (the fused transpose + SEL gather + rounding).
  // PackSelectedColumns: panel(k, j) = bf16(b(k, sel[j])) from a (k x n) B.
  // PackSelectedTokens:  panel(k, j) = bf16(x(sel[j], k)) from a (tokens x k)
  // activation matrix — the (W^T x^T)^T restructuring of §4.5 done once.
  static void PackSelectedColumns(const MatrixF& b, const Selection& sel, MatrixF& panel);
  static void PackSelectedTokens(const MatrixF& x, const Selection& sel, MatrixF& panel);

  // Convenience: linear layer semantics y = x * W^T with x (tokens x k) and
  // W (m x k) in Samoyeds format; rows of x are gathered by `sel` (token
  // routing). Output is (sel.selected() x m).
  static MatrixF RunLinear(const MatrixF& x, const SamoyedsMatrix& w, const Selection& sel);

  static constexpr double kEfficiency = 0.60;
  static constexpr double kPortSensitivity = 0.35;
};

}  // namespace samoyeds

#endif  // SAMOYEDS_SRC_CORE_SAMOYEDS_KERNEL_H_
