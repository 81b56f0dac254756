#include "src/core/samoyeds_kernel.h"

#include <algorithm>
#include <cassert>

#include "src/kernels/tuning.h"
#include "src/sptc/fragment.h"
#include "src/sptc/mma_sp.h"
#include "src/tensor/bf16.h"

namespace samoyeds {

KernelProfile SamoyedsKernel::Analyze(const GemmShape& shape, int64_t selected,
                                      const SamoyedsConfig& format, const SsmmConfig& cfg,
                                      const DeviceSpec& target) {
  KernelProfile p;
  p.kernel_name = "Samoyeds SSMM";
  const int64_t n_eff = cfg.input_selection ? selected : shape.n;
  // Useful work: the dense-equivalent of the *selected* problem; when input
  // selection is off the kernel still performs (and is credited for) the
  // full-width problem, matching how the baselines are scored.
  p.useful_flops = 2.0 * shape.m * shape.k * static_cast<double>(n_eff);

  const double row_frac = static_cast<double>(format.n) / format.m;
  const double density = format.density();
  const int64_t mp = RoundUp(shape.m, cfg.mb);
  const int64_t np = RoundUp(std::max<int64_t>(n_eff, 1), cfg.nb);
  const int64_t kp = RoundUp(shape.k, cfg.kb);
  const int64_t blocks = (mp / cfg.mb) * (np / cfg.nb);

  TrafficReport& t = p.traffic;
  t.thread_blocks = blocks;
  t.warps_per_block = cfg.warps_per_block();
  t.pipeline_stages = cfg.stages;
  t.smem_bytes_per_block =
      static_cast<int64_t>(cfg.stages) *
          (static_cast<int64_t>(cfg.mb * row_frac) * cfg.kb + cfg.kb * cfg.nb) * 2 +
      cfg.nb * 4;  // SEL slice
  t.regs_per_thread = 184;
  t.mainloop_iterations = kp / cfg.kb;
  t.efficiency = kEfficiency * PortabilityFactor(DefaultDevice(), target, kPortSensitivity);

  // --- A-side traffic (compressed data + indices + metadata) --------------
  const double a_rows = static_cast<double>(mp) * row_frac;
  const double col_iters = static_cast<double>(np) / cfg.nb;  // panel re-reads
  const double a_bytes = a_rows * (kp / 2.0) * 2.0 * col_iters;
  const double idx_bytes = a_rows * (static_cast<double>(kp) / format.v) * 1.0 * col_iters;
  double meta_payload = a_rows * (kp / 2.0) * 0.25 * col_iters;
  double meta_uncoalesced = 0.0;
  double meta_unpack_flops = 0.0;
  if (!cfg.packed_metadata) {
    // Element-wise metadata: each 2-bit entry costs a scattered 32-bit
    // access plus shift/mask work (§4.4).
    meta_payload *= 4.0;
    meta_uncoalesced = meta_payload;
    meta_unpack_flops = meta_payload * 2.0;
  }

  // --- B-side traffic ------------------------------------------------------
  // SEL-driven loads are coalesced: B is packed transposed in GMEM, so each
  // selected token contributes one contiguous row (§4.4).
  const double row_iters = static_cast<double>(mp) / cfg.mb;
  const double b_bytes = static_cast<double>(kp) * np * 2.0 * row_iters;
  const double sel_bytes = static_cast<double>(np) * 4.0 * row_iters;

  t.gmem_read_bytes = a_bytes + idx_bytes + meta_payload + b_bytes + sel_bytes;
  t.gmem_uncoalesced_bytes = meta_uncoalesced;

  // --- Output traffic -------------------------------------------------------
  if (cfg.compressed_output) {
    t.gmem_write_bytes = static_cast<double>(mp) * np * 2.0;
  } else {
    // Full-width zero-padded output: write the entire m x n surface, with a
    // scattered access pattern where selected columns interleave with
    // skipped ones (Fig. 11).
    t.gmem_write_bytes = static_cast<double>(mp) * RoundUp(shape.n, cfg.nb) * 2.0;
    t.gmem_uncoalesced_bytes += 0.25 * t.gmem_write_bytes;
  }

  // --- Data stationary ------------------------------------------------------
  if (cfg.data_stationary) {
    // Register shuffle through C_IR at every sub-row window shift: pure
    // in-core work, a couple of ops per accumulator element per shift.
    t.simd_flops += static_cast<double>(mp) * np * (static_cast<double>(kp) / format.v) * 0.5;
  } else {
    // Without the shuffle the indexed accumulators fall back to *local*
    // memory (§4.3): at every window shift the C fragments whose sub-row
    // mapping changes move through the L1-backed local space, disrupting
    // the pipeline. The L1 absorbs most of it; the residual shows up as
    // on-chip traffic plus a small issue-efficiency loss. (Fig. 17 shows
    // the S optimization is worth a few percent on top of WIT.)
    const double shifts = std::max<double>(1.0, static_cast<double>(kp) / format.v - 1.0);
    const double local_bytes = static_cast<double>(blocks) * (cfg.mb * row_frac) * cfg.nb * 4.0 *
                               2.0 * shifts * 0.125;
    t.smem_bytes += local_bytes;
    t.simd_flops += static_cast<double>(mp) * np * (static_cast<double>(kp) / format.v) * 1.0;
    t.efficiency *= 0.97;
  }

  // --- Transpose fusion (layout optimization) -------------------------------
  if (!cfg.fused_transpose) {
    // Separate transpose passes over the input activations and the output:
    // one GMEM round-trip each, half-scattered.
    const double in_xpose = 2.0 * static_cast<double>(shape.k) * shape.n * 2.0;
    const double out_xpose = 2.0 * static_cast<double>(shape.m) * n_eff * 2.0;
    t.gmem_read_bytes += (in_xpose + out_xpose) / 2.0;
    t.gmem_write_bytes += (in_xpose + out_xpose) / 2.0;
    t.gmem_uncoalesced_bytes += 0.5 * (in_xpose + out_xpose);
  }

  t.gmem_unique_bytes =
      static_cast<double>(shape.m) * shape.k * density * 2.0 +          // data
      static_cast<double>(shape.m) / format.m * format.n *
          (static_cast<double>(shape.k) / format.v + shape.k / 8.0) +   // indices + packed meta
      static_cast<double>(shape.k) * n_eff * 2.0 +                      // selected B columns
      static_cast<double>(shape.m) * n_eff * 2.0;                       // output
  if (!cfg.compressed_output) {
    // The zero-padded full-width output surface is part of the compulsory
    // footprint (Fig. 11's redundant transfers).
    t.gmem_unique_bytes +=
        static_cast<double>(mp) * (RoundUp(shape.n, cfg.nb) - n_eff) * 2.0;
  }

  t.smem_bytes += (a_bytes + b_bytes) * 3.0;
  t.bank_conflict_factor = cfg.permuted_smem ? 1.0 : 1.6;

  // Executed FLOPs: only kept sub-rows, only kept 2:4 elements, only
  // selected columns.
  t.mma_flops = 2.0 * mp * kp * density * np;
  t.uses_sparse_alu = true;
  // Fused epilogue (activation + weighted accumulation, §4.3).
  t.simd_flops += static_cast<double>(mp) * np * 4.0 + meta_unpack_flops;
  t.fixed_overhead_us = 5.0;
  return p;
}

KernelProfile SamoyedsKernel::Analyze(const GemmShape& shape, int64_t selected,
                                      const SamoyedsConfig& format, const SsmmConfig& cfg) {
  return Analyze(shape, selected, format, cfg, DefaultDevice());
}

MatrixF SamoyedsKernel::RunReference(const SamoyedsMatrix& a, const MatrixF& b,
                                     const Selection& sel) {
  assert(a.cols == b.rows());
  assert(sel.full_size == b.cols());
  assert(sel.IsValid());
  assert(a.config.v % kMmaK == 0 && "one mma.sp step must not straddle a sub-row window");

  const int64_t c_rows = a.compressed_rows();
  const int64_t n_out = sel.selected();
  const int64_t n_windows = a.cols / a.config.v;
  const int mma_per_window = a.config.v / kMmaK;
  MatrixF out(a.rows, n_out);

  // Iterate sub-row windows (block columns). Within a window the compressed
  // row -> original row mapping is constant, so accumulators can stay in
  // "registers" (the Accumulator struct); the scatter at the end of each
  // window is the C_IR shuffle of §4.3.
  for (int64_t w = 0; w < n_windows; ++w) {
    for (int64_t cr0 = 0; cr0 < c_rows; cr0 += kMmaM) {
      for (int64_t nc0 = 0; nc0 < n_out; nc0 += kMmaN) {
        Accumulator acc{};
        for (int step = 0; step < mma_per_window; ++step) {
          const int64_t k0 = w * a.config.v + static_cast<int64_t>(step) * kMmaK;  // dense col base
          SparseAFragment afrag;
          for (int i = 0; i < kMmaM; ++i) {
            const int64_t cr = cr0 + i;
            for (int j = 0; j < kMmaKCompressed; ++j) {
              if (cr < c_rows) {
                const int64_t cc = k0 / 2 + j;
                afrag.values[i * kMmaKCompressed + j] = a.data(cr, cc);
                afrag.meta[i * kMmaKCompressed + j] = a.meta(cr, cc);
              } else {
                // Padded rows: zero values with canonical ordered metadata.
                afrag.values[i * kMmaKCompressed + j] = 0.0f;
                afrag.meta[i * kMmaKCompressed + j] = static_cast<uint8_t>(j % 2 == 0 ? 0 : 1);
              }
            }
          }
          DenseBFragment bfrag;
          for (int r = 0; r < kMmaK; ++r) {
            for (int c = 0; c < kMmaN; ++c) {
              const int64_t col = nc0 + c;
              bfrag.values[r * kMmaN + c] =
                  col < n_out ? b(k0 + r, sel.indices[static_cast<size_t>(col)]) : 0.0f;
            }
          }
          acc = MmaSp(afrag, bfrag, acc);
        }
        // Window writeback: map compressed rows to original rows via the
        // indices matrix and accumulate.
        for (int i = 0; i < kMmaM; ++i) {
          const int64_t cr = cr0 + i;
          if (cr >= c_rows) {
            break;
          }
          const int64_t block_row = cr / a.config.n;
          const int64_t orig_row = block_row * a.config.m + a.indices(cr, w);
          for (int c = 0; c < kMmaN && nc0 + c < n_out; ++c) {
            out(orig_row, nc0 + c) += acc.at(i, c);
          }
        }
      }
    }
  }
  return out;
}

namespace {

// Packs A's kept values per (window, compressed row) group: bf16-rounded
// non-zero values with their absolute dense-k columns, ascending — exactly
// the order (and the zero-skip) of the fragment path's expanded iteration.
// Zero-valued entries are dropped at pack time: MmaSp skips them, and a
// rounded zero can never flip the sign of an fp32 partial that starts at +0.
// Each group's output row (the C_IR shuffle target) is resolved here too,
// so the inner loops — scalar or SIMD — never touch the indices matrix.
void PackAInto(const SamoyedsMatrix& a, std::vector<float>& out_vals,
               std::vector<int32_t>& out_cols, std::vector<int64_t>& out_off,
               std::vector<int32_t>& out_rows) {
  const int64_t c_rows = a.compressed_rows();
  const int64_t c_cols = a.compressed_cols();
  const int64_t n_windows = a.cols / a.config.v;
  const int64_t packed_per_window = a.config.v / 2;

  out_off.resize(static_cast<size_t>(n_windows * c_rows + 1));
  out_rows.resize(static_cast<size_t>(n_windows * c_rows));
  out_vals.resize(static_cast<size_t>(c_rows * c_cols));  // nnz upper bound
  out_cols.resize(static_cast<size_t>(c_rows * c_cols));
  float* __restrict const vals = out_vals.data();
  int32_t* __restrict const cols = out_cols.data();

  int64_t group = 0;
  int64_t cursor = 0;
  out_off[0] = 0;
  for (int64_t w = 0; w < n_windows; ++w) {
    const int64_t pc0 = w * packed_per_window;
    for (int64_t cr = 0; cr < c_rows; ++cr) {
      const float* arow = a.data.data() + cr * c_cols;
      const uint8_t* mrow = a.meta.data() + cr * c_cols;
      // Packed column pc holds kept element meta(cr, pc) of 4-wide group
      // pc / 2 (pc0 is even, v being a multiple of 4); ordered metadata makes
      // this ascending within a group. The whole window is written first (a
      // loop the compiler vectorizes, in 32-bit lanes), then compacted over
      // its zeros, which most windows do not have.
      const int32_t col0 = static_cast<int32_t>(pc0 / 2 * 4);
      int32_t zeros = 0;
      for (int32_t i = 0; i < static_cast<int32_t>(packed_per_window); ++i) {
        const float v = RoundToBf16(arow[pc0 + i]);
        vals[cursor + i] = v;
        cols[cursor + i] = col0 + (i / 2) * 4 + mrow[pc0 + i];
        zeros += v == 0.0f;
      }
      if (zeros == 0) {
        cursor += packed_per_window;
      } else {
        const int64_t window_end = cursor + packed_per_window;
        for (int64_t i = cursor; i < window_end; ++i) {
          vals[cursor] = vals[i];
          cols[cursor] = cols[i];
          cursor += vals[i] != 0.0f;
        }
      }
      out_rows[static_cast<size_t>(group)] =
          static_cast<int32_t>((cr / a.config.n) * a.config.m + a.indices(cr, w));
      out_off[static_cast<size_t>(++group)] = cursor;
    }
  }
}

// Window-major traversal, same as the fragment path: each (window, row)
// group accumulates its fp32 partial over ascending columns, then folds
// into the output row named by the per-window sub-row index — the C_IR
// shuffle of §4.3, with identical floating-point association. SIMD backends
// run the same group order and per-element arithmetic through their ISA's
// panel kernel (bit-exact, see kernel_backend.h); an unavailable backend
// falls back to this loop.
void RunPanelImpl(const SamoyedsMatrix& a, const float* a_vals, const int32_t* a_cols,
                  const int64_t* a_off, const int32_t* a_rows, const MatrixF& panel,
                  SsmmWorkspace& ws, MatrixF& out, KernelBackend backend) {
  const int64_t c_rows = a.compressed_rows();
  const int64_t n_out = panel.cols();
  const int64_t n_windows = a.cols / a.config.v;

  if (backend != KernelBackend::kScalar) {
    if (PanelKernelFn fn = GetPanelKernel(backend)) {
      PanelGroupTask task;
      task.a_vals = a_vals;
      task.a_cols = a_cols;
      task.a_off = a_off;
      task.group_rows = a_rows;
      task.n_groups = n_windows * c_rows;
      task.panel = panel.data();
      task.n_out = n_out;
      task.out = out.data();
      fn(task);
      return;
    }
  }

  ws.partial.resize(static_cast<size_t>(n_out));
  float* const partial = ws.partial.data();
  const float* const pdata = panel.data();

  int64_t group = 0;
  for (int64_t w = 0; w < n_windows; ++w) {
    for (int64_t cr = 0; cr < c_rows; ++cr, ++group) {
      const int64_t begin = a_off[group];
      const int64_t end = a_off[group + 1];
      if (begin == end) {
        continue;  // all-zero group contributes an exact +0
      }
      std::fill_n(partial, n_out, 0.0f);
      // Four entries per pass over the partial, added in entry order: the
      // same per-element sums as one entry per pass, with a quarter of the
      // partial's loads and stores.
      const auto brow = [&](int64_t e) {
        return pdata + static_cast<int64_t>(a_cols[e]) * n_out;
      };
      int64_t e = begin;
      for (; e + 4 <= end; e += 4) {
        const float a0 = a_vals[e], a1 = a_vals[e + 1], a2 = a_vals[e + 2], a3 = a_vals[e + 3];
        const float *b0 = brow(e), *b1 = brow(e + 1), *b2 = brow(e + 2), *b3 = brow(e + 3);
        for (int64_t j = 0; j < n_out; ++j) {
          float p = partial[j];
          p += a0 * b0[j];
          p += a1 * b1[j];
          p += a2 * b2[j];
          p += a3 * b3[j];
          partial[j] = p;
        }
      }
      for (; e < end; ++e) {
        const float av = a_vals[e];
        const float* b = brow(e);
        for (int64_t j = 0; j < n_out; ++j) {
          partial[j] += av * b[j];
        }
      }
      float* orow = out.data() + static_cast<int64_t>(a_rows[group]) * n_out;
      for (int64_t j = 0; j < n_out; ++j) {
        orow[j] += partial[j];
      }
    }
  }
}

}  // namespace

void SamoyedsKernel::PackWeights(const SamoyedsMatrix& a, SsmmPackedA& packed) {
  PackAInto(a, packed.vals, packed.cols, packed.off, packed.rows);
}

void SamoyedsKernel::RunPanel(const SamoyedsMatrix& a, const MatrixF& panel, SsmmWorkspace& ws,
                              MatrixF& out, KernelBackend backend) {
  assert(a.cols == panel.rows());
  assert(a.config.v % kMmaK == 0 && "one mma.sp step must not straddle a sub-row window");

  out.Reshape(a.rows, panel.cols());
  out.Fill(0.0f);
  if (panel.cols() == 0 || a.compressed_rows() == 0) {
    return;
  }
  PackAInto(a, ws.a_vals, ws.a_cols, ws.a_off, ws.a_rows);
  RunPanelImpl(a, ws.a_vals.data(), ws.a_cols.data(), ws.a_off.data(), ws.a_rows.data(),
               panel, ws, out, backend);
}

void SamoyedsKernel::RunPanel(const SamoyedsMatrix& a, const SsmmPackedA& packed,
                              const MatrixF& panel, SsmmWorkspace& ws, MatrixF& out,
                              KernelBackend backend) {
  assert(a.cols == panel.rows());
  assert(a.config.v % kMmaK == 0 && "one mma.sp step must not straddle a sub-row window");
  assert(!packed.empty());
  assert(static_cast<int64_t>(packed.off.size()) ==
         (a.cols / a.config.v) * a.compressed_rows() + 1);
  assert(static_cast<int64_t>(packed.rows.size()) ==
         (a.cols / a.config.v) * a.compressed_rows());

  out.Reshape(a.rows, panel.cols());
  out.Fill(0.0f);
  if (panel.cols() == 0 || a.compressed_rows() == 0) {
    return;
  }
  RunPanelImpl(a, packed.vals.data(), packed.cols.data(), packed.off.data(),
               packed.rows.data(), panel, ws, out, backend);
}

void SamoyedsKernel::PackSelectedColumns(const MatrixF& b, const Selection& sel,
                                         MatrixF& panel) {
  assert(sel.full_size == b.cols());
  assert(sel.IsValid());
  const int64_t n_out = sel.selected();
  panel.Reshape(b.rows(), n_out);
  for (int64_t k = 0; k < b.rows(); ++k) {
    const float* brow = b.data() + k * b.cols();
    float* prow = panel.data() + k * n_out;
    for (int64_t j = 0; j < n_out; ++j) {
      prow[j] = RoundToBf16(brow[sel.indices[static_cast<size_t>(j)]]);
    }
  }
}

void SamoyedsKernel::PackSelectedTokens(const MatrixF& x, const Selection& sel,
                                        MatrixF& panel) {
  assert(sel.full_size == x.rows());
  assert(sel.IsValid());
  const int64_t n_out = sel.selected();
  const int64_t k = x.cols();
  panel.Reshape(k, n_out);
  for (int64_t j = 0; j < n_out; ++j) {
    const float* xrow = x.data() + sel.indices[static_cast<size_t>(j)] * k;
    float* pcol = panel.data() + j;
    for (int64_t kk = 0; kk < k; ++kk) {
      pcol[kk * n_out] = RoundToBf16(xrow[kk]);
    }
  }
}

void SamoyedsKernel::Run(const SamoyedsMatrix& a, const MatrixF& b, const Selection& sel,
                         SsmmWorkspace& ws, MatrixF& out, KernelBackend backend) {
  assert(a.cols == b.rows());
  PackSelectedColumns(b, sel, ws.panel);
  RunPanel(a, ws.panel, ws, out, backend);
}

MatrixF SamoyedsKernel::Run(const SamoyedsMatrix& a, const MatrixF& b, const Selection& sel,
                            KernelBackend backend) {
  SsmmWorkspace ws;
  MatrixF out;
  Run(a, b, sel, ws, out, backend);
  return out;
}

MatrixF SamoyedsKernel::RunLinear(const MatrixF& x, const SamoyedsMatrix& w,
                                  const Selection& sel) {
  assert(x.cols() == w.cols);
  // (W^T x^T)^T: the kernel consumes x^T (k x tokens) with SEL choosing
  // token columns; the transpose, gather and rounding fuse into one panel
  // pack (§4.5) instead of materializing x^T.
  SsmmWorkspace ws;
  SamoyedsKernel::PackSelectedTokens(x, sel, ws.panel);
  MatrixF ct;
  RunPanel(w, ws.panel, ws, ct);  // (m x selected)
  return ct.Transposed();         // (selected x m)
}

}  // namespace samoyeds
