// AVX-512F variants of the SSMM panel-group kernel and of the dense GEMM.
// Compiled with -mavx512f on x86 builds (see CMakeLists); elsewhere this
// unit is a stub.
//
// Both kernels are bit-exact against their scalar loops (kernel_backend.h):
// each output element keeps the scalar order of operations with a separate
// multiply then add, never an FMA. The panel kernel vectorizes across the
// panel-column (token) dimension; ragged edges use opmask loads/stores, so
// the tail columns take the same path as the full vectors.

#include "src/core/kernel_backend.h"

#if defined(__AVX512F__)

#include <immintrin.h>

#include <algorithm>

namespace samoyeds {

extern const bool kPanelKernelAvx512Compiled = true;

void PanelKernelAvx512(const PanelGroupTask& t) {
  const int64_t n_out = t.n_out;
  for (int64_t g = 0; g < t.n_groups; ++g) {
    const int64_t begin = t.a_off[g];
    const int64_t end = t.a_off[g + 1];
    if (begin == end) {
      continue;  // all-zero group contributes an exact +0
    }
    float* const orow = t.out + static_cast<int64_t>(t.group_rows[g]) * n_out;
    for (int64_t j = 0; j < n_out; j += 16) {
      const int64_t remaining = n_out - j;
      const __mmask16 mask =
          remaining >= 16 ? static_cast<__mmask16>(0xFFFF)
                          : static_cast<__mmask16>((1u << remaining) - 1u);
      __m512 acc = _mm512_setzero_ps();
      for (int64_t e = begin; e < end; ++e) {
        const float* brow = t.panel + static_cast<int64_t>(t.a_cols[e]) * n_out + j;
        acc = _mm512_add_ps(
            acc, _mm512_mul_ps(_mm512_set1_ps(t.a_vals[e]), _mm512_maskz_loadu_ps(mask, brow)));
      }
      _mm512_mask_storeu_ps(orow + j, mask,
                            _mm512_add_ps(_mm512_maskz_loadu_ps(mask, orow + j), acc));
    }
  }
}

namespace {

// C rows [i0, i0 + MR) x columns [j0, j0 + 16 * NV) stay in registers
// across all of k; `last` masks the final vector's columns. Per element this
// is the scalar loop's c += a * b over p ascending, multiply and add kept
// separate, and a zero a(i, p) skips the row's update entirely.
template <int MR, int NV>
void DenseBlockAvx512(const DenseGemmTask& t, int64_t i0, int64_t j0, __mmask16 last) {
  __mmask16 mask[NV];
  __m512 acc[MR][NV];
#pragma GCC unroll 4
  for (int v = 0; v < NV; ++v) {
    mask[v] = v + 1 < NV ? static_cast<__mmask16>(0xFFFF) : last;
  }
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) {
      acc[r][v] = _mm512_maskz_loadu_ps(mask[v], t.c + (i0 + r) * t.n + j0 + 16 * v);
    }
  }
  const float* arow = t.a + i0 * t.k;
  for (int64_t p = 0; p < t.k; ++p) {
    const float* brow = t.b + p * t.n + j0;
    __m512 bv[NV];
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) {
      bv[v] = _mm512_maskz_loadu_ps(mask[v], brow + 16 * v);
    }
#pragma GCC unroll 4
    for (int r = 0; r < MR; ++r) {
      const float av = arow[r * t.k + p];
      if (av == 0.0f) {
        continue;
      }
      const __m512 avv = _mm512_set1_ps(av);
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = _mm512_add_ps(acc[r][v], _mm512_mul_ps(avv, bv[v]));
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) {
      _mm512_mask_storeu_ps(t.c + (i0 + r) * t.n + j0 + 16 * v, mask[v], acc[r][v]);
    }
  }
}

using DenseBlockFn = void (*)(const DenseGemmTask&, int64_t, int64_t, __mmask16);

// [rows - 1][vectors - 1] for a block of up to 4 rows x 64 columns.
constexpr DenseBlockFn kDenseBlocks[4][4] = {
    {DenseBlockAvx512<1, 1>, DenseBlockAvx512<1, 2>, DenseBlockAvx512<1, 3>,
     DenseBlockAvx512<1, 4>},
    {DenseBlockAvx512<2, 1>, DenseBlockAvx512<2, 2>, DenseBlockAvx512<2, 3>,
     DenseBlockAvx512<2, 4>},
    {DenseBlockAvx512<3, 1>, DenseBlockAvx512<3, 2>, DenseBlockAvx512<3, 3>,
     DenseBlockAvx512<3, 4>},
    {DenseBlockAvx512<4, 1>, DenseBlockAvx512<4, 2>, DenseBlockAvx512<4, 3>,
     DenseBlockAvx512<4, 4>},
};

}  // namespace

void DenseGemmAvx512(const DenseGemmTask& t) {
  for (int64_t i = 0; i < t.m; i += 4) {
    const int64_t rows = std::min<int64_t>(4, t.m - i);
    for (int64_t j = 0; j < t.n; j += 64) {
      const int64_t cols = std::min<int64_t>(64, t.n - j);
      const int64_t vectors = (cols + 15) / 16;
      const int64_t tail = cols - 16 * (vectors - 1);
      const __mmask16 last = static_cast<__mmask16>((1u << tail) - 1u);
      kDenseBlocks[rows - 1][vectors - 1](t, i, j, last);
    }
  }
}

}  // namespace samoyeds

#else  // !__AVX512F__

namespace samoyeds {

extern const bool kPanelKernelAvx512Compiled = false;

void PanelKernelAvx512(const PanelGroupTask&) {}  // unreachable: dispatch guards
void DenseGemmAvx512(const DenseGemmTask&) {}     // unreachable: dispatch guards

}  // namespace samoyeds

#endif
