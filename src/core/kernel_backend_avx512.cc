// AVX-512F variants of the SSMM panel-group kernel, the dense GEMM and the
// gated-SiLU row. Compiled with -mavx512f on x86 builds (see CMakeLists);
// elsewhere this unit is a stub.
//
// Every kernel is bit-exact against its scalar loop (kernel_backend.h):
// each output element keeps the scalar order of operations with a separate
// multiply then add, never an FMA. The kernels vectorize across the
// panel-column (token) dimension; ragged edges use opmask loads/stores, so
// the tail columns take the same path as the full vectors.

#include "src/core/kernel_backend.h"

#if defined(__AVX512F__)

// GCC 12's unmasked AVX-512 intrinsics (max, min, roundscale, the shifts)
// start from a self-initialized placeholder that -Wmaybe-uninitialized
// reports wherever they inline (GCC bug 105593, fixed in GCC 13).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include <algorithm>

#include "src/tensor/expf.h"

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

namespace {

// ExpF (src/tensor/expf.h) on 16 lanes: the same clamp, constants and
// operations in the same order. max(lo, x) and min(hi, x) return their
// second operand when either is NaN, so a NaN lane stays NaN throughout.
__m512 ExpF16(__m512 x) {
  using namespace expf_detail;
  x = _mm512_min_ps(_mm512_set1_ps(kClampHi), _mm512_max_ps(_mm512_set1_ps(kClampLo), x));
  const __m512 fx = _mm512_add_ps(_mm512_mul_ps(x, _mm512_set1_ps(kLog2e)), _mm512_set1_ps(0.5f));
  const __m512 fn = _mm512_roundscale_ps(fx, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  __m512 r = _mm512_sub_ps(x, _mm512_mul_ps(fn, _mm512_set1_ps(kLn2Hi)));
  r = _mm512_sub_ps(r, _mm512_mul_ps(fn, _mm512_set1_ps(kLn2Lo)));
  const __m512 z = _mm512_mul_ps(r, r);
  __m512 p = _mm512_set1_ps(kP0);
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(kP1));
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(kP2));
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(kP3));
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(kP4));
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(kP5));
  p = _mm512_add_ps(_mm512_add_ps(_mm512_mul_ps(p, z), r), _mm512_set1_ps(1.0f));
  const __m512i n = _mm512_cvttps_epi32(fn);
  const __m512i n1 = _mm512_srai_epi32(n, 1);
  const __m512i bias = _mm512_set1_epi32(127);
  const __m512 s1 = _mm512_castsi512_ps(_mm512_slli_epi32(_mm512_add_epi32(n1, bias), 23));
  const __m512 s2 = _mm512_castsi512_ps(
      _mm512_slli_epi32(_mm512_add_epi32(_mm512_sub_epi32(n, n1), bias), 23));
  return _mm512_mul_ps(_mm512_mul_ps(p, s1), s2);
}

// RoundToBf16 (src/tensor/bf16.h) on 16 lanes: a NaN keeps its sign and top
// payload bits and is made quiet; anything else rounds to nearest even.
__m512 RoundToBf16x16(__m512 v) {
  const __m512i bits = _mm512_castps_si512(v);
  const __m512i high = _mm512_set1_epi32(static_cast<int>(0xffff0000u));
  const __mmask16 nan = _mm512_cmpgt_epu32_mask(
      _mm512_and_si512(bits, _mm512_set1_epi32(0x7fffffff)), _mm512_set1_epi32(0x7f800000));
  const __m512i quiet = _mm512_and_si512(_mm512_or_si512(bits, _mm512_set1_epi32(0x00400000)), high);
  const __m512i round = _mm512_add_epi32(
      _mm512_set1_epi32(0x7fff), _mm512_and_si512(_mm512_srli_epi32(bits, 16), _mm512_set1_epi32(1)));
  const __m512i rounded = _mm512_and_si512(_mm512_add_epi32(bits, round), high);
  return _mm512_castsi512_ps(_mm512_mask_blend_epi32(nan, rounded, quiet));
}

}  // namespace

void GatedSiluRowAvx512(float* gate, const float* up, int64_t n) {
  const __m512i sign = _mm512_set1_epi32(static_cast<int>(0x80000000u));
  for (int64_t j = 0; j < n; j += 16) {
    const int64_t remaining = n - j;
    const __mmask16 mask = remaining >= 16 ? static_cast<__mmask16>(0xFFFF)
                                           : static_cast<__mmask16>((1u << remaining) - 1u);
    const __m512 x = _mm512_maskz_loadu_ps(mask, gate + j);
    const __m512 neg = _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(x), sign));
    const __m512 silu = _mm512_div_ps(x, _mm512_add_ps(_mm512_set1_ps(1.0f), ExpF16(neg)));
    const __m512 h = _mm512_mul_ps(silu, _mm512_maskz_loadu_ps(mask, up + j));
    _mm512_mask_storeu_ps(gate + j, mask, RoundToBf16x16(h));
  }
}

}  // namespace samoyeds

#else  // !__AVX512F__

namespace samoyeds {

extern const bool kPanelKernelAvx512Compiled = false;

void PanelKernelAvx512(const PanelGroupTask&) {}  // unreachable: dispatch guards
void DenseGemmAvx512(const DenseGemmTask&) {}     // unreachable: dispatch guards
void GatedSiluRowAvx512(float*, const float*, int64_t) {}  // unreachable: dispatch guards

}  // namespace samoyeds

#endif
