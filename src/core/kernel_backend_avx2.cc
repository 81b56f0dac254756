// AVX2 variants of the SSMM panel-group kernel, the dense GEMM and the
// gated-SiLU row. Compiled with -mavx2 on x86 builds (see CMakeLists); on
// other targets this unit compiles to a stub and the dispatcher reports the
// backend as absent.
//
// Every kernel is bit-exact against its scalar loop (kernel_backend.h):
// each output element keeps the scalar order of operations with a separate
// multiply then add, never an FMA, and -ffp-contract=off keeps the compiler
// from fusing them. The kernels vectorize across the panel-column (token)
// dimension; fewer than 8 remainder columns go through one masked vector.

#include "src/core/kernel_backend.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>

#include "src/tensor/expf.h"

namespace samoyeds {

extern const bool kPanelKernelAvx2Compiled = true;

namespace {

// Lane l is live iff l < live (live in [0, 8]).
__m256i FirstLanes(int64_t live) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(live)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

}  // namespace

void PanelKernelAvx2(const PanelGroupTask& t) {
  const int64_t n_out = t.n_out;
  for (int64_t g = 0; g < t.n_groups; ++g) {
    const int64_t begin = t.a_off[g];
    const int64_t end = t.a_off[g + 1];
    if (begin == end) {
      continue;  // all-zero group contributes an exact +0
    }
    float* const orow = t.out + static_cast<int64_t>(t.group_rows[g]) * n_out;
    int64_t j = 0;
    // Two 8-lane accumulators per pass amortize the per-entry broadcast and
    // column load across 16 output columns.
    for (; j + 16 <= n_out; j += 16) {
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      for (int64_t e = begin; e < end; ++e) {
        const __m256 av = _mm256_set1_ps(t.a_vals[e]);
        const float* brow = t.panel + static_cast<int64_t>(t.a_cols[e]) * n_out + j;
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(av, _mm256_loadu_ps(brow)));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(av, _mm256_loadu_ps(brow + 8)));
      }
      _mm256_storeu_ps(orow + j, _mm256_add_ps(_mm256_loadu_ps(orow + j), acc0));
      _mm256_storeu_ps(orow + j + 8, _mm256_add_ps(_mm256_loadu_ps(orow + j + 8), acc1));
    }
    for (; j + 8 <= n_out; j += 8) {
      __m256 acc = _mm256_setzero_ps();
      for (int64_t e = begin; e < end; ++e) {
        const float* brow = t.panel + static_cast<int64_t>(t.a_cols[e]) * n_out + j;
        acc = _mm256_add_ps(acc,
                            _mm256_mul_ps(_mm256_set1_ps(t.a_vals[e]), _mm256_loadu_ps(brow)));
      }
      _mm256_storeu_ps(orow + j, _mm256_add_ps(_mm256_loadu_ps(orow + j), acc));
    }
    if (j < n_out) {
      // The last fewer-than-8 columns: one masked vector.
      const __m256i last = FirstLanes(n_out - j);
      __m256 acc = _mm256_setzero_ps();
      for (int64_t e = begin; e < end; ++e) {
        const float* brow = t.panel + static_cast<int64_t>(t.a_cols[e]) * n_out + j;
        acc = _mm256_add_ps(
            acc, _mm256_mul_ps(_mm256_set1_ps(t.a_vals[e]), _mm256_maskload_ps(brow, last)));
      }
      _mm256_maskstore_ps(orow + j, last,
                          _mm256_add_ps(_mm256_maskload_ps(orow + j, last), acc));
    }
  }
}

namespace {

// C rows [i0, i0 + MR) x columns [j0, j0 + 8 * NV) stay in registers across
// all of k (4 x 2 accumulators leave room for B and the broadcasts in the 16
// ymm registers). With kTail the final vector goes through `last`'s lanes
// only. Per element this is the scalar loop's c += a * b over p ascending,
// multiply and add kept separate, and a zero a(i, p) skips the row's update.
template <int MR, int NV, bool kTail>
void DenseBlockAvx2(const DenseGemmTask& t, int64_t i0, int64_t j0, __m256i last) {
  const auto load = [last](int v, const float* src) {
    return kTail && v + 1 == NV ? _mm256_maskload_ps(src, last) : _mm256_loadu_ps(src);
  };
  __m256 acc[MR][NV];
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      acc[r][v] = load(v, t.c + (i0 + r) * t.n + j0 + 8 * v);
    }
  }
  const float* arow = t.a + i0 * t.k;
  for (int64_t p = 0; p < t.k; ++p) {
    const float* brow = t.b + p * t.n + j0;
    __m256 bv[NV];
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      bv[v] = load(v, brow + 8 * v);
    }
#pragma GCC unroll 4
    for (int r = 0; r < MR; ++r) {
      const float av = arow[r * t.k + p];
      if (av == 0.0f) {
        continue;
      }
      const __m256 avv = _mm256_set1_ps(av);
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(avv, bv[v]));
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      float* dst = t.c + (i0 + r) * t.n + j0 + 8 * v;
      if (kTail && v + 1 == NV) {
        _mm256_maskstore_ps(dst, last, acc[r][v]);
      } else {
        _mm256_storeu_ps(dst, acc[r][v]);
      }
    }
  }
}

using DenseBlockFn = void (*)(const DenseGemmTask&, int64_t, int64_t, __m256i);

template <bool kTail>
constexpr DenseBlockFn kDenseBlocks[4][2] = {
    {DenseBlockAvx2<1, 1, kTail>, DenseBlockAvx2<1, 2, kTail>},
    {DenseBlockAvx2<2, 1, kTail>, DenseBlockAvx2<2, 2, kTail>},
    {DenseBlockAvx2<3, 1, kTail>, DenseBlockAvx2<3, 2, kTail>},
    {DenseBlockAvx2<4, 1, kTail>, DenseBlockAvx2<4, 2, kTail>},
};

}  // namespace

void DenseGemmAvx2(const DenseGemmTask& t) {
  for (int64_t i = 0; i < t.m; i += 4) {
    const int64_t rows = std::min<int64_t>(4, t.m - i);
    for (int64_t j = 0; j < t.n; j += 16) {
      const int64_t cols = std::min<int64_t>(16, t.n - j);
      const int64_t vectors = (cols + 7) / 8;
      const int64_t tail = cols - 8 * (vectors - 1);
      if (tail == 8) {
        kDenseBlocks<false>[rows - 1][vectors - 1](t, i, j, __m256i{});
      } else {
        kDenseBlocks<true>[rows - 1][vectors - 1](t, i, j, FirstLanes(tail));
      }
    }
  }
}

namespace {

// ExpF (src/tensor/expf.h) on 8 lanes: the same clamp, constants and
// operations in the same order. max(lo, x) and min(hi, x) return their
// second operand when either is NaN, so a NaN lane stays NaN throughout.
__m256 ExpF8(__m256 x) {
  using namespace expf_detail;
  x = _mm256_min_ps(_mm256_set1_ps(kClampHi), _mm256_max_ps(_mm256_set1_ps(kClampLo), x));
  const __m256 fx = _mm256_add_ps(_mm256_mul_ps(x, _mm256_set1_ps(kLog2e)), _mm256_set1_ps(0.5f));
  const __m256 fn = _mm256_floor_ps(fx);
  __m256 r = _mm256_sub_ps(x, _mm256_mul_ps(fn, _mm256_set1_ps(kLn2Hi)));
  r = _mm256_sub_ps(r, _mm256_mul_ps(fn, _mm256_set1_ps(kLn2Lo)));
  const __m256 z = _mm256_mul_ps(r, r);
  __m256 p = _mm256_set1_ps(kP0);
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kP1));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kP2));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kP3));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kP4));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kP5));
  p = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(p, z), r), _mm256_set1_ps(1.0f));
  const __m256i n = _mm256_cvttps_epi32(fn);
  const __m256i n1 = _mm256_srai_epi32(n, 1);
  const __m256i bias = _mm256_set1_epi32(127);
  const __m256 s1 = _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_add_epi32(n1, bias), 23));
  const __m256 s2 = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_add_epi32(_mm256_sub_epi32(n, n1), bias), 23));
  return _mm256_mul_ps(_mm256_mul_ps(p, s1), s2);
}

// RoundToBf16 (src/tensor/bf16.h) on 8 lanes: a NaN keeps its sign and top
// payload bits and is made quiet; anything else rounds to nearest even.
__m256 RoundToBf16x8(__m256 v) {
  const __m256i bits = _mm256_castps_si256(v);
  const __m256i high = _mm256_set1_epi32(static_cast<int>(0xffff0000u));
  // |bits| > the +inf pattern, compared as signed: both sides are >= 0.
  const __m256i nan = _mm256_cmpgt_epi32(_mm256_and_si256(bits, _mm256_set1_epi32(0x7fffffff)),
                                         _mm256_set1_epi32(0x7f800000));
  const __m256i quiet = _mm256_and_si256(_mm256_or_si256(bits, _mm256_set1_epi32(0x00400000)), high);
  const __m256i round = _mm256_add_epi32(
      _mm256_set1_epi32(0x7fff), _mm256_and_si256(_mm256_srli_epi32(bits, 16), _mm256_set1_epi32(1)));
  const __m256i rounded = _mm256_and_si256(_mm256_add_epi32(bits, round), high);
  return _mm256_castsi256_ps(_mm256_blendv_epi8(rounded, quiet, nan));
}

__m256 GatedSilu8(__m256 x, __m256 u) {
  const __m256 neg = _mm256_xor_ps(x, _mm256_set1_ps(-0.0f));
  const __m256 silu = _mm256_div_ps(x, _mm256_add_ps(_mm256_set1_ps(1.0f), ExpF8(neg)));
  return RoundToBf16x8(_mm256_mul_ps(silu, u));
}

}  // namespace

void GatedSiluRowAvx2(float* gate, const float* up, int64_t n) {
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(gate + j, GatedSilu8(_mm256_loadu_ps(gate + j), _mm256_loadu_ps(up + j)));
  }
  if (j < n) {
    const __m256i mask = FirstLanes(n - j);
    _mm256_maskstore_ps(
        gate + j, mask,
        GatedSilu8(_mm256_maskload_ps(gate + j, mask), _mm256_maskload_ps(up + j, mask)));
  }
}

}  // namespace samoyeds

#else  // !__AVX2__

namespace samoyeds {

extern const bool kPanelKernelAvx2Compiled = false;

void PanelKernelAvx2(const PanelGroupTask&) {}  // unreachable: dispatch guards
void DenseGemmAvx2(const DenseGemmTask&) {}     // unreachable: dispatch guards
void GatedSiluRowAvx2(float*, const float*, int64_t) {}  // unreachable: dispatch guards

}  // namespace samoyeds

#endif
