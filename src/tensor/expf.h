// ExpF: the deterministic float exp that defines SiLU.
//
// std::exp comes from the host's libm, and its last bit may differ between
// libm versions; ExpF gives the same bits on every host. It is Cephes' expf:
// x = n ln2 + r with n = floor(x log2(e) + 1/2) and ln2 split into a short
// high part (n * kLn2Hi is exact) and a correction, exp(r) = 1 + r + r^2 P(r)
// with P of degree 5, then the result scaled by 2^n. Every step is one IEEE
// multiply or add, never fused (-ffp-contract=off), so the SIMD gated-SiLU
// row kernels (kernel_backend_avx2.cc / _avx512.cc), which run these
// constants through the same operations in the same order, give the same
// bits as this scalar function.
//
// The 2^n scale is applied as two factors, 2^(n >> 1) then 2^(n - (n >> 1)),
// each a normal float over the clamped range, so p * 2^n rounds once. Like
// std::exp, ExpF overflows to +inf above ln(FLT_MAX), underflows gradually to
// +0 (every x <= -104 gives +0), and returns a quiet NaN for a NaN.

#ifndef SAMOYEDS_SRC_TENSOR_EXPF_H_
#define SAMOYEDS_SRC_TENSOR_EXPF_H_

#include <bit>
#include <cmath>
#include <cstdint>

namespace samoyeds {
namespace expf_detail {

// x is clamped to [kClampLo, kClampHi] first. Every x >= 89 overflows and
// every x <= -104 underflows to +0, so the clamp changes no result; it keeps
// n in [-150, 128], where both scale factors are normal floats.
inline constexpr float kClampHi = 89.0f;
inline constexpr float kClampLo = -104.0f;
inline constexpr float kLog2e = 1.44269504088896341f;
inline constexpr float kLn2Hi = 0.693359375f;
inline constexpr float kLn2Lo = -2.12194440e-4f;
// P(r), highest degree first.
inline constexpr float kP0 = 1.9875691500e-4f;
inline constexpr float kP1 = 1.3981999507e-3f;
inline constexpr float kP2 = 8.3334519073e-3f;
inline constexpr float kP3 = 4.1665795894e-2f;
inline constexpr float kP4 = 1.6666665459e-1f;
inline constexpr float kP5 = 5.0000001201e-1f;

// 2^k for k in [-126, 127], built from its exponent bits.
inline float Pow2(int32_t k) { return std::bit_cast<float>(static_cast<uint32_t>(k + 127) << 23); }

}  // namespace expf_detail

inline float ExpF(float x) {
  using namespace expf_detail;
  if (std::isnan(x)) {
    return x + x;
  }
  x = x < kClampLo ? kClampLo : (x > kClampHi ? kClampHi : x);
  const float fx = x * kLog2e + 0.5f;
  // floor(fx): |fx| < 2^31, so the truncating conversion is exact.
  int32_t n = static_cast<int32_t>(fx);
  if (static_cast<float>(n) > fx) {
    --n;
  }
  const float fn = static_cast<float>(n);
  float r = x - fn * kLn2Hi;
  r = r - fn * kLn2Lo;
  const float z = r * r;
  float p = kP0;
  p = p * r + kP1;
  p = p * r + kP2;
  p = p * r + kP3;
  p = p * r + kP4;
  p = p * r + kP5;
  p = p * z + r + 1.0f;
  const int32_t n1 = n >> 1;
  return p * Pow2(n1) * Pow2(n - n1);
}

}  // namespace samoyeds

#endif  // SAMOYEDS_SRC_TENSOR_EXPF_H_
