#include "src/core/kernel_backend.h"

#include <cstring>
#include <initializer_list>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define SAMOYEDS_X86 1
#endif

namespace samoyeds {

// Defined in the per-ISA translation units (kernel_backend_avx2.cc /
// _avx512.cc / _neon.cc). When a unit is built without its ISA enabled it
// still defines the symbols, with `*Compiled = false` and a stub kernel, so
// the link never depends on the build architecture.
extern const bool kPanelKernelAvx2Compiled;
extern const bool kPanelKernelAvx512Compiled;
extern const bool kPanelKernelNeonCompiled;
void PanelKernelAvx2(const PanelGroupTask& task);
void PanelKernelAvx512(const PanelGroupTask& task);
void PanelKernelNeon(const PanelGroupTask& task);
void DenseGemmAvx2(const DenseGemmTask& task);
void DenseGemmAvx512(const DenseGemmTask& task);
void GatedSiluRowAvx2(float* gate, const float* up, int64_t n);
void GatedSiluRowAvx512(float* gate, const float* up, int64_t n);

namespace {

#ifdef SAMOYEDS_X86
// XCR0 via xgetbv: the OS must save/restore the vector state or the ISA
// bits in cpuid are unusable (VMs and containers do surface this).
uint64_t ReadXcr0() {
  uint32_t eax = 0, edx = 0;
  __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<uint64_t>(edx) << 32) | eax;
}

struct X86Features {
  bool avx2 = false;
  bool avx512 = false;
};

X86Features DetectX86() {
  X86Features f;
  uint32_t eax, ebx, ecx, edx;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) {
    return f;
  }
  const bool osxsave = (ecx & (1u << 27)) != 0;
  const bool avx = (ecx & (1u << 28)) != 0;
  if (!osxsave || !avx) {
    return f;
  }
  const uint64_t xcr0 = ReadXcr0();
  const bool ymm_enabled = (xcr0 & 0x6) == 0x6;          // XMM + YMM state
  const bool zmm_enabled = (xcr0 & 0xE6) == 0xE6;        // + opmask, ZMM hi
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) {
    return f;
  }
  const bool avx2 = (ebx & (1u << 5)) != 0;
  const bool avx512f = (ebx & (1u << 16)) != 0;
  f.avx2 = ymm_enabled && avx2;
  f.avx512 = zmm_enabled && avx512f;
  return f;
}

const X86Features& X86() {
  static const X86Features f = DetectX86();
  return f;
}
#endif  // SAMOYEDS_X86

}  // namespace

bool CpuHasAvx2() {
#ifdef SAMOYEDS_X86
  return X86().avx2;
#else
  return false;
#endif
}

bool CpuHasAvx512() {
#ifdef SAMOYEDS_X86
  return X86().avx512;
#else
  return false;
#endif
}

bool CpuHasNeon() {
#if defined(__ARM_NEON) || defined(__aarch64__)
  return true;  // baseline on aarch64
#else
  return false;
#endif
}

bool KernelBackendCompiled(KernelBackend b) {
  switch (b) {
    case KernelBackend::kScalar:
      return true;
    case KernelBackend::kAvx2:
      return kPanelKernelAvx2Compiled;
    case KernelBackend::kAvx512:
      return kPanelKernelAvx512Compiled;
    case KernelBackend::kNeon:
      return kPanelKernelNeonCompiled;
    case KernelBackend::kAuto:
      return false;
  }
  return false;
}

bool KernelBackendSupported(KernelBackend b) {
  switch (b) {
    case KernelBackend::kScalar:
      return true;
    case KernelBackend::kAvx2:
      return kPanelKernelAvx2Compiled && CpuHasAvx2();
    case KernelBackend::kAvx512:
      return kPanelKernelAvx512Compiled && CpuHasAvx512();
    case KernelBackend::kNeon:
      return kPanelKernelNeonCompiled && CpuHasNeon();
    case KernelBackend::kAuto:
      return false;
  }
  return false;
}

PanelKernelFn GetPanelKernel(KernelBackend b) {
  if (!KernelBackendSupported(b)) {
    return nullptr;
  }
  switch (b) {
    case KernelBackend::kAvx2:
      return &PanelKernelAvx2;
    case KernelBackend::kAvx512:
      return &PanelKernelAvx512;
    case KernelBackend::kNeon:
      return &PanelKernelNeon;
    default:
      return nullptr;  // scalar runs the built-in loop in samoyeds_kernel.cc
  }
}

DenseGemmFn GetDenseGemmKernel(KernelBackend b) {
  if (!KernelBackendSupported(b)) {
    return nullptr;
  }
  switch (b) {
    case KernelBackend::kAvx2:
      return &DenseGemmAvx2;
    case KernelBackend::kAvx512:
      return &DenseGemmAvx512;
    default:
      return nullptr;  // scalar (and neon) run the loop in gemm_ref.cc
  }
}

GatedSiluRowFn GetGatedSiluKernel(KernelBackend b) {
  if (!KernelBackendSupported(b)) {
    return nullptr;
  }
  switch (b) {
    case KernelBackend::kAvx2:
      return &GatedSiluRowAvx2;
    case KernelBackend::kAvx512:
      return &GatedSiluRowAvx512;
    default:
      return nullptr;  // scalar (and neon) run the loop in expert.cc
  }
}

const char* KernelBackendName(KernelBackend b) {
  switch (b) {
    case KernelBackend::kScalar:
      return "scalar";
    case KernelBackend::kAvx2:
      return "avx2";
    case KernelBackend::kAvx512:
      return "avx512";
    case KernelBackend::kNeon:
      return "neon";
    case KernelBackend::kAuto:
      return "auto";
  }
  return "scalar";
}

bool ParseKernelBackend(const char* text, KernelBackend* out) {
  if (text == nullptr || out == nullptr) {
    return false;
  }
  for (KernelBackend b : {KernelBackend::kAuto, KernelBackend::kScalar, KernelBackend::kAvx2,
                          KernelBackend::kAvx512, KernelBackend::kNeon}) {
    if (std::strcmp(text, KernelBackendName(b)) == 0) {
      *out = b;
      return true;
    }
  }
  return false;
}

bool ResolveKernelBackend(KernelBackend requested, KernelBackend* out) {
  *out = KernelBackend::kScalar;
  if (requested == KernelBackend::kAuto) {
    for (KernelBackend b :
         {KernelBackend::kAvx512, KernelBackend::kAvx2, KernelBackend::kNeon}) {
      if (KernelBackendSupported(b)) {
        *out = b;
        return true;
      }
    }
    return true;  // scalar
  }
  if (!KernelBackendSupported(requested)) {
    return false;
  }
  *out = requested;
  return true;
}

}  // namespace samoyeds
