#include "crypto/cpu_features.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "crypto/kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace simcloud {
namespace crypto {

namespace {

// cpuid feature bits (leaf 1 ECX / leaf 7 EBX and ECX). Named locally
// instead of relying on <cpuid.h>'s bit_* macros, which vary across
// compilers.
constexpr unsigned kLeaf1EcxPclmul = 1u << 1;
constexpr unsigned kLeaf1EcxSsse3 = 1u << 9;
constexpr unsigned kLeaf1EcxSse41 = 1u << 19;
constexpr unsigned kLeaf1EcxAes = 1u << 25;
constexpr unsigned kLeaf1EcxOsxsave = 1u << 27;
constexpr unsigned kLeaf7EbxAvx512f = 1u << 16;
constexpr unsigned kLeaf7EbxSha = 1u << 29;
constexpr unsigned kLeaf7EbxAvx512bw = 1u << 30;
constexpr unsigned kLeaf7EbxAvx512vl = 1u << 31;
constexpr unsigned kLeaf7EcxVaes = 1u << 9;
constexpr unsigned kLeaf7EcxVpclmulqdq = 1u << 10;
// XCR0 state components the OS must save for 512-bit code: SSE (1),
// AVX (2), the opmask registers (5), the upper halves of ZMM0-15 (6) and
// ZMM16-31 (7).
constexpr uint64_t kXcr0ZmmState = (1u << 1) | (1u << 2) | (1u << 5) |
                                   (1u << 6) | (1u << 7);

struct CpuidBits {
  unsigned leaf1_ecx = 0;
  unsigned leaf7_ebx = 0;
  unsigned leaf7_ecx = 0;
  uint64_t xcr0 = 0;  ///< 0 unless OSXSAVE says XGETBV may run
};

CpuidBits QueryCpuid() {
  CpuidBits bits;
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) bits.leaf1_ecx = ecx;
  eax = ebx = ecx = edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    bits.leaf7_ebx = ebx;
    bits.leaf7_ecx = ecx;
  }
  if ((bits.leaf1_ecx & kLeaf1EcxOsxsave) != 0) {
    // XGETBV(0) by opcode, so this file needs no -mxsave.
    unsigned lo = 0, hi = 0;
    __asm__ volatile(".byte 0x0f, 0x01, 0xd0" : "=a"(lo), "=d"(hi) : "c"(0));
    bits.xcr0 = (uint64_t{hi} << 32) | lo;
  }
#endif
  return bits;
}

const CpuidBits& GetCpuidBits() {
  static const CpuidBits bits = QueryCpuid();
  return bits;
}

}  // namespace

bool AesNiKernelAvailable() {
  // The CTR and CBC kernels use the AES-NI instructions plus the
  // SSSE3/SSE4.1 baseline; no AVX state is involved, so no xgetbv check
  // is needed.
  const CpuidBits& bits = GetCpuidBits();
  return internal::kAesNiKernelCompiled &&
         (bits.leaf1_ecx & kLeaf1EcxAes) != 0 &&
         (bits.leaf1_ecx & kLeaf1EcxSsse3) != 0 &&
         (bits.leaf1_ecx & kLeaf1EcxSse41) != 0;
}

bool ShaNiKernelAvailable() {
  const CpuidBits& bits = GetCpuidBits();
  return internal::kShaNiKernelCompiled &&
         (bits.leaf7_ebx & kLeaf7EbxSha) != 0 &&
         (bits.leaf1_ecx & kLeaf1EcxSsse3) != 0 &&
         (bits.leaf1_ecx & kLeaf1EcxSse41) != 0;
}

bool PclmulKernelAvailable() {
  const CpuidBits& bits = GetCpuidBits();
  return internal::kPclmulKernelCompiled &&
         (bits.leaf1_ecx & kLeaf1EcxPclmul) != 0 &&
         (bits.leaf1_ecx & kLeaf1EcxSsse3) != 0 &&
         (bits.leaf1_ecx & kLeaf1EcxSse41) != 0;
}

bool VaesKernelAvailable() {
  // 512-bit instructions need the OS to save the ZMM and opmask state on
  // a context switch, which XCR0 reports; cpuid alone is not enough.
  const CpuidBits& bits = GetCpuidBits();
  const unsigned ebx = kLeaf7EbxAvx512f | kLeaf7EbxAvx512bw |
                       kLeaf7EbxAvx512vl;
  const unsigned ecx = kLeaf7EcxVaes | kLeaf7EcxVpclmulqdq;
  return internal::kVaesKernelCompiled && AesNiKernelAvailable() &&
         PclmulKernelAvailable() && (bits.leaf7_ebx & ebx) == ebx &&
         (bits.leaf7_ecx & ecx) == ecx &&
         (bits.xcr0 & kXcr0ZmmState) == kXcr0ZmmState;
}

namespace {

CpuFeatures Detect() {
  CpuFeatures features;
  features.raw_aes_ni = AesNiKernelAvailable();
  features.raw_sha_ni = ShaNiKernelAvailable();
  features.raw_pclmul = PclmulKernelAvailable();
  features.raw_vaes = VaesKernelAvailable();
  features.aes_ni = features.raw_aes_ni;
  features.sha_ni = features.raw_sha_ni;
  features.pclmul = features.raw_pclmul;
  features.vaes = features.raw_vaes;

  const char* env = std::getenv("SIMCLOUD_FORCE_SCALAR_CRYPTO");
  if (env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0) {
    features.forced_scalar = true;
    features.aes_ni = false;
    features.sha_ni = false;
    features.pclmul = false;
    features.vaes = false;
  }
  return features;
}

}  // namespace

const CpuFeatures& GetCpuFeatures() {
  static const CpuFeatures features = Detect();
  return features;
}

std::string CryptoBackendSummary() {
  const CpuFeatures& features = GetCpuFeatures();
  std::string summary = "aes=";
  summary += features.aes_ni ? "aes-ni" : "scalar";
  summary += " gcm=";
  if (features.vaes) {
    summary += "vaes512+vpclmul cbc-dec=vaes512";
  } else {
    summary += features.aes_ni && features.pclmul ? "aes-ni+pclmul" : "scalar";
  }
  summary += " sha=";
  summary += features.sha_ni ? "sha-ni" : "scalar";
  if (features.forced_scalar) summary += " (forced)";
  return summary;
}

}  // namespace crypto
}  // namespace simcloud
