#include "crypto/cpu_features.h"

#include <cstdlib>
#include <cstring>

#include "crypto/kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace simcloud {
namespace crypto {

namespace {

// cpuid feature bits (leaf 1 ECX / leaf 7 EBX). Named locally instead
// of relying on <cpuid.h>'s bit_* macros, which vary across compilers.
constexpr unsigned kLeaf1EcxSsse3 = 1u << 9;
constexpr unsigned kLeaf1EcxSse41 = 1u << 19;
constexpr unsigned kLeaf1EcxAes = 1u << 25;
constexpr unsigned kLeaf7EbxSha = 1u << 29;

struct CpuidBits {
  unsigned leaf1_ecx = 0;
  unsigned leaf7_ebx = 0;
};

CpuidBits QueryCpuid() {
  CpuidBits bits;
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) bits.leaf1_ecx = ecx;
  eax = ebx = ecx = edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) bits.leaf7_ebx = ebx;
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

namespace {

CpuFeatures Detect() {
  CpuFeatures features;
  features.raw_aes_ni = AesNiKernelAvailable();
  features.raw_sha_ni = ShaNiKernelAvailable();
  features.aes_ni = features.raw_aes_ni;
  features.sha_ni = features.raw_sha_ni;

  const char* env = std::getenv("SIMCLOUD_FORCE_SCALAR_CRYPTO");
  if (env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0) {
    features.forced_scalar = true;
    features.aes_ni = false;
    features.sha_ni = false;
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
  summary += " sha=";
  summary += features.sha_ni ? "sha-ni" : "scalar";
  if (features.forced_scalar) summary += " (forced)";
  return summary;
}

}  // namespace crypto
}  // namespace simcloud
