// Runtime CPU-feature detection for the crypto fast paths.
//
// The crypto layer keeps two implementations of its hot kernels: the
// from-scratch scalar reference (aes.cc / sha256.cc — the vector-tested
// ground truth) and hardware kernels (kernels_x86.cc) that use AES-NI
// and SHA-NI instructions. Which one runs is decided ONCE per process,
// from cpuid, and can be forced back to the reference with
//   SIMCLOUD_FORCE_SCALAR_CRYPTO=1
// so any box — and any CI job — can exercise the scalar paths
// regardless of its hardware. Outputs are bit-identical either way; the
// dispatch changes the instruction schedule, never a byte.

#ifndef SIMCLOUD_CRYPTO_CPU_FEATURES_H_
#define SIMCLOUD_CRYPTO_CPU_FEATURES_H_

#include <string>

namespace simcloud {
namespace crypto {

/// What the running CPU offers the crypto kernels.
struct CpuFeatures {
  /// The AES-NI instructions (+ the SSSE3/SSE4.1 baseline the kernels
  /// need) are available AND compiled in.
  bool aes_ni = false;
  /// SHA256RNDS2/SHA256MSG1/SHA256MSG2 are available AND compiled in.
  bool sha_ni = false;
  /// SIMCLOUD_FORCE_SCALAR_CRYPTO=1 was set: both flags above were
  /// cleared even though the silicon (raw_*) may support them.
  bool forced_scalar = false;
  /// Silicon capabilities before the environment override (tests
  /// cross-check accelerated vs scalar kernels whenever these are set).
  bool raw_aes_ni = false;
  bool raw_sha_ni = false;
};

/// The process-wide feature set: cpuid + compile-time support, with the
/// SIMCLOUD_FORCE_SCALAR_CRYPTO override applied. Evaluated once, on
/// first use; safe to call concurrently.
const CpuFeatures& GetCpuFeatures();

/// True when AES-CTR and AES-CBC run on the AES-NI kernels in this
/// process.
inline bool AesAccelerated() { return GetCpuFeatures().aes_ni; }
/// True when SHA-256 (and so HMAC/HKDF/AEAD tags) runs on SHA-NI.
inline bool ShaAccelerated() { return GetCpuFeatures().sha_ni; }

/// One-line human-readable backend summary for startup banners and
/// bench output, e.g. "aes=aes-ni sha=sha-ni" or
/// "aes=scalar sha=scalar (forced)".
std::string CryptoBackendSummary();

}  // namespace crypto
}  // namespace simcloud

#endif  // SIMCLOUD_CRYPTO_CPU_FEATURES_H_
