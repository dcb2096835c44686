// AES-GCM (NIST SP 800-38D) with 12-byte nonces and 16-byte tags: the
// secure channel's record AEAD.
//
// Sealing CTR-encrypts the plaintext from counter block
// nonce || u32 BE 2 and authenticates the ciphertext and the associated
// data with GHASH; the tag is E_K(nonce || u32 BE 1) XOR GHASH(...).
// Opening recomputes the tag over the ciphertext where it lies, compares
// it in constant time, and only then decrypts — a forged record never
// reveals (or writes) a byte of plaintext.
//
// Three implementations sit behind the cpuid dispatch (cpu_features.h):
// the scalar reference (SP 800-38D Algorithm 1, bitwise GHASH, over
// ScalarAesCtrXor); the AES-NI + PCLMULQDQ kernel in kernels_x86.cc,
// which folds each 8-block CTR batch into an 8-block-aggregated GHASH
// while the ciphertext is still in registers; and the 512-bit VAES +
// VPCLMULQDQ kernel in kernels_vaes.cc, which does the same 16 blocks at
// a time. Output is byte-identical every way (tests/crypto_test.cc).
//
// Nonce uniqueness is the caller's contract: one (key, nonce) pair must
// never seal two messages. The secure channel guarantees it with a
// per-(direction, epoch) key and static IV XOR the record sequence.
//
// The at-rest payload AEAD is a different scheme (aead.h); this class
// never touches stored data.

#ifndef SIMCLOUD_CRYPTO_GCM_H_
#define SIMCLOUD_CRYPTO_GCM_H_

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/aes.h"

namespace simcloud {
namespace crypto {

/// AES-GCM under one 16/24/32-byte key. Safe for concurrent use.
class AesGcm {
 public:
  static constexpr size_t kNonceSize = 12;
  static constexpr size_t kTagSize = 16;
  /// Longest plaintext one (key, nonce) pair may seal (SP 800-38D
  /// §5.2.1.1): GCM increments only the low 32 bits of the counter
  /// block and starts the payload at 2, so 2^32 - 2 blocks is where the
  /// counter would wrap.
  static constexpr uint64_t kMaxPlaintextBytes = (uint64_t{1} << 36) - 32;

  /// Expands the AES key and the hash subkey H = E_K(0^128) (plus its
  /// powers, for the accelerated kernel).
  static Result<AesGcm> Create(const Bytes& key);

  /// Encrypts in[0..len) into out[0..len) and writes the tag over
  /// (ad, ciphertext) to tag[0..kTagSize). `in == out` is allowed; a
  /// pointer may be null when its length is 0. InvalidArgument when len
  /// exceeds kMaxPlaintextBytes.
  Status SealInto(const uint8_t nonce[kNonceSize], const uint8_t* ad,
                  size_t ad_len, const uint8_t* in, size_t len, uint8_t* out,
                  uint8_t tag[kTagSize]) const;

  /// Verifies `tag` over (ad, in[0..len)) in constant time and only then
  /// decrypts into out[0..len). `in == out` is allowed. Corruption on a
  /// tag mismatch, in which case nothing is written to `out`.
  Status OpenInto(const uint8_t nonce[kNonceSize], const uint8_t* ad,
                  size_t ad_len, const uint8_t* in, size_t len,
                  const uint8_t tag[kTagSize], uint8_t* out) const;

 private:
  explicit AesGcm(Aes aes) : aes_(std::move(aes)) {}

  Aes aes_;
  /// H = E_K(0^128), the GHASH key of the scalar reference.
  uint8_t h_[16] = {};
  /// H^1..H^16 in the accelerated kernels' representation
  /// (AesNiGcmInit); unused on the scalar path.
  alignas(16) uint8_t h_table_[16 * 16] = {};
};

}  // namespace crypto
}  // namespace simcloud

#endif  // SIMCLOUD_CRYPTO_GCM_H_
