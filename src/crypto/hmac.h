// HMAC-SHA256 (RFC 2104) and PBKDF2-HMAC-SHA256 (RFC 8018) key derivation.
//
// The data owner derives the AES object-encryption key from a passphrase
// with PBKDF2; HMAC also underpins deterministic per-experiment key
// generation in the benchmarks.

#ifndef SIMCLOUD_CRYPTO_HMAC_H_
#define SIMCLOUD_CRYPTO_HMAC_H_

#include <cstdint>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/sha256.h"

namespace simcloud {
namespace crypto {

/// Computes HMAC-SHA256(key, message); 32-byte output.
Bytes HmacSha256(const Bytes& key, const Bytes& message);

/// Precomputed HMAC-SHA256 key schedule: the SHA-256 states after
/// absorbing the ipad/opad key blocks. One instance per key; Mac() then
/// pays only the message compressions instead of re-hashing the padded
/// key on every call — the payload AEAD tags every authenticated
/// payload, so this halves the fixed per-payload hash cost. Safe for
/// concurrent Mac() calls (the states are copied per call).
class HmacSha256State {
 public:
  explicit HmacSha256State(const Bytes& key);
  /// Key hygiene: the ipad/opad states stand in for the key (they are
  /// enough to forge tags), so they are wiped on destruction.
  ~HmacSha256State();
  HmacSha256State(const HmacSha256State&) = default;
  HmacSha256State& operator=(const HmacSha256State&) = default;

  /// HMAC-SHA256(key, message) under the precomputed schedule.
  Bytes Mac(const Bytes& message) const;

  /// Incremental MAC over discontiguous parts under the same schedule:
  /// Update each piece in order, then Finish. Saves the concat copy the
  /// one-shot Mac() would force on callers with framed messages (the
  /// AEAD tags every payload over length-prefix || ad || iv ||
  /// ciphertext without gluing them together first).
  class Stream {
   public:
    void Update(const uint8_t* data, size_t len) { inner_.Update(data, len); }
    void Update(const Bytes& data) { inner_.Update(data); }
    /// Finalizes HMAC over everything updated so far; single use.
    Bytes Finish();
    /// Finish() into out[0..Sha256::kDigestSize), without allocating.
    void FinishInto(uint8_t* out);

   private:
    friend class HmacSha256State;
    Stream(const Sha256& inner, const Sha256& outer)
        : inner_(inner), outer_(outer) {}
    Sha256 inner_;
    Sha256 outer_;
  };
  /// A fresh stream resumed from the precomputed key state.
  Stream NewStream() const { return Stream(inner_, outer_); }

 private:
  Sha256 inner_;  ///< state after the ipad block
  Sha256 outer_;  ///< state after the opad block
};

/// Derives `out_len` bytes from `password` and `salt` using
/// PBKDF2-HMAC-SHA256 with `iterations` rounds (>= 1).
Result<Bytes> Pbkdf2Sha256(const Bytes& password, const Bytes& salt,
                           uint32_t iterations, size_t out_len);

}  // namespace crypto
}  // namespace simcloud

#endif  // SIMCLOUD_CRYPTO_HMAC_H_
