// Authenticated encryption (encrypt-then-MAC): AES-CTR for
// confidentiality plus HMAC-SHA256 for integrity — the at-rest payload
// AEAD (PayloadScheme::kAuthenticated) and nothing else. The secure
// channel's records use AES-GCM (gcm.h); this format is what stored
// payloads carry, so it does not change with the wire.
//
// The paper's Encrypted M-Index protects confidentiality only — a
// compromised server could silently corrupt stored ciphertexts and the
// client would compute distances over garbage plaintexts. Sealing object
// payloads with this AEAD lets the authorized client detect any
// modification of the candidate objects it receives (Section 4.3
// threat model, hardened).
//
// Sealed layout: iv (16 B) || ciphertext (n B, CTR keeps length) ||
// tag (32 B). The tag is HMAC-SHA256 over
//   len(associated_data) as 8-byte big-endian || associated_data ||
//   iv || ciphertext
// so tampering with the IV, the ciphertext, or the binding context is
// detected. Encryption and MAC keys are derived from one master key by
// domain-separated HMAC, so callers manage a single secret.

#ifndef SIMCLOUD_CRYPTO_AEAD_H_
#define SIMCLOUD_CRYPTO_AEAD_H_

#include <cstdint>
#include <memory>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/cipher.h"
#include "crypto/hmac.h"

namespace simcloud {
namespace crypto {

/// Encrypt-then-MAC AEAD on top of AES-CTR + HMAC-SHA256.
/// One instance per master key; safe for concurrent use.
class AeadCipher {
 public:
  /// HMAC-SHA256 output length; every sealed buffer ends with a tag of
  /// this size.
  static constexpr size_t kTagSize = 32;
  /// CTR-mode IV length prepended to every sealed buffer.
  static constexpr size_t kIvSize = 16;

  /// Creates an AEAD from a 16/24/32-byte master key. The AES encryption
  /// key (same length as the master key) and the 32-byte MAC key are
  /// derived with domain-separated HMAC-SHA256 invocations.
  ///
  /// Key hygiene: the raw MAC key is wiped inside Create — the cipher
  /// retains only the precomputed HMAC states (in-object arrays, no
  /// heap-resident key bytes to leak on copy/move), which
  /// ~HmacSha256State wipes.
  static Result<AeadCipher> Create(const Bytes& master_key);

  /// Encrypts and authenticates `plaintext`, binding `associated_data`
  /// (not transmitted) into the tag. Returns iv || ciphertext || tag.
  /// A thin wrapper over SealInto.
  Result<Bytes> Seal(const Bytes& plaintext,
                     const Bytes& associated_data = {}) const;

  /// Verifies the tag (constant-time) and decrypts. Returns Corruption if
  /// the buffer is malformed or the tag does not match — in that case no
  /// plaintext is revealed. A thin wrapper over OpenInto.
  Result<Bytes> Open(const Bytes& sealed,
                     const Bytes& associated_data = {}) const;

  /// Seals plaintext[0..len) under a fresh random IV, writing
  /// iv || ciphertext || tag to out[0..SealedSize(len)) — the one seal
  /// implementation. `plaintext` may be `out + kIvSize` (sealing in
  /// place) but must not overlap `out` otherwise. A pointer may be null
  /// when its length is 0.
  Status SealInto(const uint8_t* plaintext, size_t len,
                  const uint8_t* associated_data, size_t ad_len,
                  uint8_t* out) const;

  /// Verifies the tag over sealed[0..sealed_len) where it lies and only
  /// then decrypts into out[0..sealed_len - kIvSize - kTagSize) — the one
  /// open implementation. `out` may be `sealed + kIvSize` (opening in
  /// place) but must not overlap `sealed` otherwise. On Corruption (too
  /// short, tag mismatch) nothing is written to `out`.
  Status OpenInto(const uint8_t* sealed, size_t sealed_len,
                  const uint8_t* associated_data, size_t ad_len,
                  uint8_t* out) const;

  /// Size in bytes of Seal()'s output for an n-byte plaintext.
  static size_t SealedSize(size_t plaintext_size) {
    return kIvSize + plaintext_size + kTagSize;
  }

 private:
  AeadCipher(Cipher enc, const Bytes& mac_key)
      : enc_(std::make_shared<Cipher>(std::move(enc))),
        mac_state_(mac_key) {}

  /// Writes the tag over (len(ad) || ad || iv_and_ciphertext) to
  /// tag[0..kTagSize).
  void ComputeTag(const uint8_t* iv_and_ciphertext, size_t len,
                  const uint8_t* associated_data, size_t ad_len,
                  uint8_t* tag) const;

  std::shared_ptr<Cipher> enc_;
  /// Precomputed HMAC key schedule: tagging pays only the message
  /// compressions (every authenticated payload is tagged), and no raw
  /// key bytes stay resident on the heap.
  HmacSha256State mac_state_;
};

}  // namespace crypto
}  // namespace simcloud

#endif  // SIMCLOUD_CRYPTO_AEAD_H_
