// FIPS-180-4 SHA-256, implemented from scratch. Used for key derivation
// (PBKDF2-HMAC-SHA256) and integrity checks in the wire protocol tests.

#ifndef SIMCLOUD_CRYPTO_SHA256_H_
#define SIMCLOUD_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <cstddef>

#include "common/bytes.h"

namespace simcloud {
namespace crypto {

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;

  Sha256() { Reset(); }

  /// Resets to the initial state.
  void Reset();
  /// Absorbs `len` bytes.
  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }
  /// Finalizes and returns the 32-byte digest; the hasher must be Reset()
  /// before reuse.
  std::array<uint8_t, kDigestSize> Finish();

  /// Zeroes the whole state (chaining values and buffered input) through
  /// volatile stores, for states derived from a key; Reset() before reuse.
  void Wipe();

  /// One-shot convenience digest.
  static Bytes Hash(const Bytes& data);

 private:
  // Absorbs `blocks` consecutive 64-byte blocks, dispatching to the
  // SHA-NI kernel when available (see crypto/kernels.h).
  void ProcessBlocks(const uint8_t* data, size_t blocks);

  uint32_t h_[8];
  uint8_t buffer_[kBlockSize];
  size_t buffer_len_;
  uint64_t total_len_;
};

}  // namespace crypto
}  // namespace simcloud

#endif  // SIMCLOUD_CRYPTO_SHA256_H_
