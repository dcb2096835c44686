// HKDF-SHA256 (RFC 5869): extract-then-expand key derivation.
//
// The secure-channel subsystem derives its handshake MAC key and the
// per-direction, per-epoch record keys and IVs from one pre-shared key
// with domain-separated HKDF invocations, so a single provisioned
// secret yields an arbitrary schedule of independent keys.

#ifndef SIMCLOUD_CRYPTO_HKDF_H_
#define SIMCLOUD_CRYPTO_HKDF_H_

#include <cstdint>

#include "common/bytes.h"
#include "common/status.h"

namespace simcloud {
namespace crypto {

/// HKDF-Extract: concentrates the entropy of `ikm` into a 32-byte
/// pseudorandom key. An empty `salt` is the RFC's all-zero default.
Bytes HkdfExtract(const Bytes& salt, const Bytes& ikm);

/// HKDF-Expand: stretches a pseudorandom key `prk` (>= 32 bytes of
/// extract output) into `out_len` bytes bound to the context `info`.
/// `out_len` must be <= 255 * 32.
Result<Bytes> HkdfExpand(const Bytes& prk, const Bytes& info, size_t out_len);

/// One-shot Extract + Expand.
Result<Bytes> HkdfSha256(const Bytes& salt, const Bytes& ikm,
                         const Bytes& info, size_t out_len);

}  // namespace crypto
}  // namespace simcloud

#endif  // SIMCLOUD_CRYPTO_HKDF_H_
