// Byte-buffer type and hex helpers used throughout simcloud.

#ifndef SIMCLOUD_COMMON_BYTES_H_
#define SIMCLOUD_COMMON_BYTES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace simcloud {

/// Owned mutable byte sequence (ciphertexts, wire messages, serialized
/// objects). A plain vector keeps interop with <algorithm> and iterators.
using Bytes = std::vector<uint8_t>;

/// Encodes `data` as a lowercase hex string ("deadbeef").
std::string ToHex(const Bytes& data);
/// Encodes `len` bytes at `data` as a lowercase hex string.
std::string ToHex(const uint8_t* data, size_t len);

/// Decodes a hex string (case-insensitive, even length) into bytes.
Result<Bytes> FromHex(const std::string& hex);

/// Constant-time byte-sequence comparison (for MAC verification).
/// Returns true iff `a` and `b` have equal length and contents.
bool ConstantTimeEquals(const Bytes& a, const Bytes& b);
/// Constant-time comparison of `len` bytes at `a` and `b`.
bool ConstantTimeEquals(const uint8_t* a, const uint8_t* b, size_t len);

/// Overwrites `data`'s contents with zeros through a volatile pointer
/// (so the store cannot be optimized away) and then clears the buffer.
/// Key-holding types call this from their destructors and move
/// operations so key material does not linger in freed heap memory.
void WipeBytes(Bytes* data);

}  // namespace simcloud

#endif  // SIMCLOUD_COMMON_BYTES_H_
