#include "crypto/sha256.h"

#include <cstring>

#include "crypto/cpu_features.h"
#include "crypto/kernels.h"

namespace simcloud {
namespace crypto {

namespace {
constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }
}  // namespace

void Sha256::Reset() {
  h_[0] = 0x6a09e667;
  h_[1] = 0xbb67ae85;
  h_[2] = 0x3c6ef372;
  h_[3] = 0xa54ff53a;
  h_[4] = 0x510e527f;
  h_[5] = 0x9b05688c;
  h_[6] = 0x1f83d9ab;
  h_[7] = 0x5be0cd19;
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::Wipe() {
  volatile uint8_t* p = reinterpret_cast<volatile uint8_t*>(this);
  for (size_t i = 0; i < sizeof(*this); ++i) p[i] = 0;
}

void ScalarSha256Blocks(uint32_t h_state[8], const uint8_t* data,
                        size_t blocks) {
  for (size_t blk = 0; blk < blocks; ++blk, data += Sha256::kBlockSize) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(data[4 * i]) << 24) |
             (static_cast<uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 =
          Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 =
          Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = h_state[0], b = h_state[1], c = h_state[2], d = h_state[3];
    uint32_t e = h_state[4], f = h_state[5], g = h_state[6], h = h_state[7];
    for (int i = 0; i < 64; ++i) {
      const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    h_state[0] += a;
    h_state[1] += b;
    h_state[2] += c;
    h_state[3] += d;
    h_state[4] += e;
    h_state[5] += f;
    h_state[6] += g;
    h_state[7] += h;
  }
}

void Sha256::ProcessBlocks(const uint8_t* data, size_t blocks) {
  if (ShaAccelerated()) {
    ShaNiSha256Blocks(h_, data, blocks);
  } else {
    ScalarSha256Blocks(h_, data, blocks);
  }
}

void Sha256::Update(const uint8_t* data, size_t len) {
  if (len == 0) return;  // `data` may be null (an empty Bytes)
  total_len_ += len;
  // Top up a partially filled buffer first.
  if (buffer_len_ > 0) {
    const size_t take = std::min(len, kBlockSize - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ == kBlockSize) {
      ProcessBlocks(buffer_, 1);
      buffer_len_ = 0;
    }
  }
  // Bulk-process whole blocks straight from the input (no copy) so the
  // hardware kernel sees long runs.
  const size_t whole = len / kBlockSize;
  if (whole > 0) {
    ProcessBlocks(data, whole);
    data += whole * kBlockSize;
    len -= whole * kBlockSize;
  }
  if (len > 0) {
    std::memcpy(buffer_, data, len);
    buffer_len_ = len;
  }
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::Finish() {
  const uint64_t bit_len = total_len_ * 8;
  // Append 0x80, zero-fill to 8 bytes before a block edge, then the
  // length — at most two compressions, padded with straight memsets
  // (the record layer finalizes a digest per wire frame, so the fixed
  // cost here is hot).
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > kBlockSize - 8) {
    std::memset(buffer_ + buffer_len_, 0, kBlockSize - buffer_len_);
    ProcessBlocks(buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, kBlockSize - 8 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[kBlockSize - 8 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  ProcessBlocks(buffer_, 1);
  buffer_len_ = 0;

  std::array<uint8_t, kDigestSize> digest;
  for (int i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<uint8_t>(h_[i] >> 24);
    digest[4 * i + 1] = static_cast<uint8_t>(h_[i] >> 16);
    digest[4 * i + 2] = static_cast<uint8_t>(h_[i] >> 8);
    digest[4 * i + 3] = static_cast<uint8_t>(h_[i]);
  }
  return digest;
}

Bytes Sha256::Hash(const Bytes& data) {
  Sha256 hasher;
  hasher.Update(data);
  auto digest = hasher.Finish();
  return Bytes(digest.begin(), digest.end());
}

}  // namespace crypto
}  // namespace simcloud
