#include "crypto/hmac.h"

#include <cstring>

#include "crypto/sha256.h"

namespace simcloud {
namespace crypto {

HmacSha256State::HmacSha256State(const Bytes& key) {
  constexpr size_t kBlock = Sha256::kBlockSize;
  // Reserve up front so padding to a block never reallocates — a
  // reallocation would free the original copy of the key un-wiped.
  Bytes k;
  k.reserve(kBlock);
  if (key.size() > kBlock) {
    Bytes digest = Sha256::Hash(key);
    k.assign(digest.begin(), digest.end());
    WipeBytes(&digest);
  } else {
    k.assign(key.begin(), key.end());
  }
  k.resize(kBlock, 0x00);

  Bytes ipad(kBlock), opad(kBlock);
  for (size_t i = 0; i < kBlock; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  inner_.Update(ipad);
  outer_.Update(opad);
  WipeBytes(&k);
  WipeBytes(&ipad);
  WipeBytes(&opad);
}

HmacSha256State::~HmacSha256State() {
  inner_.Wipe();
  outer_.Wipe();
}

Bytes HmacSha256State::Mac(const Bytes& message) const {
  Stream stream = NewStream();
  stream.Update(message);
  return stream.Finish();
}

Bytes HmacSha256State::Stream::Finish() {
  Bytes digest(Sha256::kDigestSize);
  FinishInto(digest.data());
  return digest;
}

void HmacSha256State::Stream::FinishInto(uint8_t* out) {
  const auto inner_digest = inner_.Finish();
  outer_.Update(inner_digest.data(), inner_digest.size());
  const auto digest = outer_.Finish();
  std::memcpy(out, digest.data(), digest.size());
}

Bytes HmacSha256(const Bytes& key, const Bytes& message) {
  return HmacSha256State(key).Mac(message);
}

Result<Bytes> Pbkdf2Sha256(const Bytes& password, const Bytes& salt,
                           uint32_t iterations, size_t out_len) {
  if (iterations == 0) {
    return Status::InvalidArgument("PBKDF2 iterations must be >= 1");
  }
  if (out_len == 0) {
    return Status::InvalidArgument("PBKDF2 output length must be >= 1");
  }

  Bytes out;
  out.reserve(out_len);
  uint32_t block_index = 1;
  while (out.size() < out_len) {
    Bytes salt_block = salt;
    salt_block.push_back(static_cast<uint8_t>(block_index >> 24));
    salt_block.push_back(static_cast<uint8_t>(block_index >> 16));
    salt_block.push_back(static_cast<uint8_t>(block_index >> 8));
    salt_block.push_back(static_cast<uint8_t>(block_index));

    Bytes u = HmacSha256(password, salt_block);
    Bytes t = u;
    for (uint32_t iter = 1; iter < iterations; ++iter) {
      u = HmacSha256(password, u);
      for (size_t i = 0; i < t.size(); ++i) t[i] ^= u[i];
    }
    const size_t take = std::min(t.size(), out_len - out.size());
    out.insert(out.end(), t.begin(), t.begin() + take);
    ++block_index;
  }
  return out;
}

}  // namespace crypto
}  // namespace simcloud
