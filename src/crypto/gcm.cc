#include "crypto/gcm.h"

#include <cstring>

#include "crypto/cpu_features.h"
#include "crypto/kernels.h"

namespace simcloud {
namespace crypto {

namespace {

uint64_t LoadBE64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

void StoreBE64(uint64_t v, uint8_t* p) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (56 - 8 * i));
}

/// A GHASH block as two big-endian halves: hi holds bits 0..63 (byte 0's
/// MSB is bit 0, SP 800-38D's leftmost bit).
struct Block128 {
  uint64_t hi = 0;
  uint64_t lo = 0;
};

/// X * Y in GF(2^128), SP 800-38D Algorithm 1, bit by bit. Branch-free
/// in the data: each step selects with a mask instead of an if.
Block128 GfMul(Block128 x, Block128 y) {
  constexpr uint64_t kR = 0xE100000000000000ull;  // R = 11100001 || 0^120
  Block128 z;
  Block128 v = y;
  for (int i = 0; i < 128; ++i) {
    const uint64_t bit = i < 64 ? (x.hi >> (63 - i)) & 1 : (x.lo >> (127 - i)) & 1;
    const uint64_t take = 0 - bit;
    z.hi ^= v.hi & take;
    z.lo ^= v.lo & take;
    const uint64_t lsb = 0 - (v.lo & 1);
    v.lo = (v.lo >> 1) | (v.hi << 63);
    v.hi = (v.hi >> 1) ^ (kR & lsb);
  }
  return z;
}

/// Folds data[0..len), zero-padded to whole blocks, into the running
/// GHASH value `y`: y = (y ^ X_i) * H per block.
void GhashPadded(Block128 h, const uint8_t* data, size_t len, Block128* y) {
  for (size_t off = 0; off < len; off += 16) {
    uint8_t block[16] = {};
    std::memcpy(block, data + off, len - off < 16 ? len - off : 16);
    y->hi ^= LoadBE64(block);
    y->lo ^= LoadBE64(block + 8);
    *y = GfMul(*y, h);
  }
}

/// GHASH_H(A || 0^v || C || 0^u || [len(A)]_64 || [len(C)]_64).
void ScalarGhash(const uint8_t h_bytes[16], const uint8_t* ad, size_t ad_len,
                 const uint8_t* ct, size_t len, uint8_t s[16]) {
  const Block128 h{LoadBE64(h_bytes), LoadBE64(h_bytes + 8)};
  Block128 y;
  GhashPadded(h, ad, ad_len, &y);
  GhashPadded(h, ct, len, &y);
  y.hi ^= uint64_t{ad_len} * 8;
  y.lo ^= uint64_t{len} * 8;
  y = GfMul(y, h);
  StoreBE64(y.hi, s);
  StoreBE64(y.lo, s + 8);
}

/// nonce || u32 BE `counter`: J0 is counter 1, the payload starts at 2.
void CounterBlock(const uint8_t nonce[12], uint8_t counter,
                  uint8_t block[16]) {
  std::memcpy(block, nonce, 12);
  block[12] = block[13] = block[14] = 0;
  block[15] = counter;
}

/// tag = E_K(J0) ^ S.
void ScalarTag(const Aes& aes, const uint8_t h[16], const uint8_t nonce[12],
               const uint8_t* ad, size_t ad_len, const uint8_t* ct,
               size_t len, uint8_t tag[16]) {
  uint8_t s[16], j0[16];
  ScalarGhash(h, ad, ad_len, ct, len, s);
  CounterBlock(nonce, 1, j0);
  aes.EncryptBlock(j0, tag);
  for (int i = 0; i < 16; ++i) tag[i] ^= s[i];
}

}  // namespace

// The scalar reference runs the payload through ScalarAesCtrXor, which
// steps the low 64 bits of the counter block where GCM steps only the
// low 32 (inc32). The two agree as long as the 32-bit counter never
// wraps, and it cannot: the payload starts at 2 and SealInto/OpenInto
// refuse more than kMaxPlaintextBytes = (2^32 - 2) blocks.
void ScalarGcmSeal(const Aes& aes, const uint8_t h[16],
                   const uint8_t nonce[12], const uint8_t* ad, size_t ad_len,
                   const uint8_t* in, uint8_t* out, size_t len,
                   uint8_t tag[16]) {
  uint8_t counter[16];
  CounterBlock(nonce, 2, counter);
  if (len > 0) ScalarAesCtrXor(aes, counter, in, out, len);
  ScalarTag(aes, h, nonce, ad, ad_len, out, len, tag);
}

bool ScalarGcmOpen(const Aes& aes, const uint8_t h[16],
                   const uint8_t nonce[12], const uint8_t* ad, size_t ad_len,
                   const uint8_t* in, size_t len, const uint8_t tag[16],
                   uint8_t* out) {
  uint8_t expected[16];
  ScalarTag(aes, h, nonce, ad, ad_len, in, len, expected);
  if (!ConstantTimeEquals(expected, tag, 16)) return false;
  uint8_t counter[16];
  CounterBlock(nonce, 2, counter);
  if (len > 0) ScalarAesCtrXor(aes, counter, in, out, len);
  return true;
}

Result<AesGcm> AesGcm::Create(const Bytes& key) {
  SIMCLOUD_ASSIGN_OR_RETURN(Aes aes, Aes::Create(key));
  AesGcm gcm(std::move(aes));
  const uint8_t zero[16] = {};
  gcm.aes_.EncryptBlock(zero, gcm.h_);
  if (GcmAccelerated()) AesNiGcmInit(gcm.h_, gcm.h_table_);
  return gcm;
}

Status AesGcm::SealInto(const uint8_t nonce[kNonceSize], const uint8_t* ad,
                        size_t ad_len, const uint8_t* in, size_t len,
                        uint8_t* out, uint8_t tag[kTagSize]) const {
  if (len > kMaxPlaintextBytes) {
    return Status::InvalidArgument("GCM plaintext exceeds 2^36 - 32 bytes");
  }
  if (VaesAccelerated()) {
    VaesGcmSeal(aes_.round_key_bytes(), aes_.rounds(), h_table_, nonce, ad,
                ad_len, in, out, len, tag);
  } else if (GcmAccelerated()) {
    AesNiGcmSeal(aes_.round_key_bytes(), aes_.rounds(), h_table_, nonce, ad,
                 ad_len, in, out, len, tag);
  } else {
    ScalarGcmSeal(aes_, h_, nonce, ad, ad_len, in, out, len, tag);
  }
  return Status::OK();
}

Status AesGcm::OpenInto(const uint8_t nonce[kNonceSize], const uint8_t* ad,
                        size_t ad_len, const uint8_t* in, size_t len,
                        const uint8_t tag[kTagSize], uint8_t* out) const {
  if (len > kMaxPlaintextBytes) {
    return Status::Corruption("GCM ciphertext exceeds 2^36 - 32 bytes");
  }
  bool authentic;
  if (VaesAccelerated()) {
    authentic = VaesGcmOpen(aes_.round_key_bytes(), aes_.rounds(), h_table_,
                            nonce, ad, ad_len, in, len, tag, out);
  } else if (GcmAccelerated()) {
    authentic = AesNiGcmOpen(aes_.round_key_bytes(), aes_.rounds(), h_table_,
                             nonce, ad, ad_len, in, len, tag, out);
  } else {
    authentic = ScalarGcmOpen(aes_, h_, nonce, ad, ad_len, in, len, tag, out);
  }
  if (!authentic) {
    return Status::Corruption("GCM tag mismatch: message was tampered with");
  }
  return Status::OK();
}

}  // namespace crypto
}  // namespace simcloud
