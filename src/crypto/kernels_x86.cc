// x86 hardware kernels: AES-NI CTR keystream, AES-NI CBC encryption and
// decryption, and SHA-NI SHA-256 compression. This file — and ONLY this
// file — is compiled with -maes/-msha/-mssse3/-msse4.1 (see
// CMakeLists.txt), so nothing here may be called before a cpuid check:
// the dispatchers in cpu_features.cc / kernels.h guarantee that.
// Feature *detection* deliberately lives in cpu_features.cc, which is
// built without SIMD flags, so a non-AES host never executes an
// instruction from this translation unit.
//
// Correctness contract: bit-identical to the scalar references in
// aes.cc / sha256.cc; tests/crypto_test.cc cross-checks every kernel on
// random inputs whenever the hardware supports it.

#include "crypto/kernels.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cstring>

namespace simcloud {
namespace crypto {

namespace internal {
const bool kAesNiKernelCompiled = true;
const bool kShaNiKernelCompiled = true;
}  // namespace internal

namespace {

// Big-endian increment of the rightmost 8 counter bytes — the same
// convention as cipher.cc's IncrementCounter.
inline void IncrementCtr(uint8_t counter[16]) {
  for (int i = 15; i >= 8; --i) {
    if (++counter[i] != 0) break;
  }
}

inline __m128i EncryptOne(__m128i block, const __m128i* keys, int rounds) {
  block = _mm_xor_si128(block, keys[0]);
  for (int r = 1; r < rounds; ++r) block = _mm_aesenc_si128(block, keys[r]);
  return _mm_aesenclast_si128(block, keys[rounds]);
}

// `keys` is the equivalent-inverse-cipher schedule (see AesNiCbcDecrypt).
inline __m128i DecryptOne(__m128i block, const __m128i* keys, int rounds) {
  block = _mm_xor_si128(block, keys[0]);
  for (int r = 1; r < rounds; ++r) block = _mm_aesdec_si128(block, keys[r]);
  return _mm_aesdeclast_si128(block, keys[rounds]);
}

inline __m128i Load(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

inline void Store(uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

inline void LoadRoundKeys(const uint8_t* round_keys, int rounds,
                          __m128i keys[15]) {
  for (int r = 0; r <= rounds; ++r) keys[r] = Load(round_keys + 16 * r);
}

}  // namespace

void AesNiCtrXor(const uint8_t* round_keys, int rounds, const uint8_t iv[16],
                 const uint8_t* in, uint8_t* out, size_t len) {
  __m128i keys[15];
  LoadRoundKeys(round_keys, rounds, keys);
  uint8_t counter[16];
  std::memcpy(counter, iv, 16);

  size_t off = 0;
  // 8-block pipeline: AESENC has multi-cycle latency but single-cycle
  // throughput, so independent blocks hide the latency almost entirely.
  while (len - off >= 128) {
    __m128i blocks[8];
    for (int b = 0; b < 8; ++b) {
      blocks[b] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(counter));
      IncrementCtr(counter);
    }
    for (int b = 0; b < 8; ++b) blocks[b] = _mm_xor_si128(blocks[b], keys[0]);
    for (int r = 1; r < rounds; ++r) {
      for (int b = 0; b < 8; ++b) {
        blocks[b] = _mm_aesenc_si128(blocks[b], keys[r]);
      }
    }
    for (int b = 0; b < 8; ++b) {
      blocks[b] = _mm_aesenclast_si128(blocks[b], keys[rounds]);
    }
    for (int b = 0; b < 8; ++b) {
      const __m128i data = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(in + off + 16 * b));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + off + 16 * b),
                       _mm_xor_si128(data, blocks[b]));
    }
    off += 128;
  }
  // Remaining whole blocks plus the tail.
  while (off < len) {
    const __m128i keystream = EncryptOne(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(counter)), keys,
        rounds);
    IncrementCtr(counter);
    const size_t n = len - off < 16 ? len - off : 16;
    if (n == 16) {
      const __m128i data =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + off));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + off),
                       _mm_xor_si128(data, keystream));
    } else {
      uint8_t ks_bytes[16];
      _mm_storeu_si128(reinterpret_cast<__m128i*>(ks_bytes), keystream);
      for (size_t i = 0; i < n; ++i) out[off + i] = in[off + i] ^ ks_bytes[i];
    }
    off += 16;
  }
}

void AesNiCbcEncrypt(const uint8_t* round_keys, int rounds,
                     const uint8_t iv[16], const uint8_t* in, uint8_t* out,
                     size_t len) {
  __m128i keys[15];
  LoadRoundKeys(round_keys, rounds, keys);
  __m128i chain = Load(iv);
  for (size_t off = 0; off < len; off += 16) {
    chain = EncryptOne(_mm_xor_si128(Load(in + off), chain), keys, rounds);
    Store(out + off, chain);
  }
}

void AesNiCbcDecrypt(const uint8_t* round_keys, int rounds,
                     const uint8_t iv[16], const uint8_t* in, uint8_t* out,
                     size_t len) {
  // Equivalent inverse cipher (FIPS-197 5.3.5): the encryption round keys
  // in reverse order, with InvMixColumns (AESIMC) applied to the inner
  // ones so AESDEC can fold it into each round.
  __m128i keys[15];
  keys[0] = Load(round_keys + 16 * rounds);
  for (int r = 1; r < rounds; ++r) {
    keys[r] = _mm_aesimc_si128(Load(round_keys + 16 * (rounds - r)));
  }
  keys[rounds] = Load(round_keys);

  __m128i chain = Load(iv);
  size_t off = 0;
  // 8-block pipeline: unlike encryption, every CBC block decrypts on its
  // own and only the final XOR needs the previous ciphertext block. All
  // eight ciphertext blocks are loaded before any store, so in == out is
  // safe.
  while (len - off >= 128) {
    __m128i ct[8], blocks[8];
    for (int b = 0; b < 8; ++b) {
      ct[b] = Load(in + off + 16 * b);
      blocks[b] = _mm_xor_si128(ct[b], keys[0]);
    }
    for (int r = 1; r < rounds; ++r) {
      for (int b = 0; b < 8; ++b) {
        blocks[b] = _mm_aesdec_si128(blocks[b], keys[r]);
      }
    }
    for (int b = 0; b < 8; ++b) {
      blocks[b] = _mm_aesdeclast_si128(blocks[b], keys[rounds]);
    }
    Store(out + off, _mm_xor_si128(blocks[0], chain));
    for (int b = 1; b < 8; ++b) {
      Store(out + off + 16 * b, _mm_xor_si128(blocks[b], ct[b - 1]));
    }
    chain = ct[7];
    off += 128;
  }
  // Remaining blocks, one at a time.
  for (; off < len; off += 16) {
    const __m128i ct = Load(in + off);
    Store(out + off, _mm_xor_si128(DecryptOne(ct, keys, rounds), chain));
    chain = ct;
  }
}

// SHA-NI SHA-256 (the canonical SHA256RNDS2/MSG1/MSG2 schedule; state
// is kept as the ABEF/CDGH register split the instructions expect).
void ShaNiSha256Blocks(uint32_t h[8], const uint8_t* data, size_t blocks) {
  const __m128i kShuffleMask =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&h[0]));
  __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&h[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);        // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);  // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);    // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);         // CDGH

  while (blocks-- > 0) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;
    __m128i msg, msgtmp;

    // Rounds 0-3
    __m128i msg0 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 0)),
        kShuffleMask);
    msg = _mm_add_epi32(msg0, _mm_set_epi64x(0xE9B5DBA5B5C0FBCFULL,
                                             0x71374491428A2F98ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    // Rounds 4-7
    __m128i msg1 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16)),
        kShuffleMask);
    msg = _mm_add_epi32(msg1, _mm_set_epi64x(0xAB1C5ED5923F82A4ULL,
                                             0x59F111F13956C25BULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    // Rounds 8-11
    __m128i msg2 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32)),
        kShuffleMask);
    msg = _mm_add_epi32(msg2, _mm_set_epi64x(0x550C7DC3243185BEULL,
                                             0x12835B01D807AA98ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    // Rounds 12-15
    __m128i msg3 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48)),
        kShuffleMask);
    msg = _mm_add_epi32(msg3, _mm_set_epi64x(0xC19BF1749BDC06A7ULL,
                                             0x80DEB1FE72BE5D74ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg3, msg2, 4);
    msg0 = _mm_add_epi32(msg0, msgtmp);
    msg0 = _mm_sha256msg2_epu32(msg0, msg3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    // Rounds 16-51: the steady-state 4-round schedule, msg0..msg3
    // rotating through the roles.
#define SIMCLOUD_SHA_QROUND(ka, kb, m_a, m_b, m_c, m_d)          \
  msg = _mm_add_epi32(m_a, _mm_set_epi64x(ka, kb));              \
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);           \
  msgtmp = _mm_alignr_epi8(m_a, m_d, 4);                         \
  m_b = _mm_add_epi32(m_b, msgtmp);                              \
  m_b = _mm_sha256msg2_epu32(m_b, m_a);                          \
  msg = _mm_shuffle_epi32(msg, 0x0E);                            \
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);           \
  m_d = _mm_sha256msg1_epu32(m_d, m_a)

    SIMCLOUD_SHA_QROUND(0x240CA1CC0FC19DC6ULL, 0xEFBE4786E49B69C1ULL,
                        msg0, msg1, msg2, msg3);  // rounds 16-19
    SIMCLOUD_SHA_QROUND(0x76F988DA5CB0A9DCULL, 0x4A7484AA2DE92C6FULL,
                        msg1, msg2, msg3, msg0);  // rounds 20-23
    SIMCLOUD_SHA_QROUND(0xBF597FC7B00327C8ULL, 0xA831C66D983E5152ULL,
                        msg2, msg3, msg0, msg1);  // rounds 24-27
    SIMCLOUD_SHA_QROUND(0x1429296706CA6351ULL, 0xD5A79147C6E00BF3ULL,
                        msg3, msg0, msg1, msg2);  // rounds 28-31
    SIMCLOUD_SHA_QROUND(0x53380D134D2C6DFCULL, 0x2E1B213827B70A85ULL,
                        msg0, msg1, msg2, msg3);  // rounds 32-35
    SIMCLOUD_SHA_QROUND(0x92722C8581C2C92EULL, 0x766A0ABB650A7354ULL,
                        msg1, msg2, msg3, msg0);  // rounds 36-39
    SIMCLOUD_SHA_QROUND(0xC76C51A3C24B8B70ULL, 0xA81A664BA2BFE8A1ULL,
                        msg2, msg3, msg0, msg1);  // rounds 40-43
    SIMCLOUD_SHA_QROUND(0x106AA070F40E3585ULL, 0xD6990624D192E819ULL,
                        msg3, msg0, msg1, msg2);  // rounds 44-47
#undef SIMCLOUD_SHA_QROUND

    // Rounds 48-51. One more msg1 IS needed: W[60-63] takes
    // sigma0(W[45..48]), and W[48] only exists now that rounds 44-47
    // finished msg0.
    msg = _mm_add_epi32(msg0, _mm_set_epi64x(0x34B0BCB52748774CULL,
                                             0x1E376C0819A4C116ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg0, msg3, 4);
    msg1 = _mm_add_epi32(msg1, msgtmp);
    msg1 = _mm_sha256msg2_epu32(msg1, msg0);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    // Rounds 52-55
    msg = _mm_add_epi32(msg1, _mm_set_epi64x(0x682E6FF35B9CCA4FULL,
                                             0x4ED8AA4A391C0CB3ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg1, msg0, 4);
    msg2 = _mm_add_epi32(msg2, msgtmp);
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    // Rounds 56-59
    msg = _mm_add_epi32(msg2, _mm_set_epi64x(0x8CC7020884C87814ULL,
                                             0x78A5636F748F82EEULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg2, msg1, 4);
    msg3 = _mm_add_epi32(msg3, msgtmp);
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    // Rounds 60-63
    msg = _mm_add_epi32(msg3, _mm_set_epi64x(0xC67178F2BEF9A3F7ULL,
                                             0xA4506CEB90BEFFFAULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
    data += 64;
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);     // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);  // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE -> EFGH order
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&h[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&h[4]), state1);
}

}  // namespace crypto
}  // namespace simcloud

#else  // !x86: the hardware kernels do not exist on this architecture.

namespace simcloud {
namespace crypto {

namespace internal {
const bool kAesNiKernelCompiled = false;
const bool kShaNiKernelCompiled = false;
}  // namespace internal

void AesNiCtrXor(const uint8_t*, int, const uint8_t*, const uint8_t*,
                 uint8_t*, size_t) {}
void AesNiCbcEncrypt(const uint8_t*, int, const uint8_t*, const uint8_t*,
                     uint8_t*, size_t) {}
void AesNiCbcDecrypt(const uint8_t*, int, const uint8_t*, const uint8_t*,
                     uint8_t*, size_t) {}
void ShaNiSha256Blocks(uint32_t*, const uint8_t*, size_t) {}

}  // namespace crypto
}  // namespace simcloud

#endif
