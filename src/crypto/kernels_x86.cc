// x86 hardware kernels: AES-NI CTR keystream, AES-NI CBC encryption and
// decryption, AES-NI + PCLMULQDQ AES-GCM, and SHA-NI SHA-256
// compression. This file is compiled with
// -maes/-mpclmul/-msha/-mssse3/-msse4.1 (see CMakeLists.txt; the only
// other crypto file with SIMD flags is kernels_vaes.cc, the 512-bit
// tier), so nothing here may be called before a cpuid check: the
// dispatchers in cpu_features.cc / kernels.h guarantee that.
// Feature *detection* deliberately lives in cpu_features.cc, which is
// built without SIMD flags, so a non-AES host never executes an
// instruction from this translation unit.
//
// Correctness contract: bit-identical to the scalar references in
// aes.cc / gcm.cc / sha256.cc; tests/crypto_test.cc cross-checks every kernel on
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
const bool kPclmulKernelCompiled = true;
}  // namespace internal

namespace {

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
  // The counter lives byte-reversed in a register: lane 0 then holds the
  // big-endian rightmost 8 counter bytes as a native u64, so
  // _mm_add_epi64 steps it, wrapping mod 2^64 without carrying into the
  // upper 8 bytes — the scalar reference's increment, with no memory
  // round trip per block. One PSHUFB turns it back into a counter block.
  const __m128i byte_swap =
      _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  const __m128i one = _mm_set_epi64x(0, 1);
  __m128i counter = _mm_shuffle_epi8(Load(iv), byte_swap);

  size_t off = 0;
  // 8-block pipeline: AESENC has multi-cycle latency but single-cycle
  // throughput, so independent blocks hide the latency almost entirely.
  // The block loops are unrolled by pragma, not left to the optimizer:
  // at -O2 (the RelWithDebInfo default) GCC keeps them rolled, `blocks`
  // then lives on the stack and every round round-trips memory, which
  // cost about 4x in throughput.
  while (len - off >= 128) {
    __m128i blocks[8];
#pragma GCC unroll 8
    for (int b = 0; b < 8; ++b) {
      blocks[b] = _mm_xor_si128(_mm_shuffle_epi8(counter, byte_swap), keys[0]);
      counter = _mm_add_epi64(counter, one);
    }
    for (int r = 1; r < rounds; ++r) {
#pragma GCC unroll 8
      for (int b = 0; b < 8; ++b) {
        blocks[b] = _mm_aesenc_si128(blocks[b], keys[r]);
      }
    }
#pragma GCC unroll 8
    for (int b = 0; b < 8; ++b) {
      blocks[b] = _mm_aesenclast_si128(blocks[b], keys[rounds]);
    }
#pragma GCC unroll 8
    for (int b = 0; b < 8; ++b) {
      Store(out + off + 16 * b,
            _mm_xor_si128(Load(in + off + 16 * b), blocks[b]));
    }
    off += 128;
  }
  // Remaining whole blocks plus the tail.
  while (off < len) {
    const __m128i keystream =
        EncryptOne(_mm_shuffle_epi8(counter, byte_swap), keys, rounds);
    counter = _mm_add_epi64(counter, one);
    const size_t n = len - off < 16 ? len - off : 16;
    if (n == 16) {
      Store(out + off, _mm_xor_si128(Load(in + off), keystream));
    } else {
      uint8_t ks_bytes[16];
      Store(ks_bytes, keystream);
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
  // safe. The block loops are unrolled by pragma for the same reason as
  // AesNiCtrXor's: at -O2 they would stay rolled, with the blocks on the
  // stack.
  while (len - off >= 128) {
    __m128i ct[8], blocks[8];
#pragma GCC unroll 8
    for (int b = 0; b < 8; ++b) {
      ct[b] = Load(in + off + 16 * b);
      blocks[b] = _mm_xor_si128(ct[b], keys[0]);
    }
    for (int r = 1; r < rounds; ++r) {
#pragma GCC unroll 8
      for (int b = 0; b < 8; ++b) {
        blocks[b] = _mm_aesdec_si128(blocks[b], keys[r]);
      }
    }
#pragma GCC unroll 8
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

// ---------------------------------------------------------------------------
// AES-GCM. GHASH works on byte-reflected blocks (one PSHUFB per block),
// where a PCLMULQDQ product followed by a 1-bit left shift and the
// shift/XOR reduction below is multiplication in GF(2^128) as GCM
// defines it (Gueron & Kounavis, "Intel Carry-Less Multiplication
// Instruction and its Usage for Computing the GCM Mode", Algorithm 5).
// Shift and reduction are linear, so eight products can be summed
// unreduced and reduced once: with H^1..H^8 precomputed,
//   Y' = (Y ^ X1)*H^8 ^ X2*H^7 ^ ... ^ X8*H^1,
// which is eight Horner steps for the price of one reduction.
// ---------------------------------------------------------------------------

namespace {

inline __m128i ReverseBytes(__m128i v) {
  return _mm_shuffle_epi8(
      v, _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
}

/// An unreduced 256-bit GF(2)[x] product sum: lo + mid * x^64 + hi * x^128.
struct Clmul256 {
  __m128i lo = _mm_setzero_si128();
  __m128i mid = _mm_setzero_si128();
  __m128i hi = _mm_setzero_si128();
};

/// acc += a * b (carry-less, schoolbook on 64-bit halves).
inline void ClmulAdd(__m128i a, __m128i b, Clmul256* acc) {
  acc->lo = _mm_xor_si128(acc->lo, _mm_clmulepi64_si128(a, b, 0x00));
  acc->hi = _mm_xor_si128(acc->hi, _mm_clmulepi64_si128(a, b, 0x11));
  acc->mid = _mm_xor_si128(
      acc->mid, _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x01),
                              _mm_clmulepi64_si128(a, b, 0x10)));
}

/// Reduces an accumulated product modulo the GCM polynomial
/// x^128 + x^7 + x^2 + x + 1, in the reflected representation.
inline __m128i GhashReduce(const Clmul256& acc) {
  __m128i lo = _mm_xor_si128(acc.lo, _mm_slli_si128(acc.mid, 8));
  __m128i hi = _mm_xor_si128(acc.hi, _mm_srli_si128(acc.mid, 8));
  // Shift the 256-bit product left by one bit: reflected operands leave
  // the carry-less product one bit short of the reflected result.
  __m128i carry_lo = _mm_srli_epi32(lo, 31);
  __m128i carry_hi = _mm_srli_epi32(hi, 31);
  lo = _mm_slli_epi32(lo, 1);
  hi = _mm_slli_epi32(hi, 1);
  const __m128i cross = _mm_srli_si128(carry_lo, 12);
  carry_hi = _mm_slli_si128(carry_hi, 4);
  carry_lo = _mm_slli_si128(carry_lo, 4);
  lo = _mm_or_si128(lo, carry_lo);
  hi = _mm_or_si128(_mm_or_si128(hi, carry_hi), cross);
  // First phase: fold the x^127, x^126 and x^121 multiples of the low
  // half back in.
  __m128i a = _mm_xor_si128(
      _mm_xor_si128(_mm_slli_epi32(lo, 31), _mm_slli_epi32(lo, 30)),
      _mm_slli_epi32(lo, 25));
  const __m128i spill = _mm_srli_si128(a, 4);
  lo = _mm_xor_si128(lo, _mm_slli_si128(a, 12));
  // Second phase.
  __m128i b = _mm_xor_si128(
      _mm_xor_si128(_mm_srli_epi32(lo, 1), _mm_srli_epi32(lo, 2)),
      _mm_srli_epi32(lo, 7));
  b = _mm_xor_si128(b, spill);
  lo = _mm_xor_si128(lo, b);
  return _mm_xor_si128(hi, lo);
}

inline __m128i GhashMul(__m128i a, __m128i b) {
  Clmul256 acc;
  ClmulAdd(a, b, &acc);
  return GhashReduce(acc);
}

/// Folds data[0..len), zero-padded to whole blocks, into the reflected
/// GHASH value `y`. `h` holds H^1..H^8 (reflected).
__m128i GhashBlocks(const __m128i h[8], const uint8_t* data, size_t len,
                    __m128i y) {
  size_t off = 0;
  while (len - off >= 128) {
    Clmul256 acc;
    ClmulAdd(_mm_xor_si128(y, ReverseBytes(Load(data + off))), h[7], &acc);
#pragma GCC unroll 8
    for (int b = 1; b < 8; ++b) {
      ClmulAdd(ReverseBytes(Load(data + off + 16 * b)), h[7 - b], &acc);
    }
    y = GhashReduce(acc);
    off += 128;
  }
  for (; off < len; off += 16) {
    __m128i block;
    if (len - off >= 16) {
      block = Load(data + off);
    } else {
      uint8_t padded[16] = {};
      std::memcpy(padded, data + off, len - off);
      block = Load(padded);
    }
    y = GhashMul(_mm_xor_si128(y, ReverseBytes(block)), h[0]);
  }
  return y;
}

/// The counter block nonce || u32 BE 1 (J0).
inline __m128i GcmJ0(const uint8_t nonce[12]) {
  uint8_t j0[16] = {};
  std::memcpy(j0, nonce, 12);
  j0[15] = 1;
  return Load(j0);
}

/// tag = E_K(J0) ^ GHASH, after folding in the lengths block
/// [len(A) in bits]_64 || [len(C) in bits]_64 (reflected, that block's
/// halves swap and each becomes a native u64).
inline __m128i GcmFinish(__m128i y, __m128i h1, __m128i ek_j0,
                         size_t ad_len, size_t len) {
  const __m128i lengths = _mm_set_epi64x(
      static_cast<long long>(uint64_t{ad_len} * 8),
      static_cast<long long>(uint64_t{len} * 8));
  y = GhashMul(_mm_xor_si128(y, lengths), h1);
  return _mm_xor_si128(ReverseBytes(y), ek_j0);
}

inline void LoadHashPowers(const uint8_t* h_table, __m128i h[8]) {
  for (int i = 0; i < 8; ++i) h[i] = Load(h_table + 16 * i);
}

}  // namespace

void AesNiGcmInit(const uint8_t h[16], uint8_t h_table[kGcmHashTableBytes]) {
  const __m128i h1 = ReverseBytes(Load(h));
  __m128i power = h1;
  Store(h_table, power);
  for (size_t i = 1; i < kGcmHashPowers; ++i) {
    power = GhashMul(power, h1);
    Store(h_table + 16 * i, power);
  }
}

void AesNiGcmSeal(const uint8_t* round_keys, int rounds,
                  const uint8_t* h_table, const uint8_t nonce[12],
                  const uint8_t* ad, size_t ad_len, const uint8_t* in,
                  uint8_t* out, size_t len, uint8_t tag[16]) {
  __m128i keys[15];
  LoadRoundKeys(round_keys, rounds, keys);
  __m128i h[8];
  LoadHashPowers(h_table, h);
  const __m128i j0 = GcmJ0(nonce);
  const __m128i ek_j0 = EncryptOne(j0, keys, rounds);
  // The counter lives byte-reversed, as in AesNiCtrXor, so its low 32
  // bits are lane 0 of a native u32 vector and _mm_add_epi32 is GCM's
  // inc32: it wraps within those 32 bits, never carrying into the
  // nonce. (The caller's length bound keeps it from wrapping at all.)
  const __m128i one = _mm_set_epi32(0, 0, 0, 1);
  __m128i counter = _mm_add_epi32(ReverseBytes(j0), one);

  __m128i y = GhashBlocks(h, ad, ad_len, _mm_setzero_si128());
  size_t off = 0;
  // One pass, stitched: while eight counter blocks go through the AES
  // rounds, the previous batch's eight ciphertext blocks (`pending`,
  // byte-reflected, with the running hash folded into the first) are
  // multiplied by H^8..H^1, one block per round in rounds 1-8 (every key
  // size has at least nine inner rounds). The AES units and the
  // carry-less multiplier then work side by side instead of in turn.
  // Every fixed 8-iteration loop is unrolled by pragma (see AesNiCtrXor).
  __m128i pending[8] = {};
  while (len - off >= 128) {
    __m128i blocks[8];
#pragma GCC unroll 8
    for (int b = 0; b < 8; ++b) {
      blocks[b] = _mm_xor_si128(ReverseBytes(counter), keys[0]);
      counter = _mm_add_epi32(counter, one);
    }
    Clmul256 acc;
#pragma GCC unroll 8
    for (int r = 1; r <= 8; ++r) {
#pragma GCC unroll 8
      for (int b = 0; b < 8; ++b) {
        blocks[b] = _mm_aesenc_si128(blocks[b], keys[r]);
      }
      ClmulAdd(pending[r - 1], h[8 - r], &acc);
    }
    for (int r = 9; r < rounds; ++r) {
#pragma GCC unroll 8
      for (int b = 0; b < 8; ++b) {
        blocks[b] = _mm_aesenc_si128(blocks[b], keys[r]);
      }
    }
    // The first batch had nothing pending: its products are discarded.
    if (off > 0) y = GhashReduce(acc);
#pragma GCC unroll 8
    for (int b = 0; b < 8; ++b) {
      const __m128i ct = _mm_xor_si128(
          Load(in + off + 16 * b),
          _mm_aesenclast_si128(blocks[b], keys[rounds]));
      Store(out + off + 16 * b, ct);
      pending[b] = ReverseBytes(ct);
    }
    pending[0] = _mm_xor_si128(pending[0], y);
    off += 128;
  }
  if (off > 0) {
    Clmul256 acc;
#pragma GCC unroll 8
    for (int b = 0; b < 8; ++b) ClmulAdd(pending[b], h[7 - b], &acc);
    y = GhashReduce(acc);
  }
  // Remaining whole blocks plus the tail; a partial last block is
  // hashed zero-padded.
  for (; off < len; off += 16) {
    const __m128i keystream =
        EncryptOne(ReverseBytes(counter), keys, rounds);
    counter = _mm_add_epi32(counter, one);
    const size_t n = len - off < 16 ? len - off : 16;
    uint8_t block[16] = {};
    std::memcpy(block, in + off, n);
    Store(block, _mm_xor_si128(Load(block), keystream));
    std::memset(block + n, 0, 16 - n);
    std::memcpy(out + off, block, n);
    y = GhashMul(_mm_xor_si128(y, ReverseBytes(Load(block))), h[0]);
  }
  Store(tag, GcmFinish(y, h[0], ek_j0, ad_len, len));
}

bool AesNiGcmOpen(const uint8_t* round_keys, int rounds,
                  const uint8_t* h_table, const uint8_t nonce[12],
                  const uint8_t* ad, size_t ad_len, const uint8_t* in,
                  size_t len, const uint8_t tag[16], uint8_t* out) {
  __m128i keys[15];
  LoadRoundKeys(round_keys, rounds, keys);
  __m128i h[8];
  LoadHashPowers(h_table, h);
  const __m128i j0 = GcmJ0(nonce);
  // Authenticate first, over the ciphertext where it lies; nothing is
  // written before the tag has been compared (PTEST over the XOR: no
  // data-dependent branch until the one verdict).
  __m128i y = GhashBlocks(h, ad, ad_len, _mm_setzero_si128());
  y = GhashBlocks(h, in, len, y);
  const __m128i diff = _mm_xor_si128(
      GcmFinish(y, h[0], EncryptOne(j0, keys, rounds), ad_len, len),
      Load(tag));
  if (!_mm_testz_si128(diff, diff)) return false;
  // AesNiCtrXor steps the low 64 counter bits where GCM steps 32; with
  // the payload starting at 2 and the caller's length bound, the low 32
  // bits never wrap, so the keystreams are the same.
  uint8_t counter[16];
  Store(counter, j0);
  counter[15] = 2;
  AesNiCtrXor(round_keys, rounds, counter, in, out, len);
  return true;
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
const bool kPclmulKernelCompiled = false;
}  // namespace internal

void AesNiCtrXor(const uint8_t*, int, const uint8_t*, const uint8_t*,
                 uint8_t*, size_t) {}
void AesNiCbcEncrypt(const uint8_t*, int, const uint8_t*, const uint8_t*,
                     uint8_t*, size_t) {}
void AesNiCbcDecrypt(const uint8_t*, int, const uint8_t*, const uint8_t*,
                     uint8_t*, size_t) {}
void ShaNiSha256Blocks(uint32_t*, const uint8_t*, size_t) {}
void AesNiGcmInit(const uint8_t*, uint8_t*) {}
void AesNiGcmSeal(const uint8_t*, int, const uint8_t*, const uint8_t*,
                  const uint8_t*, size_t, const uint8_t*, uint8_t*, size_t,
                  uint8_t*) {}
bool AesNiGcmOpen(const uint8_t*, int, const uint8_t*, const uint8_t*,
                  const uint8_t*, size_t, const uint8_t*, size_t,
                  const uint8_t*, uint8_t*) {
  return false;
}

}  // namespace crypto
}  // namespace simcloud

#endif
