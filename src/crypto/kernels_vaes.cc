// 512-bit VAES + VPCLMULQDQ kernels: AES-GCM seal and open, and AES-CBC
// decryption, four AES blocks per instruction (Drucker, Gueron and
// Krasnov, "Making AES Great Again: The Forthcoming Vectorized AES
// Instruction", ITNG 2019). They are the third tier next to the scalar
// references and the AES-NI kernels in kernels_x86.cc, and they are
// bit-identical to both (tests/crypto_test.cc).
//
// This file — and only this file — is compiled with AVX-512 flags (see
// CMakeLists.txt), and cpu_features.cc calls into it only after cpuid
// and XCR0 say the CPU and the OS can run it. It includes nothing but
// <immintrin.h>, <cstddef>, <cstdint> and <cstring> (a ci.sh lint):
// an inline function from any other header compiled here may be the
// copy the linker keeps for every caller, which would then fault on a
// CPU without AVX-512. For the same reason it does not include
// kernels.h, which declares these entry points; their signatures must
// match the declarations there.
//
// Layout: a ZMM register holds four 16-byte blocks, lane 0 first. One
// iteration works on 16 blocks (256 bytes) in four registers. GHASH uses
// the byte-reflected representation of kernels_x86.cc and its table of
// hash powers (AesNiGcmInit writes H^1..H^16), so the 16 products of an
// iteration are summed unreduced and reduced once:
//   Y' = (Y ^ X1)*H^16 ^ X2*H^15 ^ ... ^ X16*H^1.
// A message tail shorter than 16 blocks runs one masked 16-block CTR
// step and a 128-bit aggregated GHASH over H^n..H^1, again with one
// reduction.

#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)

// GCC 12's AVX-512 headers build their "undefined" vectors by
// self-initialization, which -Wall reports at every broadcast, shuffle
// and extract (GCC bug 105593); the warnings point into the header.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

namespace simcloud {
namespace crypto {

namespace internal {
extern const bool kVaesKernelCompiled = true;
}  // namespace internal

namespace {

constexpr size_t kChunk = 256;  // bytes per iteration: 16 blocks, 4 ZMM

inline __m128i Load(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

inline void Store(uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

inline __m512i Load512(const uint8_t* p) { return _mm512_loadu_si512(p); }

inline void Store512(uint8_t* p, __m512i v) { _mm512_storeu_si512(p, v); }

inline __m512i Broadcast(__m128i v) { return _mm512_broadcast_i32x4(v); }

/// The mask selecting the first `n` bytes of a 64-byte register; `n` is
/// signed so a register wholly past the end gets an empty mask.
inline __mmask64 ByteMask(ptrdiff_t n) {
  if (n <= 0) return 0;
  return n >= 64 ? ~__mmask64{0} : (__mmask64{1} << n) - 1;
}

inline __m128i ReverseBytes(__m128i v) {
  return _mm_shuffle_epi8(
      v, _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
}

/// ReverseBytes on each of the four blocks.
inline __m512i ReverseBytes512(__m512i v) {
  return _mm512_shuffle_epi8(
      v, Broadcast(_mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                13, 14, 15)));
}

/// The encryption schedule, each round key in all four lanes.
inline void BroadcastRoundKeys(const uint8_t* round_keys, int rounds,
                               __m512i keys[15]) {
  for (int r = 0; r <= rounds; ++r) {
    keys[r] = Broadcast(Load(round_keys + 16 * r));
  }
}

inline __m128i EncryptOne(__m128i block, const __m512i* keys, int rounds) {
  block = _mm_xor_si128(block, _mm512_castsi512_si128(keys[0]));
  for (int r = 1; r < rounds; ++r) {
    block = _mm_aesenc_si128(block, _mm512_castsi512_si128(keys[r]));
  }
  return _mm_aesenclast_si128(block, _mm512_castsi512_si128(keys[rounds]));
}

// ---------------------------------------------------------------------------
// GHASH. The 128-bit product and reduction are kernels_x86.cc's (Gueron &
// Kounavis, Algorithm 5), repeated here because this file may not share
// a header with it.
// ---------------------------------------------------------------------------

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

/// Four lanes of unreduced product sums; folded into one Clmul256 before
/// the single reduction (the reduction is linear).
struct Clmul512 {
  __m512i lo = _mm512_setzero_si512();
  __m512i mid = _mm512_setzero_si512();
  __m512i hi = _mm512_setzero_si512();
};

/// acc += a * b, lane by lane.
inline void ClmulAdd512(__m512i a, __m512i b, Clmul512* acc) {
  acc->lo = _mm512_xor_si512(acc->lo, _mm512_clmulepi64_epi128(a, b, 0x00));
  acc->hi = _mm512_xor_si512(acc->hi, _mm512_clmulepi64_epi128(a, b, 0x11));
  acc->mid = _mm512_ternarylogic_epi64(  // 0x96: three-way XOR
      acc->mid, _mm512_clmulepi64_epi128(a, b, 0x01),
      _mm512_clmulepi64_epi128(a, b, 0x10), 0x96);
}

/// XOR of the four lanes.
inline __m128i FoldLanes(__m512i v) {
  const __m256i half = _mm256_xor_si256(_mm512_castsi512_si256(v),
                                        _mm512_extracti64x4_epi64(v, 1));
  return _mm_xor_si128(_mm256_castsi256_si128(half),
                       _mm256_extracti128_si256(half, 1));
}

inline __m128i GhashReduce512(const Clmul512& acc) {
  Clmul256 folded;
  folded.lo = FoldLanes(acc.lo);
  folded.mid = FoldLanes(acc.mid);
  folded.hi = FoldLanes(acc.hi);
  return GhashReduce(folded);
}

/// hz[j] lane l = H^(16 - 4j - l): the power block 4j + l of a 16-block
/// iteration is multiplied by. `h_table` holds H^1..H^16 ascending, so
/// each register is four consecutive entries with their lanes reversed.
inline void LoadHashPowers(const uint8_t* h_table, __m512i hz[4]) {
  for (int j = 0; j < 4; ++j) {
    const __m512i ascending = Load512(h_table + 16 * (12 - 4 * j));
    hz[j] = _mm512_shuffle_i64x2(ascending, ascending, 0x1B);
  }
}

/// Folds the 1..255 bytes at data[0..len), zero-padded to n whole
/// blocks, into y: (y ^ X1)*H^n ^ X2*H^(n-1) ^ ... ^ Xn*H^1.
__m128i GhashTail(const uint8_t* h_table, const uint8_t* data, size_t len,
                  __m128i y) {
  const size_t n = (len + 15) / 16;
  Clmul256 acc;
  for (size_t i = 0; i < n; ++i) {
    const size_t left = len - 16 * i;
    const __mmask16 mask =
        left >= 16 ? __mmask16{0xFFFF}
                   : static_cast<__mmask16>((1u << left) - 1);
    __m128i block = ReverseBytes(_mm_maskz_loadu_epi8(mask, data + 16 * i));
    if (i == 0) block = _mm_xor_si128(block, y);
    ClmulAdd(block, Load(h_table + 16 * (n - 1 - i)), &acc);
  }
  return GhashReduce(acc);
}

/// Folds data[0..len), zero-padded to whole blocks, into y.
__m128i GhashBlocks(const uint8_t* h_table, const __m512i hz[4],
                    const uint8_t* data, size_t len, __m128i y) {
  size_t off = 0;
  while (len - off >= kChunk) {
    Clmul512 acc;
#pragma GCC unroll 4
    for (int j = 0; j < 4; ++j) {
      __m512i x = ReverseBytes512(Load512(data + off + 64 * j));
      if (j == 0) x = _mm512_xor_si512(x, _mm512_zextsi128_si512(y));
      ClmulAdd512(x, hz[j], &acc);
    }
    y = GhashReduce512(acc);
    off += kChunk;
  }
  if (off < len) y = GhashTail(h_table, data + off, len - off, y);
  return y;
}

/// The counter block nonce || u32 BE 1 (J0).
inline __m128i GcmJ0(const uint8_t nonce[12]) {
  uint8_t j0[16] = {};
  std::memcpy(j0, nonce, 12);
  j0[15] = 1;
  return Load(j0);
}

/// tag = E_K(J0) ^ GHASH, after folding in the lengths block (see
/// kernels_x86.cc).
inline __m128i GcmFinish(__m128i y, __m128i h1, __m128i ek_j0,
                         size_t ad_len, size_t len) {
  const __m128i lengths = _mm_set_epi64x(
      static_cast<long long>(uint64_t{ad_len} * 8),
      static_cast<long long>(uint64_t{len} * 8));
  y = GhashMul(_mm_xor_si128(y, lengths), h1);
  return _mm_xor_si128(ReverseBytes(y), ek_j0);
}

// ---------------------------------------------------------------------------
// GCM counters. Each lane holds one counter block byte-reversed, so its
// low 32 bits are the lane's first u32 and _mm512_add_epi32 is GCM's
// inc32 in every lane at once. `ctr` holds counters c..c+3; one 16-block
// step uses ctr, ctr+4, ctr+8 and ctr+12 and advances ctr by 16.
// ---------------------------------------------------------------------------

/// Counters 2..5 (the payload's first four), from J0.
inline __m512i FirstPayloadCounters(__m128i j0) {
  return _mm512_add_epi32(Broadcast(ReverseBytes(j0)),
                          _mm512_set_epi32(0, 0, 0, 4, 0, 0, 0, 3, 0, 0, 0,
                                           2, 0, 0, 0, 1));
}

inline __m512i CounterStep(int blocks) {
  return _mm512_set_epi32(0, 0, 0, blocks, 0, 0, 0, blocks, 0, 0, 0, blocks,
                          0, 0, 0, blocks);
}

/// Whitened counter blocks for the next 16 blocks.
inline void StartCounters(const __m512i* keys, __m512i* ctr,
                          __m512i blocks[4]) {
  const __m512i four = CounterStep(4);
#pragma GCC unroll 4
  for (int b = 0; b < 4; ++b) {
    blocks[b] = _mm512_xor_si512(ReverseBytes512(*ctr), keys[0]);
    *ctr = _mm512_add_epi32(*ctr, four);
  }
}

/// The remaining AES rounds of StartCounters' blocks, from round `first`.
inline void FinishRounds(const __m512i* keys, int rounds, int first,
                         __m512i blocks[4]) {
  for (int r = first; r < rounds; ++r) {
#pragma GCC unroll 4
    for (int b = 0; b < 4; ++b) {
      blocks[b] = _mm512_aesenc_epi128(blocks[b], keys[r]);
    }
  }
#pragma GCC unroll 4
  for (int b = 0; b < 4; ++b) {
    blocks[b] = _mm512_aesenclast_epi128(blocks[b], keys[rounds]);
  }
}

/// out[0..len) = in[0..len) ^ the next 16 keystream blocks, for
/// 0 < len <= 256, through byte masks (all ones in a full step). `ct`
/// (may be null) receives the output zero-padded to 256 bytes.
inline void CtrXorStep(const __m512i* keys, int rounds, __m512i* ctr,
                       const uint8_t* in, uint8_t* out, size_t len,
                       uint8_t* ct) {
  __m512i blocks[4];
  StartCounters(keys, ctr, blocks);
  FinishRounds(keys, rounds, 1, blocks);
#pragma GCC unroll 4
  for (int b = 0; b < 4; ++b) {
    const __mmask64 mask = ByteMask(static_cast<ptrdiff_t>(len) - 64 * b);
    const __m512i masked = _mm512_maskz_mov_epi8(
        mask, _mm512_xor_si512(_mm512_maskz_loadu_epi8(mask, in + 64 * b),
                               blocks[b]));
    _mm512_mask_storeu_epi8(out + 64 * b, mask, masked);
    if (ct != nullptr) Store512(ct + 64 * b, masked);
  }
}

}  // namespace

void VaesGcmSeal(const uint8_t* round_keys, int rounds,
                 const uint8_t* h_table, const uint8_t nonce[12],
                 const uint8_t* ad, size_t ad_len, const uint8_t* in,
                 uint8_t* out, size_t len, uint8_t tag[16]) {
  __m512i keys[15];
  BroadcastRoundKeys(round_keys, rounds, keys);
  __m512i hz[4];
  LoadHashPowers(h_table, hz);
  const __m128i j0 = GcmJ0(nonce);
  const __m128i ek_j0 = EncryptOne(j0, keys, rounds);
  __m512i ctr = FirstPayloadCounters(j0);

  __m128i y = GhashBlocks(h_table, hz, ad, ad_len, _mm_setzero_si128());
  size_t off = 0;
  // One pass, stitched as in AesNiGcmSeal: while 16 counter blocks go
  // through the AES rounds, the previous step's 16 ciphertext blocks
  // (`pending`, byte-reflected, the running hash folded into lane 0 of
  // the first) are multiplied by H^16..H^1, one register per round in
  // rounds 1-4.
  __m512i pending[4] = {_mm512_setzero_si512(), _mm512_setzero_si512(),
                        _mm512_setzero_si512(), _mm512_setzero_si512()};
  while (len - off >= kChunk) {
    __m512i blocks[4];
    StartCounters(keys, &ctr, blocks);
    Clmul512 acc;
#pragma GCC unroll 4
    for (int r = 1; r <= 4; ++r) {
#pragma GCC unroll 4
      for (int b = 0; b < 4; ++b) {
        blocks[b] = _mm512_aesenc_epi128(blocks[b], keys[r]);
      }
      ClmulAdd512(pending[r - 1], hz[r - 1], &acc);
    }
    FinishRounds(keys, rounds, 5, blocks);
    // The first step had nothing pending: its products are discarded.
    if (off > 0) y = GhashReduce512(acc);
#pragma GCC unroll 4
    for (int b = 0; b < 4; ++b) {
      const __m512i ct =
          _mm512_xor_si512(Load512(in + off + 64 * b), blocks[b]);
      Store512(out + off + 64 * b, ct);
      pending[b] = ReverseBytes512(ct);
    }
    pending[0] = _mm512_xor_si512(pending[0], _mm512_zextsi128_si512(y));
    off += kChunk;
  }
  if (off > 0) {
    Clmul512 acc;
#pragma GCC unroll 4
    for (int b = 0; b < 4; ++b) ClmulAdd512(pending[b], hz[b], &acc);
    y = GhashReduce512(acc);
  }
  if (off < len) {
    alignas(64) uint8_t ct[kChunk];
    CtrXorStep(keys, rounds, &ctr, in + off, out + off, len - off, ct);
    y = GhashTail(h_table, ct, len - off, y);
  }
  Store(tag, GcmFinish(y, Load(h_table), ek_j0, ad_len, len));
}

bool VaesGcmOpen(const uint8_t* round_keys, int rounds,
                 const uint8_t* h_table, const uint8_t nonce[12],
                 const uint8_t* ad, size_t ad_len, const uint8_t* in,
                 size_t len, const uint8_t tag[16], uint8_t* out) {
  __m512i keys[15];
  BroadcastRoundKeys(round_keys, rounds, keys);
  __m512i hz[4];
  LoadHashPowers(h_table, hz);
  const __m128i j0 = GcmJ0(nonce);
  // Authenticate first, over the ciphertext where it lies; nothing is
  // written before the tag has been compared (PTEST over the XOR: no
  // data-dependent branch until the one verdict).
  __m128i y = GhashBlocks(h_table, hz, ad, ad_len, _mm_setzero_si128());
  y = GhashBlocks(h_table, hz, in, len, y);
  const __m128i diff = _mm_xor_si128(
      GcmFinish(y, Load(h_table), EncryptOne(j0, keys, rounds), ad_len,
                len),
      Load(tag));
  if (!_mm_testz_si128(diff, diff)) return false;
  // Then decrypt: 16 blocks per step, every load of a step before its
  // stores, so in == out is safe.
  __m512i ctr = FirstPayloadCounters(j0);
  for (size_t off = 0; off < len; off += kChunk) {
    CtrXorStep(keys, rounds, &ctr, in + off, out + off,
               len - off < kChunk ? len - off : kChunk, nullptr);
  }
  return true;
}

void VaesCbcDecrypt(const uint8_t* round_keys, int rounds,
                    const uint8_t iv[16], const uint8_t* in, uint8_t* out,
                    size_t len) {
  // The equivalent inverse cipher schedule, as in AesNiCbcDecrypt.
  __m512i keys[15];
  keys[0] = Broadcast(Load(round_keys + 16 * rounds));
  for (int r = 1; r < rounds; ++r) {
    keys[r] =
        Broadcast(_mm_aesimc_si128(Load(round_keys + 16 * (rounds - r))));
  }
  keys[rounds] = Broadcast(Load(round_keys));

  // Lane 3 of `chain` is the ciphertext block before the next step's
  // first (the IV to start with). Block i's plaintext is its decryption
  // XOR ciphertext block i - 1: for register b that is the ciphertext
  // shifted up one lane, with lane 3 of the register before it moving in
  // (VALIGNQ by six quadwords).
  __m512i chain = Broadcast(Load(iv));
  // 16 blocks per step through byte masks (all ones in a full step, the
  // last 1-15 blocks otherwise). All four ciphertext registers are loaded
  // before any store, so in == out is safe.
  for (size_t off = 0; off < len; off += kChunk) {
    const ptrdiff_t left = static_cast<ptrdiff_t>(len - off);
    __m512i ct[4], blocks[4];
#pragma GCC unroll 4
    for (int b = 0; b < 4; ++b) {
      ct[b] = _mm512_maskz_loadu_epi8(ByteMask(left - 64 * b),
                                      in + off + 64 * b);
      blocks[b] = _mm512_xor_si512(ct[b], keys[0]);
    }
    for (int r = 1; r < rounds; ++r) {
#pragma GCC unroll 4
      for (int b = 0; b < 4; ++b) {
        blocks[b] = _mm512_aesdec_epi128(blocks[b], keys[r]);
      }
    }
#pragma GCC unroll 4
    for (int b = 0; b < 4; ++b) {
      const __m512i previous =
          _mm512_alignr_epi64(ct[b], b == 0 ? chain : ct[b - 1], 6);
      _mm512_mask_storeu_epi8(
          out + off + 64 * b, ByteMask(left - 64 * b),
          _mm512_xor_si512(_mm512_aesdeclast_epi128(blocks[b], keys[rounds]),
                           previous));
    }
    chain = ct[3];
  }
}

}  // namespace crypto
}  // namespace simcloud

#else  // !x86: the VAES kernels do not exist on this architecture.

namespace simcloud {
namespace crypto {

namespace internal {
extern const bool kVaesKernelCompiled = false;
}  // namespace internal

void VaesGcmSeal(const uint8_t*, int, const uint8_t*, const uint8_t*,
                 const uint8_t*, size_t, const uint8_t*, uint8_t*, size_t,
                 uint8_t*) {}
bool VaesGcmOpen(const uint8_t*, int, const uint8_t*, const uint8_t*,
                 const uint8_t*, size_t, const uint8_t*, size_t,
                 const uint8_t*, uint8_t*) {
  return false;
}
void VaesCbcDecrypt(const uint8_t*, int, const uint8_t*, const uint8_t*,
                    uint8_t*, size_t) {}

}  // namespace crypto
}  // namespace simcloud

#endif
