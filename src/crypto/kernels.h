// Hot crypto kernels behind the runtime dispatcher (cpu_features.h).
//
// Each primitive exists at least twice: a scalar reference (implemented
// next to the primitive it accelerates, in aes.cc / gcm.cc / sha256.cc,
// and validated by the FIPS/NIST vectors in tests/crypto_test.cc) and an
// x86 hardware kernel (kernels_x86.cc, compiled with -maes/-mpclmul/-msha
// for THAT file only and gated by cpuid at runtime). AES-GCM and AES-CBC
// decryption have a third, 512-bit VAES tier (kernels_vaes.cc, compiled
// with AVX-512 flags for that file only). All are exposed here so the
// tests can cross-check them on random inputs whenever the hardware
// kernel is available, independent of what the process-wide dispatch
// selected.
//
// Adding a kernel: implement the scalar reference first, land vectors
// for it, then add the hardware twin here plus a cross-check test —
// see src/crypto/README.md for the full checklist.

#ifndef SIMCLOUD_CRYPTO_KERNELS_H_
#define SIMCLOUD_CRYPTO_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace simcloud {
namespace crypto {

class Aes;

// ---------------------------------------------------------------------------
// AES-CTR keystream XOR: out[i] = in[i] ^ AES-CTR keystream under `iv`.
// The counter convention matches cipher.cc: the full 16-byte IV is the
// first counter block and the rightmost 8 bytes increment big-endian
// per block (NIST SP 800-38A style). in == out is allowed.
// ---------------------------------------------------------------------------

/// Scalar reference: one EncryptBlock per 16-byte block.
void ScalarAesCtrXor(const Aes& aes, const uint8_t iv[16], const uint8_t* in,
                     uint8_t* out, size_t len);

/// True when the AES-NI kernel is compiled in AND the CPU supports it
/// (raw capability — the SIMCLOUD_FORCE_SCALAR_CRYPTO override lives in
/// cpu_features.h, not here).
bool AesNiKernelAvailable();

/// AES-NI kernel, 8-block pipelined. `round_keys` holds the byte-order
/// encryption key schedule (Aes::ExportRoundKeyBytes), `rounds` is
/// 10/12/14. Must only be called when AesNiKernelAvailable().
void AesNiCtrXor(const uint8_t* round_keys, int rounds, const uint8_t iv[16],
                 const uint8_t* in, uint8_t* out, size_t len);

// ---------------------------------------------------------------------------
// AES-CBC over whole blocks: `len` is a multiple of 16 and padding is the
// caller's business (cipher.cc). `iv` is the chaining value for the first
// block. in == out is allowed.
// ---------------------------------------------------------------------------

/// Scalar reference: one chained EncryptBlock per block.
void ScalarAesCbcEncrypt(const Aes& aes, const uint8_t iv[16],
                         const uint8_t* in, uint8_t* out, size_t len);

/// Scalar reference: one DecryptBlock per block.
void ScalarAesCbcDecrypt(const Aes& aes, const uint8_t iv[16],
                         const uint8_t* in, uint8_t* out, size_t len);

/// AES-NI CBC encryption, one block at a time (each block's input is the
/// previous block's output, so there is nothing to pipeline). Arguments
/// as for AesNiCtrXor.
void AesNiCbcEncrypt(const uint8_t* round_keys, int rounds,
                     const uint8_t iv[16], const uint8_t* in, uint8_t* out,
                     size_t len);

/// AES-NI CBC decryption, 8-block pipelined (the block decryptions are
/// independent). `round_keys` is the ENCRYPTION schedule; the kernel
/// derives the equivalent-inverse-cipher schedule with AESIMC.
void AesNiCbcDecrypt(const uint8_t* round_keys, int rounds,
                     const uint8_t iv[16], const uint8_t* in, uint8_t* out,
                     size_t len);

// ---------------------------------------------------------------------------
// AES-GCM (NIST SP 800-38D), 12-byte nonce, 16-byte tag. The payload is
// CTR-encrypted from counter block nonce || u32 BE 2 and the tag is
// E_K(nonce || u32 BE 1) ^ GHASH_H(ad, ciphertext). Open verifies the
// tag over in[0..len) in constant time and only then decrypts; on a
// mismatch it returns false and writes nothing. in == out is allowed.
// Callers keep len <= AesGcm::kMaxPlaintextBytes (gcm.h), so the 32-bit
// block counter never wraps.
// ---------------------------------------------------------------------------

/// Scalar reference: SP 800-38D Algorithm 1 (bitwise GHASH under
/// h = E_K(0^128)) over ScalarAesCtrXor.
void ScalarGcmSeal(const Aes& aes, const uint8_t h[16],
                   const uint8_t nonce[12], const uint8_t* ad, size_t ad_len,
                   const uint8_t* in, uint8_t* out, size_t len,
                   uint8_t tag[16]);
bool ScalarGcmOpen(const Aes& aes, const uint8_t h[16],
                   const uint8_t nonce[12], const uint8_t* ad, size_t ad_len,
                   const uint8_t* in, size_t len, const uint8_t tag[16],
                   uint8_t* out);

/// True when the PCLMULQDQ GHASH kernel is compiled in AND the CPU
/// supports it. The GCM kernel needs this AND AesNiKernelAvailable().
bool PclmulKernelAvailable();

/// Hash powers in a GCM kernel table: the VAES kernels aggregate 16
/// blocks per reduction, the AES-NI kernels read the first 8.
constexpr size_t kGcmHashPowers = 16;
constexpr size_t kGcmHashTableBytes = kGcmHashPowers * 16;

/// Fills h_table[0..kGcmHashTableBytes) with H^1..H^16 (h = E_K(0^128))
/// in the kernels' representation, shared by the AES-NI and VAES tiers.
/// Must only be called when PclmulKernelAvailable().
void AesNiGcmInit(const uint8_t h[16], uint8_t h_table[kGcmHashTableBytes]);

/// AES-NI + PCLMULQDQ kernels: 8-block CTR batches folded into an
/// 8-block-aggregated GHASH. `round_keys`/`rounds` as for AesNiCtrXor,
/// `h_table` from AesNiGcmInit. Must only be called when both
/// AesNiKernelAvailable() and PclmulKernelAvailable().
void AesNiGcmSeal(const uint8_t* round_keys, int rounds,
                  const uint8_t* h_table, const uint8_t nonce[12],
                  const uint8_t* ad, size_t ad_len, const uint8_t* in,
                  uint8_t* out, size_t len, uint8_t tag[16]);
bool AesNiGcmOpen(const uint8_t* round_keys, int rounds,
                  const uint8_t* h_table, const uint8_t nonce[12],
                  const uint8_t* ad, size_t ad_len, const uint8_t* in,
                  size_t len, const uint8_t tag[16], uint8_t* out);

// ---------------------------------------------------------------------------
// The VAES tier (kernels_vaes.cc): 512-bit VAES + VPCLMULQDQ, four AES
// blocks per instruction and 16 blocks per step. Same contracts, byte
// for byte, as the AES-NI kernels above; `round_keys`/`rounds` as for
// AesNiCtrXor and `h_table` from AesNiGcmInit.
// ---------------------------------------------------------------------------

/// True when kernels_vaes.cc is compiled in AND the CPU has VAES,
/// VPCLMULQDQ, AVX512F/BW/VL, AES-NI and PCLMULQDQ AND the OS saves the
/// ZMM state (OSXSAVE, XCR0 bits 1, 2, 5, 6 and 7). Raw capability, as
/// for the probes above.
bool VaesKernelAvailable();

/// Seal: 16 counter blocks per step stitched with the 16-block GHASH of
/// the previous step's ciphertext, one reduction per 16 blocks.
void VaesGcmSeal(const uint8_t* round_keys, int rounds,
                 const uint8_t* h_table, const uint8_t nonce[12],
                 const uint8_t* ad, size_t ad_len, const uint8_t* in,
                 uint8_t* out, size_t len, uint8_t tag[16]);
/// Open: 16-block GHASH, the constant-time tag compare, then a 16-block
/// CTR pass; nothing is written unless the tag matches.
bool VaesGcmOpen(const uint8_t* round_keys, int rounds,
                 const uint8_t* h_table, const uint8_t nonce[12],
                 const uint8_t* ad, size_t ad_len, const uint8_t* in,
                 size_t len, const uint8_t tag[16], uint8_t* out);
/// CBC decryption, 16 blocks per step. in == out is allowed.
void VaesCbcDecrypt(const uint8_t* round_keys, int rounds,
                    const uint8_t iv[16], const uint8_t* in, uint8_t* out,
                    size_t len);

// ---------------------------------------------------------------------------
// SHA-256 block compression: absorbs `blocks` 64-byte blocks into the
// running state h[8] (FIPS-180-4 working variables, host byte order).
// ---------------------------------------------------------------------------

/// Scalar reference compression loop.
void ScalarSha256Blocks(uint32_t h[8], const uint8_t* data, size_t blocks);

/// True when the SHA-NI kernel is compiled in AND the CPU supports it.
bool ShaNiKernelAvailable();

/// SHA-NI kernel. Must only be called when ShaNiKernelAvailable().
void ShaNiSha256Blocks(uint32_t h[8], const uint8_t* data, size_t blocks);

namespace internal {
// Set by kernels_x86.cc and kernels_vaes.cc: whether the hardware
// kernels were compiled for this architecture at all. cpuid
// (cpu_features.cc) decides the rest.
extern const bool kAesNiKernelCompiled;
extern const bool kShaNiKernelCompiled;
extern const bool kPclmulKernelCompiled;
extern const bool kVaesKernelCompiled;
}  // namespace internal

}  // namespace crypto
}  // namespace simcloud

#endif  // SIMCLOUD_CRYPTO_KERNELS_H_
