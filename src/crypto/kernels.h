// Hot crypto kernels behind the runtime dispatcher (cpu_features.h).
//
// Each primitive exists twice: a scalar reference (implemented next to
// the primitive it accelerates, in aes.cc / sha256.cc, and validated by
// the FIPS/NIST vectors in tests/crypto_test.cc) and an x86 hardware
// kernel (kernels_x86.cc, compiled with -maes/-msha for THAT file only
// and gated by cpuid at runtime). Both are exposed here so the tests
// can cross-check them on random inputs whenever the hardware kernel is
// available, independent of what the process-wide dispatch selected.
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
// Set by kernels_x86.cc: whether the hardware kernels were compiled for
// this architecture at all. cpuid (cpu_features.cc) decides the rest.
extern const bool kAesNiKernelCompiled;
extern const bool kShaNiKernelCompiled;
}  // namespace internal

}  // namespace crypto
}  // namespace simcloud

#endif  // SIMCLOUD_CRYPTO_KERNELS_H_
