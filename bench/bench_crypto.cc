// Crypto kernel throughput: AES-CTR, AES-CBC (decrypt and encrypt) and
// SHA-256 scalar vs hardware (AES-NI / SHA-NI), plus the dispatched AEAD
// seal/open path every wire record and authenticated payload goes
// through.
//
// Both implementations of each kernel are driven directly (kernels.h
// exposes them independent of the process-wide dispatch), so one run
// prints the scalar baseline and the accelerated speedup side by side.
// Before any timing, the two are cross-checked on random inputs of
// awkward lengths — a benchmark of a wrong kernel is worse than none.
//
// Acceptance gate (the run aborts when violated): when the AES-NI
// kernels are available, accelerated AES-CTR and accelerated AES-CBC
// decryption (the client's per-candidate payload open) must each be
// >= 3x the scalar throughput. On scalar-only boxes (or under
// SIMCLOUD_FORCE_SCALAR_CRYPTO=1 — which only affects the dispatched
// AEAD section here) the gate is skipped and reported as such.
//
// Usage: bench_crypto [--smoke]
//   --smoke  smaller buffers and fewer passes, for CI.

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "common/clock.h"
#include "common/rng.h"
#include "crypto/aead.h"
#include "crypto/aes.h"
#include "crypto/cpu_features.h"
#include "crypto/hmac.h"
#include "crypto/kernels.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"

namespace simcloud {
namespace bench {
namespace {

Bytes RandomBytes(Rng* rng, size_t len) {
  Bytes out(len);
  for (auto& b : out) b = static_cast<uint8_t>(rng->NextBounded(256));
  return out;
}

/// Verifies the hardware kernels agree with the scalar references on
/// random inputs (lengths chosen to hit partial-pipeline tails).
void CrossCheckKernels(const crypto::Aes& aes) {
  Rng rng(2024);
  if (crypto::AesNiKernelAvailable()) {
    for (size_t len : {0u, 1u, 15u, 16u, 17u, 127u, 128u, 129u, 4096u,
                       4097u}) {
      const Bytes input = RandomBytes(&rng, len);
      const Bytes iv = RandomBytes(&rng, 16);
      Bytes scalar(len), accel(len);
      crypto::ScalarAesCtrXor(aes, iv.data(), input.data(), scalar.data(),
                              len);
      crypto::AesNiCtrXor(aes.round_key_bytes(), aes.rounds(), iv.data(),
                          input.data(), accel.data(), len);
      if (scalar != accel) {
        std::fprintf(stderr, "FAIL: AES-NI CTR mismatch at len %zu\n", len);
        std::exit(1);
      }
    }
    for (size_t blocks : {0u, 1u, 7u, 8u, 9u, 17u, 256u}) {
      const size_t len = blocks * 16;
      const Bytes input = RandomBytes(&rng, len);
      const Bytes iv = RandomBytes(&rng, 16);
      Bytes scalar(len), accel(len);
      crypto::ScalarAesCbcEncrypt(aes, iv.data(), input.data(),
                                  scalar.data(), len);
      crypto::AesNiCbcEncrypt(aes.round_key_bytes(), aes.rounds(), iv.data(),
                              input.data(), accel.data(), len);
      bool match = scalar == accel;
      crypto::ScalarAesCbcDecrypt(aes, iv.data(), input.data(),
                                  scalar.data(), len);
      crypto::AesNiCbcDecrypt(aes.round_key_bytes(), aes.rounds(), iv.data(),
                              input.data(), accel.data(), len);
      match = match && scalar == accel;
      if (!match) {
        std::fprintf(stderr, "FAIL: AES-NI CBC mismatch at %zu blocks\n",
                     blocks);
        std::exit(1);
      }
    }
  }
  if (crypto::ShaNiKernelAvailable()) {
    for (size_t blocks : {1u, 2u, 3u, 5u, 64u}) {
      const Bytes input = RandomBytes(&rng, blocks * 64);
      uint32_t scalar_h[8], accel_h[8];
      for (int i = 0; i < 8; ++i) {
        scalar_h[i] = accel_h[i] = 0x6a09e667u + static_cast<uint32_t>(i);
      }
      crypto::ScalarSha256Blocks(scalar_h, input.data(), blocks);
      crypto::ShaNiSha256Blocks(accel_h, input.data(), blocks);
      if (std::memcmp(scalar_h, accel_h, sizeof(scalar_h)) != 0) {
        std::fprintf(stderr, "FAIL: SHA-NI mismatch at %zu blocks\n",
                     blocks);
        std::exit(1);
      }
    }
  }
}

/// One row of the kernel table; `accel` < 0 means no hardware kernel.
void PrintRow(const char* kernel, double scalar, double accel) {
  if (accel < 0) {
    std::printf("%-22s %12.1f %12s %9s\n", kernel, scalar, "-", "-");
  } else {
    std::printf("%-22s %12.1f %12.1f %8.1fx\n", kernel, scalar, accel,
                accel / scalar);
  }
}

/// Runs `fn` over `bytes_per_pass` until ~`min_seconds` elapse and
/// returns MB/s (decimal megabytes, the convention of the tables).
template <typename Fn>
double MeasureMbps(size_t bytes_per_pass, double min_seconds, Fn&& fn) {
  // Warm-up pass, then timed passes.
  fn();
  Stopwatch watch;
  size_t passes = 0;
  do {
    fn();
    passes++;
  } while (watch.ElapsedSeconds() < min_seconds);
  return static_cast<double>(passes) * bytes_per_pass /
         watch.ElapsedSeconds() / 1e6;
}

void Run(bool smoke) {
  const size_t buf_len = smoke ? (1u << 18) : (1u << 22);  // 256 KiB / 4 MiB
  const double min_seconds = smoke ? 0.05 : 0.5;

  Rng rng(7);
  const Bytes key = RandomBytes(&rng, 16);
  const Bytes iv = RandomBytes(&rng, 16);
  auto aes = crypto::Aes::Create(key);
  if (!aes.ok()) std::exit(1);

  CrossCheckKernels(*aes);

  const auto& features = crypto::GetCpuFeatures();
  std::printf("%s\n",
              obs::RuntimeBanner(
                  "bench_crypto",
                  "raw aes-ni=" + std::to_string(features.raw_aes_ni) +
                      " sha-ni=" + std::to_string(features.raw_sha_ni) +
                      ", buffer " + std::to_string(buf_len / 1024) + " KiB")
                  .c_str());
  std::printf("%-22s %12s %12s %9s\n", "kernel", "scalar MB/s", "accel MB/s",
              "speedup");

  Bytes buffer = RandomBytes(&rng, buf_len);
  Bytes out(buf_len);

  // ------------------------------------------------------------ AES-CTR
  const double ctr_scalar = MeasureMbps(buf_len, min_seconds, [&] {
    crypto::ScalarAesCtrXor(*aes, iv.data(), buffer.data(), out.data(),
                            buf_len);
  });
  double ctr_accel = -1;
  if (crypto::AesNiKernelAvailable()) {
    ctr_accel = MeasureMbps(buf_len, min_seconds, [&] {
      crypto::AesNiCtrXor(aes->round_key_bytes(), aes->rounds(), iv.data(),
                          buffer.data(), out.data(), buf_len);
    });
  }
  PrintRow("aes-128-ctr", ctr_scalar, ctr_accel);

  // ------------------------------------------------------------ AES-CBC
  // The buffer is a whole number of blocks; padding is cipher.cc's job.
  const double cbc_dec_scalar = MeasureMbps(buf_len, min_seconds, [&] {
    crypto::ScalarAesCbcDecrypt(*aes, iv.data(), buffer.data(), out.data(),
                                buf_len);
  });
  double cbc_dec_accel = -1;
  if (crypto::AesNiKernelAvailable()) {
    cbc_dec_accel = MeasureMbps(buf_len, min_seconds, [&] {
      crypto::AesNiCbcDecrypt(aes->round_key_bytes(), aes->rounds(),
                              iv.data(), buffer.data(), out.data(), buf_len);
    });
  }
  PrintRow("aes-128-cbc-dec", cbc_dec_scalar, cbc_dec_accel);

  const double cbc_enc_scalar = MeasureMbps(buf_len, min_seconds, [&] {
    crypto::ScalarAesCbcEncrypt(*aes, iv.data(), buffer.data(), out.data(),
                                buf_len);
  });
  double cbc_enc_accel = -1;
  if (crypto::AesNiKernelAvailable()) {
    cbc_enc_accel = MeasureMbps(buf_len, min_seconds, [&] {
      crypto::AesNiCbcEncrypt(aes->round_key_bytes(), aes->rounds(),
                              iv.data(), buffer.data(), out.data(), buf_len);
    });
  }
  PrintRow("aes-128-cbc-enc", cbc_enc_scalar, cbc_enc_accel);

  // ------------------------------------------------------------ SHA-256
  uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                   0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const size_t sha_blocks = buf_len / 64;
  const double sha_scalar = MeasureMbps(sha_blocks * 64, min_seconds, [&] {
    crypto::ScalarSha256Blocks(h, buffer.data(), sha_blocks);
  });
  double sha_accel = -1;
  if (crypto::ShaNiKernelAvailable()) {
    sha_accel = MeasureMbps(sha_blocks * 64, min_seconds, [&] {
      crypto::ShaNiSha256Blocks(h, buffer.data(), sha_blocks);
    });
  }
  PrintRow("sha-256", sha_scalar, sha_accel);

  // ----------------------------------- dispatched HMAC + AEAD seal/open
  // These run on whatever backend the process-wide dispatch picked
  // (honouring SIMCLOUD_FORCE_SCALAR_CRYPTO) — the throughput the record
  // layer and payload encryption actually see.
  const crypto::HmacSha256State hmac(key);
  const double hmac_mbps = MeasureMbps(buf_len, min_seconds, [&] {
    hmac.Mac(buffer);
  });
  auto aead = crypto::AeadCipher::Create(key);
  if (!aead.ok()) std::exit(1);
  Bytes sealed;
  const double seal_mbps = MeasureMbps(buf_len, min_seconds, [&] {
    auto result = aead->Seal(buffer);
    if (!result.ok()) std::exit(1);
    sealed = std::move(*result);
  });
  const double open_mbps = MeasureMbps(buf_len, min_seconds, [&] {
    if (!aead->Open(sealed).ok()) std::exit(1);
  });
  std::printf("dispatched (%s):\n", crypto::CryptoBackendSummary().c_str());
  std::printf("%-22s %12.1f MB/s\n", "hmac-sha256", hmac_mbps);
  std::printf("%-22s %12.1f MB/s\n", "aead seal", seal_mbps);
  std::printf("%-22s %12.1f MB/s\n", "aead open", open_mbps);

  // ---------------------------------------------------- acceptance gate
  if (crypto::AesNiKernelAvailable()) {
    const double ctr_speedup = ctr_accel / ctr_scalar;
    const double cbc_speedup = cbc_dec_accel / cbc_dec_scalar;
    for (const auto& [kernel, speedup] :
         {std::pair{"CTR", ctr_speedup}, std::pair{"CBC decrypt", cbc_speedup}}) {
      if (speedup < 3.0) {
        std::fprintf(stderr,
                     "FAIL: AES-NI %s is %.2fx the scalar kernel "
                     "(acceptance gate: >= 3x)\n",
                     kernel, speedup);
        std::exit(1);
      }
    }
    std::printf("bench_crypto OK (aes-ctr %.1fx, aes-cbc-dec %.1fx >= 3x%s)\n",
                ctr_speedup, cbc_speedup,
                crypto::ShaNiKernelAvailable()
                    ? ", sha-ni cross-checked"
                    : "");
  } else {
    std::printf("bench_crypto OK (scalar only — AES-NI gate skipped)\n");
  }
}

}  // namespace
}  // namespace bench
}  // namespace simcloud

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  simcloud::bench::Run(smoke);
  return 0;
}
