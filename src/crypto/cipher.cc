#include "crypto/cipher.h"

#include <cstring>

#include "crypto/cpu_features.h"
#include "crypto/kernels.h"
#include "crypto/secure_random.h"

namespace simcloud {
namespace crypto {

namespace {
constexpr size_t kBlock = Aes::kBlockSize;

// The mode kernels below (and Cipher::CtrXor) are routed through AES-NI
// when the dispatcher enabled it, and CBC decryption through the VAES
// tier when that is enabled too. Scalar and hardware kernels are
// bit-identical (cross-checked in tests/crypto_test.cc), so callers never
// observe the difference.

// CBC over whole blocks; `len` is a multiple of kBlock.
void CbcEncrypt(const Aes& aes, const uint8_t iv[kBlock], const uint8_t* in,
                uint8_t* out, size_t len) {
  if (AesAccelerated()) {
    AesNiCbcEncrypt(aes.round_key_bytes(), aes.rounds(), iv, in, out, len);
  } else {
    ScalarAesCbcEncrypt(aes, iv, in, out, len);
  }
}

void CbcDecrypt(const Aes& aes, const uint8_t iv[kBlock], const uint8_t* in,
                uint8_t* out, size_t len) {
  if (VaesAccelerated()) {
    VaesCbcDecrypt(aes.round_key_bytes(), aes.rounds(), iv, in, out, len);
  } else if (AesAccelerated()) {
    AesNiCbcDecrypt(aes.round_key_bytes(), aes.rounds(), iv, in, out, len);
  } else {
    ScalarAesCbcDecrypt(aes, iv, in, out, len);
  }
}
}  // namespace

void Pkcs7Pad(Bytes* data, size_t block_size) {
  const size_t pad = block_size - (data->size() % block_size);
  data->insert(data->end(), pad, static_cast<uint8_t>(pad));
}

Status Pkcs7Unpad(Bytes* data, size_t block_size) {
  const size_t size = data->size();
  if (size == 0 || size % block_size != 0) {
    return Status::Corruption("padded data size not a multiple of block size");
  }
  const uint8_t pad = data->back();
  if (pad == 0 || pad > block_size) {
    return Status::Corruption("invalid PKCS#7 padding byte");
  }
  for (size_t i = size - pad; i < size; ++i) {
    if ((*data)[i] != pad) {
      return Status::Corruption("inconsistent PKCS#7 padding");
    }
  }
  data->resize(size - pad);
  return Status::OK();
}

Result<Cipher> Cipher::Create(const Bytes& key, CipherMode mode) {
  SIMCLOUD_ASSIGN_OR_RETURN(Aes aes, Aes::Create(key));
  return Cipher(std::move(aes), mode);
}

size_t Cipher::CiphertextSize(size_t plaintext_size) const {
  if (mode_ == CipherMode::kCbc) {
    return kBlock + (plaintext_size / kBlock + 1) * kBlock;
  }
  return kBlock + plaintext_size;
}

Result<Bytes> Cipher::Encrypt(const Bytes& plaintext) const {
  Bytes iv(kBlock);
  SIMCLOUD_RETURN_NOT_OK(SecureRandom::Fill(iv.data(), iv.size()));
  return EncryptWithIv(plaintext, iv);
}

Result<Bytes> Cipher::EncryptWithIv(const Bytes& plaintext,
                                    const Bytes& iv) const {
  if (iv.size() != kBlock) {
    return Status::InvalidArgument("IV must be 16 bytes");
  }
  return mode_ == CipherMode::kCbc ? EncryptCbc(plaintext, iv)
                                   : EncryptCtr(plaintext, iv);
}

Result<Bytes> Cipher::Decrypt(const Bytes& ciphertext) const {
  if (ciphertext.size() < kBlock) {
    return Status::Corruption("ciphertext shorter than IV");
  }
  return mode_ == CipherMode::kCbc ? DecryptCbc(ciphertext)
                                   : DecryptCtr(ciphertext);
}

Result<Bytes> Cipher::EncryptCbc(const Bytes& plaintext,
                                 const Bytes& iv) const {
  // iv || plaintext, padded in place (the IV is one whole block, so it
  // does not change the pad length), then the body encrypted in place.
  Bytes out;
  out.reserve(CiphertextSize(plaintext.size()));
  out.insert(out.end(), iv.begin(), iv.end());
  out.insert(out.end(), plaintext.begin(), plaintext.end());
  Pkcs7Pad(&out, kBlock);
  CbcEncrypt(aes_, iv.data(), out.data() + kBlock, out.data() + kBlock,
             out.size() - kBlock);
  return out;
}

Result<Bytes> Cipher::DecryptCbc(const Bytes& ciphertext) const {
  const size_t body = ciphertext.size() - kBlock;
  if (body == 0 || body % kBlock != 0) {
    return Status::Corruption("CBC ciphertext body not block-aligned");
  }
  // One buffer: decrypt into it, then strip the padding in place.
  Bytes plaintext(body);
  CbcDecrypt(aes_, ciphertext.data(), ciphertext.data() + kBlock,
             plaintext.data(), body);
  SIMCLOUD_RETURN_NOT_OK(Pkcs7Unpad(&plaintext, kBlock));
  return plaintext;
}

void Cipher::CtrXor(const uint8_t iv[kBlock], const uint8_t* in,
                    uint8_t* out, size_t len) const {
  if (len == 0) return;
  if (AesAccelerated()) {
    AesNiCtrXor(aes_.round_key_bytes(), aes_.rounds(), iv, in, out, len);
  } else {
    ScalarAesCtrXor(aes_, iv, in, out, len);
  }
}

Result<Bytes> Cipher::EncryptCtr(const Bytes& plaintext,
                                 const Bytes& iv) const {
  Bytes out(kBlock + plaintext.size());
  std::memcpy(out.data(), iv.data(), kBlock);
  CtrXor(iv.data(), plaintext.data(), out.data() + kBlock, plaintext.size());
  return out;
}

Result<Bytes> Cipher::DecryptCtr(const Bytes& ciphertext) const {
  // CTR decryption is encryption of the body under the stored IV.
  Bytes out(ciphertext.size() - kBlock);
  CtrXor(ciphertext.data(), ciphertext.data() + kBlock, out.data(),
         out.size());
  return out;
}

}  // namespace crypto
}  // namespace simcloud
