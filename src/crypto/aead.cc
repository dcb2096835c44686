#include "crypto/aead.h"

#include <cstring>

#include "crypto/hmac.h"
#include "crypto/secure_random.h"

namespace simcloud {
namespace crypto {

namespace {

// Domain-separation labels for subkey derivation. Deriving both subkeys
// from one master key with distinct labels keeps the public API a single
// secret while guaranteeing the AES and MAC keys are independent.
Bytes DeriveSubkey(const Bytes& master_key, const char* label, size_t len) {
  Bytes message(label, label + std::strlen(label));
  Bytes digest = HmacSha256(master_key, message);
  digest.resize(len);
  return digest;
}

}  // namespace

Result<AeadCipher> AeadCipher::Create(const Bytes& master_key) {
  if (master_key.size() != 16 && master_key.size() != 24 &&
      master_key.size() != 32) {
    return Status::InvalidArgument("AEAD master key must be 16/24/32 bytes");
  }
  Bytes enc_key =
      DeriveSubkey(master_key, "simcloud-aead-enc", master_key.size());
  Bytes mac_key = DeriveSubkey(master_key, "simcloud-aead-mac", kTagSize);
  SIMCLOUD_ASSIGN_OR_RETURN(Cipher enc,
                            Cipher::Create(enc_key, CipherMode::kCtr));
  AeadCipher aead(std::move(enc), mac_key);
  WipeBytes(&enc_key);
  WipeBytes(&mac_key);
  return aead;
}

void AeadCipher::ComputeTag(const uint8_t* iv_and_ciphertext, size_t len,
                            const uint8_t* associated_data, size_t ad_len,
                            uint8_t* tag) const {
  // Stream the framed message straight into the MAC — no concat buffer;
  // this runs once per wire record in the secure channel.
  HmacSha256State::Stream mac = mac_state_.NewStream();
  uint8_t ad_len_prefix[8];
  for (int i = 0; i < 8; ++i) {
    ad_len_prefix[i] = static_cast<uint8_t>(uint64_t{ad_len} >> (56 - 8 * i));
  }
  mac.Update(ad_len_prefix, sizeof(ad_len_prefix));
  mac.Update(associated_data, ad_len);
  mac.Update(iv_and_ciphertext, len);
  mac.FinishInto(tag);
}

Status AeadCipher::SealInto(const uint8_t* plaintext, size_t len,
                            const uint8_t* associated_data, size_t ad_len,
                            uint8_t* out) const {
  // The IV is drawn straight into place, then the ciphertext is written
  // behind it and the tag behind that: one pass, one buffer.
  SIMCLOUD_RETURN_NOT_OK(SecureRandom::Fill(out, kIvSize));
  enc_->CtrXor(out, plaintext, out + kIvSize, len);
  ComputeTag(out, kIvSize + len, associated_data, ad_len,
             out + kIvSize + len);
  return Status::OK();
}

Status AeadCipher::OpenInto(const uint8_t* sealed, size_t sealed_len,
                            const uint8_t* associated_data, size_t ad_len,
                            uint8_t* out) const {
  if (sealed_len < kIvSize + kTagSize) {
    return Status::Corruption("sealed buffer too short for iv + tag");
  }
  const size_t body_len = sealed_len - kTagSize;  // iv || ciphertext
  uint8_t expected[kTagSize];
  ComputeTag(sealed, body_len, associated_data, ad_len, expected);
  if (!ConstantTimeEquals(sealed + body_len, expected, kTagSize)) {
    return Status::Corruption("AEAD tag mismatch: payload was tampered with");
  }
  enc_->CtrXor(sealed, sealed + kIvSize, out, body_len - kIvSize);
  return Status::OK();
}

Result<Bytes> AeadCipher::Seal(const Bytes& plaintext,
                               const Bytes& associated_data) const {
  Bytes sealed(SealedSize(plaintext.size()));
  SIMCLOUD_RETURN_NOT_OK(SealInto(plaintext.data(), plaintext.size(),
                                  associated_data.data(),
                                  associated_data.size(), sealed.data()));
  return sealed;
}

Result<Bytes> AeadCipher::Open(const Bytes& sealed,
                               const Bytes& associated_data) const {
  if (sealed.size() < kIvSize + kTagSize) {
    return Status::Corruption("sealed buffer too short for iv + tag");
  }
  Bytes plaintext(sealed.size() - kIvSize - kTagSize);
  SIMCLOUD_RETURN_NOT_OK(OpenInto(sealed.data(), sealed.size(),
                                  associated_data.data(),
                                  associated_data.size(), plaintext.data()));
  return plaintext;
}

}  // namespace crypto
}  // namespace simcloud
