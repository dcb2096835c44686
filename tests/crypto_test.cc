// Crypto substrate tests: AES against FIPS-197 / NIST SP 800-38A known
// answers, SHA-256 and HMAC-SHA256 against FIPS/RFC vectors, PBKDF2
// against published vectors, plus round-trip and tamper-detection
// property tests for the Cipher wrapper and scalar-vs-hardware
// cross-checks of the accelerated kernels.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <new>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/aead.h"
#include "crypto/aes.h"
#include "crypto/cipher.h"
#include "crypto/cpu_features.h"
#include "crypto/gcm.h"
#include "crypto/hmac.h"
#include "crypto/kernels.h"
#include "crypto/secure_random.h"
#include "crypto/sha256.h"

namespace simcloud {
namespace crypto {
namespace {

Bytes Hex(const std::string& h) {
  auto r = FromHex(h);
  EXPECT_TRUE(r.ok()) << h;
  return r.value_or(Bytes{});
}

// ---------------------------------------------------------------- AES KATs

TEST(AesTest, Fips197Appendix_Aes128) {
  // FIPS-197 Appendix C.1.
  auto aes = Aes::Create(Hex("000102030405060708090a0b0c0d0e0f"));
  ASSERT_TRUE(aes.ok());
  const Bytes plaintext = Hex("00112233445566778899aabbccddeeff");
  uint8_t out[16];
  aes->EncryptBlock(plaintext.data(), out);
  EXPECT_EQ(ToHex(out, 16), "69c4e0d86a7b0430d8cdb78070b4c55a");

  uint8_t back[16];
  aes->DecryptBlock(out, back);
  EXPECT_EQ(ToHex(back, 16), "00112233445566778899aabbccddeeff");
}

TEST(AesTest, Fips197Appendix_Aes192) {
  // FIPS-197 Appendix C.2.
  auto aes =
      Aes::Create(Hex("000102030405060708090a0b0c0d0e0f1011121314151617"));
  ASSERT_TRUE(aes.ok());
  EXPECT_EQ(aes->rounds(), 12);
  const Bytes plaintext = Hex("00112233445566778899aabbccddeeff");
  uint8_t out[16];
  aes->EncryptBlock(plaintext.data(), out);
  EXPECT_EQ(ToHex(out, 16), "dda97ca4864cdfe06eaf70a0ec0d7191");
}

TEST(AesTest, Fips197Appendix_Aes256) {
  // FIPS-197 Appendix C.3.
  auto aes = Aes::Create(Hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"));
  ASSERT_TRUE(aes.ok());
  EXPECT_EQ(aes->rounds(), 14);
  const Bytes plaintext = Hex("00112233445566778899aabbccddeeff");
  uint8_t out[16];
  aes->EncryptBlock(plaintext.data(), out);
  EXPECT_EQ(ToHex(out, 16), "8ea2b7ca516745bfeafc49904b496089");
}

TEST(AesTest, Sp800_38a_Ecb128Vectors) {
  // NIST SP 800-38A F.1.1 (ECB-AES128) block 1 and 2.
  auto aes = Aes::Create(Hex("2b7e151628aed2a6abf7158809cf4f3c"));
  ASSERT_TRUE(aes.ok());
  uint8_t out[16];
  aes->EncryptBlock(Hex("6bc1bee22e409f96e93d7e117393172a").data(), out);
  EXPECT_EQ(ToHex(out, 16), "3ad77bb40d7a3660a89ecaf32466ef97");
  aes->EncryptBlock(Hex("ae2d8a571e03ac9c9eb76fac45af8e51").data(), out);
  EXPECT_EQ(ToHex(out, 16), "f5d3d58503b9699de785895a96fdbaaf");
}

TEST(AesTest, RejectsBadKeySizes) {
  EXPECT_FALSE(Aes::Create(Bytes(15)).ok());
  EXPECT_FALSE(Aes::Create(Bytes(17)).ok());
  EXPECT_FALSE(Aes::Create(Bytes(0)).ok());
  EXPECT_TRUE(Aes::Create(Bytes(16)).ok());
  EXPECT_TRUE(Aes::Create(Bytes(24)).ok());
  EXPECT_TRUE(Aes::Create(Bytes(32)).ok());
}

TEST(AesTest, EncryptDecryptAllKeySizes) {
  Rng rng(100);
  for (size_t key_len : {16u, 24u, 32u}) {
    Bytes key(key_len);
    for (auto& b : key) b = static_cast<uint8_t>(rng.NextBounded(256));
    auto aes = Aes::Create(key);
    ASSERT_TRUE(aes.ok());
    for (int i = 0; i < 50; ++i) {
      uint8_t block[16], enc[16], dec[16];
      for (auto& b : block) b = static_cast<uint8_t>(rng.NextBounded(256));
      aes->EncryptBlock(block, enc);
      aes->DecryptBlock(enc, dec);
      EXPECT_EQ(ToHex(dec, 16), ToHex(block, 16));
    }
  }
}

// ------------------------------------------------------------- CBC / CTR

// NIST SP 800-38A F.2: CBC-AES, four blocks under IV 000102...0f. The
// Encrypt and Decrypt sections of each key size share key, IV and texts
// (F.2.1/F.2.2, F.2.3/F.2.4, F.2.5/F.2.6).
struct CbcVector {
  const char* name;
  const char* key;
  const char* ciphertext;
};

constexpr char kSp800CbcIv[] = "000102030405060708090a0b0c0d0e0f";
constexpr char kSp800Plaintext[] =
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710";

constexpr CbcVector kSp800CbcVectors[] = {
    {"F.2.1/F.2.2 AES-128", "2b7e151628aed2a6abf7158809cf4f3c",
     "7649abac8119b246cee98e9b12e9197d"
     "5086cb9b507219ee95db113a917678b2"
     "73bed6b8e3c1743b7116e69e22229516"
     "3ff1caa1681fac09120eca307586e1a7"},
    {"F.2.3/F.2.4 AES-192",
     "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
     "4f021db243bc633d7178183a9fa071e8"
     "b4d9ada9ad7dedf4e5e738763f69145a"
     "571b242012fb7ae07fa9baac3df102e0"
     "08b0e27988598881d920a9e64f5615cd"},
    {"F.2.5/F.2.6 AES-256",
     "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
     "f58c4c04d6e5f1ba779eabfb5f7bfbd6"
     "9cfc4e967edb808d679f777bc6702c7d"
     "39f23369a9d9bacfa530e26304231461"
     "b2eb05e2c39be9fcda6c19078c6a9d1b"},
};

TEST(CipherTest, Sp800_38a_CbcVectors) {
  const Bytes iv = Hex(kSp800CbcIv);
  const Bytes plaintext = Hex(kSp800Plaintext);
  for (const CbcVector& v : kSp800CbcVectors) {
    SCOPED_TRACE(v.name);
    const Bytes key = Hex(v.key);
    const Bytes ciphertext = Hex(v.ciphertext);
    auto aes = Aes::Create(key);
    ASSERT_TRUE(aes.ok());

    // Both block-level implementations, encrypt and decrypt.
    Bytes out(plaintext.size());
    ScalarAesCbcEncrypt(*aes, iv.data(), plaintext.data(), out.data(),
                        out.size());
    EXPECT_EQ(ToHex(out), ToHex(ciphertext));
    ScalarAesCbcDecrypt(*aes, iv.data(), ciphertext.data(), out.data(),
                        out.size());
    EXPECT_EQ(ToHex(out), ToHex(plaintext));
    if (AesNiKernelAvailable()) {
      AesNiCbcEncrypt(aes->round_key_bytes(), aes->rounds(), iv.data(),
                      plaintext.data(), out.data(), out.size());
      EXPECT_EQ(ToHex(out), ToHex(ciphertext));
      AesNiCbcDecrypt(aes->round_key_bytes(), aes->rounds(), iv.data(),
                      ciphertext.data(), out.data(), out.size());
      EXPECT_EQ(ToHex(out), ToHex(plaintext));
    }

    // The dispatched Cipher: IV || the four vector blocks || one block of
    // PKCS#7 padding, and back.
    auto cipher = Cipher::Create(key, CipherMode::kCbc);
    ASSERT_TRUE(cipher.ok());
    auto ct = cipher->EncryptWithIv(plaintext, iv);
    ASSERT_TRUE(ct.ok());
    ASSERT_EQ(ct->size(), 16 + plaintext.size() + 16);
    EXPECT_EQ(ToHex(ct->data(), 16), kSp800CbcIv);
    EXPECT_EQ(ToHex(ct->data() + 16, plaintext.size()), ToHex(ciphertext));
    auto back = cipher->Decrypt(*ct);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, plaintext);
  }
}

TEST(CipherTest, Sp800_38a_Ctr128) {
  // NIST SP 800-38A F.5.1: CTR-AES128.Encrypt, all four segments.
  auto cipher = Cipher::Create(Hex("2b7e151628aed2a6abf7158809cf4f3c"),
                               CipherMode::kCtr);
  ASSERT_TRUE(cipher.ok());
  const Bytes iv = Hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  const Bytes plaintext = Hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  auto ct = cipher->EncryptWithIv(plaintext, iv);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(ToHex(ct->data() + 16, ct->size() - 16),
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
            "5ae4df3edbd5d35e5b4f09020db03eab"
            "1e031dda2fbe03d1792170a0f3009cee");
}

TEST(CipherTest, CiphertextSizeFormulas) {
  auto cbc = Cipher::Create(Bytes(16, 1), CipherMode::kCbc);
  auto ctr = Cipher::Create(Bytes(16, 1), CipherMode::kCtr);
  ASSERT_TRUE(cbc.ok());
  ASSERT_TRUE(ctr.ok());
  EXPECT_EQ(cbc->CiphertextSize(0), 32u);    // IV + 1 padding block
  EXPECT_EQ(cbc->CiphertextSize(15), 32u);
  EXPECT_EQ(cbc->CiphertextSize(16), 48u);   // full block forces extra pad
  EXPECT_EQ(ctr->CiphertextSize(0), 16u);
  EXPECT_EQ(ctr->CiphertextSize(100), 116u);
}

class CipherRoundTripTest
    : public ::testing::TestWithParam<std::tuple<CipherMode, uint64_t>> {};

TEST_P(CipherRoundTripTest, RandomMessagesRoundTrip) {
  const auto [mode, seed] = GetParam();
  Rng rng(seed);
  Bytes key(16);
  for (auto& b : key) b = static_cast<uint8_t>(rng.NextBounded(256));
  auto cipher = Cipher::Create(key, mode);
  ASSERT_TRUE(cipher.ok());

  for (size_t len : {0u, 1u, 15u, 16u, 17u, 31u, 32u, 100u, 1000u}) {
    Bytes plaintext(len);
    for (auto& b : plaintext) b = static_cast<uint8_t>(rng.NextBounded(256));
    auto ct = cipher->Encrypt(plaintext);
    ASSERT_TRUE(ct.ok());
    EXPECT_EQ(ct->size(), cipher->CiphertextSize(len));
    auto back = cipher->Decrypt(*ct);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, plaintext);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, CipherRoundTripTest,
    ::testing::Combine(::testing::Values(CipherMode::kCbc, CipherMode::kCtr),
                       ::testing::Values(1, 2, 3)));

TEST(CipherTest, FreshIvRandomizesCiphertext) {
  auto cipher = Cipher::Create(Bytes(16, 7), CipherMode::kCbc);
  ASSERT_TRUE(cipher.ok());
  const Bytes plaintext(64, 0x42);
  auto c1 = cipher->Encrypt(plaintext);
  auto c2 = cipher->Encrypt(plaintext);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EXPECT_NE(*c1, *c2) << "same plaintext must not produce same ciphertext";
}

TEST(CipherTest, RejectsShortCiphertext) {
  auto cipher = Cipher::Create(Bytes(16, 7), CipherMode::kCbc);
  ASSERT_TRUE(cipher.ok());
  EXPECT_FALSE(cipher->Decrypt(Bytes(8)).ok());
  EXPECT_FALSE(cipher->Decrypt(Bytes(16)).ok());  // IV only, no body
  EXPECT_FALSE(cipher->Decrypt(Bytes(40)).ok());  // unaligned body
}

TEST(CipherTest, RejectsWrongIvSize) {
  auto cipher = Cipher::Create(Bytes(16, 7), CipherMode::kCbc);
  ASSERT_TRUE(cipher.ok());
  EXPECT_FALSE(cipher->EncryptWithIv(Bytes(10), Bytes(8)).ok());
}

TEST(CipherTest, PaddingTamperDetected) {
  // Every tampering below must fail with the same Corruption status on
  // the dispatched path (scalar under the *_scalar_crypto ctest variant,
  // AES-NI otherwise) and on each block kernel followed by Pkcs7Unpad.
  const Bytes key = Hex("000102030405060708090a0b0c0d0e0f");
  auto cipher = Cipher::Create(key, CipherMode::kCbc);
  auto aes = Aes::Create(key);
  ASSERT_TRUE(cipher.ok());
  ASSERT_TRUE(aes.ok());
  // 20 bytes: the last block holds 4 message bytes and 12 of padding.
  auto ct = cipher->EncryptWithIv(Bytes(20, 0x55),
                                  Hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"));
  ASSERT_TRUE(ct.ok());
  ASSERT_EQ(ct->size(), 48u);
  const size_t prev_block = 16;  // flips here land in the last plaintext

  const auto expect_corruption = [&](const Bytes& tampered,
                                     const std::string& message) {
    SCOPED_TRACE(message);
    auto dispatched = cipher->Decrypt(tampered);
    ASSERT_FALSE(dispatched.ok());
    EXPECT_EQ(dispatched.status().code(), StatusCode::kCorruption);
    EXPECT_EQ(dispatched.status().message(), message);
    const size_t body = tampered.size() - 16;
    if (body % 16 != 0) return;  // rejected before any block is decrypted
    Bytes padded(body);
    ScalarAesCbcDecrypt(*aes, tampered.data(), tampered.data() + 16,
                        padded.data(), body);
    EXPECT_EQ(Pkcs7Unpad(&padded, 16), dispatched.status());
    if (AesNiKernelAvailable()) {
      AesNiCbcDecrypt(aes->round_key_bytes(), aes->rounds(), tampered.data(),
                      tampered.data() + 16, padded.data(), body);
      EXPECT_EQ(Pkcs7Unpad(&padded, 16), dispatched.status());
    }
  };

  // Pad byte 0x0c turned into 0x00 and into 17: no valid length.
  Bytes zero_pad = *ct;
  zero_pad[prev_block + 15] ^= 0x0c;
  expect_corruption(zero_pad, "invalid PKCS#7 padding byte");
  Bytes big_pad = *ct;
  big_pad[prev_block + 15] ^= 0x0c ^ 17;
  expect_corruption(big_pad, "invalid PKCS#7 padding byte");
  // One of the other eleven pad bytes changed.
  Bytes mixed_pad = *ct;
  mixed_pad[prev_block + 9] ^= 0x01;
  expect_corruption(mixed_pad, "inconsistent PKCS#7 padding");
  // The last ciphertext byte flipped garbles the whole padding block;
  // for this fixed key and IV its last plaintext byte is out of range.
  Bytes last_byte = *ct;
  last_byte.back() ^= 0xFF;
  expect_corruption(last_byte, "invalid PKCS#7 padding byte");
  // A body that is not a whole number of blocks.
  Bytes unaligned = *ct;
  unaligned.pop_back();
  expect_corruption(unaligned, "CBC ciphertext body not block-aligned");
}

TEST(Pkcs7Test, PadUnpadAllResidues) {
  for (size_t len = 0; len <= 48; ++len) {
    const Bytes data(len, 0xAA);
    Bytes padded = data;
    Pkcs7Pad(&padded, 16);
    EXPECT_EQ(padded.size() % 16, 0u);
    EXPECT_GT(padded.size(), data.size());
    ASSERT_TRUE(Pkcs7Unpad(&padded, 16).ok());
    EXPECT_EQ(padded, data);
  }
}

TEST(Pkcs7Test, RejectsMalformedPadding) {
  // Each rejection leaves the input untouched.
  const auto expect_rejected = [](Bytes data) {
    const Bytes before = data;
    const Status status = Pkcs7Unpad(&data, 16);
    EXPECT_EQ(status.code(), StatusCode::kCorruption);
    EXPECT_EQ(data, before);
  };
  expect_rejected(Bytes{});
  expect_rejected(Bytes(15, 1));                      // unaligned
  expect_rejected(Bytes(16, 0));                      // pad byte 0
  expect_rejected(Bytes(16, 17));                     // pad byte > block
  Bytes inconsistent(16, 4);
  inconsistent[13] = 3;
  expect_rejected(inconsistent);                      // mixed pad bytes
}

// ----------------------------------------------------------------- SHA-256

TEST(Sha256Test, Fips180Vectors) {
  EXPECT_EQ(ToHex(Sha256::Hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  const std::string abc = "abc";
  EXPECT_EQ(ToHex(Sha256::Hash(Bytes(abc.begin(), abc.end()))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  const std::string two_blocks =
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  EXPECT_EQ(ToHex(Sha256::Hash(Bytes(two_blocks.begin(), two_blocks.end()))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 hasher;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.Update(chunk);
  auto digest = hasher.Finish();
  EXPECT_EQ(ToHex(digest.data(), digest.size()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Rng rng(77);
  Bytes data(777);
  for (auto& b : data) b = static_cast<uint8_t>(rng.NextBounded(256));
  Sha256 hasher;
  size_t off = 0;
  while (off < data.size()) {
    const size_t take = std::min<size_t>(1 + rng.NextBounded(100),
                                         data.size() - off);
    hasher.Update(data.data() + off, take);
    off += take;
  }
  auto incremental = hasher.Finish();
  EXPECT_EQ(Bytes(incremental.begin(), incremental.end()),
            Sha256::Hash(data));
}

// -------------------------------------------------------------- HMAC/PBKDF2

TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const std::string msg = "Hi There";
  EXPECT_EQ(ToHex(HmacSha256(key, Bytes(msg.begin(), msg.end()))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  const std::string key = "Jefe";
  const std::string msg = "what do ya want for nothing?";
  EXPECT_EQ(ToHex(HmacSha256(Bytes(key.begin(), key.end()),
                             Bytes(msg.begin(), msg.end()))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case6_LongKey) {
  const Bytes key(131, 0xaa);
  const std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  EXPECT_EQ(ToHex(HmacSha256(key, Bytes(msg.begin(), msg.end()))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, KeyStateIsWipedOnDestruction) {
  // The ipad/opad states can forge tags like the key itself, so the
  // destructor must leave none of their bytes behind.
  const Bytes key(32, 0xab);
  const Bytes msg = {1, 2, 3};
  alignas(HmacSha256State) unsigned char storage[sizeof(HmacSha256State)];
  auto* state = new (storage) HmacSha256State(key);
  ASSERT_EQ(state->Mac(msg), HmacSha256(key, msg));
  ASSERT_TRUE(std::any_of(std::begin(storage), std::end(storage),
                          [](unsigned char c) { return c != 0; }));
  state->~HmacSha256State();
  EXPECT_TRUE(std::all_of(std::begin(storage), std::end(storage),
                          [](unsigned char c) { return c == 0; }));
}

TEST(Pbkdf2Test, KnownVectors) {
  const std::string p = "password", s = "salt";
  const Bytes password(p.begin(), p.end());
  const Bytes salt(s.begin(), s.end());
  auto dk1 = Pbkdf2Sha256(password, salt, 1, 32);
  ASSERT_TRUE(dk1.ok());
  EXPECT_EQ(ToHex(*dk1),
            "120fb6cffcf8b32c43e7225256c4f837a86548c92ccc35480805987cb70be17b");
  auto dk2 = Pbkdf2Sha256(password, salt, 2, 32);
  ASSERT_TRUE(dk2.ok());
  EXPECT_EQ(ToHex(*dk2),
            "ae4d0c95af6b46d32d0adff928f06dd02a303f8ef3c251dfd6e2d85a95474c43");
  auto dk4096 = Pbkdf2Sha256(password, salt, 4096, 32);
  ASSERT_TRUE(dk4096.ok());
  EXPECT_EQ(ToHex(*dk4096),
            "c5e478d59288c841aa530db6845c4c8d962893a001ce4e11a4963873aa98134a");
}

TEST(Pbkdf2Test, MultiBlockOutput) {
  const std::string p = "passwordPASSWORDpassword";
  const std::string s = "saltSALTsaltSALTsaltSALTsaltSALTsalt";
  auto dk = Pbkdf2Sha256(Bytes(p.begin(), p.end()), Bytes(s.begin(), s.end()),
                         4096, 40);
  ASSERT_TRUE(dk.ok());
  EXPECT_EQ(ToHex(*dk),
            "348c89dbcbd32b2f32d814b8116e84cf2b17347ebc1800181c4e2a1fb8dd53e1"
            "c635518c7dac47e9");
}

TEST(Pbkdf2Test, RejectsBadArguments) {
  EXPECT_FALSE(Pbkdf2Sha256({}, {}, 0, 16).ok());
  EXPECT_FALSE(Pbkdf2Sha256({}, {}, 1, 0).ok());
}

// ----------------------------------------------------------- SecureRandom

TEST(SecureRandomTest, ProducesRequestedLengthAndVaries) {
  auto a = SecureRandom::Generate(32);
  auto b = SecureRandom::Generate(32);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->size(), 32u);
  EXPECT_NE(*a, *b);
}

// ------------------------------------------------------------------ AEAD

TEST(AeadTest, SealOpenRoundTrip) {
  auto aead = AeadCipher::Create(Bytes(16, 0xAB));
  ASSERT_TRUE(aead.ok());
  Rng rng(77);
  for (size_t len : {size_t{0}, size_t{1}, size_t{15}, size_t{16}, size_t{17},
                     size_t{100}, size_t{4096}}) {
    Bytes plaintext(len);
    for (auto& b : plaintext) b = static_cast<uint8_t>(rng.NextBounded(256));
    auto sealed = aead->Seal(plaintext);
    ASSERT_TRUE(sealed.ok());
    EXPECT_EQ(sealed->size(), AeadCipher::SealedSize(len));
    auto opened = aead->Open(*sealed);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(*opened, plaintext);
  }
}

TEST(AeadTest, DetectsCiphertextTampering) {
  auto aead = AeadCipher::Create(Bytes(16, 0x01));
  ASSERT_TRUE(aead.ok());
  const Bytes plaintext(64, 0x5A);
  auto sealed = aead->Seal(plaintext);
  ASSERT_TRUE(sealed.ok());
  // Flip one bit in every position class: IV, body, tag.
  for (size_t pos : {size_t{0}, size_t{20}, sealed->size() - 1}) {
    Bytes corrupted = *sealed;
    corrupted[pos] ^= 0x80;
    auto opened = aead->Open(corrupted);
    EXPECT_FALSE(opened.ok()) << "tampering at byte " << pos << " undetected";
  }
}

TEST(AeadTest, DetectsTruncation) {
  auto aead = AeadCipher::Create(Bytes(16, 0x02));
  ASSERT_TRUE(aead.ok());
  auto sealed = aead->Seal(Bytes(32, 0x11));
  ASSERT_TRUE(sealed.ok());
  Bytes truncated(sealed->begin(), sealed->end() - 1);
  EXPECT_FALSE(aead->Open(truncated).ok());
  Bytes tiny(sealed->begin(), sealed->begin() + 10);
  EXPECT_FALSE(aead->Open(tiny).ok());
}

TEST(AeadTest, AssociatedDataIsBound) {
  auto aead = AeadCipher::Create(Bytes(16, 0x03));
  ASSERT_TRUE(aead.ok());
  const Bytes plaintext(24, 0x42);
  const Bytes ad = {'c', 't', 'x'};
  auto sealed = aead->Seal(plaintext, ad);
  ASSERT_TRUE(sealed.ok());
  auto ok = aead->Open(*sealed, ad);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, plaintext);
  EXPECT_FALSE(aead->Open(*sealed, Bytes{'c', 't', 'y'}).ok());
  EXPECT_FALSE(aead->Open(*sealed, Bytes{}).ok());
}

TEST(AeadTest, DifferentKeysCannotOpen) {
  auto a = AeadCipher::Create(Bytes(16, 0x04));
  auto b = AeadCipher::Create(Bytes(16, 0x05));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto sealed = a->Seal(Bytes(16, 0x77));
  ASSERT_TRUE(sealed.ok());
  EXPECT_FALSE(b->Open(*sealed).ok());
}

TEST(AeadTest, SealedLengthEqualsPlaintextPlusOverhead) {
  // CTR keeps the body length equal to the plaintext length, so the
  // size formula is exact, not an upper bound.
  auto aead = AeadCipher::Create(Bytes(32, 0x06));
  ASSERT_TRUE(aead.ok());
  for (size_t len = 0; len < 70; ++len) {
    auto sealed = aead->Seal(Bytes(len, 0x01));
    ASSERT_TRUE(sealed.ok());
    EXPECT_EQ(sealed->size(),
              len + AeadCipher::kIvSize + AeadCipher::kTagSize);
  }
}

TEST(AeadTest, PointerFormsInteroperateWithBytesForms) {
  // SealInto/OpenInto are the one implementation under Seal/Open; bytes
  // sealed by either form open under the other, in place too.
  auto aead = AeadCipher::Create(Bytes(32, 0x07));
  ASSERT_TRUE(aead.ok());
  Rng rng(0x5EA1);
  const Bytes ad = {'r', 'e', 'c'};
  for (size_t len : {size_t{0}, size_t{1}, size_t{16}, size_t{129},
                     size_t{65536}}) {
    Bytes plaintext(len);
    for (auto& b : plaintext) b = static_cast<uint8_t>(rng.NextU64());

    // SealInto -> Open(Bytes).
    Bytes sealed(AeadCipher::SealedSize(len));
    ASSERT_TRUE(aead->SealInto(plaintext.data(), len, ad.data(), ad.size(),
                               sealed.data())
                    .ok());
    auto opened = aead->Open(sealed, ad);
    ASSERT_TRUE(opened.ok()) << "len=" << len;
    EXPECT_EQ(*opened, plaintext);

    // Seal(Bytes) -> OpenInto.
    auto resealed = aead->Seal(plaintext, ad);
    ASSERT_TRUE(resealed.ok());
    Bytes out(len);
    ASSERT_TRUE(aead->OpenInto(resealed->data(), resealed->size(), ad.data(),
                               ad.size(), out.data())
                    .ok());
    EXPECT_EQ(out, plaintext);

    // In place both ways: seal over plaintext already sitting behind the
    // IV slot, then open back over the ciphertext.
    Bytes buffer(AeadCipher::SealedSize(len));
    std::copy(plaintext.begin(), plaintext.end(),
              buffer.begin() + AeadCipher::kIvSize);
    ASSERT_TRUE(aead->SealInto(buffer.data() + AeadCipher::kIvSize, len,
                               ad.data(), ad.size(), buffer.data())
                    .ok());
    auto opened_in_place_sealed = aead->Open(buffer, ad);
    ASSERT_TRUE(opened_in_place_sealed.ok());
    EXPECT_EQ(*opened_in_place_sealed, plaintext);
    ASSERT_TRUE(aead->OpenInto(buffer.data(), buffer.size(), ad.data(),
                               ad.size(), buffer.data() + AeadCipher::kIvSize)
                    .ok());
    EXPECT_TRUE(std::equal(plaintext.begin(), plaintext.end(),
                           buffer.begin() + AeadCipher::kIvSize));
  }
  // Empty plaintext and empty AD through null pointers.
  Bytes empty_sealed(AeadCipher::SealedSize(0));
  ASSERT_TRUE(
      aead->SealInto(nullptr, 0, nullptr, 0, empty_sealed.data()).ok());
  EXPECT_TRUE(aead->OpenInto(empty_sealed.data(), empty_sealed.size(),
                             nullptr, 0, nullptr)
                  .ok());
  EXPECT_TRUE(aead->Open(empty_sealed).ok());
}

TEST(AeadTest, OpenIntoWritesNothingOnTagMismatch) {
  auto aead = AeadCipher::Create(Bytes(16, 0x08));
  ASSERT_TRUE(aead.ok());
  auto sealed = aead->Seal(Bytes(100, 0x3C));
  ASSERT_TRUE(sealed.ok());
  (*sealed)[AeadCipher::kIvSize + 50] ^= 0x01;
  Bytes out(100, 0xEE);
  EXPECT_FALSE(aead->OpenInto(sealed->data(), sealed->size(), nullptr, 0,
                              out.data())
                   .ok());
  EXPECT_EQ(out, Bytes(100, 0xEE));
  EXPECT_FALSE(
      aead->OpenInto(sealed->data(), AeadCipher::kIvSize, nullptr, 0,
                     out.data())
          .ok());
}

TEST(AeadTest, RejectsBadMasterKeySizes) {
  EXPECT_FALSE(AeadCipher::Create(Bytes(15, 0)).ok());
  EXPECT_FALSE(AeadCipher::Create(Bytes(0, 0)).ok());
  EXPECT_FALSE(AeadCipher::Create(Bytes(33, 0)).ok());
  EXPECT_TRUE(AeadCipher::Create(Bytes(24, 0)).ok());
}

// ------------------------------------------------------------- AES-GCM
//
// McGrew & Viega, "The Galois/Counter Mode of Operation (GCM)", test
// cases 13-16 (AES-256), typed in as constants.

struct GcmVector {
  const char* name;
  const char* key;
  const char* nonce;
  const char* plaintext;
  const char* ad;
  const char* ciphertext;
  const char* tag;
};

constexpr char kMvKey[] =
    "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308";
constexpr char kMvNonce[] = "cafebabefacedbaddecaf888";

const GcmVector kGcmVectors[] = {
    {"TC13", "0000000000000000000000000000000000000000000000000000000000000000",
     "000000000000000000000000", "", "", "",
     "530f8afbc74536b9a963b4f1c4cb738b"},
    {"TC14", "0000000000000000000000000000000000000000000000000000000000000000",
     "000000000000000000000000", "00000000000000000000000000000000", "",
     "cea7403d4d606b6e074ec5d3baf39d18", "d0d1c8a799996bf0265b98b5d48ab919"},
    {"TC15", kMvKey, kMvNonce,
     "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
     "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
     "",
     "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
     "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad",
     "b094dac5d93471bdec1a502270e3cc6c"},
    {"TC16", kMvKey, kMvNonce,
     "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
     "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
     "feedfacedeadbeeffeedfacedeadbeefabaddad2",
     "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
     "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662",
     "76fc6ece0f4e1768cddf8853bb2d551b"},
};

TEST(GcmTest, McGrewViegaAes256VectorsOnBothBackends) {
  for (const GcmVector& v : kGcmVectors) {
    SCOPED_TRACE(v.name);
    const Bytes key = Hex(v.key);
    const Bytes nonce = Hex(v.nonce);
    const Bytes plaintext = Hex(v.plaintext);
    const Bytes ad = Hex(v.ad);
    const Bytes ciphertext = Hex(v.ciphertext);
    const Bytes tag = Hex(v.tag);
    const size_t len = plaintext.size();

    // The dispatched path, both directions.
    auto gcm = AesGcm::Create(key);
    ASSERT_TRUE(gcm.ok());
    Bytes out(len);
    uint8_t out_tag[16];
    ASSERT_TRUE(gcm->SealInto(nonce.data(), ad.data(), ad.size(),
                              plaintext.data(), len, out.data(), out_tag)
                    .ok());
    EXPECT_EQ(out, ciphertext);
    EXPECT_EQ(Bytes(out_tag, out_tag + 16), tag);
    Bytes opened(len);
    ASSERT_TRUE(gcm->OpenInto(nonce.data(), ad.data(), ad.size(),
                              ciphertext.data(), len, tag.data(),
                              opened.data())
                    .ok());
    EXPECT_EQ(opened, plaintext);

    // The scalar reference, whatever the dispatch picked.
    auto aes = Aes::Create(key);
    ASSERT_TRUE(aes.ok());
    uint8_t h[16] = {};
    const uint8_t zero[16] = {};
    aes->EncryptBlock(zero, h);
    Bytes scalar_out(len);
    uint8_t scalar_tag[16];
    ScalarGcmSeal(*aes, h, nonce.data(), ad.data(), ad.size(),
                  plaintext.data(), scalar_out.data(), len, scalar_tag);
    EXPECT_EQ(scalar_out, ciphertext);
    EXPECT_EQ(Bytes(scalar_tag, scalar_tag + 16), tag);
    Bytes scalar_opened(len);
    EXPECT_TRUE(ScalarGcmOpen(*aes, h, nonce.data(), ad.data(), ad.size(),
                              ciphertext.data(), len, tag.data(),
                              scalar_opened.data()));
    EXPECT_EQ(scalar_opened, plaintext);

    // The AES-NI + PCLMULQDQ kernel, whenever the silicon has it.
    if (AesNiKernelAvailable() && PclmulKernelAvailable()) {
      alignas(16) uint8_t h_table[kGcmHashTableBytes];
      AesNiGcmInit(h, h_table);
      Bytes hw_out(len);
      uint8_t hw_tag[16];
      AesNiGcmSeal(aes->round_key_bytes(), aes->rounds(), h_table,
                   nonce.data(), ad.data(), ad.size(), plaintext.data(),
                   hw_out.data(), len, hw_tag);
      EXPECT_EQ(hw_out, ciphertext);
      EXPECT_EQ(Bytes(hw_tag, hw_tag + 16), tag);
      Bytes hw_opened(len);
      EXPECT_TRUE(AesNiGcmOpen(aes->round_key_bytes(), aes->rounds(),
                               h_table, nonce.data(), ad.data(), ad.size(),
                               ciphertext.data(), len, tag.data(),
                               hw_opened.data()));
      EXPECT_EQ(hw_opened, plaintext);
    }

    // The VAES kernel, whenever the silicon has it.
    if (VaesKernelAvailable()) {
      alignas(64) uint8_t h_table[kGcmHashTableBytes];
      AesNiGcmInit(h, h_table);
      Bytes hw_out(len);
      uint8_t hw_tag[16];
      VaesGcmSeal(aes->round_key_bytes(), aes->rounds(), h_table,
                  nonce.data(), ad.data(), ad.size(), plaintext.data(),
                  hw_out.data(), len, hw_tag);
      EXPECT_EQ(hw_out, ciphertext);
      EXPECT_EQ(Bytes(hw_tag, hw_tag + 16), tag);
      Bytes hw_opened(len);
      EXPECT_TRUE(VaesGcmOpen(aes->round_key_bytes(), aes->rounds(), h_table,
                              nonce.data(), ad.data(), ad.size(),
                              ciphertext.data(), len, tag.data(),
                              hw_opened.data()));
      EXPECT_EQ(hw_opened, plaintext);
    }
  }
}

TEST(GcmTest, OpenWritesNothingOnForgery) {
  // A flipped bit in the ciphertext, the tag or the AD must be refused
  // before a byte reaches `out` — out of place and in place alike.
  Rng rng(0x6C3F);
  auto gcm = AesGcm::Create(Bytes(32, 0x42));
  ASSERT_TRUE(gcm.ok());
  const Bytes nonce(12, 0x17);
  Bytes ad(22, 0x0A);
  for (size_t len : {size_t{0}, size_t{1}, size_t{100}, size_t{1000}}) {
    SCOPED_TRACE("len=" + std::to_string(len));
    Bytes plaintext(len);
    for (auto& b : plaintext) b = static_cast<uint8_t>(rng.NextU64());
    Bytes ciphertext(len);
    uint8_t tag[16];
    ASSERT_TRUE(gcm->SealInto(nonce.data(), ad.data(), ad.size(),
                              plaintext.data(), len, ciphertext.data(), tag)
                    .ok());
    auto expect_refused = [&](const Bytes& ct, const uint8_t* t,
                              const Bytes& a) {
      Bytes out(len, 0xEE);
      Status status = gcm->OpenInto(nonce.data(), a.data(), a.size(),
                                    ct.data(), len, t, out.data());
      EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
      EXPECT_EQ(out, Bytes(len, 0xEE));
      Bytes in_place = ct;
      EXPECT_FALSE(gcm->OpenInto(nonce.data(), a.data(), a.size(),
                                 in_place.data(), len, t, in_place.data())
                       .ok());
      EXPECT_EQ(in_place, ct);
    };
    if (len > 0) {
      Bytes flipped = ciphertext;
      flipped[len / 2] ^= 0x01;
      expect_refused(flipped, tag, ad);
    }
    for (int bit : {0, 63, 127}) {
      uint8_t bad_tag[16];
      std::copy(tag, tag + 16, bad_tag);
      bad_tag[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      expect_refused(ciphertext, bad_tag, ad);
    }
    Bytes bad_ad = ad;
    bad_ad[21] ^= 0x80;
    expect_refused(ciphertext, tag, bad_ad);
    Bytes good(len);
    EXPECT_TRUE(gcm->OpenInto(nonce.data(), ad.data(), ad.size(),
                              ciphertext.data(), len, tag, good.data())
                    .ok());
    EXPECT_EQ(good, plaintext);
  }
}

TEST(GcmTest, RejectsOverlongPlaintextAndBadKeys) {
  auto gcm = AesGcm::Create(Bytes(32, 0x01));
  ASSERT_TRUE(gcm.ok());
  const uint8_t nonce[12] = {};
  uint8_t tag[16] = {};
  // The length is judged before either buffer is touched.
  EXPECT_EQ(gcm->SealInto(nonce, nullptr, 0, nullptr,
                          AesGcm::kMaxPlaintextBytes + 1, nullptr, tag)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(gcm->OpenInto(nonce, nullptr, 0, nullptr,
                             AesGcm::kMaxPlaintextBytes + 1, tag, nullptr)
                   .ok());
  EXPECT_FALSE(AesGcm::Create(Bytes(15, 0)).ok());
  EXPECT_TRUE(AesGcm::Create(Bytes(16, 0)).ok());
}

// ------------------------------------------- hardware kernel cross-checks
//
// The AES-NI / SHA-NI kernels must be bit-identical to the vector-tested
// scalar references. These sweeps compare both on random inputs whenever
// the silicon offers the instructions (raw capability, ignoring the
// SIMCLOUD_FORCE_SCALAR_CRYPTO override, so the forced-scalar CI job
// still exercises them).

Bytes RandomBytes(Rng& rng, size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.NextU64());
  return out;
}

TEST(KernelTest, AesNiCtrMatchesScalarOnRandomInputs) {
  if (!AesNiKernelAvailable()) {
    GTEST_SKIP() << "AES-NI not available on this CPU";
  }
  Rng rng(0xAE51);
  for (const size_t key_len : {16u, 24u, 32u}) {
    auto aes = Aes::Create(RandomBytes(rng, key_len));
    ASSERT_TRUE(aes.ok());
    for (const size_t len :
         {0u, 1u, 15u, 16u, 17u, 64u, 127u, 128u, 129u, 255u, 256u, 1000u}) {
      const Bytes iv = RandomBytes(rng, 16);
      const Bytes input = RandomBytes(rng, len);
      Bytes scalar_out(len), hw_out(len);
      ScalarAesCtrXor(*aes, iv.data(), input.data(), scalar_out.data(), len);
      AesNiCtrXor(aes->round_key_bytes(), aes->rounds(), iv.data(),
                  input.data(), hw_out.data(), len);
      EXPECT_EQ(scalar_out, hw_out) << "key_len=" << key_len << " len=" << len;

      // In-place operation must produce the same bytes.
      Bytes in_place = input;
      AesNiCtrXor(aes->round_key_bytes(), aes->rounds(), iv.data(),
                  in_place.data(), in_place.data(), len);
      EXPECT_EQ(scalar_out, in_place);
    }
  }
}

TEST(KernelTest, AesNiCtrCounterCarryPropagates) {
  if (!AesNiKernelAvailable()) {
    GTEST_SKIP() << "AES-NI not available on this CPU";
  }
  Rng rng(0xCA44);
  auto aes = Aes::Create(RandomBytes(rng, 16));
  ASSERT_TRUE(aes.ok());
  // Counter bytes at the carry edge: the increment must ripple across
  // several 0xFF bytes mid-message, identically in both kernels.
  Bytes iv = RandomBytes(rng, 16);
  for (int i = 9; i < 16; ++i) iv[i] = 0xFF;
  iv[15] = 0xFE;
  const size_t len = 64 * 16;  // crosses the carry within the 8-block loop
  const Bytes input = RandomBytes(rng, len);
  Bytes scalar_out(len), hw_out(len);
  ScalarAesCtrXor(*aes, iv.data(), input.data(), scalar_out.data(), len);
  AesNiCtrXor(aes->round_key_bytes(), aes->rounds(), iv.data(), input.data(),
              hw_out.data(), len);
  EXPECT_EQ(scalar_out, hw_out);
}

TEST(KernelTest, AesNiCtrCounterWrapMatchesScalar) {
  // The rightmost 8 counter bytes are a big-endian u64 that wraps mod
  // 2^64 without carrying into the upper 8 bytes. IVs 0-9 steps below
  // the wrap put it inside the 8-block pipeline, at its edges and inside
  // the single-block tail. Random inputs never get near it.
  if (!AesNiKernelAvailable()) {
    GTEST_SKIP() << "AES-NI not available on this CPU";
  }
  Rng rng(0x3A4B);
  for (const size_t key_len : {16u, 24u, 32u}) {
    auto aes = Aes::Create(RandomBytes(rng, key_len));
    ASSERT_TRUE(aes.ok());
    for (int below = 0; below <= 9; ++below) {
      Bytes iv = RandomBytes(rng, 16);
      for (int i = 8; i < 16; ++i) iv[i] = 0xFF;
      iv[15] = static_cast<uint8_t>(0xFF - below);
      for (size_t len = 0; len <= 300; ++len) {
        const Bytes input = RandomBytes(rng, len);
        Bytes scalar_out(len), hw_out(len);
        ScalarAesCtrXor(*aes, iv.data(), input.data(), scalar_out.data(),
                        len);
        AesNiCtrXor(aes->round_key_bytes(), aes->rounds(), iv.data(),
                    input.data(), hw_out.data(), len);
        ASSERT_EQ(scalar_out, hw_out)
            << "key_len=" << key_len << " below=" << below << " len=" << len;
      }
    }
  }
  // The wrap itself: after 0xFF..FF the next counter block keeps the
  // upper 8 bytes and restarts the lower 8 at zero.
  auto aes = Aes::Create(RandomBytes(rng, 32));
  ASSERT_TRUE(aes.ok());
  Bytes iv = RandomBytes(rng, 16);
  for (int i = 8; i < 16; ++i) iv[i] = 0xFF;
  Bytes wrapped = iv;
  for (int i = 8; i < 16; ++i) wrapped[i] = 0x00;
  const Bytes zeros(32, 0);
  Bytes two_blocks(32), second_block(16);
  AesNiCtrXor(aes->round_key_bytes(), aes->rounds(), iv.data(), zeros.data(),
              two_blocks.data(), 32);
  AesNiCtrXor(aes->round_key_bytes(), aes->rounds(), wrapped.data(),
              zeros.data(), second_block.data(), 16);
  EXPECT_TRUE(std::equal(second_block.begin(), second_block.end(),
                         two_blocks.begin() + 16));
}

TEST(KernelTest, AesNiCbcMatchesScalarOnRandomInputs) {
  if (!AesNiKernelAvailable()) {
    GTEST_SKIP() << "AES-NI not available on this CPU";
  }
  Rng rng(0xCBC0);
  for (const size_t key_len : {16u, 24u, 32u}) {
    // 0..25 blocks: empty input, partial 8-block pipelines, and tails
    // after one, two and three full pipelines.
    for (size_t blocks = 0; blocks <= 25; ++blocks) {
      auto aes = Aes::Create(RandomBytes(rng, key_len));
      ASSERT_TRUE(aes.ok());
      const size_t len = blocks * 16;
      const Bytes iv = RandomBytes(rng, 16);
      const Bytes plaintext = RandomBytes(rng, len);
      SCOPED_TRACE("key_len=" + std::to_string(key_len) +
                   " blocks=" + std::to_string(blocks));

      Bytes scalar_ct(len), hw_ct(len);
      ScalarAesCbcEncrypt(*aes, iv.data(), plaintext.data(),
                          scalar_ct.data(), len);
      AesNiCbcEncrypt(aes->round_key_bytes(), aes->rounds(), iv.data(),
                      plaintext.data(), hw_ct.data(), len);
      EXPECT_EQ(scalar_ct, hw_ct);

      Bytes scalar_pt(len), hw_pt(len);
      ScalarAesCbcDecrypt(*aes, iv.data(), scalar_ct.data(),
                          scalar_pt.data(), len);
      AesNiCbcDecrypt(aes->round_key_bytes(), aes->rounds(), iv.data(),
                      scalar_ct.data(), hw_pt.data(), len);
      EXPECT_EQ(scalar_pt, plaintext);
      EXPECT_EQ(hw_pt, plaintext);

      // In-place operation must produce the same bytes.
      Bytes in_place = plaintext;
      AesNiCbcEncrypt(aes->round_key_bytes(), aes->rounds(), iv.data(),
                      in_place.data(), in_place.data(), len);
      EXPECT_EQ(in_place, scalar_ct);
      AesNiCbcDecrypt(aes->round_key_bytes(), aes->rounds(), iv.data(),
                      in_place.data(), in_place.data(), len);
      EXPECT_EQ(in_place, plaintext);
      in_place = scalar_ct;
      ScalarAesCbcDecrypt(*aes, iv.data(), in_place.data(), in_place.data(),
                          len);
      EXPECT_EQ(in_place, plaintext);
    }
  }
}

TEST(KernelTest, AesNiGcmMatchesScalarOnRandomInputs) {
  if (!AesNiKernelAvailable() || !PclmulKernelAvailable()) {
    GTEST_SKIP() << "AES-NI + PCLMULQDQ not available on this CPU";
  }
  Rng rng(0x6C11);
  auto aes = Aes::Create(RandomBytes(rng, 32));
  ASSERT_TRUE(aes.ok());
  uint8_t h[16] = {};
  const uint8_t zero[16] = {};
  aes->EncryptBlock(zero, h);
  alignas(16) uint8_t h_table[kGcmHashTableBytes];
  AesNiGcmInit(h, h_table);

  auto check = [&](size_t len, size_t ad_len) {
    const Bytes nonce = RandomBytes(rng, 12);
    const Bytes ad = RandomBytes(rng, ad_len);
    const Bytes plaintext = RandomBytes(rng, len);
    Bytes scalar_ct(len), hw_ct(len);
    uint8_t scalar_tag[16], hw_tag[16];
    ScalarGcmSeal(*aes, h, nonce.data(), ad.data(), ad_len,
                  plaintext.data(), scalar_ct.data(), len, scalar_tag);
    AesNiGcmSeal(aes->round_key_bytes(), aes->rounds(), h_table,
                 nonce.data(), ad.data(), ad_len, plaintext.data(),
                 hw_ct.data(), len, hw_tag);
    ASSERT_EQ(scalar_ct, hw_ct);
    ASSERT_EQ(Bytes(scalar_tag, scalar_tag + 16), Bytes(hw_tag, hw_tag + 16));

    // In place: seal over the plaintext, open back over the ciphertext.
    Bytes buffer = plaintext;
    uint8_t in_place_tag[16];
    AesNiGcmSeal(aes->round_key_bytes(), aes->rounds(), h_table,
                 nonce.data(), ad.data(), ad_len, buffer.data(),
                 buffer.data(), len, in_place_tag);
    ASSERT_EQ(buffer, scalar_ct);
    ASSERT_EQ(Bytes(in_place_tag, in_place_tag + 16),
              Bytes(hw_tag, hw_tag + 16));
    ASSERT_TRUE(AesNiGcmOpen(aes->round_key_bytes(), aes->rounds(), h_table,
                             nonce.data(), ad.data(), ad_len, buffer.data(),
                             len, hw_tag, buffer.data()));
    ASSERT_EQ(buffer, plaintext);
    buffer = scalar_ct;
    ASSERT_TRUE(ScalarGcmOpen(*aes, h, nonce.data(), ad.data(), ad_len,
                              buffer.data(), len, scalar_tag,
                              buffer.data()));
    ASSERT_EQ(buffer, plaintext);

    // Out of place, each kernel opening the other's output.
    Bytes opened(len);
    ASSERT_TRUE(AesNiGcmOpen(aes->round_key_bytes(), aes->rounds(), h_table,
                             nonce.data(), ad.data(), ad_len,
                             scalar_ct.data(), len, scalar_tag,
                             opened.data()));
    ASSERT_EQ(opened, plaintext);
    ASSERT_TRUE(ScalarGcmOpen(*aes, h, nonce.data(), ad.data(), ad_len,
                              hw_ct.data(), len, hw_tag, opened.data()));
    ASSERT_EQ(opened, plaintext);
  };
  // Every length through two 8-block batches plus tails, against every
  // AD length up to 40 (partial AD blocks, one and two full ones).
  for (size_t len = 0; len <= 300; ++len) {
    for (size_t ad_len = 0; ad_len <= 40; ++ad_len) {
      SCOPED_TRACE("len=" + std::to_string(len) +
                   " ad_len=" + std::to_string(ad_len));
      check(len, ad_len);
      if (HasFatalFailure()) return;
    }
  }
  // A full secure-channel record, with and without a tail, and an AD
  // long enough for the aggregated AD loop.
  for (size_t len : {size_t{65536}, size_t{65536 + 37}}) {
    for (size_t ad_len : {size_t{22}, size_t{300}}) {
      SCOPED_TRACE("len=" + std::to_string(len) +
                   " ad_len=" + std::to_string(ad_len));
      check(len, ad_len);
      if (HasFatalFailure()) return;
    }
  }
}

// --------------------------------------------------- the VAES tier
//
// The 512-bit kernels are driven directly, like the AES-NI ones above,
// so they are checked on every host that has them whatever the dispatch
// picked (and the AES-NI kernels keep their own checks on such hosts).

/// The scalar GCM reference's H and the kernels' table of its powers.
struct GcmKeys {
  explicit GcmKeys(const Aes& aes) {
    const uint8_t zero[16] = {};
    aes.EncryptBlock(zero, h);
    AesNiGcmInit(h, table);
  }
  uint8_t h[16];
  alignas(64) uint8_t table[kGcmHashTableBytes];
};

/// A buffer whose data starts `offset` bytes past a 64-byte boundary.
class OffsetBuffer {
 public:
  OffsetBuffer(const Bytes& content, size_t offset)
      : storage_(content.size() + 128), offset_(offset) {
    const uintptr_t base = reinterpret_cast<uintptr_t>(storage_.data());
    offset_ += (64 - base % 64) % 64;
    std::copy(content.begin(), content.end(), data());
  }
  uint8_t* data() { return storage_.data() + offset_; }
  Bytes Contents(size_t len) { return Bytes(data(), data() + len); }

 private:
  Bytes storage_;
  size_t offset_;
};

/// Seals and opens one message on the VAES kernels and on the scalar
/// reference: same ciphertext and tag, each side opens the other's, and
/// in place works for both directions. Buffers sit at random offsets
/// 1-63 from a 64-byte boundary.
void CheckVaesGcm(Rng& rng, const Aes& aes, const GcmKeys& keys, size_t len,
                  size_t ad_len) {
  const Bytes nonce = RandomBytes(rng, 12);
  const Bytes ad = RandomBytes(rng, ad_len);
  const Bytes plaintext = RandomBytes(rng, len);
  const size_t in_offset = 1 + rng.NextBounded(63);
  const size_t out_offset = 1 + rng.NextBounded(63);
  Bytes scalar_ct(len);
  uint8_t scalar_tag[16], vaes_tag[16];
  ScalarGcmSeal(aes, keys.h, nonce.data(), ad.data(), ad_len,
                plaintext.data(), scalar_ct.data(), len, scalar_tag);

  OffsetBuffer in(plaintext, in_offset), out(Bytes(len), out_offset);
  VaesGcmSeal(aes.round_key_bytes(), aes.rounds(), keys.table, nonce.data(),
              ad.data(), ad_len, in.data(), out.data(), len, vaes_tag);
  ASSERT_EQ(out.Contents(len), scalar_ct);
  ASSERT_EQ(Bytes(vaes_tag, vaes_tag + 16),
            Bytes(scalar_tag, scalar_tag + 16));

  // The VAES open of the scalar ciphertext, out of place and in place.
  OffsetBuffer sealed(scalar_ct, in_offset), opened(Bytes(len), out_offset);
  ASSERT_TRUE(VaesGcmOpen(aes.round_key_bytes(), aes.rounds(), keys.table,
                          nonce.data(), ad.data(), ad_len, sealed.data(), len,
                          scalar_tag, opened.data()));
  ASSERT_EQ(opened.Contents(len), plaintext);
  ASSERT_TRUE(VaesGcmOpen(aes.round_key_bytes(), aes.rounds(), keys.table,
                          nonce.data(), ad.data(), ad_len, sealed.data(), len,
                          scalar_tag, sealed.data()));
  ASSERT_EQ(sealed.Contents(len), plaintext);

  // The VAES seal in place, opened by the scalar reference.
  uint8_t in_place_tag[16];
  VaesGcmSeal(aes.round_key_bytes(), aes.rounds(), keys.table, nonce.data(),
              ad.data(), ad_len, in.data(), in.data(), len, in_place_tag);
  ASSERT_EQ(in.Contents(len), scalar_ct);
  ASSERT_EQ(Bytes(in_place_tag, in_place_tag + 16),
            Bytes(scalar_tag, scalar_tag + 16));
  Bytes scalar_opened(len);
  ASSERT_TRUE(ScalarGcmOpen(aes, keys.h, nonce.data(), ad.data(), ad_len,
                            in.data(), len, in_place_tag,
                            scalar_opened.data()));
  ASSERT_EQ(scalar_opened, plaintext);
}

TEST(KernelTest, VaesGcmMatchesScalarOnRandomInputs) {
  if (!VaesKernelAvailable()) {
    GTEST_SKIP() << "VAES + AVX-512 not available on this CPU";
  }
  Rng rng(0x7AE5);
  for (const size_t key_len : {16u, 24u, 32u}) {
    auto aes = Aes::Create(RandomBytes(rng, key_len));
    ASSERT_TRUE(aes.ok());
    const GcmKeys keys(*aes);
    // Every length through two 16-block steps and past them, the AD
    // length cycling through 0-40.
    for (size_t len = 0; len <= 600; ++len) {
      SCOPED_TRACE("key_len=" + std::to_string(key_len) +
                   " len=" + std::to_string(len));
      CheckVaesGcm(rng, *aes, keys, len, len % 41);
      if (HasFatalFailure()) return;
    }
    // Every AD length 0-40 and AD beyond one 16-block step, at lengths
    // around the step boundary.
    for (const size_t len : {0u, 1u, 255u, 256u, 257u, 4096u}) {
      for (size_t ad_len = 0; ad_len <= 40; ++ad_len) {
        SCOPED_TRACE("key_len=" + std::to_string(key_len) + " len=" +
                     std::to_string(len) + " ad_len=" +
                     std::to_string(ad_len));
        CheckVaesGcm(rng, *aes, keys, len, ad_len);
        if (HasFatalFailure()) return;
      }
      for (const size_t ad_len : {255u, 256u, 257u, 300u, 512u, 1000u}) {
        SCOPED_TRACE("key_len=" + std::to_string(key_len) + " len=" +
                     std::to_string(len) + " ad_len=" +
                     std::to_string(ad_len));
        CheckVaesGcm(rng, *aes, keys, len, ad_len);
        if (HasFatalFailure()) return;
      }
    }
    // Random lengths up to 70,000 (past one 64 KiB channel record).
    for (int i = 0; i < 6; ++i) {
      const size_t len = rng.NextBounded(70001);
      SCOPED_TRACE("key_len=" + std::to_string(key_len) +
                   " len=" + std::to_string(len));
      CheckVaesGcm(rng, *aes, keys, len, rng.NextBounded(41));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(KernelTest, VaesGcmCounterCarryMatchesScalar) {
  // The GCM counter is the low 32 bits of the counter block and the VAES
  // kernel steps it lane by lane with 32-bit adds. It cannot wrap: the
  // payload starts at counter 2 and AesGcm refuses more than 2^32 - 2
  // blocks. What a message can reach is the carry out of the low byte
  // (block 254 holds counter 256) and out of the low 16 bits (block
  // 65,534 holds counter 65,536). These lengths put each carry inside a
  // 16-block step, at a step's last lanes and inside the masked tail.
  if (!VaesKernelAvailable()) {
    GTEST_SKIP() << "VAES + AVX-512 not available on this CPU";
  }
  Rng rng(0xCA77);
  for (const size_t key_len : {16u, 32u}) {
    auto aes = Aes::Create(RandomBytes(rng, key_len));
    ASSERT_TRUE(aes.ok());
    const GcmKeys keys(*aes);
    for (const size_t len :
         {size_t{254 * 16}, size_t{254 * 16 + 1}, size_t{255 * 16},
          size_t{256 * 16}, size_t{256 * 16 + 40}, size_t{65534 * 16 + 7},
          size_t{65536 * 16}, size_t{65536 * 16 + 40}}) {
      SCOPED_TRACE("key_len=" + std::to_string(key_len) +
                   " len=" + std::to_string(len));
      CheckVaesGcm(rng, *aes, keys, len, 22);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(KernelTest, VaesGcmOpenRefusesTamperingAndWritesNothing) {
  if (!VaesKernelAvailable()) {
    GTEST_SKIP() << "VAES + AVX-512 not available on this CPU";
  }
  Rng rng(0x7A3B);
  auto aes = Aes::Create(RandomBytes(rng, 32));
  ASSERT_TRUE(aes.ok());
  const GcmKeys keys(*aes);
  for (const size_t len : {0u, 1u, 16u, 255u, 256u, 257u, 1000u, 65573u}) {
    SCOPED_TRACE("len=" + std::to_string(len));
    const Bytes nonce = RandomBytes(rng, 12);
    const Bytes ad = RandomBytes(rng, 22);
    const Bytes plaintext = RandomBytes(rng, len);
    Bytes ciphertext(len);
    uint8_t tag[16];
    VaesGcmSeal(aes->round_key_bytes(), aes->rounds(), keys.table,
                nonce.data(), ad.data(), ad.size(), plaintext.data(),
                ciphertext.data(), len, tag);
    auto expect_refused = [&](const Bytes& ct, const uint8_t* t,
                              const Bytes& a) {
      Bytes out(len, 0xEE);
      EXPECT_FALSE(VaesGcmOpen(aes->round_key_bytes(), aes->rounds(),
                               keys.table, nonce.data(), a.data(), a.size(),
                               ct.data(), len, t, out.data()));
      EXPECT_EQ(out, Bytes(len, 0xEE));
      Bytes in_place = ct;
      EXPECT_FALSE(VaesGcmOpen(aes->round_key_bytes(), aes->rounds(),
                               keys.table, nonce.data(), a.data(), a.size(),
                               in_place.data(), len, t, in_place.data()));
      EXPECT_EQ(in_place, ct);
    };
    if (len > 0) {
      for (const size_t at : {size_t{0}, len / 2, len - 1}) {
        Bytes flipped = ciphertext;
        flipped[at] ^= 0x01;
        expect_refused(flipped, tag, ad);
      }
    }
    for (int bit : {0, 63, 127}) {
      uint8_t bad_tag[16];
      std::copy(tag, tag + 16, bad_tag);
      bad_tag[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      expect_refused(ciphertext, bad_tag, ad);
    }
    Bytes bad_ad = ad;
    bad_ad[21] ^= 0x80;
    expect_refused(ciphertext, tag, bad_ad);
    Bytes good(len);
    EXPECT_TRUE(VaesGcmOpen(aes->round_key_bytes(), aes->rounds(),
                            keys.table, nonce.data(), ad.data(), ad.size(),
                            ciphertext.data(), len, tag, good.data()));
    EXPECT_EQ(good, plaintext);
  }
}

TEST(KernelTest, VaesCbcDecryptMatchesScalarOnRandomInputs) {
  if (!VaesKernelAvailable()) {
    GTEST_SKIP() << "VAES + AVX-512 not available on this CPU";
  }
  Rng rng(0xCBC5);
  for (const size_t key_len : {16u, 24u, 32u}) {
    auto aes = Aes::Create(RandomBytes(rng, key_len));
    ASSERT_TRUE(aes.ok());
    std::vector<size_t> lengths;
    for (size_t len = 0; len <= 600; len += 16) lengths.push_back(len);
    for (int i = 0; i < 6; ++i) {
      lengths.push_back(16 * rng.NextBounded(70000 / 16 + 1));
    }
    for (const size_t len : lengths) {
      SCOPED_TRACE("key_len=" + std::to_string(key_len) +
                   " len=" + std::to_string(len));
      const Bytes iv = RandomBytes(rng, 16);
      const Bytes ciphertext = RandomBytes(rng, len);
      Bytes expected(len);
      ScalarAesCbcDecrypt(*aes, iv.data(), ciphertext.data(),
                          expected.data(), len);
      OffsetBuffer in(ciphertext, 1 + rng.NextBounded(63));
      OffsetBuffer out(Bytes(len), 1 + rng.NextBounded(63));
      VaesCbcDecrypt(aes->round_key_bytes(), aes->rounds(), iv.data(),
                     in.data(), out.data(), len);
      ASSERT_EQ(out.Contents(len), expected);
      VaesCbcDecrypt(aes->round_key_bytes(), aes->rounds(), iv.data(),
                     in.data(), in.data(), len);
      ASSERT_EQ(in.Contents(len), expected);
    }
  }
}

TEST(KernelTest, ShaNiMatchesScalarOnRandomInputs) {
  if (!ShaNiKernelAvailable()) {
    GTEST_SKIP() << "SHA-NI not available on this CPU";
  }
  Rng rng(0x54A2);
  for (const size_t blocks : {1u, 2u, 3u, 7u, 16u, 33u}) {
    const Bytes data = RandomBytes(rng, blocks * 64);
    uint32_t scalar_h[8], hw_h[8];
    for (int i = 0; i < 8; ++i) {
      scalar_h[i] = static_cast<uint32_t>(rng.NextU64());
      hw_h[i] = scalar_h[i];
    }
    ScalarSha256Blocks(scalar_h, data.data(), blocks);
    ShaNiSha256Blocks(hw_h, data.data(), blocks);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(scalar_h[i], hw_h[i]) << "blocks=" << blocks << " word=" << i;
    }
  }
}

TEST(CpuFeaturesTest, DispatchIsConsistentWithRawCapability) {
  const CpuFeatures& features = GetCpuFeatures();
  // Dispatch can only enable what the silicon supports.
  EXPECT_LE(features.aes_ni, features.raw_aes_ni);
  EXPECT_LE(features.sha_ni, features.raw_sha_ni);
  EXPECT_LE(features.pclmul, features.raw_pclmul);
  EXPECT_LE(features.vaes, features.raw_vaes);
  EXPECT_EQ(features.raw_vaes, VaesKernelAvailable());
  EXPECT_EQ(GcmAccelerated(), features.aes_ni && features.pclmul);
  // The VAES tier sits on top of the AES-NI and PCLMULQDQ kernels.
  if (features.vaes) EXPECT_TRUE(GcmAccelerated());
  if (features.forced_scalar) {
    EXPECT_FALSE(features.aes_ni);
    EXPECT_FALSE(features.sha_ni);
    EXPECT_FALSE(features.pclmul);
    EXPECT_FALSE(features.vaes);
  }
  EXPECT_FALSE(CryptoBackendSummary().empty());
}

TEST(CpuFeaturesTest, BackendSummaryNamesTheVaesTier) {
  // Every bench banner records which GCM and CBC-decrypt kernels ran.
  const CpuFeatures& features = GetCpuFeatures();
  const std::string summary = CryptoBackendSummary();
  if (features.vaes) {
    EXPECT_NE(summary.find("gcm=vaes512+vpclmul"), std::string::npos)
        << summary;
    EXPECT_NE(summary.find("cbc-dec=vaes512"), std::string::npos) << summary;
    EXPECT_NE(summary.find("aes=aes-ni"), std::string::npos) << summary;
  } else {
    EXPECT_EQ(summary.find("vaes"), std::string::npos) << summary;
  }
  if (features.forced_scalar) {
    EXPECT_EQ(summary.find("vaes"), std::string::npos) << summary;
    EXPECT_NE(summary.find("gcm=scalar"), std::string::npos) << summary;
    EXPECT_NE(summary.find("(forced)"), std::string::npos) << summary;
  }
}

}  // namespace
}  // namespace crypto
}  // namespace simcloud
