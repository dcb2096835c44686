// Secure-channel subsystem tests: HKDF vectors, the PSK mutual
// handshake (wrong keys, tampered tags, replayed transcripts, version-1
// peers), the AES-GCM record layer (tamper/replay/reorder/truncation,
// deterministic rekeying, 64 KiB record streams), live TCP deployments in secure mode,
// downgrade attacks in both directions, and a sniffing relay that
// asserts NO protocol plaintext ever crosses the wire in secure mode
// (and that plaintext mode is still byte-transparent).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "crypto/hkdf.h"
#include "net/secure_channel.h"
#include "net/tcp.h"
#include "secure/client.h"
#include "secure/secret_key.h"
#include "secure/server.h"
#include "secure/session.h"
#include "tests/net_test_util.h"

namespace simcloud {
namespace net {
namespace {

Bytes FromHexOrDie(const std::string& hex) {
  auto bytes = FromHex(hex);
  EXPECT_TRUE(bytes.ok());
  return *bytes;
}

// ---------------------------------------------------------------------------
// HKDF-SHA256 (RFC 5869 test vectors).
// ---------------------------------------------------------------------------

TEST(HkdfTest, Rfc5869TestCase1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = FromHexOrDie("000102030405060708090a0b0c");
  const Bytes info = FromHexOrDie("f0f1f2f3f4f5f6f7f8f9");

  const Bytes prk = crypto::HkdfExtract(salt, ikm);
  EXPECT_EQ(ToHex(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");

  auto okm = crypto::HkdfExpand(prk, info, 42);
  ASSERT_TRUE(okm.ok());
  EXPECT_EQ(ToHex(*okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(HkdfTest, Rfc5869TestCase3EmptySaltAndInfo) {
  const Bytes ikm(22, 0x0b);
  const Bytes prk = crypto::HkdfExtract({}, ikm);
  EXPECT_EQ(ToHex(prk),
            "19ef24a32c717b167f33a91d6f648bdf96596776afdb6377ac434c1c293ccb04");
  auto okm = crypto::HkdfExpand(prk, {}, 42);
  ASSERT_TRUE(okm.ok());
  EXPECT_EQ(ToHex(*okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(HkdfTest, RejectsDegenerateParameters) {
  EXPECT_FALSE(crypto::HkdfExpand(Bytes(8, 1), {}, 32).ok());      // short PRK
  EXPECT_FALSE(crypto::HkdfExpand(Bytes(32, 1), {}, 0).ok());      // empty out
  EXPECT_FALSE(crypto::HkdfExpand(Bytes(32, 1), {}, 9000).ok());   // > 255*32
}

// ---------------------------------------------------------------------------
// Handshake state machines (in memory, no sockets).
// ---------------------------------------------------------------------------

SecureChannelOptions TestOptions(uint8_t fill = 0x42) {
  SecureChannelOptions options;
  options.psk = Bytes(32, fill);
  return options;
}

struct ChannelPair {
  std::unique_ptr<SecureChannel> client;
  std::unique_ptr<SecureChannel> server;
};

/// Runs the full handshake in memory; both options default to the same
/// PSK.
Result<ChannelPair> Handshake(const SecureChannelOptions& client_options,
                              const SecureChannelOptions& server_options) {
  SIMCLOUD_ASSIGN_OR_RETURN(ClientHandshake client,
                            ClientHandshake::Start(client_options));
  ServerHandshake server(server_options);
  Bytes server_hello;
  SIMCLOUD_ASSIGN_OR_RETURN(
      size_t consumed,
      server.Consume(client.hello().data(), client.hello().size(),
                     &server_hello));
  if (consumed != kClientHelloSize || server_hello.size() != kServerHelloSize) {
    return Status::Internal("unexpected handshake sizes");
  }
  ChannelPair pair;
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes finish,
                            client.Finish(server_hello, &pair.client));
  Bytes unused;
  SIMCLOUD_ASSIGN_OR_RETURN(
      consumed, server.Consume(finish.data(), finish.size(), &unused));
  if (consumed != kClientFinishSize || !server.done()) {
    return Status::Internal("server handshake did not finish");
  }
  pair.server = server.TakeChannel();
  return pair;
}

TEST(SecureHandshakeTest, CompletesWithSharedPsk) {
  auto pair = Handshake(TestOptions(), TestOptions());
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();

  // Both directions carry data.
  const Bytes ping = {1, 2, 3, 4};
  auto record = pair->client->Seal(ping);
  ASSERT_TRUE(record.ok());
  Bytes plain;
  size_t consumed = 0;
  ASSERT_TRUE(pair->server
                  ->Ingest(record->data(), record->size(), &consumed, &plain)
                  .ok());
  EXPECT_EQ(consumed, record->size());
  EXPECT_EQ(plain, ping);

  const Bytes pong = {9, 8, 7};
  record = pair->server->Seal(pong);
  ASSERT_TRUE(record.ok());
  plain.clear();
  ASSERT_TRUE(pair->client
                  ->Ingest(record->data(), record->size(), &consumed, &plain)
                  .ok());
  EXPECT_EQ(plain, pong);
}

TEST(SecureHandshakeTest, WrongPskFailsBothWays) {
  // Server holds a different PSK: the client must reject the server
  // hello (the server cannot forge the transcript tag).
  auto client = ClientHandshake::Start(TestOptions(0x42));
  ASSERT_TRUE(client.ok());
  ServerHandshake server(TestOptions(0x43));
  Bytes server_hello;
  auto consumed = server.Consume(client->hello().data(),
                                 client->hello().size(), &server_hello);
  ASSERT_TRUE(consumed.ok());
  std::unique_ptr<SecureChannel> channel;
  auto finish = client->Finish(server_hello, &channel);
  ASSERT_FALSE(finish.ok());
  EXPECT_EQ(finish.status().code(), StatusCode::kPermissionDenied);

  // Client holds a different PSK: the server must reject its finish.
  auto client2 = ClientHandshake::Start(TestOptions(0x44));
  ASSERT_TRUE(client2.ok());
  ServerHandshake server2(TestOptions(0x42));
  Bytes hello2;
  ASSERT_TRUE(server2
                  .Consume(client2->hello().data(), client2->hello().size(),
                           &hello2)
                  .ok());
  std::unique_ptr<SecureChannel> channel2;
  auto finish2 = client2->Finish(hello2, &channel2);
  ASSERT_FALSE(finish2.ok());  // client already notices the bad server tag
}

TEST(SecureHandshakeTest, TamperedServerTagIsRejected) {
  auto client = ClientHandshake::Start(TestOptions());
  ASSERT_TRUE(client.ok());
  ServerHandshake server(TestOptions());
  Bytes server_hello;
  ASSERT_TRUE(server
                  .Consume(client->hello().data(), client->hello().size(),
                           &server_hello)
                  .ok());
  for (const size_t index :
       {size_t{5}, server_hello.size() - 1, server_hello.size() - 32}) {
    Bytes tampered = server_hello;
    tampered[index] ^= 0x01;
    std::unique_ptr<SecureChannel> channel;
    auto finish = client->Finish(tampered, &channel);
    EXPECT_FALSE(finish.ok()) << "tampered byte " << index << " accepted";
    EXPECT_EQ(channel, nullptr);
  }
}

TEST(SecureHandshakeTest, TamperedClientFinishIsRejected) {
  auto client = ClientHandshake::Start(TestOptions());
  ASSERT_TRUE(client.ok());
  ServerHandshake server(TestOptions());
  Bytes server_hello;
  ASSERT_TRUE(server
                  .Consume(client->hello().data(), client->hello().size(),
                           &server_hello)
                  .ok());
  std::unique_ptr<SecureChannel> channel;
  auto finish = client->Finish(server_hello, &channel);
  ASSERT_TRUE(finish.ok());
  Bytes tampered = *finish;
  tampered[7] ^= 0x80;
  Bytes unused;
  auto consumed = server.Consume(tampered.data(), tampered.size(), &unused);
  ASSERT_FALSE(consumed.ok());
  EXPECT_EQ(consumed.status().code(), StatusCode::kPermissionDenied);
}

TEST(SecureHandshakeTest, ReplayedTranscriptFailsAgainstFreshServer) {
  // Record one complete legitimate handshake...
  auto client = ClientHandshake::Start(TestOptions());
  ASSERT_TRUE(client.ok());
  const Bytes hello = client->hello();
  ServerHandshake server(TestOptions());
  Bytes server_hello;
  ASSERT_TRUE(server.Consume(hello.data(), hello.size(), &server_hello).ok());
  std::unique_ptr<SecureChannel> channel;
  auto finish = client->Finish(server_hello, &channel);
  ASSERT_TRUE(finish.ok());

  // ...and replay hello + finish verbatim at a fresh server: its fresh
  // nonce makes the captured finish tag stale. Nonce reuse across
  // sessions is thereby useless to an attacker.
  ServerHandshake replay_target(TestOptions());
  Bytes unused;
  ASSERT_TRUE(
      replay_target.Consume(hello.data(), hello.size(), &unused).ok());
  auto replayed =
      replay_target.Consume(finish->data(), finish->size(), &unused);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kPermissionDenied);
}

TEST(SecureHandshakeTest, NonHandshakeBytesAreHardRejected) {
  for (const Bytes& garbage :
       {Bytes{0x05, 0x00, 0x00, 0x00, 4},        // id-less plaintext frame
        Bytes{0x05, 0x00, 0x00, 0x80, 1, 0, 0},  // pipelined plaintext frame
        Bytes{'G', 'E', 'T', ' ', '/'},          // something else entirely
        Bytes{0xFF}}) {                          // even one wrong byte
    ServerHandshake server(TestOptions());
    Bytes unused;
    auto consumed = server.Consume(garbage.data(), garbage.size(), &unused);
    EXPECT_FALSE(consumed.ok());
  }
  // A torn hello prefix that matches the magic simply waits.
  ServerHandshake server(TestOptions());
  Bytes unused;
  auto consumed =
      server.Consume(kSecureChannelMagic, 3, &unused);
  ASSERT_TRUE(consumed.ok());
  EXPECT_EQ(*consumed, 0u);
  EXPECT_FALSE(server.done());
}

TEST(SecureHandshakeTest, SessionsDeriveDistinctKeys) {
  // Two handshakes under the same PSK must not produce interchangeable
  // channels (fresh nonces -> fresh keys): a record sealed on session A
  // must not open on session B.
  auto a = Handshake(TestOptions(), TestOptions());
  auto b = Handshake(TestOptions(), TestOptions());
  ASSERT_TRUE(a.ok() && b.ok());
  auto record = a->client->Seal(Bytes{1, 2, 3});
  ASSERT_TRUE(record.ok());
  Bytes plain;
  size_t consumed = 0;
  EXPECT_FALSE(
      b->server->Ingest(record->data(), record->size(), &consumed, &plain)
          .ok());
}

TEST(SecureHandshakeTest, VersionOneClientHelloIsRefused) {
  // A version-1 peer seals AES-CTR + HMAC records with an explicit IV;
  // a version-2 server must refuse it at the hello, before any record.
  auto client = ClientHandshake::Start(TestOptions());
  ASSERT_TRUE(client.ok());
  Bytes hello = client->hello();
  ASSERT_EQ(hello[4], kSecureChannelVersion);
  hello[4] = 1;
  ServerHandshake server(TestOptions());
  Bytes server_hello;
  auto consumed = server.Consume(hello.data(), hello.size(), &server_hello);
  ASSERT_FALSE(consumed.ok());
  EXPECT_EQ(consumed.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(consumed.status().message(), "unsupported secure-channel version");
  EXPECT_TRUE(server_hello.empty());
  EXPECT_FALSE(server.done());
}

TEST(SecureHandshakeTest, VersionOneServerHelloIsRefused) {
  auto client = ClientHandshake::Start(TestOptions());
  ASSERT_TRUE(client.ok());
  ServerHandshake server(TestOptions());
  Bytes server_hello;
  ASSERT_TRUE(server
                  .Consume(client->hello().data(), client->hello().size(),
                           &server_hello)
                  .ok());
  ASSERT_EQ(server_hello[4], kSecureChannelVersion);
  server_hello[4] = 1;
  std::unique_ptr<SecureChannel> channel;
  auto finish = client->Finish(server_hello, &channel);
  ASSERT_FALSE(finish.ok());
  EXPECT_EQ(finish.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(finish.status().message(), "unsupported secure-channel version");
  EXPECT_EQ(channel, nullptr);
}

// ---------------------------------------------------------------------------
// Record layer.
// ---------------------------------------------------------------------------

class SecureRecordTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto pair = Handshake(options_, options_);
    ASSERT_TRUE(pair.ok()) << pair.status().ToString();
    client_ = std::move(pair->client);
    server_ = std::move(pair->server);
  }

  SecureChannelOptions options_ = TestOptions();
  std::unique_ptr<SecureChannel> client_;
  std::unique_ptr<SecureChannel> server_;
};

TEST_F(SecureRecordTest, StreamOfRecordsRoundTripsAcrossPartialReads) {
  // Many records delivered in dribs and drabs reassemble into the exact
  // plaintext stream.
  Bytes wire;
  Bytes expected;
  for (int i = 0; i < 20; ++i) {
    Bytes frame(1 + (i * 37) % 300, static_cast<uint8_t>(i));
    expected.insert(expected.end(), frame.begin(), frame.end());
    auto record = client_->Seal(frame);
    ASSERT_TRUE(record.ok());
    wire.insert(wire.end(), record->begin(), record->end());
  }
  Bytes plain;
  Bytes buffer;
  size_t fed = 0;
  while (fed < wire.size()) {
    const size_t chunk = std::min<size_t>(13, wire.size() - fed);
    buffer.insert(buffer.end(), wire.begin() + fed, wire.begin() + fed + chunk);
    fed += chunk;
    size_t consumed = 0;
    ASSERT_TRUE(
        server_->Ingest(buffer.data(), buffer.size(), &consumed, &plain).ok());
    buffer.erase(buffer.begin(), buffer.begin() + consumed);
  }
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(plain, expected);
  EXPECT_EQ(server_->records_opened(), 20u);
}

TEST_F(SecureRecordTest, RecordIsLengthCiphertextAndTag) {
  // u32 len | ciphertext | tag: the nonce is implicit, so a record is
  // exactly its plaintext plus kSealOverhead (20 bytes), and the same
  // plaintext seals to different bytes under successive sequence numbers.
  static_assert(SecureChannel::kSealOverhead == 20);
  const Bytes frame(100, 0x5A);
  auto first = client_->Seal(frame);
  auto second = client_->Seal(frame);
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_EQ(first->size(), frame.size() + SecureChannel::kSealOverhead);
  uint32_t sealed_len = 0;
  for (int i = 0; i < 4; ++i) {
    sealed_len |= static_cast<uint32_t>((*first)[i]) << (8 * i);
  }
  EXPECT_EQ(sealed_len, frame.size() + SecureChannel::kTagSize);
  EXPECT_NE(*first, *second);
  Bytes plain;
  size_t consumed = 0;
  Bytes wire = *first;
  wire.insert(wire.end(), second->begin(), second->end());
  ASSERT_TRUE(server_->Ingest(wire.data(), wire.size(), &consumed, &plain)
                  .ok());
  EXPECT_EQ(consumed, wire.size());
  Bytes expected = frame;
  expected.insert(expected.end(), frame.begin(), frame.end());
  EXPECT_EQ(plain, expected);
}

TEST_F(SecureRecordTest, ShorterThanATagIsRejected) {
  // A sealed length below the 16-byte tag cannot be a record.
  Bytes bogus = {15, 0, 0, 0};
  bogus.resize(4 + 15, 0);
  Bytes plain;
  size_t consumed = 0;
  EXPECT_EQ(server_->Ingest(bogus.data(), bogus.size(), &consumed, &plain)
                .code(),
            StatusCode::kNetworkError);
  EXPECT_TRUE(plain.empty());
}

TEST_F(SecureRecordTest, TamperedRecordKillsTheChannel) {
  auto record = client_->Seal(Bytes(64, 0xAA));
  ASSERT_TRUE(record.ok());
  Bytes tampered = *record;
  tampered[tampered.size() / 2] ^= 0x10;
  Bytes plain;
  size_t consumed = 0;
  EXPECT_FALSE(
      server_->Ingest(tampered.data(), tampered.size(), &consumed, &plain)
          .ok());
  EXPECT_TRUE(plain.empty());
  // The failure is sticky: even the untampered record is refused now.
  EXPECT_FALSE(
      server_->Ingest(record->data(), record->size(), &consumed, &plain)
          .ok());
}

TEST_F(SecureRecordTest, ReplayedRecordIsRejected) {
  auto record = client_->Seal(Bytes{1, 2, 3});
  ASSERT_TRUE(record.ok());
  Bytes plain;
  size_t consumed = 0;
  ASSERT_TRUE(
      server_->Ingest(record->data(), record->size(), &consumed, &plain).ok());
  // The same bytes again: the receive sequence has moved on, the tag no
  // longer verifies.
  EXPECT_FALSE(
      server_->Ingest(record->data(), record->size(), &consumed, &plain)
          .ok());
}

TEST_F(SecureRecordTest, ReorderedRecordsAreRejected) {
  auto first = client_->Seal(Bytes{1});
  auto second = client_->Seal(Bytes{2});
  ASSERT_TRUE(first.ok() && second.ok());
  Bytes plain;
  size_t consumed = 0;
  EXPECT_FALSE(
      server_->Ingest(second->data(), second->size(), &consumed, &plain)
          .ok());
}

TEST_F(SecureRecordTest, TruncatedStreamYieldsNothing) {
  auto record = client_->Seal(Bytes(100, 7));
  ASSERT_TRUE(record.ok());
  Bytes plain;
  size_t consumed = 0;
  // All but the last byte: no plaintext may be released.
  ASSERT_TRUE(
      server_->Ingest(record->data(), record->size() - 1, &consumed, &plain)
          .ok());
  EXPECT_EQ(consumed, 0u);
  EXPECT_TRUE(plain.empty());
}

TEST_F(SecureRecordTest, OversizedRecordLengthIsRejected) {
  Bytes bogus = {0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0};
  Bytes plain;
  size_t consumed = 0;
  EXPECT_FALSE(
      server_->Ingest(bogus.data(), bogus.size(), &consumed, &plain).ok());
}

TEST(SecureRekeyTest, EpochsAdvanceDeterministically) {
  SecureChannelOptions options = TestOptions();
  options.rekey_after_records = 4;  // tiny budget: rekey every 4 records
  auto pair = Handshake(options, options);
  ASSERT_TRUE(pair.ok());

  Bytes expected;
  Bytes plain;
  for (int i = 0; i < 11; ++i) {
    Bytes frame(32, static_cast<uint8_t>(i));
    expected.insert(expected.end(), frame.begin(), frame.end());
    auto record = pair->client->Seal(frame);
    ASSERT_TRUE(record.ok());
    size_t consumed = 0;
    ASSERT_TRUE(pair->server
                    ->Ingest(record->data(), record->size(), &consumed,
                             &plain)
                    .ok())
        << "record " << i << " failed across the rekey boundary";
  }
  EXPECT_EQ(plain, expected);
  // 11 records at 4 per epoch: epochs 0,1 exhausted, now in epoch 2.
  EXPECT_EQ(pair->client->send_epoch(), 2u);
  EXPECT_EQ(pair->server->recv_epoch(), 2u);
  // The reverse direction has its own schedule, still at epoch 0.
  EXPECT_EQ(pair->server->send_epoch(), 0u);
}

TEST(SecureRekeyTest, ByteBudgetTriggersRekeyToo) {
  SecureChannelOptions options = TestOptions();
  options.rekey_after_bytes = 1024;
  auto pair = Handshake(options, options);
  ASSERT_TRUE(pair.ok());
  Bytes plain;
  for (int i = 0; i < 5; ++i) {
    auto record = pair->client->Seal(Bytes(512, 3));
    ASSERT_TRUE(record.ok());
    size_t consumed = 0;
    ASSERT_TRUE(pair->server
                    ->Ingest(record->data(), record->size(), &consumed,
                             &plain)
                    .ok());
  }
  EXPECT_GE(pair->client->send_epoch(), 2u);
  EXPECT_EQ(pair->client->send_epoch(), pair->server->recv_epoch());
}

// ---------------------------------------------------------------------------
// Record streams: SealRecords slices a burst into 64 KiB records.
// ---------------------------------------------------------------------------

constexpr size_t kRecordSlice = SecureChannel::kRecordPlaintextBytes;

Bytes PatternBytes(size_t len, uint32_t seed) {
  Bytes out(len);
  Rng rng(seed);
  for (auto& b : out) b = static_cast<uint8_t>(rng.NextU64());
  return out;
}

/// Seals `plaintext` through SealRecords, concatenating the records.
Result<Bytes> SealStream(SecureChannel* channel, const Bytes& plaintext) {
  Bytes wire;
  SIMCLOUD_RETURN_NOT_OK(channel->SealRecords(
      plaintext.data(), plaintext.size(), [&wire](Bytes record) {
        wire.insert(wire.end(), record.begin(), record.end());
        return Status::OK();
      }));
  return wire;
}

/// Feeds `wire` to `channel` in pieces whose sizes `next_piece` picks,
/// the way a socket delivers them, and returns the plaintext.
template <typename NextPiece>
Result<Bytes> IngestInPieces(SecureChannel* channel, const Bytes& wire,
                             NextPiece&& next_piece) {
  Bytes plain;
  size_t delivered = 0;  // bytes the "socket" has handed over
  size_t opened = 0;     // bytes of those the channel consumed
  while (delivered < wire.size()) {
    delivered += std::min(next_piece(), wire.size() - delivered);
    size_t consumed = 0;
    SIMCLOUD_RETURN_NOT_OK(channel->Ingest(
        wire.data() + opened, delivered - opened, &consumed, &plain));
    opened += consumed;
  }
  if (opened != wire.size()) return Status::Internal("records left over");
  return plain;
}

TEST(SecureRecordStreamTest, SlicesIntoCeilRecordsAndRoundTrips) {
  auto pair = Handshake(TestOptions(), TestOptions());
  ASSERT_TRUE(pair.ok());
  Rng rng(0x5EC5);
  for (size_t len : {size_t{0}, size_t{1}, kRecordSlice - 1, kRecordSlice,
                     kRecordSlice + 1, size_t{582000},
                     size_t{(1u << 20) + 17}}) {
    const uint64_t expected_records =
        std::max<uint64_t>(1, (len + kRecordSlice - 1) / kRecordSlice);
    const Bytes plaintext = PatternBytes(len, static_cast<uint32_t>(len));
    const uint64_t sealed_before = pair->client->records_sealed();
    const uint64_t opened_before = pair->server->records_opened();
    auto wire = SealStream(pair->client.get(), plaintext);
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    EXPECT_EQ(pair->client->records_sealed() - sealed_before,
              expected_records)
        << "len=" << len;
    EXPECT_EQ(wire->size(),
              len + expected_records * SecureChannel::kSealOverhead);

    // Random split points, a quarter of them single bytes.
    auto plain = IngestInPieces(pair->server.get(), *wire, [&rng] {
      return rng.NextBounded(4) == 0
                 ? size_t{1}
                 : 1 + static_cast<size_t>(rng.NextBounded(3 * kRecordSlice));
    });
    ASSERT_TRUE(plain.ok()) << "len=" << len << ": "
                            << plain.status().ToString();
    EXPECT_EQ(*plain, plaintext) << "len=" << len;
    EXPECT_EQ(pair->server->records_opened() - opened_before,
              expected_records)
        << "len=" << len;
  }
}

TEST(SecureRecordStreamTest, OneByteFeedsReassembleAcrossRecordBoundaries) {
  auto pair = Handshake(TestOptions(), TestOptions());
  ASSERT_TRUE(pair.ok());
  const Bytes plaintext = PatternBytes(2 * kRecordSlice + 5, 9);
  auto wire = SealStream(pair->client.get(), plaintext);
  ASSERT_TRUE(wire.ok());
  auto plain =
      IngestInPieces(pair->server.get(), *wire, [] { return size_t{1}; });
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(*plain, plaintext);
  EXPECT_EQ(pair->server->records_opened(), 3u);
}

TEST(SecureRecordStreamTest, TamperedRecordStopsTheStreamThere) {
  // Nine records; flipping one bit in record k releases exactly records
  // 0..k-1, nothing of k or later, and the channel stays broken.
  const Bytes plaintext = PatternBytes(8 * kRecordSlice + 100, 11);
  const size_t record_wire = kRecordSlice + SecureChannel::kSealOverhead;
  for (size_t k : {size_t{0}, size_t{4}, size_t{8}}) {
    auto pair = Handshake(TestOptions(), TestOptions());
    ASSERT_TRUE(pair.ok());
    auto wire = SealStream(pair->client.get(), plaintext);
    ASSERT_TRUE(wire.ok());
    ASSERT_EQ(pair->client->records_sealed(), 9u);
    Bytes tampered = *wire;
    tampered[k * record_wire + SecureChannel::kRecordHeaderSize + 7] ^= 0x04;

    Bytes plain;
    size_t consumed = 0;
    Status status = pair->server->Ingest(tampered.data(), tampered.size(),
                                         &consumed, &plain);
    EXPECT_EQ(status.code(), StatusCode::kNetworkError) << "k=" << k;
    EXPECT_EQ(plain.size(), k * kRecordSlice) << "k=" << k;
    EXPECT_TRUE(std::equal(plain.begin(), plain.end(), plaintext.begin()));
    EXPECT_EQ(pair->server->records_opened(), k);

    // Sticky: the untampered remainder is refused too.
    const size_t tail = k * record_wire;
    EXPECT_FALSE(pair->server
                     ->Ingest(wire->data() + tail, wire->size() - tail,
                              &consumed, &plain)
                     .ok());
    EXPECT_EQ(plain.size(), k * kRecordSlice);
  }
}

TEST(SecureRecordStreamTest, BurstRekeysMidStream) {
  SecureChannelOptions options = TestOptions();
  options.rekey_after_records = 3;
  auto pair = Handshake(options, options);
  ASSERT_TRUE(pair.ok());
  const Bytes plaintext = PatternBytes(8 * kRecordSlice + 1, 13);
  auto wire = SealStream(pair->client.get(), plaintext);
  ASSERT_TRUE(wire.ok());
  // Nine records at three per epoch: the burst crossed two epoch
  // boundaries while it was being sealed.
  EXPECT_EQ(pair->client->records_sealed(), 9u);
  EXPECT_EQ(pair->client->send_epoch(), 3u);
  Rng rng(3);
  auto plain = IngestInPieces(pair->server.get(), *wire, [&rng] {
    return 1 + static_cast<size_t>(rng.NextBounded(100000));
  });
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(*plain, plaintext);
  EXPECT_EQ(pair->server->recv_epoch(), 3u);
}

TEST(SecureRecordStreamTest, OneMebibyteRecordFromOlderSendersStillOpens) {
  // Earlier senders sealed bursts into records of up to 1 MiB. The
  // receive limit is max_record_bytes — here the one TcpServer derives
  // from its default frame limit — not the 64 KiB slice.
  SecureChannelOptions server_options = TestOptions();
  server_options.max_record_bytes =
      TcpServerOptions().max_frame_bytes + 8 + SecureChannel::kSealOverhead;
  auto pair = Handshake(TestOptions(), server_options);
  ASSERT_TRUE(pair.ok());
  const Bytes plaintext = PatternBytes(1u << 20, 17);
  auto record = pair->client->Seal(plaintext);  // one record, any size
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(pair->client->records_sealed(), 1u);
  Rng rng(5);
  auto plain = IngestInPieces(pair->server.get(), *record, [&rng] {
    return 1 + static_cast<size_t>(rng.NextBounded(70000));
  });
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(*plain, plaintext);
  EXPECT_EQ(pair->server->records_opened(), 1u);
}

// ---------------------------------------------------------------------------
// Live TCP deployments.
// ---------------------------------------------------------------------------

/// Echoes the request back (thread-safe).
class EchoHandler : public RequestHandler {
 public:
  Result<Bytes> Handle(const Bytes& request) override {
    handled_.fetch_add(1);
    return request;
  }
  int handled() const { return handled_.load(); }

 private:
  std::atomic<int> handled_{0};
};

TcpServerOptions SecureServerOptions(uint8_t fill = 0x42) {
  TcpServerOptions options;
  options.channel_policy = ChannelPolicy::kSecure;
  options.secure_channel = TestOptions(fill);
  return options;
}

TEST(SecureTcpTest, CallAndPipelineOverSecureChannel) {
  EchoHandler handler;
  TcpServer server(&handler, SecureServerOptions());
  ASSERT_TRUE(server.Start(0).ok());

  auto transport = TcpTransport::Connect(
      "127.0.0.1", server.port(), ChannelPolicy::kSecure, TestOptions());
  ASSERT_TRUE(transport.ok()) << transport.status().ToString();

  // Synchronous calls.
  for (int i = 0; i < 5; ++i) {
    Bytes request(200 + i, static_cast<uint8_t>(i));
    auto response = (*transport)->Call(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(*response, request);
  }
  // The first round trip implies the server finished the handshake
  // (Connect alone races the server's asynchronous ClientFinish
  // processing).
  EXPECT_EQ(server.handshakes_completed(), 1u);
  // Pipelined, collected out of order.
  std::vector<uint64_t> tickets;
  for (int i = 0; i < 16; ++i) {
    auto ticket = (*transport)->Submit(Bytes(64, static_cast<uint8_t>(i)));
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(*ticket);
  }
  for (int i = 15; i >= 0; --i) {
    auto response = (*transport)->Collect(tickets[i]);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(*response, Bytes(64, static_cast<uint8_t>(i)));
  }
  EXPECT_EQ(handler.handled(), 21);
  server.Stop();
}

TEST(SecureTcpTest, LargeMessagesCrossRekeyBoundaries) {
  EchoHandler handler;
  TcpServerOptions server_options = SecureServerOptions();
  server_options.secure_channel.rekey_after_records = 8;
  TcpServer server(&handler, server_options);
  ASSERT_TRUE(server.Start(0).ok());

  SecureChannelOptions client_options = TestOptions();
  client_options.rekey_after_records = 8;
  auto transport = TcpTransport::Connect(
      "127.0.0.1", server.port(), ChannelPolicy::kSecure, client_options);
  ASSERT_TRUE(transport.ok());

  for (int i = 0; i < 24; ++i) {
    Bytes request(1024 * (1 + i % 3), static_cast<uint8_t>(i * 7));
    auto response = (*transport)->Call(request);
    ASSERT_TRUE(response.ok()) << "call " << i << ": "
                               << response.status().ToString();
    EXPECT_EQ(*response, request);
  }
  server.Stop();
}

TEST(SecureTcpTest, ZeroToThreeMebibytesPipelinedAcrossRekeys) {
  // Every message size from empty to 3 MiB, submitted back to back and
  // collected after, with a record budget small enough that both
  // directions rekey many times mid-burst.
  EchoHandler handler;
  TcpServerOptions server_options = SecureServerOptions();
  server_options.secure_channel.rekey_after_records = 5;
  TcpServer server(&handler, server_options);
  ASSERT_TRUE(server.Start(0).ok());
  SecureChannelOptions client_options = TestOptions();
  client_options.rekey_after_records = 5;
  auto transport = TcpTransport::Connect(
      "127.0.0.1", server.port(), ChannelPolicy::kSecure, client_options);
  ASSERT_TRUE(transport.ok()) << transport.status().ToString();

  const std::vector<size_t> sizes = {
      0,     1,     15,         16,          17,     kRecordSlice - 9,
      kRecordSlice - 8, kRecordSlice, kRecordSlice + 1, 582000,
      3u << 20};
  std::vector<Bytes> requests;
  std::vector<uint64_t> tickets;
  for (size_t i = 0; i < sizes.size(); ++i) {
    requests.push_back(PatternBytes(sizes[i], static_cast<uint32_t>(i)));
    auto ticket = (*transport)->Submit(requests.back());
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    tickets.push_back(*ticket);
  }
  for (size_t i = 0; i < sizes.size(); ++i) {
    auto response = (*transport)->Collect(tickets[i]);
    ASSERT_TRUE(response.ok()) << "size " << sizes[i] << ": "
                               << response.status().ToString();
    EXPECT_EQ(*response, requests[i]) << "size " << sizes[i];
  }
  server.Stop();
}

TEST(SecureTcpTest, WrongClientPskIsRejected) {
  EchoHandler handler;
  TcpServer server(&handler, SecureServerOptions(0x42));
  ASSERT_TRUE(server.Start(0).ok());
  auto transport = TcpTransport::Connect(
      "127.0.0.1", server.port(), ChannelPolicy::kSecure, TestOptions(0x43));
  EXPECT_FALSE(transport.ok());
  EXPECT_EQ(server.handshakes_completed(), 0u);
  server.Stop();
}

TEST(SecureTcpTest, SecureServerRequiresAPsk) {
  EchoHandler handler;
  TcpServerOptions options;
  options.channel_policy = ChannelPolicy::kSecure;  // no PSK configured
  TcpServer server(&handler, options);
  EXPECT_FALSE(server.Start(0).ok());
}

// ---------------------------------------------------------------------------
// Downgrade attacks.
// ---------------------------------------------------------------------------

TEST(DowngradeTest, PlaintextClientAgainstSecureServerIsClosed) {
  EchoHandler handler;
  TcpServer server(&handler, SecureServerOptions());
  ASSERT_TRUE(server.Start(0).ok());

  // A plaintext transport: the server must hard-close, the Call must
  // fail, and no handler must ever run.
  auto plain = TcpTransport::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(plain.ok());  // TCP connects; the violation comes with bytes
  auto response = (*plain)->Call(Bytes{1, 2, 3});
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(handler.handled(), 0);

  // A raw bit-31-clear frame (the retired id-less framing): same close.
  const int fd = RawConnect(server.port());
  const uint8_t legacy[] = {3, 0, 0, 0, 9, 9, 9};
  ASSERT_EQ(::send(fd, legacy, sizeof(legacy), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(legacy)));
  uint8_t sink[64];
  // recv returns 0 on the server's close (possibly after a moment).
  ssize_t n;
  do {
    n = ::recv(fd, sink, sizeof(sink), 0);
  } while (n < 0 && errno == EINTR);
  EXPECT_EQ(n, 0) << "secure server answered a plaintext frame";
  ::close(fd);
  EXPECT_EQ(handler.handled(), 0);

  // Secure clients still work fine afterwards.
  auto good = TcpTransport::Connect("127.0.0.1", server.port(),
                                    ChannelPolicy::kSecure, TestOptions());
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE((*good)->Call(Bytes{5}).ok());
  server.Stop();
}

TEST(DowngradeTest, SecureClientAgainstPlaintextServerFailsCleanly) {
  EchoHandler handler;
  TcpServer server(&handler);  // plaintext policy
  ASSERT_TRUE(server.Start(0).ok());
  auto transport = TcpTransport::Connect(
      "127.0.0.1", server.port(), ChannelPolicy::kSecure, TestOptions());
  ASSERT_FALSE(transport.ok());
  // The magic parses as an oversized plaintext frame, so the server
  // closes and the client reports a handshake failure, not a hang.
  EXPECT_EQ(transport.status().code(), StatusCode::kNetworkError);
  // Plaintext clients are unaffected.
  auto plain = TcpTransport::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE((*plain)->Call(Bytes{1}).ok());
  server.Stop();
}

// ---------------------------------------------------------------------------
// The sniffer: a recording relay between client and server.
// ---------------------------------------------------------------------------

/// Accepts ONE connection, connects to `target_port`, and pumps bytes
/// both ways while recording them. Join() after the client closes.
class SniffRelay {
 public:
  explicit SniffRelay(uint16_t target_port) : target_port_(target_port) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    port_ = ntohs(addr.sin_port);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    acceptor_ = std::thread([this] { Pump(); });
  }

  ~SniffRelay() {
    Join();
    ::close(listen_fd_);
  }

  uint16_t port() const { return port_; }

  void Join() {
    if (acceptor_.joinable()) acceptor_.join();
  }

  const Bytes& client_to_server() const { return c2s_; }
  const Bytes& server_to_client() const { return s2c_; }

 private:
  void Pump() {
    const int client_fd = ::accept(listen_fd_, nullptr, nullptr);
    ASSERT_GE(client_fd, 0);
    const int server_fd = net::RawConnect(target_port_);
    std::thread up([&] { Copy(client_fd, server_fd, &c2s_); });
    std::thread down([&] { Copy(server_fd, client_fd, &s2c_); });
    up.join();
    // The upstream copy ends when the client closed; shut the server
    // side down so the downstream copy drains and ends too.
    ::shutdown(server_fd, SHUT_RDWR);
    down.join();
    ::close(client_fd);
    ::close(server_fd);
  }

  static void Copy(int from, int to, Bytes* capture) {
    uint8_t buf[16 * 1024];
    for (;;) {
      const ssize_t n = ::recv(from, buf, sizeof(buf), 0);
      if (n <= 0) {
        ::shutdown(to, SHUT_WR);
        return;
      }
      capture->insert(capture->end(), buf, buf + n);
      size_t done = 0;
      while (done < static_cast<size_t>(n)) {
        const ssize_t w =
            ::send(to, buf + done, static_cast<size_t>(n) - done,
                   MSG_NOSIGNAL);
        if (w <= 0) return;
        done += static_cast<size_t>(w);
      }
    }
  }

  uint16_t target_port_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::thread acceptor_;
  Bytes c2s_;
  Bytes s2c_;
};

bool ContainsSubsequence(const Bytes& haystack, const Bytes& needle) {
  return std::search(haystack.begin(), haystack.end(), needle.begin(),
                     needle.end()) != haystack.end();
}

/// Walks `capture` from `offset` as a sequence of secure records;
/// returns true when it parses exactly to the end.
bool IsPureRecordStream(const Bytes& capture, size_t offset) {
  while (offset < capture.size()) {
    if (capture.size() - offset < 4) return false;
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(capture[offset + i]) << (8 * i);
    }
    if (SecureChannel::kRecordHeaderSize + len <
        SecureChannel::kSealOverhead) {
      return false;
    }
    if (capture.size() - offset - 4 < len) return false;
    offset += 4 + len;
  }
  return true;
}

TEST(SniffTest, SecureWireCarriesOnlyHandshakeAndRecords) {
  EchoHandler handler;
  TcpServer server(&handler, SecureServerOptions());
  ASSERT_TRUE(server.Start(0).ok());

  // A marker no encrypted stream should ever reproduce by accident.
  Bytes marker;
  for (int i = 0; i < 48; ++i) marker.push_back(static_cast<uint8_t>(0xC3));
  for (int i = 0; i < 16; ++i) marker.push_back(static_cast<uint8_t>(i));

  Bytes c2s, s2c;
  {
    SniffRelay relay(server.port());
    auto transport = TcpTransport::Connect(
        "127.0.0.1", relay.port(), ChannelPolicy::kSecure, TestOptions());
    ASSERT_TRUE(transport.ok()) << transport.status().ToString();
    auto response = (*transport)->Call(marker);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(*response, marker);
    auto ticket = (*transport)->Submit(marker);
    ASSERT_TRUE(ticket.ok());
    ASSERT_TRUE((*transport)->Collect(*ticket).ok());
    transport->reset();  // closes the client socket; the relay drains
    relay.Join();
    c2s = relay.client_to_server();
    s2c = relay.server_to_client();
  }

  // The marker crossed the wire 4 times in plaintext terms — and must
  // appear in NEITHER captured direction.
  EXPECT_FALSE(ContainsSubsequence(c2s, marker));
  EXPECT_FALSE(ContainsSubsequence(s2c, marker));

  // Every byte after the TCP accept is handshake or AEAD record:
  // c2s = ClientHello || ClientFinish || records,
  // s2c = ServerHello || records.
  ASSERT_GE(c2s.size(), kClientHelloSize + kClientFinishSize);
  EXPECT_EQ(0, std::memcmp(c2s.data(), kSecureChannelMagic, 4));
  EXPECT_TRUE(
      IsPureRecordStream(c2s, kClientHelloSize + kClientFinishSize));
  ASSERT_GE(s2c.size(), kServerHelloSize);
  EXPECT_EQ(0, std::memcmp(s2c.data(), kSecureChannelMagic, 4));
  EXPECT_TRUE(IsPureRecordStream(s2c, kServerHelloSize));
  server.Stop();
}

/// Plaintext size of each record in `capture` from `offset` on (which
/// must parse exactly to the end).
std::vector<size_t> RecordPlaintextSizes(const Bytes& capture,
                                         size_t offset) {
  std::vector<size_t> sizes;
  while (offset + 4 <= capture.size()) {
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(capture[offset + i]) << (8 * i);
    }
    sizes.push_back(SecureChannel::kRecordHeaderSize + len -
                    SecureChannel::kSealOverhead);
    offset += 4 + len;
  }
  EXPECT_EQ(offset, capture.size());
  return sizes;
}

TEST(SniffTest, MebibyteRequestAndResponseFlowAs64KiBRecords) {
  // A >= 1 MiB echo over real TCP: both directions arrive byte-identical,
  // and on the wire each frame is ceil(frame / 64 KiB) records — the
  // request sealed record by record by the transport, the response by
  // the server's event loop.
  EchoHandler handler;
  TcpServer server(&handler, SecureServerOptions());
  ASSERT_TRUE(server.Start(0).ok());
  const Bytes request = PatternBytes((1u << 20) + 333, 21);
  Bytes c2s, s2c;
  {
    SniffRelay relay(server.port());
    auto transport = TcpTransport::Connect(
        "127.0.0.1", relay.port(), ChannelPolicy::kSecure, TestOptions());
    ASSERT_TRUE(transport.ok()) << transport.status().ToString();
    auto response = (*transport)->Call(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(*response, request);
    transport->reset();
    relay.Join();
    c2s = relay.client_to_server();
    s2c = relay.server_to_client();
  }
  auto ceil_records = [](size_t bytes) {
    return (bytes + kRecordSlice - 1) / kRecordSlice;
  };
  // Call sends one frame: 8-byte header + payload. Response frame:
  // header + u64 server time + ok flag + payload.
  const std::vector<size_t> up =
      RecordPlaintextSizes(c2s, kClientHelloSize + kClientFinishSize);
  const std::vector<size_t> down = RecordPlaintextSizes(s2c, kServerHelloSize);
  EXPECT_EQ(up.size(), ceil_records(8 + request.size()));
  EXPECT_EQ(down.size(), ceil_records(8 + 8 + 1 + request.size()));
  for (size_t size : up) EXPECT_LE(size, kRecordSlice);
  for (size_t size : down) EXPECT_LE(size, kRecordSlice);
  // Each record's plaintext is its wire size less kSealOverhead, so the
  // records add up to exactly the frames they carry.
  auto sum = [](const std::vector<size_t>& sizes) {
    size_t total = 0;
    for (size_t size : sizes) total += size;
    return total;
  };
  EXPECT_EQ(sum(up), 8 + request.size());
  EXPECT_EQ(sum(down), 8 + 8 + 1 + request.size());
  server.Stop();
}

TEST(SniffTest, PlaintextModeStaysByteTransparent) {
  // Control experiment: the same traffic in plaintext mode IS visible,
  // proving the sniffer would catch a leak.
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start(0).ok());
  Bytes marker(64, 0xC3);
  Bytes c2s, s2c;
  {
    SniffRelay relay(server.port());
    auto transport = TcpTransport::Connect("127.0.0.1", relay.port());
    ASSERT_TRUE(transport.ok());
    auto response = (*transport)->Call(marker);
    ASSERT_TRUE(response.ok());
    transport->reset();
    relay.Join();
    c2s = relay.client_to_server();
    s2c = relay.server_to_client();
  }
  EXPECT_TRUE(ContainsSubsequence(c2s, marker));
  EXPECT_TRUE(ContainsSubsequence(s2c, marker));
  server.Stop();
}

// ---------------------------------------------------------------------------
// The full encrypted-search stack over a secure channel.
// ---------------------------------------------------------------------------

TEST(SecureSessionTest, EncryptionClientWorksOverSecureChannel) {
  // A real EncryptedMIndexServer in secure mode, with the PSK derived
  // from the index secret on both ends (secure/session.h).
  metric::VectorObject pivot1(9001, {0.0f, 0.0f});
  metric::VectorObject pivot2(9002, {10.0f, 10.0f});
  mindex::PivotSet pivots({pivot1, pivot2});
  auto key = secure::SecretKey::Create(pivots, Bytes(16, 0x5E));
  ASSERT_TRUE(key.ok());

  mindex::MIndexOptions index_options;
  index_options.num_pivots = 2;
  auto handler = secure::EncryptedMIndexServer::Create(index_options);
  ASSERT_TRUE(handler.ok());

  TcpServerOptions server_options;
  server_options.channel_policy = ChannelPolicy::kSecure;
  server_options.secure_channel = secure::SecureSessionOptions(*key);
  TcpServer server(handler->get(), server_options);
  ASSERT_TRUE(server.Start(0).ok());

  auto transport = secure::ConnectSecure("127.0.0.1", server.port(), *key);
  ASSERT_TRUE(transport.ok()) << transport.status().ToString();
  auto metric_fn = std::make_shared<metric::L2Distance>();
  secure::EncryptionClient client(*key, metric_fn, transport->get());

  std::vector<metric::VectorObject> objects;
  for (int i = 0; i < 40; ++i) {
    objects.emplace_back(i, std::vector<float>{static_cast<float>(i % 7),
                                               static_cast<float>(i % 5)});
  }
  ASSERT_TRUE(
      client.InsertBulk(objects, secure::InsertStrategy::kPrecise, 10).ok());
  ASSERT_TRUE(client.Ping().ok());

  auto result = client.RangeSearch(objects[3], 0.5);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  bool found_self = false;
  for (const auto& neighbor : *result) {
    if (neighbor.id == objects[3].id()) found_self = true;
  }
  EXPECT_TRUE(found_self);

  auto stats = client.GetServerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->object_count, objects.size());
  server.Stop();
}

}  // namespace
}  // namespace net
}  // namespace simcloud
