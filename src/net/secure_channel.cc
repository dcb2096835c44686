#include "net/secure_channel.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "crypto/hkdf.h"
#include "crypto/hmac.h"
#include "crypto/secure_random.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace simcloud {
namespace net {

namespace {

constexpr char kC2sLabel[] = "sc-c2s";
constexpr char kS2cLabel[] = "sc-s2c";

Bytes LabelBytes(const char* label) {
  return Bytes(label, label + std::strlen(label));
}

void AppendU64(uint64_t v, Bytes* out) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint32_t LoadLE32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

Status ValidatePsk(const SecureChannelOptions& options) {
  if (options.psk.size() < 16) {
    return Status::InvalidArgument(
        "secure channel PSK must be at least 16 bytes");
  }
  if (options.rekey_after_records == 0 || options.rekey_after_bytes == 0) {
    return Status::InvalidArgument("rekey budgets must be positive");
  }
  return Status::OK();
}

/// hs_mac_key = HKDF-Expand(HKDF-Extract({}, psk), "simcloud hs mac", 32).
Result<Bytes> HandshakeMacKey(const Bytes& psk) {
  Bytes early = crypto::HkdfExtract({}, psk);
  Result<Bytes> key =
      crypto::HkdfExpand(early, LabelBytes("simcloud hs mac"), 32);
  WipeBytes(&early);
  return key;
}

/// HMAC(hs_mac_key, role_label || client_nonce || server_nonce).
Result<Bytes> TranscriptTag(const Bytes& psk, const char* role_label,
                            const Bytes& client_nonce,
                            const Bytes& server_nonce) {
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes mac_key, HandshakeMacKey(psk));
  Bytes transcript = LabelBytes(role_label);
  transcript.insert(transcript.end(), client_nonce.begin(),
                    client_nonce.end());
  transcript.insert(transcript.end(), server_nonce.begin(),
                    server_nonce.end());
  Bytes tag = crypto::HmacSha256(mac_key, transcript);
  WipeBytes(&mac_key);
  WipeBytes(&transcript);
  return tag;
}

/// The record-layer master secret, bound to both fresh nonces.
Bytes MasterPrk(const Bytes& psk, const Bytes& client_nonce,
                const Bytes& server_nonce) {
  Bytes salt = client_nonce;
  salt.insert(salt.end(), server_nonce.begin(), server_nonce.end());
  Bytes prk = crypto::HkdfExtract(salt, psk);
  WipeBytes(&salt);
  return prk;
}

/// The epoch key and static IV of one direction:
///   key = HKDF-Expand(prk, label | u64 epoch, 32)
///   iv  = HKDF-Expand(prk, label | u64 epoch | " iv", 12)
Status DeriveEpochKeys(const Bytes& prk, const char* label, uint64_t epoch,
                       std::optional<crypto::AesGcm>* aead,
                       uint8_t static_iv[crypto::AesGcm::kNonceSize]) {
  Bytes info = LabelBytes(label);
  AppendU64(epoch, &info);
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes key, crypto::HkdfExpand(prk, info, 32));
  Result<crypto::AesGcm> gcm = crypto::AesGcm::Create(key);
  WipeBytes(&key);
  SIMCLOUD_RETURN_NOT_OK(gcm.status());
  info.insert(info.end(), {' ', 'i', 'v'});
  SIMCLOUD_ASSIGN_OR_RETURN(
      Bytes iv, crypto::HkdfExpand(prk, info, crypto::AesGcm::kNonceSize));
  std::memcpy(static_iv, iv.data(), crypto::AesGcm::kNonceSize);
  WipeBytes(&iv);
  aead->emplace(std::move(*gcm));
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// SecureChannel
// ---------------------------------------------------------------------------

Result<std::unique_ptr<SecureChannel>> SecureChannel::Create(
    bool is_client, Bytes prk, const SecureChannelOptions& options) {
  auto channel = std::unique_ptr<SecureChannel>(new SecureChannel());
  channel->prk_ = std::move(prk);
  channel->rekey_after_records_ = options.rekey_after_records;
  channel->rekey_after_bytes_ = options.rekey_after_bytes;
  channel->max_record_bytes_ = options.max_record_bytes;
  channel->send_.label = is_client ? kC2sLabel : kS2cLabel;
  channel->recv_.label = is_client ? kS2cLabel : kC2sLabel;
  for (Direction* dir : {&channel->send_, &channel->recv_}) {
    SIMCLOUD_RETURN_NOT_OK(DeriveEpochKeys(channel->prk_, dir->label, 0,
                                           &dir->aead, dir->static_iv));
  }
  return channel;
}

SecureChannel::~SecureChannel() {
  WipeBytes(&prk_);
  for (Direction* dir : {&send_, &recv_}) {
    volatile uint8_t* iv = dir->static_iv;
    for (size_t i = 0; i < sizeof(dir->static_iv); ++i) iv[i] = 0;
  }
}

namespace {

static_assert(sizeof(kC2sLabel) == sizeof(kS2cLabel));
constexpr size_t kLabelSize = sizeof(kC2sLabel) - 1;
constexpr size_t kRecordAdSize = kLabelSize + 16;

/// The associated data binding a record to its direction and position,
/// label | u64 epoch | u64 seq, written to ad[0..kRecordAdSize).
void RecordAssociatedData(const char* label, uint64_t epoch, uint64_t seq,
                          uint8_t* ad) {
  std::memcpy(ad, label, kLabelSize);
  for (int i = 0; i < 8; ++i) {
    ad[kLabelSize + i] = static_cast<uint8_t>(epoch >> (8 * i));
    ad[kLabelSize + 8 + i] = static_cast<uint8_t>(seq >> (8 * i));
  }
}

/// The record nonce: the direction's static IV XOR the u64 sequence
/// number, big-endian and right-aligned (RFC 8446 §5.3). The epoch's key
/// changes with every rekey and seq is unique within an epoch, so no
/// (key, nonce) pair ever seals twice.
void RecordNonce(const uint8_t static_iv[crypto::AesGcm::kNonceSize],
                 uint64_t seq, uint8_t nonce[crypto::AesGcm::kNonceSize]) {
  std::memcpy(nonce, static_iv, crypto::AesGcm::kNonceSize);
  for (int i = 0; i < 8; ++i) {
    nonce[crypto::AesGcm::kNonceSize - 1 - i] ^=
        static_cast<uint8_t>(seq >> (8 * i));
  }
}

// GCM's 32-bit block counter starts at 2 for the payload, so one record
// may carry at most 2^36 - 32 bytes before it would wrap. The u32 length
// prefix caps every record far below that (and max_record_bytes, at most
// 2^31 + 128 by default, lower still), so a record can never wrap it.
static_assert(uint64_t{0xFFFFFFFF} <= crypto::AesGcm::kMaxPlaintextBytes);

}  // namespace

Status SecureChannel::Advance(Direction* dir, size_t plaintext_bytes) {
  dir->seq++;
  dir->total_records++;
  dir->bytes_in_epoch += plaintext_bytes;
  if (dir->seq < rekey_after_records_ &&
      dir->bytes_in_epoch < rekey_after_bytes_) {
    return Status::OK();
  }
  dir->epoch++;
  dir->seq = 0;
  dir->bytes_in_epoch = 0;
  SIMCLOUD_RETURN_NOT_OK(DeriveEpochKeys(prk_, dir->label, dir->epoch,
                                         &dir->aead, dir->static_iv));
  {
    static obs::Counter* const rekeys =
        obs::Registry::Default().GetCounter("simcloud_secure_rekeys_total");
    rekeys->Add(1);
  }
  return Status::OK();
}

Result<Bytes> SecureChannel::Seal(const uint8_t* data, size_t len) {
  const uint64_t sealed_len = uint64_t{len} + kTagSize;
  if (sealed_len > 0xFFFFFFFFull) {
    return Status::InvalidArgument("record exceeds the u32 length prefix");
  }
  uint8_t ad[kRecordAdSize];
  RecordAssociatedData(send_.label, send_.epoch, send_.seq, ad);
  uint8_t nonce[crypto::AesGcm::kNonceSize];
  RecordNonce(send_.static_iv, send_.seq, nonce);
  Bytes record(kRecordHeaderSize + sealed_len);
  for (int i = 0; i < 4; ++i) {
    record[i] = static_cast<uint8_t>(sealed_len >> (8 * i));
  }
  uint8_t* body = record.data() + kRecordHeaderSize;
  SIMCLOUD_RETURN_NOT_OK(send_.aead->SealInto(nonce, ad, sizeof(ad), data,
                                              len, body, body + len));
  SIMCLOUD_RETURN_NOT_OK(Advance(&send_, len));
  return record;
}

Status SecureChannel::SealRecords(
    const uint8_t* data, size_t len,
    const std::function<Status(Bytes record)>& emit) {
  size_t off = 0;
  do {
    const size_t n = std::min(kRecordPlaintextBytes, len - off);
    SIMCLOUD_ASSIGN_OR_RETURN(Bytes record,
                              Seal(n == 0 ? nullptr : data + off, n));
    SIMCLOUD_RETURN_NOT_OK(emit(std::move(record)));
    off += n;
  } while (off < len);
  return Status::OK();
}

Status SecureChannel::Ingest(const uint8_t* data, size_t len,
                             size_t* consumed, Bytes* plain) {
  *consumed = 0;
  SIMCLOUD_RETURN_NOT_OK(broken_);
  for (;;) {
    const size_t avail = len - *consumed;
    if (avail < kRecordHeaderSize) return Status::OK();
    const uint32_t sealed_len = LoadLE32(data + *consumed);
    if (sealed_len < kTagSize ||
        kRecordHeaderSize + static_cast<uint64_t>(sealed_len) >
            max_record_bytes_) {
      broken_ = Status::NetworkError("malformed secure record length " +
                                     std::to_string(sealed_len));
      return broken_;
    }
    if (avail < kRecordHeaderSize + sealed_len) return Status::OK();
    uint8_t ad[kRecordAdSize];
    RecordAssociatedData(recv_.label, recv_.epoch, recv_.seq, ad);
    uint8_t nonce[crypto::AesGcm::kNonceSize];
    RecordNonce(recv_.static_iv, recv_.seq, nonce);
    // The whole record is here, so growing `*plain` by its plaintext
    // size is backed by bytes actually received. OpenInto verifies the
    // tag over the receive buffer before it writes a byte; on failure the
    // tail is cut off again.
    const size_t plain_len = sealed_len - kTagSize;
    const size_t plain_off = plain->size();
    plain->resize(plain_off + plain_len);
    const uint8_t* body = data + *consumed + kRecordHeaderSize;
    Status opened = recv_.aead->OpenInto(nonce, ad, sizeof(ad), body,
                                         plain_len, body + plain_len,
                                         plain->data() + plain_off);
    if (!opened.ok()) {
      // Tampering, truncation, or a replayed/reordered record (the
      // expected sequence number has moved on). Nothing is decryptable
      // past this point; the connection must die.
      plain->resize(plain_off);
      broken_ = Status::NetworkError(
          "secure record failed authentication: " + opened.message());
      return broken_;
    }
    Status advanced = Advance(&recv_, plain_len);
    if (!advanced.ok()) {
      broken_ = advanced;
      return broken_;
    }
    *consumed += kRecordHeaderSize + sealed_len;
  }
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

Result<ClientHandshake> ClientHandshake::Start(
    const SecureChannelOptions& options) {
  SIMCLOUD_RETURN_NOT_OK(ValidatePsk(options));
  ClientHandshake handshake(options);
  SIMCLOUD_ASSIGN_OR_RETURN(
      handshake.client_nonce_,
      crypto::SecureRandom::Generate(kChannelNonceSize));
  handshake.hello_.reserve(kClientHelloSize);
  handshake.hello_.insert(handshake.hello_.end(), kSecureChannelMagic,
                          kSecureChannelMagic + 4);
  handshake.hello_.push_back(kSecureChannelVersion);
  handshake.hello_.insert(handshake.hello_.end(),
                          handshake.client_nonce_.begin(),
                          handshake.client_nonce_.end());
  return handshake;
}

ClientHandshake::~ClientHandshake() {
  WipeBytes(&options_.psk);
  WipeBytes(&client_nonce_);
}

Result<Bytes> ClientHandshake::Finish(
    const Bytes& server_hello, std::unique_ptr<SecureChannel>* channel) {
  if (server_hello.size() != kServerHelloSize) {
    return Status::NetworkError("server hello has wrong size");
  }
  if (std::memcmp(server_hello.data(), kSecureChannelMagic, 4) != 0) {
    return Status::PermissionDenied(
        "server did not answer with a secure-channel hello");
  }
  if (server_hello[4] != kSecureChannelVersion) {
    return Status::PermissionDenied("unsupported secure-channel version");
  }
  const Bytes server_nonce(server_hello.begin() + 5,
                           server_hello.begin() + 5 + kChannelNonceSize);
  const Bytes server_tag(server_hello.begin() + 5 + kChannelNonceSize,
                         server_hello.end());
  SIMCLOUD_ASSIGN_OR_RETURN(
      Bytes expected, TranscriptTag(options_.psk, "server finish",
                                    client_nonce_, server_nonce));
  if (!ConstantTimeEquals(server_tag, expected)) {
    return Status::PermissionDenied(
        "server handshake tag verification failed (wrong PSK?)");
  }
  SIMCLOUD_ASSIGN_OR_RETURN(
      Bytes finish_tag, TranscriptTag(options_.psk, "client finish",
                                      client_nonce_, server_nonce));
  SIMCLOUD_ASSIGN_OR_RETURN(
      *channel,
      SecureChannel::Create(
          /*is_client=*/true,
          MasterPrk(options_.psk, client_nonce_, server_nonce), options_));
  return finish_tag;
}

ServerHandshake::~ServerHandshake() {
  WipeBytes(&options_.psk);
  WipeBytes(&client_nonce_);
  WipeBytes(&server_nonce_);
}

Result<size_t> ServerHandshake::Consume(const uint8_t* data, size_t len,
                                        Bytes* to_send) {
  SIMCLOUD_RETURN_NOT_OK(ValidatePsk(options_));
  size_t consumed = 0;
  if (state_ == State::kAwaitHello) {
    // Reject a non-handshake peer on the first bytes we can judge: a
    // plaintext client must be hard-closed, not served.
    const size_t check = std::min<size_t>(len, 4);
    if (check > 0 && std::memcmp(data, kSecureChannelMagic, check) != 0) {
      return Status::PermissionDenied(
          "secure server rejected a plaintext (or non-handshake) client");
    }
    if (len < kClientHelloSize) return consumed;  // still arriving
    if (data[4] != kSecureChannelVersion) {
      return Status::PermissionDenied("unsupported secure-channel version");
    }
    client_nonce_.assign(data + 5, data + 5 + kChannelNonceSize);
    SIMCLOUD_ASSIGN_OR_RETURN(
        server_nonce_, crypto::SecureRandom::Generate(kChannelNonceSize));
    SIMCLOUD_ASSIGN_OR_RETURN(
        Bytes server_tag, TranscriptTag(options_.psk, "server finish",
                                        client_nonce_, server_nonce_));
    to_send->insert(to_send->end(), kSecureChannelMagic,
                    kSecureChannelMagic + 4);
    to_send->push_back(kSecureChannelVersion);
    to_send->insert(to_send->end(), server_nonce_.begin(),
                    server_nonce_.end());
    to_send->insert(to_send->end(), server_tag.begin(), server_tag.end());
    consumed += kClientHelloSize;
    state_ = State::kAwaitFinish;
  }
  if (state_ == State::kAwaitFinish) {
    if (len - consumed < kClientFinishSize) return consumed;
    const Bytes client_tag(data + consumed,
                           data + consumed + kClientFinishSize);
    SIMCLOUD_ASSIGN_OR_RETURN(
        Bytes expected, TranscriptTag(options_.psk, "client finish",
                                      client_nonce_, server_nonce_));
    if (!ConstantTimeEquals(client_tag, expected)) {
      return Status::PermissionDenied(
          "client handshake tag verification failed (wrong PSK?)");
    }
    SIMCLOUD_ASSIGN_OR_RETURN(
        channel_,
        SecureChannel::Create(
            /*is_client=*/false,
            MasterPrk(options_.psk, client_nonce_, server_nonce_),
            options_));
    consumed += kClientFinishSize;
    state_ = State::kDone;
  }
  return consumed;
}

// ---------------------------------------------------------------------------
// Blocking client driver
// ---------------------------------------------------------------------------

namespace {

Status WriteAllFd(int fd, const uint8_t* data, size_t len) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::send(fd, data + done, len - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::NetworkError(std::string("handshake send failed: ") +
                                  std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ReadAllFd(int fd, uint8_t* data, size_t len) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::recv(fd, data + done, len - done, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::NetworkError("secure handshake timed out");
      }
      return Status::NetworkError(std::string("handshake recv failed: ") +
                                  std::strerror(errno));
    }
    if (n == 0) {
      return Status::NetworkError(
          "server closed the connection during the secure handshake — is "
          "it running with ChannelPolicy::kSecure?");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

void SetRecvTimeout(int fd, int millis) {
  timeval tv{};
  tv.tv_sec = millis / 1000;
  tv.tv_usec = (millis % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

}  // namespace

Result<std::unique_ptr<SecureChannel>> RunClientHandshake(
    int fd, const SecureChannelOptions& options) {
  const uint64_t start_nanos =
      obs::MetricsEnabled() ? obs::MonotonicNanos() : 0;
  SIMCLOUD_ASSIGN_OR_RETURN(ClientHandshake handshake,
                            ClientHandshake::Start(options));
  if (options.handshake_timeout_ms > 0) {
    SetRecvTimeout(fd, options.handshake_timeout_ms);
  }
  SIMCLOUD_RETURN_NOT_OK(
      WriteAllFd(fd, handshake.hello().data(), handshake.hello().size()));
  Bytes server_hello(kServerHelloSize);
  SIMCLOUD_RETURN_NOT_OK(
      ReadAllFd(fd, server_hello.data(), server_hello.size()));
  std::unique_ptr<SecureChannel> channel;
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes finish,
                            handshake.Finish(server_hello, &channel));
  SIMCLOUD_RETURN_NOT_OK(WriteAllFd(fd, finish.data(), finish.size()));
  if (options.handshake_timeout_ms > 0) SetRecvTimeout(fd, 0);
  if (start_nanos != 0) {
    static obs::Histogram* const latency =
        obs::Registry::Default().GetHistogram(
            "simcloud_secure_handshake_nanos{side=\"client\"}");
    latency->Record(obs::MonotonicNanos() - start_nanos);
  }
  return channel;
}

}  // namespace net
}  // namespace simcloud
