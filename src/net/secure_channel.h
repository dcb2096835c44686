// Transport security for the similarity cloud: a pre-shared-key mutual
// handshake plus an AES-256-GCM record layer, built entirely from the
// repo's own primitives (HKDF/HMAC-SHA256 for the handshake and the key
// schedule, AES-GCM for records, OS-entropy handshake nonces).
//
// The paper's trust model encrypts payloads *at rest* on the
// honest-but-curious server, but the base wire protocol trusts the
// network: permutation prefixes, candidate counts and ciphertext sizes
// cross the TCP link in the clear, where a passive observer can run the
// exact leakage analyses secure/attack.{h,cc} implements. This layer
// closes that gap. With ChannelPolicy::kSecure on both ends, every byte
// after the TCP accept is either a handshake message or an AEAD record.
//
// ## Handshake (1-RTT, PSK mutual authentication)
//
//   C -> S  ClientHello  = magic(4) | version(1) | client_nonce(32)
//   S -> C  ServerHello  = magic(4) | version(1) | server_nonce(32)
//                          | server_tag(32)
//   C -> S  ClientFinish = client_tag(32)
//
//   hs_mac_key = HKDF-Expand(HKDF-Extract({}, psk), "simcloud hs mac", 32)
//   server_tag = HMAC(hs_mac_key, "server finish" || both nonces)
//   client_tag = HMAC(hs_mac_key, "client finish" || both nonces)
//
// The client verifies server_tag before sending anything further (a
// server that does not hold the PSK cannot produce it), sends
// ClientFinish, and may immediately pipeline records behind it — first
// application byte after one round trip. The server verifies client_tag
// before opening any record. Both tags bind both fresh nonces, so a
// replayed handshake transcript fails against the new peer nonce.
//
// ## Record layer (channel version 2)
//
//   record = u32 LE sealed_length | ciphertext | tag(16)
//            (sealed_length = plaintext length + 16)
//   ciphertext, tag = AES-256-GCM(key, nonce, plaintext, ad)
//   nonce  = static_iv XOR u64 BE seq, right-aligned in 12 bytes
//   ad     = direction label ("sc-c2s" / "sc-s2c") | u64 epoch | u64 seq
//
// There is no explicit IV on the wire (20 bytes of overhead per record):
// as in TLS 1.3 (RFC 8446 §5.3), both ends derive the nonce from a
// per-(direction, epoch) static IV and the record sequence number, so
// sealing draws nothing from OS entropy.
//
// Records carry a byte stream, not frames: a record may hold several
// frames, part of one, or nothing. Senders seal a large burst as it
// flows (SealRecords), in records of kRecordPlaintextBytes = 64 KiB,
// putting each record on the socket before sealing the next, so the
// receiver opens record k while record k+1 is still being sealed. A
// receiver accepts any record up to max_record_bytes, so a peer that
// seals bigger records (earlier builds sealed up to 1 MiB) still
// interoperates: the record size is a sender's choice, not protocol.
//
// Each direction derives its epoch key and static IV from
//   prk = HKDF-Extract(client_nonce || server_nonce, psk)
//   key = HKDF-Expand(prk, label || u64 epoch, 32)
//   iv  = HKDF-Expand(prk, label || u64 epoch || " iv", 12)
// and counts records per (epoch, sequence). The sequence pair is not
// transmitted — both ends count records — so a replayed, reordered,
// dropped or truncated record fails authentication and kills the
// connection. After `rekey_after_records` records or
// `rekey_after_bytes` plaintext bytes a direction advances its epoch
// and re-derives its key and IV; both ends observe the same record
// stream, so the switch is deterministic and needs no signaling. A key
// therefore never sees a repeated nonce, and never more than
// rekey_after_records records — far inside GCM's usage limits.
//
// A version-1 peer (AES-CTR + HMAC-SHA256 records with an explicit IV)
// is refused at the hello with PermissionDenied: the record formats
// differ and there is no negotiation.
//
// ## Downgrade protection
//
// A secure server hard-closes any connection whose first bytes are not
// the handshake magic, so plaintext clients are rejected outright. The
// magic is chosen so that a *plaintext* server parsing it as a frame
// header sees a declared length beyond its 1 GiB default limit and
// closes the connection, which surfaces as a clean handshake failure at
// the secure client instead of a hang.
//
// Threading: a SecureChannel has independent send and receive halves.
// Seal()/SealRecords() calls must be externally serialized, Ingest()
// calls must be externally serialized, but one sealing call and one
// Ingest may run concurrently (TcpTransport seals and writes under its
// write lock while the elected reader ingests; the server's event loop
// does both alone).
// Key material (PSK copies, PRKs, epoch keys, transcripts) is wiped on
// destruction.

#ifndef SIMCLOUD_NET_SECURE_CHANNEL_H_
#define SIMCLOUD_NET_SECURE_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/gcm.h"

namespace simcloud {
namespace net {

/// How a listener / transport treats the wire.
enum class ChannelPolicy : uint8_t {
  /// The original protocol, byte-identical on the wire; the network is
  /// trusted (loopback deployments, the paper's evaluation setup).
  kPlaintext = 0,
  /// PSK handshake + AEAD records on every connection; plaintext peers
  /// are rejected.
  kSecure = 1,
};

/// Configuration of the secure channel (shared by both ends).
struct SecureChannelOptions {
  /// Pre-shared key, >= 16 bytes. The data owner derives it from the
  /// index secret (SecretKey::DeriveChannelKey) and provisions it to the
  /// server alongside the service, like the query-auth MAC key.
  Bytes psk;
  /// A direction rekeys (epoch bump + HKDF re-derivation) after this
  /// many records...
  uint64_t rekey_after_records = 1ull << 20;
  /// ...or this many plaintext bytes, whichever comes first.
  uint64_t rekey_after_bytes = 1ull << 30;
  /// Largest record (header + sealed bytes) a receiver accepts before
  /// declaring a protocol violation. TcpServer::Start derives this from
  /// its max_frame_bytes; the client default admits any legal frame.
  uint64_t max_record_bytes = (1ull << 31) + 128;
  /// Socket receive timeout while the *client* runs its blocking
  /// handshake, so a silent or misconfigured server fails fast.
  int handshake_timeout_ms = 5000;
};

/// First bytes of every handshake: never a plausible plaintext frame
/// header (a default plaintext server sees a > 1 GiB declared length and
/// closes), never valid UTF-8 protocol bytes.
inline constexpr uint8_t kSecureChannelMagic[4] = {'S', 'C', 'H', 0xE5};
inline constexpr uint8_t kSecureChannelVersion = 2;
inline constexpr size_t kChannelNonceSize = 32;
inline constexpr size_t kChannelTagSize = 32;
inline constexpr size_t kClientHelloSize = 5 + kChannelNonceSize;
inline constexpr size_t kServerHelloSize =
    5 + kChannelNonceSize + kChannelTagSize;
inline constexpr size_t kClientFinishSize = kChannelTagSize;

/// An open record channel: Seal outgoing frames into records, Ingest
/// raw wire bytes back into the plaintext stream. Created by the
/// handshake drivers below.
class SecureChannel {
 public:
  /// u32 length prefix of every record.
  static constexpr size_t kRecordHeaderSize = 4;
  /// GCM tag closing every record.
  static constexpr size_t kTagSize = crypto::AesGcm::kTagSize;
  /// Wire overhead of one record over its plaintext: length prefix and
  /// tag (the nonce is implicit).
  static constexpr size_t kSealOverhead = kRecordHeaderSize + kTagSize;
  /// Plaintext bytes per record when SealRecords slices a stream. A
  /// receiver can release a record's plaintext only once the whole
  /// record has arrived and its tag verified, so the record size bounds
  /// how much a sender must seal before bytes move and how much a
  /// receiver must buffer before it can start opening (TLS 1.3 caps
  /// records at 16 KiB for the same reason). At 64 KiB the fixed
  /// per-record costs — the nonce and AD, the record allocation and the
  /// GHASH finalization — stay small next to the record's AES-GCM
  /// pass. A constant, not an option: receivers accept any record
  /// up to max_record_bytes whatever size the sender picked.
  static constexpr size_t kRecordPlaintextBytes = 64 * 1024;

  /// Wipes the PRK and both direction IVs (the AES key schedules go with
  /// the cipher objects).
  ~SecureChannel();

  /// Seals data[0..len) (one frame, or any stream segment, of any length
  /// the u32 prefix can carry) into ONE length-prefixed record under the
  /// send direction's current (epoch, seq), then advances the send
  /// schedule. The record is built in one allocation:
  /// u32 len | ciphertext | tag, each written in place.
  Result<Bytes> Seal(const uint8_t* data, size_t len);
  Result<Bytes> Seal(const Bytes& plaintext) {
    return Seal(plaintext.data(), plaintext.size());
  }

  /// Seals data[0..len) as a stream of records of at most
  /// kRecordPlaintextBytes each — ceil(len / kRecordPlaintextBytes)
  /// records, one empty record when len == 0 — and hands each record to
  /// `emit` before sealing the next, so the caller puts it on the wire
  /// while the rest is still being sealed and the peer opens record k
  /// while record k+1 is sealed. Stops at the first sealing or `emit`
  /// error and returns it.
  Status SealRecords(const uint8_t* data, size_t len,
                     const std::function<Status(Bytes record)>& emit);

  /// Consumes complete records from data[0..len), appending their
  /// plaintext to `*plain` and the consumed byte count to `*consumed`
  /// (partial trailing records are left for the caller's buffer). Each
  /// record's tag is checked over `data` where it lies; only then is it
  /// decrypted straight into the tail of `*plain`. Any authentication
  /// failure — tampering, replay, reordering, truncation, a record
  /// beyond max_record_bytes — is a NetworkError; no plaintext of the
  /// failing record (or any later one) is appended, the caller must
  /// close the connection, and the channel stays failed.
  Status Ingest(const uint8_t* data, size_t len, size_t* consumed,
                Bytes* plain);

  /// Telemetry for tests and benches.
  uint64_t send_epoch() const { return send_.epoch; }
  uint64_t recv_epoch() const { return recv_.epoch; }
  uint64_t records_sealed() const { return send_.total_records; }
  uint64_t records_opened() const { return recv_.total_records; }

 private:
  friend class ClientHandshake;
  friend class ServerHandshake;

  struct Direction {
    const char* label = nullptr;  ///< "sc-c2s" or "sc-s2c"
    std::optional<crypto::AesGcm> aead;     ///< the epoch's record key
    uint8_t static_iv[crypto::AesGcm::kNonceSize] = {};  ///< epoch's IV
    uint64_t epoch = 0;
    uint64_t seq = 0;                ///< records within the epoch
    uint64_t bytes_in_epoch = 0;     ///< plaintext bytes within the epoch
    uint64_t total_records = 0;
  };

  /// Derives both direction keys and IVs for epoch 0 from the handshake
  /// PRK.
  static Result<std::unique_ptr<SecureChannel>> Create(
      bool is_client, Bytes prk, const SecureChannelOptions& options);

  SecureChannel() = default;

  /// Counts one record of `plaintext_bytes` against `dir`'s budgets and
  /// rekeys (epoch bump + key and IV re-derivation) when a budget is
  /// exhausted.
  Status Advance(Direction* dir, size_t plaintext_bytes);

  Bytes prk_;  ///< handshake master secret; wiped on destruction
  uint64_t rekey_after_records_ = 0;
  uint64_t rekey_after_bytes_ = 0;
  uint64_t max_record_bytes_ = 0;
  Status broken_ = Status::OK();  ///< sticky receive failure
  Direction send_;
  Direction recv_;
};

/// Client half of the handshake, I/O-free for testability (the blocking
/// socket driver is RunClientHandshake). Wipes its key material on
/// destruction.
class ClientHandshake {
 public:
  /// Draws the client nonce and builds the ClientHello.
  static Result<ClientHandshake> Start(const SecureChannelOptions& options);
  ~ClientHandshake();
  ClientHandshake(ClientHandshake&&) = default;
  ClientHandshake& operator=(ClientHandshake&&) = default;

  const Bytes& hello() const { return hello_; }

  /// Verifies the ServerHello (exactly kServerHelloSize bytes; a bad
  /// magic, version or tag is PermissionDenied). On success returns the
  /// ClientFinish message and opens `*channel`.
  Result<Bytes> Finish(const Bytes& server_hello,
                       std::unique_ptr<SecureChannel>* channel);

 private:
  explicit ClientHandshake(SecureChannelOptions options)
      : options_(std::move(options)) {}

  SecureChannelOptions options_;
  Bytes client_nonce_;
  Bytes hello_;
};

/// Server half of the handshake: a non-blocking state machine the epoll
/// loop feeds with raw bytes, so a mid-handshake connection never
/// blocks the loop or other connections. Wipes its key material on
/// destruction.
class ServerHandshake {
 public:
  explicit ServerHandshake(SecureChannelOptions options)
      : options_(std::move(options)) {}
  ~ServerHandshake();

  /// Consumes complete handshake messages from data[0..len), returning
  /// how many bytes were eaten (partial messages wait for more input).
  /// The ServerHello reply, when produced, is appended to `*to_send`.
  /// Errors — bytes that are not a handshake (a plaintext client:
  /// downgrade attempt), a bad version, a wrong finish tag —
  /// must close the connection.
  Result<size_t> Consume(const uint8_t* data, size_t len, Bytes* to_send);

  /// True once the ClientFinish verified; TakeChannel() yields the open
  /// record channel exactly once.
  bool done() const { return state_ == State::kDone; }
  std::unique_ptr<SecureChannel> TakeChannel() { return std::move(channel_); }

 private:
  enum class State { kAwaitHello, kAwaitFinish, kDone };

  SecureChannelOptions options_;
  State state_ = State::kAwaitHello;
  Bytes client_nonce_;
  Bytes server_nonce_;
  std::unique_ptr<SecureChannel> channel_;
};

/// Runs the full client handshake over a connected blocking socket
/// (applies options.handshake_timeout_ms to the reads). Distinguishes a
/// server that closed mid-handshake — the signature of a plaintext
/// server rejecting the magic — in its error message.
Result<std::unique_ptr<SecureChannel>> RunClientHandshake(
    int fd, const SecureChannelOptions& options);

}  // namespace net
}  // namespace simcloud

#endif  // SIMCLOUD_NET_SECURE_CHANNEL_H_
