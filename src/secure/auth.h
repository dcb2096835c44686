// Query authentication for the similarity cloud.
//
// Paper Section 4.3 observes that "an attacker can query the server index
// using an arbitrarily chosen pivot permutation" — the base protocol
// accepts requests from anyone, and although the responses are encrypted,
// each answered probe leaks candidate-set structure. This layer closes
// that hole with a shared-secret request MAC:
//
//   authenticated request := nonce (8 B) || tag (32 B) || request
//   tag := HMAC-SHA256(mac_key, nonce || request)
//
// The data owner derives the MAC key from the secret key
// (SecretKey::DeriveQueryMacKey) and provisions it to the server when the
// service is set up. The server can then verify that a request was built
// by an authorized client, and a bounded nonce cache rejects replays of
// captured requests. Note the trust model: this authenticates *clients to
// the server*; a fully compromised server obviously holds the MAC key and
// could issue its own queries — what it still cannot do is decrypt
// payloads or learn pivots.
//
// Both wrappers are drop-in decorators: AuthenticatingTransport in front
// of any net::Transport on the client, AuthenticatingHandler around any
// net::RequestHandler on the server.

#ifndef SIMCLOUD_SECURE_AUTH_H_
#define SIMCLOUD_SECURE_AUTH_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <set>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/hmac.h"
#include "net/transport.h"
#include "secure/secret_key.h"

namespace simcloud {
namespace secure {

/// Server-side decorator: verifies and strips the authentication header,
/// rejects bad tags and replayed nonces, forwards the inner request.
/// Thread-safe (the nonce cache is internally locked).
class AuthenticatingHandler : public net::RequestHandler {
 public:
  static constexpr size_t kNonceSize = 8;
  static constexpr size_t kTagSize = 32;

  /// `inner` must outlive the handler. `replay_window` bounds the nonce
  /// cache; 0 disables replay detection.
  /// Key hygiene: the raw `mac_key` is wiped once its HMAC key schedule
  /// is built, and the schedule is wiped on destruction.
  AuthenticatingHandler(Bytes mac_key, net::RequestHandler* inner,
                        size_t replay_window = 4096);

  Result<Bytes> Handle(const Bytes& request) override;
  /// Verifies, then forwards the stream context unchanged — watch and
  /// cursor opcodes work through the decorator exactly as without it.
  Result<Bytes> HandleStream(const Bytes& request,
                             net::StreamContext* stream) override;
  /// Connection-scoped state (cursors, watches) lives in the inner
  /// handler; pass the reap notification through.
  void OnConnectionClosed(uint64_t connection_id) override {
    inner_->OnConnectionClosed(connection_id);
  }

  /// Requests rejected so far (bad frame, bad tag, or replay).
  uint64_t rejected_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return rejected_;
  }

 private:
  crypto::HmacSha256State mac_;
  net::RequestHandler* inner_;
  size_t replay_window_;

  mutable std::mutex mutex_;
  uint64_t rejected_ = 0;
  std::set<Bytes> seen_nonces_;
  std::deque<Bytes> nonce_order_;  // eviction order for the bounded cache
};

/// Client-side decorator: prepends nonce + HMAC tag to every request.
/// Each Call or Submit authenticates its own request body — the auth
/// header travels inside the frame body, the transport below owns the
/// frame header — and tickets pass through unchanged. Submit/Collect are
/// as thread-safe as the inner transport's (the nonce counter is
/// atomic); Call serializes like the inner Call.
class AuthenticatingTransport : public net::Transport {
 public:
  /// `inner` must outlive the transport. Key hygiene: the raw `mac_key`
  /// is wiped once its HMAC key schedule is built, and the schedule is
  /// wiped on destruction.
  AuthenticatingTransport(Bytes mac_key, net::Transport* inner);

  Result<Bytes> Call(const Bytes& request) override;

  /// Pipelined pass-through: authenticates the request, submits it on
  /// the inner transport, returns its ticket.
  Result<uint64_t> Submit(const Bytes& request) override;
  Result<Bytes> Collect(uint64_t ticket) override;

  const net::TransportCosts& costs() const override {
    return inner_->costs();
  }
  void ResetCosts() override { inner_->ResetCosts(); }

 private:
  /// nonce || tag || request (the wire shape AuthenticatingHandler
  /// strips).
  Result<Bytes> Authenticate(const Bytes& request);

  crypto::HmacSha256State mac_;
  net::Transport* inner_;
  std::atomic<uint64_t> counter_{0};  // mixed into nonces for uniqueness
};

}  // namespace secure
}  // namespace simcloud

#endif  // SIMCLOUD_SECURE_AUTH_H_
