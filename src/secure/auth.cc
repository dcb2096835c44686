#include "secure/auth.h"

#include <algorithm>

#include "crypto/hmac.h"
#include "crypto/secure_random.h"

namespace simcloud {
namespace secure {

namespace {

/// tag = HMAC-SHA256(mac_key, nonce || body), streamed from where the two
/// parts lie instead of gluing them into one buffer first.
void ComputeTag(const crypto::HmacSha256State& mac, const uint8_t* nonce,
                const uint8_t* body, size_t body_len, uint8_t* tag) {
  crypto::HmacSha256State::Stream stream = mac.NewStream();
  stream.Update(nonce, AuthenticatingHandler::kNonceSize);
  stream.Update(body, body_len);
  stream.FinishInto(tag);
}

}  // namespace

AuthenticatingHandler::AuthenticatingHandler(Bytes mac_key,
                                             net::RequestHandler* inner,
                                             size_t replay_window)
    : mac_(mac_key), inner_(inner), replay_window_(replay_window) {
  WipeBytes(&mac_key);
}

Result<Bytes> AuthenticatingHandler::Handle(const Bytes& request) {
  return HandleStream(request, nullptr);
}

Result<Bytes> AuthenticatingHandler::HandleStream(const Bytes& request,
                                                  net::StreamContext* stream) {
  constexpr size_t kHeader = kNonceSize + kTagSize;
  auto reject = [this](const char* reason) -> Status {
    std::lock_guard<std::mutex> lock(mutex_);
    ++rejected_;
    return Status::PermissionDenied(reason);
  };
  if (request.size() < kHeader) {
    return reject("request too short for authentication header");
  }
  uint8_t expected[kTagSize];
  ComputeTag(mac_, request.data(), request.data() + kHeader,
             request.size() - kHeader, expected);
  if (!ConstantTimeEquals(request.data() + kNonceSize, expected, kTagSize)) {
    return reject("request MAC verification failed");
  }
  if (replay_window_ > 0) {
    Bytes nonce(request.begin(), request.begin() + kNonceSize);
    std::lock_guard<std::mutex> lock(mutex_);
    if (seen_nonces_.count(nonce) > 0) {
      ++rejected_;
      return Status::PermissionDenied("replayed request nonce");
    }
    seen_nonces_.insert(nonce);
    nonce_order_.push_back(std::move(nonce));
    while (nonce_order_.size() > replay_window_) {
      seen_nonces_.erase(nonce_order_.front());
      nonce_order_.pop_front();
    }
  }
  const Bytes inner_request(request.begin() + kHeader, request.end());
  return inner_->HandleStream(inner_request, stream);
}

AuthenticatingTransport::AuthenticatingTransport(Bytes mac_key,
                                                 net::Transport* inner)
    : mac_(mac_key), inner_(inner) {
  WipeBytes(&mac_key);
}

Result<Bytes> AuthenticatingTransport::Authenticate(const Bytes& request) {
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes nonce,
                            crypto::SecureRandom::Generate(
                                AuthenticatingHandler::kNonceSize));
  // Mix a local counter into the nonce so even a broken entropy source
  // cannot repeat nonces within one client.
  const uint64_t counter = counter_.fetch_add(1);
  for (size_t i = 0; i < sizeof(counter) && i < nonce.size(); ++i) {
    nonce[i] ^= static_cast<uint8_t>(counter >> (8 * i));
  }
  constexpr size_t kHeader =
      AuthenticatingHandler::kNonceSize + AuthenticatingHandler::kTagSize;
  Bytes framed(kHeader);
  std::copy(nonce.begin(), nonce.end(), framed.begin());
  ComputeTag(mac_, nonce.data(), request.data(), request.size(),
             framed.data() + AuthenticatingHandler::kNonceSize);
  framed.insert(framed.end(), request.begin(), request.end());
  return framed;
}

Result<Bytes> AuthenticatingTransport::Call(const Bytes& request) {
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes framed, Authenticate(request));
  return inner_->Call(framed);
}

Result<uint64_t> AuthenticatingTransport::Submit(const Bytes& request) {
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes framed, Authenticate(request));
  return inner_->Submit(framed);
}

Result<Bytes> AuthenticatingTransport::Collect(uint64_t ticket) {
  return inner_->Collect(ticket);
}

}  // namespace secure
}  // namespace simcloud
