#include "secure/auth.h"

#include "crypto/hmac.h"
#include "crypto/secure_random.h"

namespace simcloud {
namespace secure {

namespace {

Bytes ComputeTag(const Bytes& mac_key, const uint8_t* nonce,
                 const Bytes& request) {
  Bytes message;
  message.reserve(AuthenticatingHandler::kNonceSize + request.size());
  message.insert(message.end(), nonce,
                 nonce + AuthenticatingHandler::kNonceSize);
  message.insert(message.end(), request.begin(), request.end());
  return crypto::HmacSha256(mac_key, message);
}

}  // namespace

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
  const Bytes tag(request.begin() + kNonceSize,
                  request.begin() + kHeader);
  const Bytes inner_request(request.begin() + kHeader, request.end());
  const Bytes expected = ComputeTag(mac_key_, request.data(), inner_request);
  if (!ConstantTimeEquals(tag, expected)) {
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
  return inner_->HandleStream(inner_request, stream);
}

AuthenticatingTransport::~AuthenticatingTransport() {
  WipeBytes(&mac_key_);
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
  const Bytes tag = ComputeTag(mac_key_, nonce.data(), request);

  Bytes framed;
  framed.reserve(nonce.size() + tag.size() + request.size());
  framed.insert(framed.end(), nonce.begin(), nonce.end());
  framed.insert(framed.end(), tag.begin(), tag.end());
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
