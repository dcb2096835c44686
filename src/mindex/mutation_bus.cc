#include "mindex/mutation_bus.h"

#include <chrono>
#include <string>
#include <utility>

#include "mindex/compactor.h"

namespace simcloud {
namespace mindex {

MutationBus::MutationBus(size_t ring_capacity)
    : capacity_(ring_capacity == 0 ? 1 : ring_capacity) {}

void MutationBus::Publish(std::vector<MutationEvent> events) {
  if (events.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (MutationEvent& event : events) {
      event.seq = next_seq_++;
      ring_.push_back(std::move(event));
    }
    while (ring_.size() > capacity_) ring_.pop_front();
  }
  cv_.notify_all();
}

Status MutationBus::ReplayAfter(uint64_t after_seq,
                                std::vector<MutationEvent>* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t last = next_seq_ - 1;
  if (after_seq > last) {
    return Status::OutOfRange("resume token " + std::to_string(after_seq) +
                              " is beyond the shard's last sequence " +
                              std::to_string(last));
  }
  if (after_seq == last) return Status::OK();  // caught up, nothing to copy
  const uint64_t oldest = ring_.empty() ? next_seq_ : ring_.front().seq;
  if (after_seq + 1 < oldest) {
    return Status::OutOfRange(
        "events after " + std::to_string(after_seq) +
        " have left the replay ring (oldest retained: " +
        std::to_string(oldest) + ")");
  }
  for (const MutationEvent& event : ring_) {
    if (event.seq > after_seq) out->push_back(event);
  }
  return Status::OK();
}

bool MutationBus::WaitBeyond(uint64_t after_seq, int timeout_ms) const {
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                      [&] { return next_seq_ - 1 > after_seq; });
}

uint64_t MutationBus::last_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_seq_ - 1;
}

uint64_t MutationBus::first_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.empty() ? 0 : ring_.front().seq;
}

void MutationBus::JournalStore(uint64_t payload_handle) {
  if (pass_ != nullptr) pass_->OnStore(payload_handle);
}

void MutationBus::JournalFree(uint64_t payload_handle) {
  if (pass_ != nullptr) pass_->OnFree(payload_handle);
}

}  // namespace mindex
}  // namespace simcloud
