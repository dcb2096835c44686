#include "secure/watch.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>
#include <vector>

namespace simcloud {
namespace secure {

namespace {

/// Backpressure pacing: when a sweep left some subscription parked (its
/// connection's output queue was full) the loop sleeps this long before
/// retrying instead of spinning on the already-satisfied WaitBeyond.
constexpr int kParkedRetryMs = 20;
/// How long the loop blocks on the bus waiting for fresh events. Bounded
/// so stop requests are honoured promptly.
constexpr int kWaitTickMs = 100;

}  // namespace

WatchHub::WatchHub(const mindex::MutationBus* bus) : bus_(bus) {
  thread_ = std::thread([this] { DeliveryLoop(); });
}

WatchHub::~WatchHub() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

Result<WatchHub::Registration> WatchHub::Register(
    const WatchFilter& filter, bool has_resume, uint64_t resume_after,
    std::function<Status(const WatchFrame&)> push) {
  uint64_t cursor = 0;
  if (has_resume) {
    // Validate the token against the ring NOW so a stale client gets an
    // explicit registration error instead of a stream that opens and
    // immediately reports loss. The probe result is discarded; the
    // delivery thread replays for real from the cursor.
    std::vector<mindex::MutationEvent> probe;
    Status replay = bus_->ReplayAfter(resume_after, &probe);
    if (!replay.ok()) {
      return Status::OutOfRange(kWatchLostPrefix + replay.message());
    }
    cursor = resume_after;
  } else {
    cursor = bus_->last_seq();
  }

  Registration registration;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return Status::FailedPrecondition("watch hub is stopped");
    Subscription sub;
    sub.id = next_watch_id_++;
    sub.filter = filter;
    sub.cursor = cursor;
    sub.push = std::move(push);
    registration.watch_id = sub.id;
    registration.start_seq = cursor;
    subs_.emplace(sub.id, std::move(sub));
  }
  cv_.notify_all();
  return registration;
}

bool WatchHub::Unregister(uint64_t watch_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  return subs_.erase(watch_id) > 0;
}

size_t WatchHub::active() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return subs_.size();
}

bool WatchHub::MatchesInsert(const WatchFilter& filter,
                             const std::vector<float>& pivot_distances) {
  if (filter.kind == WatchFilter::Kind::kAll) return true;
  // kRange: the pivot-space Chebyshev bound max_i |q_i - o_i| is a lower
  // bound on the metric distance under the permutation mapping — exactly
  // what range search prunes with. When the event carries no distances
  // (or a mismatched count) we cannot prune, so we deliver.
  if (pivot_distances.empty() ||
      pivot_distances.size() != filter.query_distances.size()) {
    return true;
  }
  double lower_bound = 0;
  for (size_t i = 0; i < pivot_distances.size(); ++i) {
    lower_bound = std::max(
        lower_bound, std::abs(static_cast<double>(filter.query_distances[i]) -
                              static_cast<double>(pivot_distances[i])));
  }
  return lower_bound <= filter.radius;
}

bool WatchHub::DeliverTo(Subscription* sub, bool* parked, bool* progressed) {
  if (sub->lost) {
    WatchFrame frame;
    frame.kind = WatchFrame::Kind::kLost;
    frame.watch_id = sub->id;
    frame.token = {sub->cursor};
    frame.message = sub->lost_message;
    Status pushed = sub->push(frame);
    if (pushed.ok()) return false;  // loss reported; drop the subscription
    if (pushed.code() == StatusCode::kFailedPrecondition) {
      *parked = true;
      return true;  // retry the lost frame next sweep
    }
    return false;  // connection gone
  }

  std::vector<mindex::MutationEvent> events;
  Status replay = bus_->ReplayAfter(sub->cursor, &events);
  if (!replay.ok()) {
    // The cursor fell off the replay ring (the watcher was parked or the
    // sweep lagged far behind the writers). Switch to loss reporting.
    sub->lost = true;
    sub->lost_message = kWatchLostPrefix + replay.message();
    return DeliverTo(sub, parked, progressed);
  }

  for (const mindex::MutationEvent& event : events) {
    const bool is_insert = event.kind == mindex::MutationKind::kInsert;
    // Deletes always flow: the watcher may hold the object from before
    // the filter was registered, and delete events carry no distances.
    if (is_insert && !MatchesInsert(sub->filter, event.pivot_distances)) {
      sub->cursor = event.seq;
      *progressed = true;
      continue;
    }
    WatchFrame frame;
    frame.kind = is_insert ? WatchFrame::Kind::kInsert
                           : WatchFrame::Kind::kDelete;
    frame.watch_id = sub->id;
    frame.token = {event.seq};
    frame.object_id = event.id;
    if (is_insert) frame.payload = event.payload;
    Status pushed = sub->push(frame);
    if (pushed.ok()) {
      sub->cursor = event.seq;
      *progressed = true;
      continue;
    }
    if (pushed.code() == StatusCode::kFailedPrecondition) {
      *parked = true;  // output queue full: hold the cursor, retry later
      return true;
    }
    return false;  // connection gone
  }
  return true;
}

void WatchHub::DeliveryLoop() {
  while (true) {
    uint64_t min_cursor = 0;
    bool parked_any = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (stop_) return;
      if (subs_.empty()) {
        // Nothing to deliver: sleep until a registration (or stop).
        cv_.wait_for(lock, std::chrono::milliseconds(kWaitTickMs));
        continue;
      }

      // Sweep every subscription. The hub mutex is held across pushes —
      // TryPush never blocks, and holding it gives Unregister its
      // guarantee (no push after Unregister returns).
      bool progressed = false;
      std::vector<uint64_t> dead;
      for (auto& entry : subs_) {
        bool parked = false;
        if (!DeliverTo(&entry.second, &parked, &progressed)) {
          dead.push_back(entry.first);
        }
        parked_any = parked_any || parked;
      }
      for (uint64_t id : dead) subs_.erase(id);
      (void)progressed;

      min_cursor = bus_->last_seq();
      for (const auto& entry : subs_) {
        min_cursor = std::min(min_cursor, entry.second.cursor);
      }
    }

    if (parked_any) {
      // WaitBeyond(min_cursor) is already satisfied while a parked
      // cursor trails the bus — pace the retries instead of spinning.
      std::this_thread::sleep_for(std::chrono::milliseconds(kParkedRetryMs));
      continue;
    }
    bus_->WaitBeyond(min_cursor, kWaitTickMs);
  }
}

}  // namespace secure
}  // namespace simcloud
