// WatchHub: the server-side registry of live change-stream subscriptions
// over one MIndex's MutationBus.
//
// One delivery thread per hub follows the bus: for every subscription it
// replays events after the subscription's cursor, filters them against
// the standing predicate, and hands matching events to the
// subscription's push callback (for a TCP server: EncodeWatchFrame ->
// PushSink::TryPush on the parked request id). Delivery is strictly
// in-order per subscription — the cursor only advances when a frame was
// accepted.
//
// Backpressure and loss are explicit, never silent:
//  * A push that returns FailedPrecondition (the connection's bounded
//    output queue is full) parks the subscription at its cursor; the
//    next sweep retries. A slow watcher therefore costs one parked
//    cursor, not a growing queue — and never stalls other watchers.
//  * When the parked cursor falls off the bus's replay ring, the
//    subscription is LOST: a kWatchLost frame is delivered (itself
//    retried under backpressure) and the subscription is dropped. The
//    client re-runs its query and re-registers fresh.
//  * A push that returns NetworkError means the connection is gone; the
//    subscription is dropped silently (the client knows its own socket
//    died).
//
// The push callback indirection (rather than PushSink directly) lets a
// ShardedServer register facade-side adapters that rewrite per-shard
// tokens into composite tokens before forwarding to the client's sink.

#ifndef SIMCLOUD_SECURE_WATCH_H_
#define SIMCLOUD_SECURE_WATCH_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "mindex/mutation_bus.h"
#include "secure/protocol.h"

namespace simcloud {
namespace secure {

/// Every watch-lost signal starts with this: a registration whose resume
/// token fell off the replay ring (OutOfRange), a kLost frame's message,
/// and the facade's loss of an undecodable shard stream.
inline constexpr char kWatchLostPrefix[] = "watch lost: ";

/// True when `status` carries a watch-lost signal. Matched by substring
/// because status codes do not survive the wire: a remote one arrives as
/// "remote error: watch lost: ...".
inline bool IsWatchLost(const Status& status) {
  return status.message().find(kWatchLostPrefix) != std::string::npos;
}

class WatchHub {
 public:
  /// `bus` must outlive the hub (it lives in the MIndex the hub serves).
  explicit WatchHub(const mindex::MutationBus* bus);
  /// Stops the delivery thread; undelivered events are simply dropped
  /// (clients re-register against the next server with their tokens).
  ~WatchHub();

  WatchHub(const WatchHub&) = delete;
  WatchHub& operator=(const WatchHub&) = delete;

  struct Registration {
    uint64_t watch_id = 0;
    /// The stream's starting point: events with seq > start_seq will be
    /// delivered. This is the ack's resume token.
    uint64_t start_seq = 0;
  };

  /// Registers a subscription. Without a resume token (`has_resume`
  /// false) the stream starts at the bus's current sequence — future
  /// events only. With one, the stream resumes after `resume_after`;
  /// OutOfRange ("watch lost: ...") when the replay ring no longer
  /// covers that point — the client must re-run its query. `push` is
  /// called from the delivery thread only, with frames in stream order;
  /// it must be callable until Unregister returns or the hub is
  /// destroyed.
  Result<Registration> Register(
      const WatchFilter& filter, bool has_resume, uint64_t resume_after,
      std::function<Status(const WatchFrame&)> push);

  /// Drops a subscription. Returns false for an unknown id. After this
  /// returns, `push` will never be called again for the id — delivery
  /// sweeps hold the same mutex.
  bool Unregister(uint64_t watch_id);

  /// Live subscriptions (tests).
  size_t active() const;

  /// Whether an insert with `pivot_distances` matches `filter` — the
  /// same conservative pivot-filtering lower bound the range search
  /// prunes with (exposed for the sharded facade and tests). Events
  /// without usable distances match conservatively.
  static bool MatchesInsert(const WatchFilter& filter,
                            const std::vector<float>& pivot_distances);

 private:
  struct Subscription {
    uint64_t id = 0;
    WatchFilter filter;
    /// Last sequence delivered (or skipped as non-matching); the next
    /// frame is the first event beyond it.
    uint64_t cursor = 0;
    std::function<Status(const WatchFrame&)> push;
    /// The subscription fell off the replay ring; only the kWatchLost
    /// frame remains to deliver (retried under backpressure).
    bool lost = false;
    std::string lost_message;
  };

  void DeliveryLoop();
  /// One delivery attempt for one subscription. Returns false when the
  /// subscription is dead (lost frame delivered, or connection gone).
  /// Sets *parked when a frame was refused for backpressure.
  bool DeliverTo(Subscription* sub, bool* parked, bool* progressed);

  const mindex::MutationBus* bus_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;  ///< wakes the idle (sub-less) loop
  std::map<uint64_t, Subscription> subs_;
  uint64_t next_watch_id_ = 1;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace secure
}  // namespace simcloud

#endif  // SIMCLOUD_SECURE_WATCH_H_
