// Mutation event bus: the single ordering source of truth for index
// mutations. Every successful Insert/Delete publishes a shard-monotonic
// `(seq, object id, kind)` event here while the caller still holds the
// index writer lock, so the bus sequence IS the mutation order — no
// reordering window exists between the tree change and its event.
//
// Two consumers ride the bus:
//  * Watchers (kWatch change streams, secure/watch.h): events are kept in
//    a bounded in-memory ring so a subscriber can replay from a resume
//    token (`ReplayAfter`). A token that has fallen off the ring is an
//    explicit OutOfRange ("watch lost") — the client must re-run its
//    query; silence is never an option.
//  * The compactor's relocation journal: while a CompactionPass is armed,
//    payload stores/frees are forwarded to it through the same choke
//    point (`JournalStore`/`JournalFree`), replacing the old bare
//    `active_pass_` pointer in MIndex. One place sees every mutation.
//
// Locking: the journal side (Arm/Disarm/JournalStore/JournalFree/armed)
// is called only under the index writer lock, exactly like the pointer it
// replaced — no internal locking. The event side (Publish/ReplayAfter/
// WaitBeyond/last_seq) takes the bus's own mutex, because watch delivery
// threads read the ring WITHOUT the index lock.

#ifndef SIMCLOUD_MINDEX_MUTATION_BUS_H_
#define SIMCLOUD_MINDEX_MUTATION_BUS_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "metric/object.h"

namespace simcloud {
namespace mindex {

class CompactionPass;

enum class MutationKind : uint8_t {
  kInsert = 1,
  kDelete = 2,
};

/// One published mutation. `seq` is shard-monotonic starting at 1; it is
/// the resume token a watcher hands back to continue after `seq`.
/// `pivot_distances` and `payload` are filled for inserts only (they are
/// what a range-filtered watcher needs to match and what a push frame
/// delivers); deletes carry just the id.
struct MutationEvent {
  uint64_t seq = 0;
  MutationKind kind = MutationKind::kInsert;
  metric::ObjectId id = 0;
  std::vector<float> pivot_distances;
  Bytes payload;
};

class MutationBus {
 public:
  /// `ring_capacity` bounds the replay window (events, not bytes); 0 is
  /// clamped to 1 so `last_seq` is always replayable.
  explicit MutationBus(size_t ring_capacity);

  MutationBus(const MutationBus&) = delete;
  MutationBus& operator=(const MutationBus&) = delete;

  // --- Event side (bus mutex) ---------------------------------------

  /// Publishes a batch's events in order under one lock and one wake-up,
  /// assigning each its sequence number (the caller's `seq` is ignored).
  /// Callers hold the index writer lock, which orders concurrent
  /// publishes; the internal mutex only protects against concurrent
  /// readers.
  void Publish(std::vector<MutationEvent> events);

  /// Appends every retained event with seq > `after_seq` to `*out`, in
  /// order. OutOfRange when events after `after_seq` have already fallen
  /// off the ring (the watcher is lost and must re-run its query) or when
  /// `after_seq` is beyond `last_seq` (a token from a different shard or
  /// a corrupt client).
  Status ReplayAfter(uint64_t after_seq, std::vector<MutationEvent>* out) const;

  /// Blocks until `last_seq > after_seq` or `timeout_ms` elapses.
  /// Returns true when new events are available.
  bool WaitBeyond(uint64_t after_seq, int timeout_ms) const;

  /// Sequence number of the newest published event (0 = none yet).
  uint64_t last_seq() const;

  /// Oldest sequence still in the ring (0 = ring empty).
  uint64_t first_seq() const;

  // --- Journal side (index writer lock, no internal locking) --------

  /// Arms/disarms the relocation journal of an in-flight compaction pass
  /// (set/cleared in RunCompactionPass's exclusive slices).
  void ArmJournal(CompactionPass* pass) { pass_ = pass; }
  void DisarmJournal() { pass_ = nullptr; }
  bool journal_armed() const { return pass_ != nullptr; }

  /// Forwards a payload store/free to the armed pass; no-ops otherwise.
  void JournalStore(uint64_t payload_handle);
  void JournalFree(uint64_t payload_handle);

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  std::deque<MutationEvent> ring_;
  uint64_t next_seq_ = 1;

  /// The armed relocation journal; guarded by the index writer lock, not
  /// by `mutex_` (see header comment).
  CompactionPass* pass_ = nullptr;
};

}  // namespace mindex
}  // namespace simcloud

#endif  // SIMCLOUD_MINDEX_MUTATION_BUS_H_
