// Server side of the Encrypted M-Index: an M-Index behind the wire
// protocol. The server holds no secret — it sees only pivot permutations
// / (optionally transformed) pivot distances and AES ciphertexts, and
// implements Algorithms 3 and 4 of the paper.

#ifndef SIMCLOUD_SECURE_SERVER_H_
#define SIMCLOUD_SECURE_SERVER_H_

#include <condition_variable>
#include <memory>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "mindex/mindex.h"
#include "net/transport.h"
#include "secure/cursor.h"
#include "secure/protocol.h"
#include "secure/watch.h"

namespace simcloud {
namespace secure {

/// Request handler wrapping a server-side M-Index.
///
/// Handle() is safe for concurrent calls: mutating requests (insert,
/// delete) take an exclusive lock, searches and stats take a shared lock,
/// so a multi-client TcpServer can drive one instance from many
/// connection threads (paper: "parallel, potentially distributed").
///
/// Compaction is a BACKGROUND service here: the index defers its inline
/// trigger to the server, and once the garbage ratio passes the
/// configured `compaction_trigger` a dedicated thread runs an incremental
/// pass (MIndex::CompactBackground) that shares the index lock with
/// searches and takes it exclusively only for the microsecond begin and
/// swap+remap slices — deletes never pay for a rewrite, and queries keep
/// flowing while the log is compacted underneath them. The kCompact
/// opcode drives the same machinery inline on its worker thread
/// (serialized with the background pass), so its response still carries
/// the finished report.
class EncryptedMIndexServer : public net::RequestHandler {
 public:
  /// Creates the server with an empty index configured by `options`.
  /// `cursor_config` bounds the server-side cursor table (defaults are
  /// production-sized; tests shrink the TTL / cursor cap).
  static Result<std::unique_ptr<EncryptedMIndexServer>> Create(
      const mindex::MIndexOptions& options,
      const CursorConfig& cursor_config = CursorConfig{});

  /// Joins the background compaction thread (in-flight pass finishes).
  ~EncryptedMIndexServer() override;

  Result<Bytes> Handle(const Bytes& request) override;

  /// Streaming entry point: kWatch registers a change-stream subscription
  /// pushing frames through `stream` (FailedPrecondition when the
  /// transport cannot push — loopback); every other
  /// opcode behaves exactly like Handle().
  Result<Bytes> HandleStream(const Bytes& request,
                             net::StreamContext* stream) override;

  /// Eager reap of connection-scoped state: open cursors and watch
  /// registrations of the dropped connection are released immediately
  /// instead of lingering until TTL / delivery-sweep. Non-blocking
  /// (called from the transport's event loop).
  void OnConnectionClosed(uint64_t connection_id) override;

  /// Direct access for white-box tests and stats.
  const mindex::MIndex& index() const { return *index_; }

  /// The cursor table (tests assert open counts and reap counters).
  const CursorManager& cursors() const { return cursors_; }

  /// The change-stream hub (the sharded facade registers adapters here
  /// in local mode; tests inspect `active()`).
  WatchHub* watch_hub() { return watch_hub_.get(); }

  /// Search statistics accumulated over all handled queries.
  mindex::SearchStats total_search_stats() const {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    return total_stats_;
  }

 private:
  EncryptedMIndexServer(std::unique_ptr<mindex::MIndex> index,
                        double compaction_trigger,
                        const CursorConfig& cursor_config);

  /// Server-side state of one open range cursor: the ranked snapshot
  /// (ids, scores, payload handles — no payload bytes) plus the paging
  /// position. `compaction_passes` guards against handle remapping: a
  /// completed pass since the open invalidates the cursor.
  struct RangeCursor {
    mindex::RankedCandidates ranked;
    size_t next = 0;
    uint64_t page_size = 0;
    uint64_t compaction_passes = 0;
  };

  /// One lock acquisition for a whole batch of per-query stats.
  void AccumulateStats(const std::vector<mindex::SearchStats>& stats);

  /// Wakes the background thread if the garbage ratio passed the trigger
  /// (called after mutations, without the index lock held).
  void MaybeKickCompaction();
  void CompactionLoop();

  Result<Bytes> HandleWatch(const Request& request,
                            net::StreamContext* stream);

  Result<Bytes> HandleRangeSearchCursor(const Request& request,
                                        net::StreamContext* stream);
  Result<Bytes> HandleCursorNext(const Request& request);

  std::unique_ptr<mindex::MIndex> index_;
  /// Readers-writer lock over the index: searches run concurrently,
  /// inserts/deletes exclusively.
  mutable std::shared_mutex index_mutex_;
  mutable std::mutex stats_mutex_;  // guards total_stats_ only
  mindex::SearchStats total_stats_;

  /// The configured trigger; the index defers inline triggering
  /// (SetDeferredCompaction) so the pass runs here, not under a delete.
  const double compaction_trigger_;
  std::thread compaction_thread_;
  std::mutex compaction_mutex_;  // guards the two flags below
  std::condition_variable compaction_cv_;
  bool compaction_kick_ = false;
  bool compaction_stop_ = false;

  /// Declared after index_ so the delivery thread stops before the
  /// index (and its mutation bus) is torn down.
  std::unique_ptr<WatchHub> watch_hub_;

  /// Open server-side cursors (states are RangeCursor snapshots).
  CursorManager cursors_;

  /// Connection <-> watch bookkeeping for the disconnect reap: which
  /// watch ids each pipelined connection registered. Guarded by
  /// conn_mutex_; ids registered through a context without identity
  /// (connection_id 0) are not tracked and rely on explicit cancel.
  std::mutex conn_mutex_;
  std::unordered_map<uint64_t, std::vector<uint64_t>> conn_watches_;
  std::unordered_map<uint64_t, uint64_t> watch_conns_;
};

}  // namespace secure
}  // namespace simcloud

#endif  // SIMCLOUD_SECURE_SERVER_H_
