// Sharded similarity cloud: the Encrypted M-Index distributed over
// multiple server nodes.
//
// The paper deploys the M-Index as a "disk-efficient, parallel,
// potentially distributed" server (Section 6) — the similarity *cloud* of
// the title. This module provides that deployment shape: N independent
// M-Index shards behind one RequestHandler facade. Placement follows the
// recursive Voronoi partitioning itself — an object lives on the shard
// owning its first permutation element (its closest secret pivot), so
// each top-level Voronoi cell is wholly on one node and cell-local
// operations never cross shards.
//
//   * insert / delete  — routed to the owning shard by permutation[0];
//   * range search     — fanned out to every shard in parallel (each
//     prunes its own subtree), candidate lists concatenated; the same
//     superset-of-true-results guarantee as the single-node index;
//   * approximate k-NN — fanned out with the full budget, merged by
//     pre-rank score, trimmed to the budget;
//   * stats            — aggregated, including per-shard health.
//
// Remote deployments are replica-aware: each shard can be a replica SET
// (identical data behind several endpoints), a background
// TopologyMonitor health-probes every connection, and the facade fails
// reads over / buffers writes for replay when a replica dies — see
// secure/topology.h for the state machine.
//
// Privacy is unchanged: every shard stores exactly what the single
// untrusted server stored (permutations / transformed distances and
// ciphertext). Authorized clients connect through the facade without
// modification — EncryptionClient works against a ShardedServer as-is.

#ifndef SIMCLOUD_SECURE_SHARDED_SERVER_H_
#define SIMCLOUD_SECURE_SHARDED_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mindex/mindex.h"
#include "net/secure_channel.h"
#include "net/transport.h"
#include "secure/cursor.h"
#include "secure/protocol.h"
#include "secure/server.h"
#include "secure/topology.h"

namespace simcloud {
namespace secure {

/// In-process shard channel: a small pool of persistent worker threads
/// executes the shard's Handle() calls, so a fan-out keeps every shard
/// busy without spawning threads per request, and concurrent facade
/// calls still overlap on one shard (EncryptedMIndexServer's
/// readers-writer lock lets its searches run in parallel; writes
/// serialize on that lock regardless of submission order).
class LocalShardChannel : public ShardChannel {
 public:
  explicit LocalShardChannel(net::RequestHandler* handler,
                             size_t num_workers = 2);
  ~LocalShardChannel() override;

  /// FailedPrecondition after Stop(): a stopped channel must never issue
  /// a ticket no worker will run (a racing Collect would block forever).
  Result<uint64_t> Submit(const Bytes& request) override;
  Result<Bytes> Collect(uint64_t ticket) override;

  /// Stops the channel: in-flight handler calls finish and their tickets
  /// stay collectable; queued-but-unstarted tickets fail immediately
  /// with FailedPrecondition; new Submits are rejected. Idempotent (the
  /// destructor calls it).
  void Stop();

 private:
  void WorkerLoop();

  net::RequestHandler* handler_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::pair<uint64_t, Bytes>> queue_;
  std::map<uint64_t, Result<Bytes>> ready_;
  uint64_t next_ticket_ = 1;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// A fleet of Encrypted M-Index shards behind one request handler —
/// in-process (Create) or remote over persistent pipelined TCP
/// connections (Connect). Handle() is safe for concurrent calls in both
/// modes, so a TcpServer worker pool can drive the facade directly.
class ShardedServer : public net::RequestHandler {
 public:
  /// Creates `num_shards` (>= 1) identically-configured in-process
  /// shards. The per-shard options are `options` with the disk path
  /// suffixed by the shard number (when disk storage is configured).
  static Result<std::unique_ptr<ShardedServer>> Create(
      const mindex::MIndexOptions& options, size_t num_shards,
      const CursorConfig& cursor_config = CursorConfig{});

  /// Connects to already-running shard servers, one persistent pipelined
  /// connection per endpoint; fan-outs overlap across those connections
  /// instead of paying serial round trips. `num_pivots` must match the
  /// shards' index configuration (it validates delete routing). With
  /// ChannelPolicy::kSecure every shard channel runs the PSK handshake
  /// and speaks AEAD records (the shard servers must be configured with
  /// the same PSK). Equivalent to the replica-set overload with
  /// single-replica shards: the topology monitor probes and reconnects
  /// these connections too.
  static Result<std::unique_ptr<ShardedServer>> Connect(
      const std::vector<ShardEndpoint>& endpoints, size_t num_pivots,
      net::ChannelPolicy policy = net::ChannelPolicy::kPlaintext,
      const net::SecureChannelOptions& secure = net::SecureChannelOptions());

  /// Replica-aware Connect: `replica_sets[i]` lists the endpoints of
  /// shard i's replicas, each holding an identical copy of the shard.
  /// Reads route to any live replica (rotating; retried on another when
  /// one fails mid-request); writes fan out to every replica in one
  /// serialized order; a background TopologyMonitor probes every
  /// connection over kPing and redials dead replicas with jittered
  /// backoff, replaying the writes they missed. The facade keeps
  /// serving through a replica loss as long as one replica per shard
  /// lives. On a partial connect failure every already-established
  /// transport is shut down orderly and the Status names the failing
  /// endpoint as host:port.
  static Result<std::unique_ptr<ShardedServer>> Connect(
      const std::vector<std::vector<ShardEndpoint>>& replica_sets,
      size_t num_pivots,
      net::ChannelPolicy policy = net::ChannelPolicy::kPlaintext,
      const net::SecureChannelOptions& secure = net::SecureChannelOptions(),
      const TopologyOptions& topology = TopologyOptions(),
      const CursorConfig& cursor_config = CursorConfig{});

  ~ShardedServer() override;

  Result<Bytes> Handle(const Bytes& request) override;

  /// Streaming entry point: kWatch fans one client subscription out to
  /// every shard and merges the per-shard streams into one push stream
  /// with a COMPOSITE resume token (one sequence per shard, shard
  /// order). Local shards are tapped through their WatchHubs; remote
  /// shards get a per-shard pump thread holding a kWatch stream on a
  /// live replica — when that replica dies the pump re-registers on
  /// another with the shard's resume token automatically (the PR 7
  /// failover machinery reports/redials underneath). Every other opcode
  /// behaves exactly like Handle().
  Result<Bytes> HandleStream(const Bytes& request,
                             net::StreamContext* stream) override;

  /// Eager reap of the dropped connection's composite cursors and watch
  /// fanouts. The actual teardown (joining pump threads, closing
  /// per-shard cursors on remote replicas) does I/O, so it is deferred
  /// to the facade's reaper thread — this call only unlinks the state
  /// and returns.
  void OnConnectionClosed(uint64_t connection_id) override;

  /// The composite-cursor table (tests assert counts and reap counters).
  const CursorManager& cursors() const { return cursors_; }

  /// Live composite watch fanouts (tests assert disconnect reaping).
  size_t open_watches() const {
    std::lock_guard<std::mutex> lock(watch_mutex_);
    return watches_.size();
  }

  size_t num_shards() const { return channels_.size(); }
  /// True when the shards live in this process (Create); Connect
  /// deployments have no white-box access.
  bool is_local() const { return !shards_.empty(); }
  /// Direct access for white-box tests. Local deployments only.
  const EncryptedMIndexServer& shard(size_t i) const { return *shards_[i]; }

  /// Per-shard topology snapshots (remote deployments; empty for local
  /// ones): replica health, reconnect counts, replay depth.
  std::vector<ShardTopologyStatus> TopologySnapshot() const;

  /// Total object count across shards (a kGetStats fan-out when remote;
  /// 0 if a remote shard is unreachable).
  uint64_t TotalObjects() const;

 private:
  ShardedServer(std::vector<std::unique_ptr<EncryptedMIndexServer>> shards,
                std::vector<std::unique_ptr<ShardChannel>> channels,
                size_t num_pivots, const CursorConfig& cursor_config);

  /// Shard owning a routing permutation: permutation[0] mod num_shards.
  /// Objects of one top-level Voronoi cell always land together.
  size_t OwnerOf(const mindex::Permutation& permutation) const;

  /// Runs a range or k-NN batch request on every shard (ONE overlapped
  /// fan-out for the whole batch); the per-query candidate lists are
  /// merged by score across shards (stable in shard order) and trimmed to
  /// `limits[q]` (0 = no trim). A single-query opcode arrives here as a
  /// batch of one; the caller picks the response encoding.
  Result<BatchCandidateResponse> FanOutBatch(
      const Bytes& request, const std::vector<size_t>& limits);

  /// Submits the request to every shard, then collects: all shards work
  /// concurrently while this thread waits (shared by FanOutBatch / stats
  /// / compaction).
  std::vector<Result<Bytes>> CallAllShards(const Bytes& request) const;

  /// Submits per-shard sub-requests (empty entries are skipped), collects
  /// the acknowledged counts, and returns their sum (inserts / deletes).
  Result<uint64_t> ScatterCounted(const std::vector<Bytes>& per_shard) const;

  /// One client watch fanned out over every shard: the shared composite
  /// token state the per-shard producers (local hub adapters or remote
  /// pump threads) serialize on. Held by shared_ptr so producers stay
  /// safe after the facade forgets the watch.
  struct WatchFanout {
    std::mutex mutex;  ///< guards token, lost
    uint64_t watch_id = 0;        ///< facade-visible id
    /// Connection that registered the watch (0 = untracked): the
    /// disconnect reaper stops fanouts by this key so an orphaned watch
    /// no longer lingers until the next delivery sweep hits a dead sink.
    uint64_t conn_id = 0;
    std::vector<uint64_t> token;  ///< per-shard cursors, shard order
    std::shared_ptr<net::PushSink> sink;
    /// A kWatchLost was forwarded: every other producer must stop.
    bool lost = false;
    std::atomic<bool> stop{false};
    /// Local mode: (shard, hub watch id) registrations to unregister.
    std::vector<std::pair<size_t, uint64_t>> local_regs;
    /// Remote mode: one pump thread per shard.
    std::vector<std::thread> pumps;
  };

  /// One open kWatch stream on a remote shard replica.
  struct ShardWatchLeg {
    size_t replica = 0;
    std::shared_ptr<net::TcpTransport> transport;
    uint64_t ticket = 0;         ///< the parked stream request id
    uint64_t shard_watch_id = 0;  ///< id on the shard server (cancel)
    uint64_t start_seq = 0;      ///< shard cursor acknowledged
  };

  /// One shard's leg of a composite cursor: the shard-side cursor id,
  /// the pinned replica transport (remote mode; a cursor must keep
  /// hitting the replica that holds its state), the buffered head of the
  /// shard's stream, and how many candidates were pulled so far (the
  /// positional start_offset a failover reopen resumes at).
  struct CursorLeg {
    uint64_t shard_cursor_id = 0;  ///< 0 = no state left on the shard
    std::shared_ptr<net::TcpTransport> transport;  ///< remote mode only
    size_t replica = 0;
    uint64_t fetched = 0;  ///< candidates pulled off this shard so far
    std::deque<mindex::Candidate> buffer;
    bool exhausted = false;
  };

  /// Facade-side state of one composite cursor: the query (replayed on
  /// failover reopens) and one leg per shard. The k-way merge pulls a
  /// shard's next page only when that shard's buffered head is consumed.
  struct CompositeCursor {
    mindex::RangeQuery query;
    uint64_t page_size = 0;
    uint64_t total = 0;  ///< sum of per-shard ranked totals at open
    /// Summed per-shard collection stats from the leg opens: the open
    /// page reports them exactly like a one-shot fan-out would.
    mindex::SearchStats stats;
    std::vector<CursorLeg> legs;
  };

  Result<Bytes> HandleWatch(const Request& request,
                            net::StreamContext* stream);
  Result<Bytes> HandleWatchCancel(const Request& request);

  Result<Bytes> HandleRangeSearchCursor(const Request& request,
                                        net::StreamContext* stream);
  Result<Bytes> HandleCursorNext(const Request& request);
  /// Opens (or failover-reopens, start_offset > 0) shard `shard`'s leg.
  /// Remote mode pins a live replica (kUp first, then kDegraded) exactly
  /// like watch legs; a remote REJECTION (the shard answered an error)
  /// propagates, a broken transport marks the replica over and tries the
  /// next. The decoded first page lands in the leg's buffer.
  Status OpenCursorLeg(CompositeCursor* cursor, size_t shard,
                       uint64_t start_offset);
  /// Pulls the next page of shard `shard` into its leg's buffer,
  /// reopening on a surviving replica (positional resume at
  /// `leg.fetched`) when the pinned one died mid-cursor.
  Status RefillCursorLeg(CompositeCursor* cursor, size_t shard);
  /// Merges up to `cursor->page_size` candidates: repeatedly pops the
  /// lowest (score, shard index) head, refilling an empty leg only when
  /// its head is actually needed. Byte-compatible with the one-shot
  /// concat + stable-sort merge.
  Result<mindex::CandidateList> MergeNextPage(CompositeCursor* cursor);
  /// Best-effort close of every leg's remaining shard-side cursor.
  void CloseCursorLegs(const std::shared_ptr<CompositeCursor>& cursor);
  /// Hands a teardown closure to the reaper thread (disconnect path —
  /// the transport's event loop must not block on shard I/O).
  void EnqueueReap(std::function<void()> task);
  void ReaperLoop();
  /// Forwards one shard frame to the client with the composite token
  /// (commits the token only when the push was accepted).
  static Status PushComposite(const std::shared_ptr<WatchFanout>& fanout,
                              size_t shard, const WatchFrame& frame);
  /// Opens a kWatch stream on some live replica of `shard` (kUp first,
  /// then kDegraded), marking stream failures over. `has_resume` false
  /// registers fresh; true resumes after `resume_after`.
  Result<ShardWatchLeg> OpenShardWatch(size_t shard,
                                       const WatchFilter& filter,
                                       bool has_resume,
                                       uint64_t resume_after);
  /// Remote pump: collects push frames off `leg`, forwards them, and
  /// re-registers on another replica (with the shard's resume token)
  /// when the stream breaks.
  void PumpShardWatch(std::shared_ptr<WatchFanout> fanout, size_t shard,
                      WatchFilter filter, ShardWatchLeg leg);
  /// Stops every live watch (cancel path + destructor).
  void StopWatch(const std::shared_ptr<WatchFanout>& fanout);

  std::vector<std::unique_ptr<EncryptedMIndexServer>> shards_;  // local only
  std::vector<std::unique_ptr<ShardChannel>> channels_;
  /// Borrowed views of channels_ when they are replica groups (remote).
  std::vector<ReplicaGroupChannel*> groups_;
  size_t num_pivots_ = 0;
  /// Live client watches (composite streams). Guarded by watch_mutex_.
  mutable std::mutex watch_mutex_;
  std::unordered_map<uint64_t, std::shared_ptr<WatchFanout>> watches_;
  uint64_t next_watch_id_ = 1;
  /// Open composite cursors (states are CompositeCursor).
  CursorManager cursors_;
  /// Deferred-teardown worker: disconnect reaps enqueue here (joining
  /// watch pumps and closing remote shard cursors both do I/O).
  std::thread reaper_;
  std::mutex reap_mutex_;
  std::condition_variable reap_cv_;
  std::deque<std::function<void()>> reap_queue_;
  bool reap_stop_ = false;
  /// Probes/reconnects the groups_; declared last so it stops before
  /// the channels it watches are destroyed.
  std::unique_ptr<TopologyMonitor> monitor_;
};

}  // namespace secure
}  // namespace simcloud

#endif  // SIMCLOUD_SECURE_SHARDED_SERVER_H_
