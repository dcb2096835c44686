// M-Index: dynamic, disk-efficient metric index based on pivot
// permutations (Novak & Batko; paper Section 4.1).
//
// This class is the *server-side* index core. It is deliberately
// payload-agnostic: it routes and prunes using only pivot permutations and
// object-pivot distances supplied at insert time, never touching payload
// bytes. That property is exactly what makes the Encrypted M-Index
// possible — the same code serves both the plain index (payload =
// serialized object) and the encrypted one (payload = AES ciphertext,
// pivots secret).
//
// Query surface:
//  * RangeSearchCandidates  — precise candidates for R(q, r) after cell
//    pruning + pivot filtering; the caller refines with true distances.
//  * ApproxKnnCandidates    — pre-ranked candidate set of a requested size
//    from the most promising Voronoi cells.

#ifndef SIMCLOUD_MINDEX_MINDEX_H_
#define SIMCLOUD_MINDEX_MINDEX_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "mindex/cell_tree.h"
#include "mindex/compactor.h"
#include "mindex/entry.h"
#include "mindex/mutation_bus.h"
#include "mindex/query_engine.h"
#include "mindex/storage.h"

namespace simcloud {
namespace mindex {

/// Tunables of an M-Index instance (paper Table 2 lists the per-data-set
/// values used in the evaluation).
struct MIndexOptions {
  /// Number of pivots the clients use; inserts/queries must match.
  size_t num_pivots = 30;
  /// Leaf capacity before a split is attempted.
  size_t bucket_capacity = 200;
  /// Maximum permutation-prefix depth of the dynamic cell tree.
  size_t max_level = 8;
  /// Payload backend ("Storage type" in Table 2).
  StorageKind storage_kind = StorageKind::kMemory;
  /// Backing file for disk storage.
  std::string disk_path;
  /// Length of the permutation prefix stored per entry; 0 = full
  /// permutation. Must be >= max_level when non-zero.
  size_t stored_prefix_length = 0;
  /// Decay of per-level promise weights for approximate search.
  double promise_decay = 0.5;
  /// Payload-cache budget in bytes; 0 disables the cache. When non-zero
  /// the storage backend is wrapped in a sharded LRU PayloadCache so hot
  /// ciphertexts are served from memory (most valuable with disk storage).
  uint64_t cache_bytes = 0;
  /// Garbage ratio (dead / total payload-log bytes, in [0, 1]) past which
  /// a delete triggers an automatic compaction pass. 0 disables automatic
  /// compaction — the log then grows until an explicit Compact() (the
  /// kCompact admin opcode) or a Save/Load round trip. See compactor.h.
  /// Direct MIndex users compact synchronously inside the triggering
  /// delete; EncryptedMIndexServer moves the trigger to its background
  /// compaction thread so the delete returns immediately.
  double compaction_trigger = 0.0;
  /// Default pass shape for triggered/unforced compaction: full rewrite,
  /// or partial (relocate only the deadest segments; disk storage only,
  /// memory falls back to full). See compactor.h.
  CompactionMode compaction_mode = CompactionMode::kFull;
  /// Partial passes: a sealed 64 KiB log segment becomes a relocation
  /// target once this fraction of its bytes is dead. In (0, 1].
  double segment_dead_threshold = 0.5;
  /// Partial passes: cap on live bytes relocated per pass (0 = every
  /// eligible segment).
  uint64_t compaction_max_pass_bytes = 0;
  /// Worker threads for batch query evaluation (RangeSearchBatch /
  /// ApproxKnnBatch fan distinct-signature queries across this many
  /// threads, caller included). 0 or 1 keeps the serial path; results
  /// are byte-identical either way. SIMCLOUD_QUERY_THREADS overrides at
  /// Create time. A runtime tuning knob, deliberately NOT persisted in
  /// snapshots — a snapshot moved to a different machine should not
  /// carry the old machine's thread count.
  int query_threads = 0;
  /// Capacity (in events) of the mutation bus's replay ring — the window
  /// a disconnected watcher can resume across without a `watch lost`
  /// error. Like query_threads this is a runtime serving knob, not index
  /// structure, and is NOT persisted in snapshots.
  size_t watch_ring_capacity = 4096;
};

/// The M-Index proper.
class MIndex {
 public:
  /// Validates options and creates an empty index.
  static Result<std::unique_ptr<MIndex>> Create(const MIndexOptions& options);

  /// Inserts one object: InsertBatch with a batch of one.
  Status Insert(metric::ObjectId id, std::vector<float> pivot_distances,
                Permutation permutation, const Bytes& payload);

  /// Inserts a batch of objects (see Insertion). Every item's routing is
  /// validated first; a malformed item ends the batch with
  /// InvalidArgument: the items before it are inserted, it and every later
  /// item are not, and none of their payloads reach the log. Payloads are
  /// appended in permutation-prefix (cell) order, so one cell's share of
  /// the batch is one read run; entries enter the tree, and events the
  /// mutation bus, in request order, so only the payload handles differ
  /// from inserting the items one by one.
  Status InsertBatch(std::vector<Insertion> items);

  /// Deletes one object (DeleteBatch of one), routed by the same
  /// information the insert used: `pivot_distances` and/or `permutation`
  /// (derived server-side when the permutation is empty). NotFound if the
  /// object is not indexed. The
  /// payload bytes are marked dead in the append-only storage and
  /// reclaimed by compaction — automatically once the garbage ratio
  /// passes `compaction_trigger`, or explicitly via Compact().
  Status Delete(metric::ObjectId id, std::vector<float> pivot_distances,
                Permutation permutation);

  /// Deletes a batch of objects: every entry is removed and its handle
  /// freed in one pass, and the compaction trigger is evaluated once at
  /// the end instead of per delete. Deletions whose object is not indexed
  /// are skipped; returns the number actually deleted.
  Result<uint64_t> DeleteBatch(const std::vector<Deletion>& deletions);

  /// Runs one compaction pass over the payload log (see compactor.h).
  /// When `options.force` is false the pass runs only past the configured
  /// threshold (`options.garbage_threshold`, defaulting to
  /// `MIndexOptions::compaction_trigger`). Callers must serialize Compact
  /// with other mutations, exactly as for Insert/Delete — this overload
  /// takes no locks itself (it is CompactBackground with a null mutex).
  Result<CompactionReport> Compact(CompactorOptions options = {.force =
                                                                   true});

  /// Runs one compaction pass CONCURRENTLY with searches: the rewrite
  /// phase repeatedly takes `index_mutex` shared (so queries interleave
  /// freely and mutators get in between steps, their effects tracked by
  /// the pass's relocation journal), and only the bounded begin and
  /// swap+remap slices take it exclusively — the writer pause the report
  /// and IndexStats expose in nanoseconds. Concurrent calls serialize on
  /// an internal mutex. With `index_mutex == nullptr` no locks are taken
  /// and the caller must hold exclusivity for the whole call.
  ///
  /// The caller must NOT hold `index_mutex` in any mode when calling.
  Result<CompactionReport> CompactBackground(CompactorOptions options,
                                             std::shared_mutex* index_mutex);

  /// Compactor policy derived from MIndexOptions (mode, per-segment
  /// threshold, pass budget) — what triggered and kCompact passes use.
  CompactorOptions DefaultCompactorOptions(bool force) const;

  /// When deferred, crossing `compaction_trigger` no longer compacts
  /// inline inside the triggering delete — whoever owns the index (the
  /// server's background compaction thread) watches the ratio and drives
  /// CompactBackground itself. The configured trigger stays in options()
  /// (and therefore in persistence snapshots); only the inline behaviour
  /// is suppressed.
  void SetDeferredCompaction(bool deferred) { deferred_compaction_ = deferred; }

  /// Live/dead accounting of the payload log.
  BucketStorage::CompactionStats StorageStats() const {
    return storage_->GetCompactionStats();
  }

  /// Dead / total log bytes, O(1) — what per-mutation trigger checks
  /// read (StorageStats walks DiskStorage's whole segment table).
  double GarbageRatio() const {
    const uint64_t total = storage_->TotalBytes();
    return total == 0 ? 0.0
                      : static_cast<double>(storage_->DeadBytes()) /
                            static_cast<double>(total);
  }

  /// The payload storage stack (white-box tests: cache warmth etc.). The
  /// reference is invalidated by Compact().
  const BucketStorage& storage() const { return *storage_; }

  /// Candidate set for precise range query R(q, r) (Algorithm 3), sorted
  /// by pivot-filtering lower bound: RangeSearchBatchCandidates of one.
  Result<CandidateList> RangeSearchCandidates(
      const std::vector<float>& query_distances, double radius,
      SearchStats* stats = nullptr) const;

  /// Pageable range evaluation (server-side cursors): the same collect +
  /// rank pass as RangeSearchCandidates, but returning payload HANDLES
  /// instead of payload bytes — the snapshot a cursor pins at open.
  Result<RankedCandidates> RangeSearchRankedCandidates(
      const std::vector<float>& query_distances, double radius,
      SearchStats* stats = nullptr) const;

  /// Materializes the next page of a ranked snapshot (see
  /// QueryEngine::MaterializePage): up to `page_size` still-live
  /// candidates starting at `*next`, one FetchMany, `*next` advanced.
  Result<CandidateList> MaterializeRankedPage(const RankedCandidates& ranked,
                                              size_t* next,
                                              size_t page_size) const;

  /// Completed compaction passes so far. A pass remaps payload handles,
  /// so a cursor records this at open and invalidates itself when it
  /// changes (a snapshotted handle may now point at relocated bytes).
  uint64_t compaction_passes() const {
    return compaction_passes_.load(std::memory_order_relaxed);
  }

  /// Pre-ranked candidate set of size <= cand_size for approximate k-NN
  /// (Algorithm 4): ApproxKnnBatchCandidates of one.
  Result<CandidateList> ApproxKnnCandidates(const QuerySignature& query,
                                            size_t cand_size,
                                            SearchStats* stats = nullptr) const;

  /// Batched range search: duplicate queries memoized, distinct queries
  /// evaluated in one tree traversal, payloads fetched once and
  /// deduplicated into the result dictionary. `result.per_query[i]` /
  /// `(*stats)[i]` answer `queries[i]`, whatever else the batch holds.
  Result<BatchCandidates> RangeSearchBatchCandidates(
      const std::vector<RangeQuery>& queries,
      std::vector<SearchStats>* stats = nullptr) const;

  /// Batched approximate k-NN: one payload materialization pass for the
  /// whole batch, answered per query the same way.
  Result<BatchCandidates> ApproxKnnBatchCandidates(
      const std::vector<KnnQuery>& queries,
      std::vector<SearchStats>* stats = nullptr) const;

  /// Number of indexed objects.
  size_t size() const { return tree_.size(); }
  const MIndexOptions& options() const { return options_; }

  /// Structural statistics (leaf/inner counts, depth, payload bytes).
  IndexStats Stats() const;

  /// Visits every indexed entry together with its payload bytes, in
  /// deterministic order (persistence and compaction support).
  Status ForEachEntry(
      const std::function<Status(const Entry&, const Bytes&)>& fn) const;

  /// Verifies internal tree invariants (test support).
  Status CheckInvariants() const { return tree_.CheckInvariants(); }

  /// The mutation event bus: every successful Insert/Delete publishes an
  /// event here in writer-lock order (see mutation_bus.h). Watch
  /// subscriptions replay/follow it; the compactor's relocation journal
  /// rides the same bus internally. Valid for the life of the index.
  MutationBus* mutation_bus() { return &bus_; }
  const MutationBus* mutation_bus() const { return &bus_; }

 private:
  MIndex(const MIndexOptions& options,
         std::unique_ptr<BucketStorage> storage)
      : options_(options), storage_(std::move(storage)),
        tree_(options.num_pivots, options.bucket_capacity,
              options.max_level),
        engine_(&tree_, storage_.get(), options.promise_decay,
                options.query_threads),
        bus_(options.watch_ring_capacity) {}

  /// Validates the routing arguments shared by Insert and Delete and
  /// resolves them to the stored-prefix permutation (derived from the
  /// distances when the permutation is empty).
  Result<Permutation> RoutingPermutation(
      const std::vector<float>& pivot_distances,
      Permutation permutation) const;

  /// Runs a compaction pass if the garbage ratio passed
  /// `compaction_trigger` (no-op when the trigger is disabled).
  /// Best-effort: a failed pass is logged, never propagated — it must not
  /// mask the result of the delete that triggered it.
  void MaybeCompact();

  MIndexOptions options_;
  std::unique_ptr<BucketStorage> storage_;
  CellTree tree_;
  QueryEngine engine_;

  /// Runs one armed pass; `compaction_serial_` must be held (see
  /// CompactBackground / the try-lock path in MaybeCompact).
  Result<CompactionReport> RunCompactionPass(CompactorOptions options,
                                             std::shared_mutex* index_mutex);

  /// Serializes whole compaction passes (kCompact racing the background
  /// trigger). MaybeCompact — which runs under the caller's writer lock —
  /// only ever try-locks it, so the lock order serial -> index lock has
  /// no inverse and cannot deadlock.
  std::mutex compaction_serial_;
  /// See SetDeferredCompaction.
  bool deferred_compaction_ = false;
  /// Mutation ordering source of truth: Insert/Delete publish watch
  /// events AND feed the armed pass's relocation journal through the bus
  /// (the journal side is guarded by the index writer lock, exactly like
  /// the bare active_pass_ pointer it replaced).
  MutationBus bus_;
  /// Telemetry mirrored into IndexStats. Atomic because the rewrite
  /// updates progress under the SHARED lock, concurrently with Stats().
  std::atomic<uint64_t> compaction_passes_{0};
  std::atomic<bool> compaction_active_{false};
  std::atomic<uint64_t> compaction_progress_{0};
  std::atomic<uint64_t> compaction_last_pause_nanos_{0};
  std::atomic<uint64_t> compaction_max_pause_nanos_{0};
};

}  // namespace mindex
}  // namespace simcloud

#endif  // SIMCLOUD_MINDEX_MINDEX_H_
