// Core record types shared by the M-Index tree, server wrappers, and the
// encryption layer.

#ifndef SIMCLOUD_MINDEX_ENTRY_H_
#define SIMCLOUD_MINDEX_ENTRY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "metric/object.h"
#include "mindex/permutation.h"
#include "mindex/storage.h"

namespace simcloud {
namespace mindex {

/// One indexed record as stored by the server. Matches the paper's
/// `e := struct {distances, permutation, data}` (Algorithm 1): routing
/// metadata in the clear, payload opaque (serialized plaintext object for
/// the plain M-Index, AES ciphertext for the Encrypted M-Index).
struct Entry {
  metric::ObjectId id = 0;
  /// Pivot-permutation prefix used for routing (length >= tree max level).
  Permutation permutation;
  /// Object-pivot distances d(o, p_i) for all pivots; empty when the
  /// permutation-only (approximate) strategy is used.
  std::vector<float> pivot_distances;
  /// Handle of the payload in the index's BucketStorage.
  PayloadHandle payload_handle = 0;
  /// Payload size in bytes (for communication-cost accounting).
  uint32_t payload_size = 0;
};

/// A candidate returned to the querying client: pre-ranked, payload still
/// opaque. `score` is the ranking key (lower = more promising); for
/// distance-bearing queries it is the pivot-filtering lower bound of
/// d(q, o), so it can also drive early termination on the client.
struct Candidate {
  metric::ObjectId id = 0;
  double score = 0.0;
  Bytes payload;
};

using CandidateList = std::vector<Candidate>;

/// One ranked candidate WITHOUT its payload bytes: what a server-side
/// cursor snapshots at open. The payload is fetched page by page through
/// the handle (O(page) memory instead of O(result)); `Entry` pointers are
/// deliberately NOT kept — they dangle across splits and deletes, while a
/// handle in the append-only log stays either live or deterministically
/// dead until a compaction pass remaps the log (cursors detect that via
/// the index's compaction-pass count).
struct RankedCandidate {
  metric::ObjectId id = 0;
  double score = 0.0;
  PayloadHandle handle = 0;
};

using RankedCandidates = std::vector<RankedCandidate>;

/// What the client sends instead of the query object (Algorithm 2):
/// query-pivot distances (precise strategy) or just the permutation
/// (approximate strategy). The query object itself never leaves the client.
struct QuerySignature {
  std::vector<float> pivot_distances;  ///< empty for permutation-only
  Permutation permutation;             ///< derived from distances if empty
  /// When true, the candidate set is not trimmed to `cand_size`: whole
  /// Voronoi cells are returned until at least `cand_size` entries are
  /// collected. With cand_size = 1 this yields exactly the single most
  /// promising cell — the paper's Table 9 configuration.
  bool whole_cells = false;

  bool has_distances() const { return !pivot_distances.empty(); }
};

/// One candidate of a batched search, referencing its payload in the
/// batch's deduplicated payload dictionary.
struct BatchCandidateRef {
  metric::ObjectId id = 0;
  double score = 0.0;
  uint32_t payload_index = 0;  ///< index into BatchCandidates::payloads
};

/// Result of a batched search. Payload bytes are deduplicated across the
/// whole batch — a ciphertext appearing in many queries' candidate sets
/// (overlapping or repeated queries, the hot-traffic case) is stored,
/// shipped, and decrypted once; per-query candidates reference it by
/// index. MaterializeQuery expands one query back into an owning
/// CandidateList; TakeOnlyQuery expands a batch of one.
struct BatchCandidates {
  std::vector<Bytes> payloads;  ///< unique payload bytes (the dictionary)
  std::vector<std::vector<BatchCandidateRef>> per_query;  ///< ranked refs

  CandidateList MaterializeQuery(size_t q) const {
    CandidateList result;
    result.reserve(per_query[q].size());
    for (const BatchCandidateRef& ref : per_query[q]) {
      result.push_back(Candidate{ref.id, ref.score,
                                 payloads[ref.payload_index]});
    }
    return result;
  }

  /// Expands a batch of one query by moving its payloads out of the
  /// dictionary: one query's candidates never share a payload handle, so
  /// no entry is referenced twice.
  CandidateList TakeOnlyQuery() {
    CandidateList result;
    result.reserve(per_query[0].size());
    for (const BatchCandidateRef& ref : per_query[0]) {
      result.push_back(Candidate{ref.id, ref.score,
                                 std::move(payloads[ref.payload_index])});
    }
    return result;
  }
};

/// One insertion of a batched insert: exactly the information of the
/// paper's encrypted object `e` (Algorithm 1). The routing permutation is
/// derived server-side from the distances when it is empty; `payload` is
/// opaque.
struct Insertion {
  metric::ObjectId id = 0;
  std::vector<float> pivot_distances;  ///< precise strategy (may be empty)
  Permutation permutation;             ///< approx strategy (may be empty)
  Bytes payload;                       ///< AES ciphertext or plain object
};

/// One deletion of a batched delete: the same routing information the
/// insert carried (distances and/or permutation; the permutation is
/// derived server-side when empty).
struct Deletion {
  metric::ObjectId id = 0;
  std::vector<float> pivot_distances;
  Permutation permutation;
};

/// One precise range query of a multi-query batch (Algorithm 3 input).
struct RangeQuery {
  std::vector<float> pivot_distances;  ///< query-pivot distances, all pivots
  double radius = 0;
};

/// One approximate k-NN query of a multi-query batch (Algorithm 4 input).
struct KnnQuery {
  QuerySignature signature;
  uint64_t cand_size = 0;
};

/// Counters describing one server-side search.
struct SearchStats {
  uint64_t cells_visited = 0;    ///< leaf cells read
  uint64_t cells_pruned = 0;     ///< subtrees cut by metric constraints
  uint64_t entries_scanned = 0;  ///< entries inspected in visited cells
  uint64_t entries_filtered = 0; ///< entries removed by pivot filtering
  uint64_t candidates = 0;       ///< entries returned to the client

  /// Accumulates all counters of `other` (batch/shard aggregation).
  void Add(const SearchStats& other) {
    cells_visited += other.cells_visited;
    cells_pruned += other.cells_pruned;
    entries_scanned += other.entries_scanned;
    entries_filtered += other.entries_filtered;
    candidates += other.candidates;
  }
};

/// What a compaction pass rewrites: the whole log into a fresh file, or
/// only the deadest segments in place (see compactor.h).
enum class CompactionMode : uint8_t { kFull = 0, kPartial = 1 };

/// What one compaction pass did (also the kCompact wire response; see
/// compactor.h for the engine itself).
struct CompactionReport {
  bool compacted = false;      ///< false: below threshold / nothing dead
  uint64_t bytes_before = 0;   ///< log bytes (live + dead) before the pass
  uint64_t bytes_after = 0;    ///< log bytes after (== live bytes if run)
  uint64_t payloads_moved = 0; ///< live payloads rewritten
  uint64_t reclaimed_bytes = 0;
  /// Total nanoseconds the pass held the index's writer lock (begin +
  /// swap+remap slices) — the only time mutators waited on it. The
  /// shared-lock rewrite never blocks searches.
  uint64_t pause_nanos = 0;
  /// Partial passes: whole log segments released in place.
  uint64_t segments_released = 0;
  /// What kind of pass ran (full rewrite vs. segment-targeted partial).
  CompactionMode mode = CompactionMode::kFull;

  /// Shard aggregation (ShardedServer fans kCompact out per shard).
  /// Byte/segment counters sum; the pause reports the WORST shard — the
  /// shards compact concurrently, so stalls overlap rather than add.
  void Add(const CompactionReport& other) {
    compacted = compacted || other.compacted;
    bytes_before += other.bytes_before;
    bytes_after += other.bytes_after;
    payloads_moved += other.payloads_moved;
    reclaimed_bytes += other.reclaimed_bytes;
    pause_nanos = pause_nanos > other.pause_nanos ? pause_nanos
                                                  : other.pause_nanos;
    segments_released += other.segments_released;
    if (other.mode == CompactionMode::kPartial) mode = other.mode;
  }
};

/// Structural statistics of the index.
struct IndexStats {
  uint64_t object_count = 0;
  uint64_t leaf_count = 0;
  uint64_t inner_count = 0;
  uint64_t max_depth = 0;
  /// Payload-log size, live + dead (deleted-but-uncompacted) bytes.
  uint64_t storage_bytes = 0;
  /// Live payload bytes; storage_bytes - live_storage_bytes is what a
  /// compaction would reclaim.
  uint64_t live_storage_bytes = 0;
  uint64_t dead_storage_bytes = 0;
  /// Compaction telemetry (kGetStats): completed passes, whether a
  /// background pass is running right now and how far its rewrite has
  /// progressed, and the writer-lock pause cost of the passes so far.
  uint64_t compaction_passes = 0;
  uint64_t compaction_active = 0;  ///< 0/1 (shards: how many are mid-pass)
  uint64_t compaction_progress_payloads = 0;  ///< copied so far, this pass
  uint64_t compaction_last_pause_nanos = 0;
  uint64_t compaction_max_pause_nanos = 0;
  /// Topology health (kGetStats through a ShardedServer facade): how
  /// many shards the facade fans out to and their replica-set health —
  /// a shard counts as its healthiest replica. Local deployments report
  /// every shard up; a bare EncryptedMIndexServer reports zeros.
  uint64_t shards_total = 0;
  uint64_t shards_up = 0;
  uint64_t shards_degraded = 0;
  uint64_t shards_down = 0;
  /// Shards with at least one stale replica: one that overflowed its
  /// write-replay queue and needs out-of-band re-seeding. Distinct from
  /// the health counts above (a stale replica pins its shard's count in
  /// degraded/down otherwise invisibly).
  uint64_t shards_stale = 0;
  /// Server-side cursor telemetry (kGetStats): currently open cursors and
  /// lifetime counters. On a ShardedServer facade the totals cover the
  /// facade's composite cursors plus every shard's per-shard cursors.
  uint64_t cursors_open = 0;
  uint64_t cursors_opened_total = 0;
  uint64_t cursors_expired_total = 0;  ///< TTL evictions
  uint64_t cursors_reaped_total = 0;   ///< closed by connection drop
};

}  // namespace mindex
}  // namespace simcloud

#endif  // SIMCLOUD_MINDEX_ENTRY_H_
