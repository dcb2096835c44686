// Query engine of the M-Index: the one scoring / pruning / payload
// materialization pipeline behind every search. A single range or k-NN
// query is a batch of one.
//
// The engine collects scored entries from the cell tree, pre-ranks them
// (ascending score, Algorithm 4 line 5), trims to the requested size,
// and materializes payload bytes with ONE BucketStorage::FetchMany call
// per batch, so the disk backend can sort and coalesce the reads and the
// payload cache splits the batch into hits and one backend round. Across
// the queries of a batch:
//  * identical queries (repeated hot queries — the dominant pattern under
//    heavy traffic) are detected by signature equality and evaluated
//    ONCE, then replicated by reference;
//  * RangeSearchBatch pushes all distinct queries through one tree
//    traversal (CellTree::CollectRangeBatch) — shared nodes are visited
//    once;
//  * payload handles are deduplicated before the fetch, and results are
//    returned as a BatchCandidates dictionary: each distinct payload is
//    fetched and stored once however many candidate sets contain it.
//
// A query's answer and stats do not depend on the rest of its batch.
// Server-side cursors rank through CellTree::CollectRange instead
// (RangeSearchRanked) and fetch a page at a time (MaterializePage).

#ifndef SIMCLOUD_MINDEX_QUERY_ENGINE_H_
#define SIMCLOUD_MINDEX_QUERY_ENGINE_H_

#include <utility>
#include <vector>

#include "common/status.h"
#include "mindex/cell_tree.h"
#include "mindex/entry.h"
#include "mindex/storage.h"

namespace simcloud {
namespace mindex {

/// Stateless search executor over a cell tree and a payload store. The
/// referenced tree and storage must outlive the engine; concurrent const
/// calls are safe (the tree is read-only and storage fetches are
/// concurrent by contract).
///
/// `query_threads` > 1 fans the batch paths' distinct-query evaluation
/// across that many workers (caller included): ApproxKnnBatch claims
/// whole queries, RangeSearchBatch splits the distinct set into per-
/// worker chunks each evaluated by one shared traversal. The fan-out is
/// pure schedule — per-query results and stats stay byte-identical to
/// the serial path, which 0/1 selects.
class QueryEngine {
 public:
  QueryEngine(const CellTree* tree, const BucketStorage* storage,
              double promise_decay, int query_threads = 0)
      : tree_(tree), storage_(storage), promise_decay_(promise_decay),
        query_threads_(query_threads) {}

  /// Pageable range evaluation (server-side cursors): the same collect +
  /// rank pass as RangeSearchBatch, but instead of materializing payloads it
  /// returns the ranked (id, score, payload handle) tuples — ~24 bytes per
  /// candidate, no payload bytes. MaterializePage then fetches one page at
  /// a time, so a cursor holds O(total) metadata but only O(page) payload
  /// memory. `stats->candidates` is the full ranked count, exactly what
  /// the one-shot path reports.
  Result<RankedCandidates> RangeSearchRanked(
      const std::vector<float>& query_distances, double radius,
      SearchStats* stats) const;

  /// Materializes the next page of a ranked snapshot: scans from `*next`,
  /// skipping candidates whose payload handle has died since the snapshot
  /// (deleted mid-cursor — the append-only log never reuses a handle, so
  /// dead is deterministic), gathers up to `page_size` live candidates,
  /// fetches their payloads in ONE FetchMany, and advances `*next` past
  /// everything scanned. An empty page therefore means the snapshot is
  /// exhausted (`*next == ranked.size()`). Pages concatenate to exactly
  /// the one-shot answer over the same (live) snapshot.
  Result<CandidateList> MaterializePage(const RankedCandidates& ranked,
                                        size_t* next, size_t page_size) const;

  /// Evaluates a batch of range queries: duplicate queries memoized, the
  /// distinct ones evaluated in one tree traversal, payloads fetched in
  /// one call and deduplicated into the result dictionary.
  /// `result.per_query[i]` / `(*stats)[i]` answer `queries[i]`; `stats`
  /// may be null, otherwise it is resized.
  Result<BatchCandidates> RangeSearchBatch(
      const std::vector<RangeQuery>& queries,
      std::vector<SearchStats>* stats) const;

  /// Evaluates a batch of approximate k-NN queries the same way.
  Result<BatchCandidates> ApproxKnnBatch(
      const std::vector<KnnQuery>& queries,
      std::vector<SearchStats>* stats) const;

 private:
  using ScoredEntries = std::vector<std::pair<double, const Entry*>>;

  /// Pre-ranks ascending by score (stable) and trims to `limit`.
  static void RankAndTrim(ScoredEntries* scored, size_t limit);

  /// Builds the batch dictionary: ranks each distinct query's candidates,
  /// fetches the deduplicated handle set in one FetchMany, then expands
  /// to one ref list per original query via `rep` (original -> index into
  /// `scored`). `unique_stats` are replicated into `stats` the same way.
  Result<BatchCandidates> MaterializeBatch(
      std::vector<ScoredEntries> scored, const std::vector<size_t>& limits,
      const std::vector<size_t>& rep,
      const std::vector<SearchStats>& unique_stats,
      std::vector<SearchStats>* stats) const;

  const CellTree* tree_;
  const BucketStorage* storage_;
  double promise_decay_;
  int query_threads_;
};

}  // namespace mindex
}  // namespace simcloud

#endif  // SIMCLOUD_MINDEX_QUERY_ENGINE_H_
