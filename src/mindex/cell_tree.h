// Dynamic Voronoi cell tree (paper Figure 3).
//
// Objects are routed by their pivot-permutation prefix: the child taken at
// depth k is permutation[k]. Leaves hold up to `bucket_capacity` entries;
// an overflowing leaf at depth < max_level is split by the next
// permutation element (recursive Voronoi partitioning, paper Figure 2).
//
// Search support:
//  * precise range queries — subtree pruning by the double-pivot and
//    range-pivot constraints, then per-entry pivot filtering (Alg. 3);
//  * approximate k-NN — best-first traversal of cells ordered by a promise
//    value derived from query-pivot distances or permutation ranks
//    (Alg. 4).

#ifndef SIMCLOUD_MINDEX_CELL_TREE_H_
#define SIMCLOUD_MINDEX_CELL_TREE_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/status.h"
#include "mindex/entry.h"

namespace simcloud {
namespace mindex {

/// The recursive Voronoi partitioning tree. Not thread-safe for writes;
/// concurrent const traversals are safe.
class CellTree {
 public:
  /// `max_level` bounds the permutation-prefix depth (>= 1, <= num_pivots).
  CellTree(size_t num_pivots, size_t bucket_capacity, size_t max_level);

  /// Inserts an entry. The caller has checked it with CheckRouting;
  /// Insert does not check again.
  void Insert(Entry entry);

  /// The routing checks an entry must pass before Insert: the permutation
  /// has at least max_level elements and is a valid partial permutation,
  /// and the distances are empty or cover every pivot. Lets a batch
  /// validate all of its items before it mutates anything.
  Status CheckRouting(const Permutation& permutation,
                      const std::vector<float>& pivot_distances) const;

  /// Removes, for every request i, the entry with id `ids[i]` from the
  /// leaf that `permutations[i]` (the routing the insert used) leads to.
  /// Returns the removed entries in request order, std::nullopt where no
  /// such entry is left (NotFound). Each touched leaf is compacted once,
  /// keeping its order; the n-th request for an id within one leaf takes
  /// the n-th matching entry in leaf order, as n one-by-one removals
  /// would. Leaves are not merged on underflow — the M-Index is an
  /// insert-mostly structure and split decisions remain stable; empty
  /// leaves are tolerated by search and invariant checks.
  std::vector<std::optional<Entry>> RemoveBatch(
      std::span<const metric::ObjectId> ids,
      std::span<const Permutation> permutations);

  /// Visits every entry in deterministic (pivot-chain) order. `fn`
  /// returning a non-OK status aborts the walk with that status.
  Status ForEachEntry(
      const std::function<Status(const Entry&)>& fn) const;

  /// Mutable variant of ForEachEntry (same order). `fn` may rewrite entry
  /// fields that do not affect routing — the compactor remaps
  /// payload_handle this way — but must not change id, permutation, or
  /// pivot_distances.
  Status ForEachEntryMutable(const std::function<Status(Entry&)>& fn);

  /// Collects pointers to all entries that survive cell pruning and pivot
  /// filtering for range query R(q, r), given query-pivot distances.
  /// Survivors are appended with their filtering lower bound.
  Status CollectRange(const std::vector<float>& query_distances,
                      double radius,
                      std::vector<std::pair<double, const Entry*>>* out,
                      SearchStats* stats) const;

  /// Multi-query variant of CollectRange: evaluates every query in ONE
  /// traversal of the tree. A node is descended once and each query prunes
  /// independently along the way, so per-query results, ordering, and
  /// stats are identical to `queries.size()` CollectRange calls while
  /// shared tree nodes are touched once. `out` and (when non-null) `stats`
  /// must have one element per query.
  Status CollectRangeBatch(
      const std::vector<RangeQuery>& queries,
      std::vector<std::vector<std::pair<double, const Entry*>>>* out,
      std::vector<SearchStats>* stats) const;

  /// Collects at least `cand_size` entries (then trimmed by the caller)
  /// from the most promising cells in best-first order. Each entry carries
  /// its pre-ranking score. Works with distances or permutation-only
  /// signatures.
  Status CollectApprox(const QuerySignature& query, size_t cand_size,
                       double promise_decay,
                       std::vector<std::pair<double, const Entry*>>* out,
                       SearchStats* stats) const;

  size_t size() const { return size_; }
  size_t num_pivots() const { return num_pivots_; }
  size_t bucket_capacity() const { return bucket_capacity_; }
  size_t max_level() const { return max_level_; }

  /// Tree shape counters (leaves, inner nodes, max depth).
  void FillStats(IndexStats* stats) const;

  /// Invariant check for tests: every entry is reachable under its own
  /// permutation prefix and every leaf obeys capacity or max depth.
  Status CheckInvariants() const;

 private:
  struct Node {
    bool is_leaf = true;
    // Child per pivot index (ordered map keeps traversal deterministic).
    std::map<uint32_t, std::unique_ptr<Node>> children;
    std::vector<Entry> entries;  // leaf payload
    // Range of d(o, p_chain) over the subtree, where p_chain is the pivot
    // this node is keyed by; maintained only when entries carry distances.
    float min_pivot_dist = 0;
    float max_pivot_dist = 0;
    bool has_dist_bounds = false;
    size_t subtree_size = 0;
  };

  void SplitLeaf(Node* node, size_t depth);
  /// A range query's distances cover every pivot and hold no NaN, and its
  /// radius is >= 0.
  Status CheckRangeQuery(const std::vector<float>& query_distances,
                         double radius) const;
  void UpdateDistBounds(Node* node, float dist);

  // Smallest query-pivot distance among pivots not in `used_chain`.
  static double MinAllowedDistance(const std::vector<float>& query_distances,
                                   const Permutation& query_perm_by_dist,
                                   const std::vector<uint32_t>& used_chain);

  void CollectRangeRecursive(
      const Node& node, size_t depth,
      const std::vector<float>& query_distances,
      const Permutation& query_perm_by_dist, double radius,
      std::vector<uint32_t>& chain,
      std::vector<std::pair<double, const Entry*>>* out,
      SearchStats* stats) const;

  void CollectRangeBatchRecursive(
      const Node& node, const std::vector<RangeQuery>& queries,
      const std::vector<Permutation>& query_perms,
      const std::vector<size_t>& active, std::vector<uint32_t>& chain,
      std::vector<std::vector<std::pair<double, const Entry*>>>* out,
      std::vector<SearchStats>* stats) const;

  size_t num_pivots_;
  size_t bucket_capacity_;
  size_t max_level_;
  size_t size_ = 0;
  std::unique_ptr<Node> root_;
};

}  // namespace mindex
}  // namespace simcloud

#endif  // SIMCLOUD_MINDEX_CELL_TREE_H_
