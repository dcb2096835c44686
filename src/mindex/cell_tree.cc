#include "mindex/cell_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>

namespace simcloud {
namespace mindex {

CellTree::CellTree(size_t num_pivots, size_t bucket_capacity,
                   size_t max_level)
    : num_pivots_(num_pivots),
      bucket_capacity_(bucket_capacity),
      max_level_(std::min(max_level, num_pivots)),
      root_(std::make_unique<Node>()) {}

void CellTree::UpdateDistBounds(Node* node, float dist) {
  if (!node->has_dist_bounds) {
    node->min_pivot_dist = dist;
    node->max_pivot_dist = dist;
    node->has_dist_bounds = true;
  } else {
    node->min_pivot_dist = std::min(node->min_pivot_dist, dist);
    node->max_pivot_dist = std::max(node->max_pivot_dist, dist);
  }
}

Status CellTree::CheckRouting(
    const Permutation& permutation,
    const std::vector<float>& pivot_distances) const {
  if (permutation.size() < max_level_) {
    return Status::InvalidArgument(
        "entry permutation prefix shorter than tree max level");
  }
  if (!IsValidPermutation(permutation, num_pivots_)) {
    return Status::InvalidArgument("entry permutation is not valid");
  }
  if (!pivot_distances.empty() && pivot_distances.size() != num_pivots_) {
    return Status::InvalidArgument(
        "entry pivot distance vector has wrong length");
  }
  return Status::OK();
}

void CellTree::Insert(Entry entry) {
  Node* node = root_.get();
  size_t depth = 0;
  node->subtree_size++;
  while (!node->is_leaf) {
    const uint32_t pivot = entry.permutation[depth];
    auto& child = node->children[pivot];
    if (child == nullptr) child = std::make_unique<Node>();
    node = child.get();
    ++depth;
    node->subtree_size++;
    if (!entry.pivot_distances.empty()) {
      UpdateDistBounds(node, entry.pivot_distances[pivot]);
    }
  }
  node->entries.push_back(std::move(entry));
  ++size_;

  if (node->entries.size() > bucket_capacity_ && depth < max_level_) {
    SplitLeaf(node, depth);
  }
}

std::vector<std::optional<Entry>> CellTree::RemoveBatch(
    std::span<const metric::ObjectId> ids,
    std::span<const Permutation> permutations) {
  std::vector<std::optional<Entry>> removed(ids.size());
  // Route every request to its leaf, keeping the path so subtree sizes
  // are fixed up only for entries actually found. Removals never change
  // the tree's shape, so routing them all first is what routing each
  // just before its removal would give.
  struct Routed {
    Node* leaf;
    size_t request;
    size_t path_begin;  // [path_begin, path_end) in `path`: root to leaf
    size_t path_end;
  };
  std::vector<Routed> routed;
  routed.reserve(ids.size());
  std::vector<Node*> path;
  for (size_t i = 0; i < ids.size(); ++i) {
    const Permutation& permutation = permutations[i];
    const size_t path_begin = path.size();
    Node* node = root_.get();
    path.push_back(node);
    for (size_t depth = 0; node != nullptr && !node->is_leaf; ++depth) {
      auto it = depth < permutation.size()
                    ? node->children.find(permutation[depth])
                    : node->children.end();
      node = it == node->children.end() ? nullptr : it->second.get();
      if (node != nullptr) path.push_back(node);
    }
    if (node == nullptr) {  // no cell under this prefix: NotFound
      path.resize(path_begin);
      continue;
    }
    routed.push_back({node, i, path_begin, path.size()});
  }
  // Group by leaf; request order within a leaf. Subtree distance bounds
  // are left as-is: after a removal they may be wider than necessary,
  // which only weakens pruning — never correctness.
  std::stable_sort(routed.begin(), routed.end(),
                   [](const Routed& a, const Routed& b) {
                     return std::less<Node*>()(a.leaf, b.leaf);
                   });

  // (id, request) pairs of one leaf, sorted; `taken` marks the requests
  // already matched to an entry.
  std::vector<std::pair<metric::ObjectId, size_t>> wanted;
  std::vector<uint8_t> taken;
  for (size_t g = 0; g < routed.size();) {
    Node* leaf = routed[g].leaf;
    size_t end = g;
    wanted.clear();
    for (; end < routed.size() && routed[end].leaf == leaf; ++end) {
      wanted.emplace_back(ids[routed[end].request], end);
    }
    std::sort(wanted.begin(), wanted.end());
    taken.assign(wanted.size(), 0);
    const metric::ObjectId lowest = wanted.front().first;
    const metric::ObjectId highest = wanted.back().first;
    size_t pending = wanted.size();

    // One pass: an entry matched by the first untaken request for its id
    // (requests sorted by arrival) moves out, the rest slide down.
    std::vector<Entry>& entries = leaf->entries;
    size_t kept = 0;
    for (size_t read = 0; read < entries.size(); ++read) {
      Entry& entry = entries[read];
      if (pending > 0 && entry.id >= lowest && entry.id <= highest) {
        auto at = std::lower_bound(
            wanted.begin(), wanted.end(),
            std::pair<metric::ObjectId, size_t>(entry.id, 0));
        size_t slot = static_cast<size_t>(at - wanted.begin());
        while (slot < wanted.size() && wanted[slot].first == entry.id &&
               taken[slot] != 0) {
          ++slot;
        }
        if (slot < wanted.size() && wanted[slot].first == entry.id) {
          taken[slot] = 1;
          --pending;
          const Routed& request = routed[wanted[slot].second];
          removed[request.request] = std::move(entry);
          for (size_t k = request.path_begin; k < request.path_end; ++k) {
            path[k]->subtree_size--;
          }
          --size_;
          continue;
        }
      }
      if (kept != read) entries[kept] = std::move(entry);
      ++kept;
    }
    entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(kept),
                  entries.end());
    g = end;
  }
  return removed;
}

Status CellTree::ForEachEntry(
    const std::function<Status(const Entry&)>& fn) const {
  // One traversal definition for both walks: persistence (const) and the
  // compactor's handle remap (mutable) must visit in the same order, so
  // the const walk wraps the mutable one instead of duplicating it. The
  // cast is sound — the callback only reads.
  return const_cast<CellTree*>(this)->ForEachEntryMutable(
      [&fn](Entry& entry) { return fn(entry); });
}

Status CellTree::ForEachEntryMutable(
    const std::function<Status(Entry&)>& fn) {
  std::vector<Node*> stack = {root_.get()};
  while (!stack.empty()) {
    Node* node = stack.back();
    stack.pop_back();
    if (node->is_leaf) {
      for (Entry& entry : node->entries) {
        SIMCLOUD_RETURN_NOT_OK(fn(entry));
      }
    } else {
      // Reverse order so the (ordered) children pop in ascending pivot
      // order — deterministic walks make persistence byte-stable.
      for (auto it = node->children.rbegin(); it != node->children.rend();
           ++it) {
        stack.push_back(it->second.get());
      }
    }
  }
  return Status::OK();
}

void CellTree::SplitLeaf(Node* node, size_t depth) {
  std::vector<Entry> entries = std::move(node->entries);
  node->entries.clear();
  node->is_leaf = false;

  for (auto& entry : entries) {
    const uint32_t pivot = entry.permutation[depth];
    auto& child = node->children[pivot];
    if (child == nullptr) child = std::make_unique<Node>();
    child->subtree_size++;
    if (!entry.pivot_distances.empty()) {
      UpdateDistBounds(child.get(), entry.pivot_distances[pivot]);
    }
    child->entries.push_back(std::move(entry));
  }

  // A child can inherit more than `bucket_capacity_` entries when the
  // parent's population shares a long permutation prefix; split further
  // while depth allows.
  if (depth + 1 < max_level_) {
    for (auto& [pivot, child] : node->children) {
      if (child->entries.size() > bucket_capacity_) {
        SplitLeaf(child.get(), depth + 1);
      }
    }
  }
}

Status CellTree::CheckRangeQuery(const std::vector<float>& query_distances,
                                 double radius) const {
  if (query_distances.size() != num_pivots_) {
    return Status::InvalidArgument(
        "range query requires distances to all pivots");
  }
  if (ContainsNaN(query_distances)) {
    return Status::InvalidArgument("range query distances hold a NaN");
  }
  if (!(radius >= 0)) {  // also false for a NaN radius
    return Status::InvalidArgument("range query radius must be >= 0");
  }
  return Status::OK();
}

double CellTree::MinAllowedDistance(
    const std::vector<float>& query_distances,
    const Permutation& query_perm_by_dist,
    const std::vector<uint32_t>& used_chain) {
  for (uint32_t pivot : query_perm_by_dist) {
    if (std::find(used_chain.begin(), used_chain.end(), pivot) ==
        used_chain.end()) {
      return query_distances[pivot];
    }
  }
  return std::numeric_limits<double>::infinity();
}

Status CellTree::CollectRange(
    const std::vector<float>& query_distances, double radius,
    std::vector<std::pair<double, const Entry*>>* out,
    SearchStats* stats) const {
  SIMCLOUD_RETURN_NOT_OK(CheckRangeQuery(query_distances, radius));
  const Permutation query_perm = DistancesToPermutation(query_distances);
  std::vector<uint32_t> chain;
  chain.reserve(max_level_);
  CollectRangeRecursive(*root_, 0, query_distances, query_perm, radius, chain,
                        out, stats);
  return Status::OK();
}

void CellTree::CollectRangeRecursive(
    const Node& node, size_t depth, const std::vector<float>& query_distances,
    const Permutation& query_perm_by_dist, double radius,
    std::vector<uint32_t>& chain,
    std::vector<std::pair<double, const Entry*>>* out,
    SearchStats* stats) const {
  if (node.is_leaf) {
    if (stats != nullptr) stats->cells_visited++;
    for (const Entry& entry : node.entries) {
      if (stats != nullptr) stats->entries_scanned++;
      double lower_bound = 0.0;
      if (!entry.pivot_distances.empty()) {
        // Pivot filtering (Alg. 3 lines 5-7): max_i |d(q,p_i) - d(o,p_i)|
        // lower-bounds d(q,o) by the triangle inequality.
        for (size_t i = 0; i < num_pivots_; ++i) {
          const double diff = std::fabs(
              static_cast<double>(query_distances[i]) -
              static_cast<double>(entry.pivot_distances[i]));
          if (diff > lower_bound) lower_bound = diff;
        }
        if (lower_bound > radius) {
          if (stats != nullptr) stats->entries_filtered++;
          continue;
        }
      }
      out->emplace_back(lower_bound, &entry);
      if (stats != nullptr) stats->candidates++;
    }
    return;
  }

  // Double-pivot constraint: a child keyed by pivot j only holds objects o
  // with d(p_j, o) <= d(p_m, o) for every pivot m unused at this level, so
  // d(q, p_j) > min_m d(q, p_m) + 2r implies the whole subtree is out of
  // range.
  const double min_allowed =
      MinAllowedDistance(query_distances, query_perm_by_dist, chain);

  for (const auto& [pivot, child] : node.children) {
    const double query_to_pivot = query_distances[pivot];
    if (query_to_pivot > min_allowed + 2.0 * radius) {
      if (stats != nullptr) stats->cells_pruned++;
      continue;
    }
    // Range-pivot constraint using the subtree's distance bounds.
    if (child->has_dist_bounds &&
        (query_to_pivot - radius > child->max_pivot_dist ||
         query_to_pivot + radius < child->min_pivot_dist)) {
      if (stats != nullptr) stats->cells_pruned++;
      continue;
    }
    chain.push_back(pivot);
    CollectRangeRecursive(*child, depth + 1, query_distances,
                          query_perm_by_dist, radius, chain, out, stats);
    chain.pop_back();
  }
}

Status CellTree::CollectRangeBatch(
    const std::vector<RangeQuery>& queries,
    std::vector<std::vector<std::pair<double, const Entry*>>>* out,
    std::vector<SearchStats>* stats) const {
  std::vector<Permutation> query_perms;
  query_perms.reserve(queries.size());
  for (const RangeQuery& query : queries) {
    SIMCLOUD_RETURN_NOT_OK(CheckRangeQuery(query.pivot_distances, query.radius));
    query_perms.push_back(DistancesToPermutation(query.pivot_distances));
  }
  out->assign(queries.size(), {});
  if (stats != nullptr && stats->size() != queries.size()) {
    return Status::InvalidArgument("stats vector has wrong length");
  }
  if (queries.empty()) return Status::OK();

  std::vector<size_t> active(queries.size());
  std::iota(active.begin(), active.end(), 0);
  std::vector<uint32_t> chain;
  chain.reserve(max_level_);
  CollectRangeBatchRecursive(*root_, queries, query_perms, active, chain, out,
                             stats);
  return Status::OK();
}

void CellTree::CollectRangeBatchRecursive(
    const Node& node, const std::vector<RangeQuery>& queries,
    const std::vector<Permutation>& query_perms,
    const std::vector<size_t>& active, std::vector<uint32_t>& chain,
    std::vector<std::vector<std::pair<double, const Entry*>>>* out,
    std::vector<SearchStats>* stats) const {
  if (node.is_leaf) {
    // Query-major, so a batch of one scans a leaf as CollectRange does.
    for (size_t q : active) {
      SearchStats* query_stats = stats != nullptr ? &(*stats)[q] : nullptr;
      if (query_stats != nullptr) query_stats->cells_visited++;
      const std::vector<float>& query_distances = queries[q].pivot_distances;
      const double radius = queries[q].radius;
      std::vector<std::pair<double, const Entry*>>& query_out = (*out)[q];
      for (const Entry& entry : node.entries) {
        if (query_stats != nullptr) query_stats->entries_scanned++;
        double lower_bound = 0.0;
        if (!entry.pivot_distances.empty()) {
          for (size_t i = 0; i < num_pivots_; ++i) {
            const double diff = std::fabs(
                static_cast<double>(query_distances[i]) -
                static_cast<double>(entry.pivot_distances[i]));
            if (diff > lower_bound) lower_bound = diff;
          }
          if (lower_bound > radius) {
            if (query_stats != nullptr) query_stats->entries_filtered++;
            continue;
          }
        }
        query_out.emplace_back(lower_bound, &entry);
        if (query_stats != nullptr) query_stats->candidates++;
      }
    }
    return;
  }

  // Same double-pivot and range-pivot constraints as the single-query
  // traversal, evaluated per query; a child is descended once with the
  // subset of queries it survives for.
  std::vector<double> min_allowed(active.size());
  for (size_t a = 0; a < active.size(); ++a) {
    const size_t q = active[a];
    min_allowed[a] = MinAllowedDistance(queries[q].pivot_distances,
                                        query_perms[q], chain);
  }

  std::vector<size_t> child_active;
  child_active.reserve(active.size());
  for (const auto& [pivot, child] : node.children) {
    child_active.clear();
    for (size_t a = 0; a < active.size(); ++a) {
      const size_t q = active[a];
      const double query_to_pivot = queries[q].pivot_distances[pivot];
      const double radius = queries[q].radius;
      if (query_to_pivot > min_allowed[a] + 2.0 * radius) {
        if (stats != nullptr) (*stats)[q].cells_pruned++;
        continue;
      }
      if (child->has_dist_bounds &&
          (query_to_pivot - radius > child->max_pivot_dist ||
           query_to_pivot + radius < child->min_pivot_dist)) {
        if (stats != nullptr) (*stats)[q].cells_pruned++;
        continue;
      }
      child_active.push_back(q);
    }
    if (child_active.empty()) continue;
    chain.push_back(pivot);
    CollectRangeBatchRecursive(*child, queries, query_perms, child_active,
                               chain, out, stats);
    chain.pop_back();
  }
}

Status CellTree::CollectApprox(
    const QuerySignature& query, size_t cand_size, double promise_decay,
    std::vector<std::pair<double, const Entry*>>* out,
    SearchStats* stats) const {
  if (!query.has_distances() && query.permutation.empty()) {
    return Status::InvalidArgument(
        "approximate query needs distances or a permutation");
  }
  if (query.has_distances() &&
      query.pivot_distances.size() != num_pivots_) {
    return Status::InvalidArgument("query distance vector has wrong length");
  }
  if (ContainsNaN(query.pivot_distances)) {
    return Status::InvalidArgument("query distance vector holds a NaN");
  }

  // Promise key per pivot: the query-pivot distance when available,
  // otherwise the pivot's rank in the query permutation.
  std::vector<double> key(num_pivots_);
  if (query.has_distances()) {
    for (size_t i = 0; i < num_pivots_; ++i) {
      key[i] = query.pivot_distances[i];
    }
  } else {
    const std::vector<uint32_t> ranks =
        PermutationRanks(query.permutation, num_pivots_);
    for (size_t i = 0; i < num_pivots_; ++i) {
      key[i] = static_cast<double>(ranks[i]);
    }
  }

  // Best-first traversal over cells ordered by the decay-weighted mean of
  // their pivot-chain keys (the "promise value" of Alg. 4 line 3).
  struct Frontier {
    double sum;
    double weight;
    const Node* node;
    size_t depth;  // chain length of `node`
    double Score() const { return sum / weight; }
    bool operator>(const Frontier& other) const {
      return Score() > other.Score();
    }
  };
  std::priority_queue<Frontier, std::vector<Frontier>, std::greater<Frontier>>
      frontier;

  for (const auto& [pivot, child] : root_->children) {
    frontier.push({key[pivot], 1.0, child.get(), 1});
  }
  if (root_->is_leaf) {
    // Tiny index: the root itself still holds everything.
    frontier.push({0.0, 1.0, root_.get(), 0});
  }

  const std::vector<uint32_t> query_ranks =
      query.permutation.empty()
          ? std::vector<uint32_t>()
          : PermutationRanks(query.permutation, num_pivots_);

  size_t collected = 0;
  while (!frontier.empty() && collected < cand_size) {
    const Frontier top = frontier.top();
    frontier.pop();
    if (top.node->is_leaf) {
      if (stats != nullptr) stats->cells_visited++;
      for (const Entry& entry : top.node->entries) {
        if (stats != nullptr) stats->entries_scanned++;
        double score;
        if (query.has_distances() && !entry.pivot_distances.empty()) {
          // Tightest available pre-ranking: pivot-filtering lower bound.
          double lb = 0.0;
          for (size_t i = 0; i < num_pivots_; ++i) {
            const double diff = std::fabs(
                static_cast<double>(query.pivot_distances[i]) -
                static_cast<double>(entry.pivot_distances[i]));
            if (diff > lb) lb = diff;
          }
          score = lb;
        } else if (!query_ranks.empty()) {
          // Permutation-only pre-ranking: Spearman footrule between the
          // entry's stored prefix and the query permutation.
          double sum = 0.0;
          for (size_t pos = 0; pos < entry.permutation.size(); ++pos) {
            const uint32_t pivot = entry.permutation[pos];
            sum += std::fabs(static_cast<double>(query_ranks[pivot]) -
                             static_cast<double>(pos));
          }
          score = sum;
        } else {
          score = top.Score();
        }
        out->emplace_back(score, &entry);
        ++collected;
        if (stats != nullptr) stats->candidates++;
      }
    } else {
      const double level_weight = std::pow(promise_decay, top.depth);
      for (const auto& [pivot, child] : top.node->children) {
        frontier.push({top.sum + level_weight * key[pivot],
                       top.weight + level_weight, child.get(),
                       top.depth + 1});
      }
    }
  }
  return Status::OK();
}

void CellTree::FillStats(IndexStats* stats) const {
  stats->object_count = size_;
  stats->leaf_count = 0;
  stats->inner_count = 0;
  stats->max_depth = 0;

  // Iterative walk to avoid exposing Node in the header's private section.
  struct Item {
    const Node* node;
    uint64_t depth;
  };
  std::vector<Item> stack = {{root_.get(), 0}};
  while (!stack.empty()) {
    const Item item = stack.back();
    stack.pop_back();
    stats->max_depth = std::max(stats->max_depth, item.depth);
    if (item.node->is_leaf) {
      stats->leaf_count++;
    } else {
      stats->inner_count++;
      for (const auto& [pivot, child] : item.node->children) {
        stack.push_back({child.get(), item.depth + 1});
      }
    }
  }
}

Status CellTree::CheckInvariants() const {
  struct Item {
    const Node* node;
    std::vector<uint32_t> chain;
  };
  std::vector<Item> stack = {{root_.get(), {}}};
  size_t total = 0;
  while (!stack.empty()) {
    Item item = std::move(stack.back());
    stack.pop_back();
    const Node* node = item.node;
    if (node->is_leaf) {
      if (node->entries.size() > bucket_capacity_ &&
          item.chain.size() < max_level_) {
        return Status::Internal("leaf above capacity but below max level");
      }
      total += node->entries.size();
      for (const Entry& entry : node->entries) {
        if (entry.permutation.size() < item.chain.size()) {
          return Status::Internal("entry permutation shorter than its chain");
        }
        for (size_t i = 0; i < item.chain.size(); ++i) {
          if (entry.permutation[i] != item.chain[i]) {
            return Status::Internal(
                "entry stored in a cell that does not match its "
                "permutation prefix");
          }
        }
      }
    } else {
      if (!node->entries.empty()) {
        return Status::Internal("inner node holds entries");
      }
      for (const auto& [pivot, child] : node->children) {
        Item next{child.get(), item.chain};
        next.chain.push_back(pivot);
        stack.push_back(std::move(next));
      }
    }
  }
  if (total != size_) {
    return Status::Internal("entry count mismatch: tree=" +
                            std::to_string(total) +
                            " expected=" + std::to_string(size_));
  }
  return Status::OK();
}

}  // namespace mindex
}  // namespace simcloud
