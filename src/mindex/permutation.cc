#include "mindex/permutation.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace simcloud {
namespace mindex {

namespace {
/// Comparator implementing the paper's ordering: by distance, ties by index.
struct ByDistanceThenIndex {
  const std::vector<float>& distances;
  bool operator()(uint32_t a, uint32_t b) const {
    if (distances[a] != distances[b]) return distances[a] < distances[b];
    return a < b;
  }
};
}  // namespace

Permutation DistancesToPermutation(const std::vector<float>& distances) {
  Permutation perm(distances.size());
  std::iota(perm.begin(), perm.end(), 0);
  std::sort(perm.begin(), perm.end(), ByDistanceThenIndex{distances});
  return perm;
}

Permutation DistancesToPermutationPrefix(const std::vector<float>& distances,
                                         size_t prefix_len) {
  const size_t n = distances.size();
  if (prefix_len >= n) return DistancesToPermutation(distances);
  // Bounded insertion of the prefix_len best pivots: the result has
  // exactly prefix_len slots of capacity, and most pivots cost one
  // comparison against the current worst. Indexes arrive in ascending
  // order, so a pivot tied with a kept one ranks after it: it enters only
  // when strictly closer than the worst kept, and lands after every kept
  // pivot at its distance — the order partial_sort with
  // ByDistanceThenIndex gives.
  Permutation perm;
  perm.reserve(prefix_len);
  if (prefix_len == 0) return perm;
  for (uint32_t i = 0; i < n; ++i) {
    const float d = distances[i];
    if (perm.size() == prefix_len) {
      if (!(d < distances[perm.back()])) continue;
      perm.pop_back();
    }
    auto at = perm.end();
    while (at != perm.begin() && d < distances[*(at - 1)]) --at;
    perm.insert(at, i);
  }
  return perm;
}

std::vector<uint32_t> PermutationRanks(const Permutation& perm,
                                       size_t num_pivots) {
  std::vector<uint32_t> ranks(num_pivots, static_cast<uint32_t>(num_pivots));
  for (size_t pos = 0; pos < perm.size(); ++pos) {
    if (perm[pos] < num_pivots) ranks[perm[pos]] = static_cast<uint32_t>(pos);
  }
  return ranks;
}

double PrefixFootrule(const Permutation& a, const Permutation& b,
                      size_t prefix_len, size_t num_pivots) {
  const std::vector<uint32_t> rank_b = PermutationRanks(b, num_pivots);
  prefix_len = std::min(prefix_len, a.size());
  double sum = 0.0;
  for (size_t pos = 0; pos < prefix_len; ++pos) {
    const uint32_t pivot = a[pos];
    const double rb = (pivot < num_pivots)
                          ? static_cast<double>(rank_b[pivot])
                          : static_cast<double>(num_pivots);
    sum += std::fabs(rb - static_cast<double>(pos));
  }
  return sum;
}

bool IsValidPermutation(const Permutation& perm, size_t num_pivots) {
  if (perm.size() > num_pivots) return false;  // a repeat is certain
  // One bit per pivot, on the stack for up to kStackPivots pivots.
  constexpr size_t kStackPivots = 4096;
  uint64_t stack_bits[kStackPivots / 64] = {};
  std::vector<uint64_t> heap_bits;
  uint64_t* seen = stack_bits;
  if (num_pivots > kStackPivots) {
    heap_bits.assign((num_pivots + 63) / 64, 0);
    seen = heap_bits.data();
  }
  for (uint32_t idx : perm) {
    if (idx >= num_pivots) return false;
    const uint64_t bit = uint64_t{1} << (idx % 64);
    if ((seen[idx / 64] & bit) != 0) return false;
    seen[idx / 64] |= bit;
  }
  return true;
}

bool ContainsNaN(const std::vector<float>& values) {
  return std::any_of(values.begin(), values.end(),
                     [](float value) { return std::isnan(value); });
}

}  // namespace mindex
}  // namespace simcloud
