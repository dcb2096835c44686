// Pivot permutations — the ordering of pivots by distance from an object.
//
// For an object o and pivots p_1..p_n, the pivot permutation (1)_o..(n)_o
// orders pivot indexes so that d(p_(i)_o, o) is non-decreasing, ties broken
// by pivot index (paper Section 4.1). The M-Index routes objects by
// *prefixes* of this permutation; the Encrypted M-Index ships only the
// permutation (or the distances) to the untrusted server.

#ifndef SIMCLOUD_MINDEX_PERMUTATION_H_
#define SIMCLOUD_MINDEX_PERMUTATION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace simcloud {
namespace mindex {

/// Pivot indexes ordered by ascending distance (ties by index).
using Permutation = std::vector<uint32_t>;

/// Computes the pivot permutation from object-pivot distances.
/// distances[i] is d(p_i, o); returns the full permutation of 0..n-1.
/// `distances` must hold no NaN: the order is undefined for one.
Permutation DistancesToPermutation(const std::vector<float>& distances);

/// Computes only the first `prefix_len` elements of the permutation, the
/// same elements DistancesToPermutation would put first, in a vector of
/// capacity `prefix_len` (the full permutation when `prefix_len` covers
/// every pivot). `distances` must hold no NaN (see ContainsNaN).
Permutation DistancesToPermutationPrefix(const std::vector<float>& distances,
                                         size_t prefix_len);

/// Inverse permutation: ranks[pivot_index] = position of that pivot in the
/// permutation. Unlisted pivots (when `perm` is a prefix) get rank
/// `num_pivots` (worse than any listed pivot).
std::vector<uint32_t> PermutationRanks(const Permutation& perm,
                                       size_t num_pivots);

/// Spearman Footrule distance between two permutations restricted to the
/// first `prefix_len` elements of `a`:
///   sum over the prefix of |rank_b(pivot) - rank_a(pivot)|.
/// Used to pre-rank candidates when only permutations are known.
double PrefixFootrule(const Permutation& a, const Permutation& b,
                      size_t prefix_len, size_t num_pivots);

/// True iff `perm` is a valid (partial) permutation of 0..num_pivots-1:
/// all elements distinct and in range. Allocates nothing for up to 4096
/// pivots.
bool IsValidPermutation(const Permutation& perm, size_t num_pivots);

/// True iff some value is NaN. Routing and range checks reject such a
/// distance vector: ordering by distance is undefined once a value is NaN.
bool ContainsNaN(const std::vector<float>& values);

}  // namespace mindex
}  // namespace simcloud

#endif  // SIMCLOUD_MINDEX_PERMUTATION_H_
