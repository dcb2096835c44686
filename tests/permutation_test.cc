// Pivot-permutation tests: ordering with tie-breaking (the paper's exact
// definition), prefix consistency, ranks, and footrule properties.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/rng.h"
#include "mindex/permutation.h"

namespace simcloud {
namespace mindex {
namespace {

TEST(PermutationTest, OrdersByDistance) {
  const std::vector<float> distances = {5.0f, 1.0f, 3.0f, 2.0f};
  const Permutation perm = DistancesToPermutation(distances);
  EXPECT_EQ(perm, Permutation({1, 3, 2, 0}));
}

TEST(PermutationTest, TiesBrokenBySmallerIndex) {
  // Paper Section 4.1: d equal => smaller pivot index first.
  const std::vector<float> distances = {2.0f, 1.0f, 2.0f, 1.0f};
  const Permutation perm = DistancesToPermutation(distances);
  EXPECT_EQ(perm, Permutation({1, 3, 0, 2}));
}

TEST(PermutationTest, PrefixMatchesFullPermutation) {
  Rng rng(3);
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<float> distances(20);
    for (auto& d : distances) d = rng.NextFloat();
    const Permutation full = DistancesToPermutation(distances);
    for (size_t len : {1u, 5u, 19u, 20u, 25u}) {
      const Permutation prefix =
          DistancesToPermutationPrefix(distances, len);
      const size_t expect_len = std::min<size_t>(len, 20);
      ASSERT_EQ(prefix.size(), expect_len);
      for (size_t i = 0; i < expect_len; ++i) {
        EXPECT_EQ(prefix[i], full[i]);
      }
    }
  }
}

// The prefix is a bounded selection, not a partial sort; it must pick and
// order exactly what partial_sort with the paper's comparator picks, for
// every prefix length, with ties and signed zeros (-0.0 == +0.0, so the
// index decides), and keep no capacity beyond the prefix.
TEST(PermutationTest, PrefixSelectionEqualsPartialSortReference) {
  Rng rng(17);
  const std::vector<float> pool = {-0.0f, 0.0f, 1.0f, 1.0f, 2.5f,
                                   -3.0f, 7.0f, std::numeric_limits<float>::infinity()};
  for (int iter = 0; iter < 200; ++iter) {
    const size_t n = rng.NextBounded(40);
    std::vector<float> distances(n);
    for (auto& d : distances) {
      d = iter % 2 == 0 ? pool[rng.NextBounded(pool.size())]
                        : static_cast<float>(rng.NextBounded(6)) *
                              (rng.NextBounded(2) == 0 ? -0.0f : 0.5f);
    }
    for (size_t len = 0; len <= n + 1; ++len) {
      Permutation reference(n);
      std::iota(reference.begin(), reference.end(), 0u);
      const size_t keep = std::min(len, n);
      std::partial_sort(reference.begin(), reference.begin() + keep,
                        reference.end(), [&](uint32_t a, uint32_t b) {
                          if (distances[a] != distances[b]) {
                            return distances[a] < distances[b];
                          }
                          return a < b;
                        });
      reference.resize(keep);
      const Permutation prefix = DistancesToPermutationPrefix(distances, len);
      ASSERT_EQ(prefix, reference) << "n " << n << " len " << len;
      EXPECT_EQ(prefix.capacity(), keep) << "n " << n << " len " << len;
    }
  }
}

TEST(PermutationTest, ContainsNaNFindsAnyNaN) {
  EXPECT_FALSE(ContainsNaN({}));
  EXPECT_FALSE(ContainsNaN({0.0f, -0.0f, std::numeric_limits<float>::infinity()}));
  EXPECT_TRUE(ContainsNaN({1.0f, std::numeric_limits<float>::quiet_NaN()}));
  EXPECT_TRUE(ContainsNaN({-std::numeric_limits<float>::quiet_NaN()}));
}

TEST(PermutationTest, RanksAreInverse) {
  const Permutation perm = {3, 1, 0, 2};
  const auto ranks = PermutationRanks(perm, 4);
  EXPECT_EQ(ranks[3], 0u);
  EXPECT_EQ(ranks[1], 1u);
  EXPECT_EQ(ranks[0], 2u);
  EXPECT_EQ(ranks[2], 3u);
}

TEST(PermutationTest, RanksOfPrefixDefaultToWorst) {
  const Permutation prefix = {7, 2};
  const auto ranks = PermutationRanks(prefix, 10);
  EXPECT_EQ(ranks[7], 0u);
  EXPECT_EQ(ranks[2], 1u);
  for (uint32_t p : {0u, 1u, 3u, 4u, 5u, 6u, 8u, 9u}) {
    EXPECT_EQ(ranks[p], 10u);
  }
}

TEST(PermutationTest, FootruleZeroForIdenticalPermutations) {
  Rng rng(5);
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<float> distances(15);
    for (auto& d : distances) d = rng.NextFloat();
    const Permutation perm = DistancesToPermutation(distances);
    EXPECT_DOUBLE_EQ(PrefixFootrule(perm, perm, perm.size(), 15), 0.0);
  }
}

TEST(PermutationTest, FootrulePositiveForDifferentPermutations) {
  const Permutation a = {0, 1, 2, 3};
  const Permutation b = {3, 2, 1, 0};
  EXPECT_GT(PrefixFootrule(a, b, 4, 4), 0.0);
  // Full footrule over inverse permutations: |3-0|+|2-1|+|1-2|+|0-3| = 8.
  EXPECT_DOUBLE_EQ(PrefixFootrule(a, b, 4, 4), 8.0);
}

TEST(PermutationTest, FootruleSymmetricOnFullPermutations) {
  Rng rng(8);
  for (int iter = 0; iter < 30; ++iter) {
    std::vector<float> da(12), db(12);
    for (auto& d : da) d = rng.NextFloat();
    for (auto& d : db) d = rng.NextFloat();
    const Permutation a = DistancesToPermutation(da);
    const Permutation b = DistancesToPermutation(db);
    EXPECT_DOUBLE_EQ(PrefixFootrule(a, b, 12, 12),
                     PrefixFootrule(b, a, 12, 12));
  }
}

TEST(PermutationTest, ValidityCheck) {
  EXPECT_TRUE(IsValidPermutation({0, 1, 2}, 3));
  EXPECT_TRUE(IsValidPermutation({2, 0}, 3));   // prefix is fine
  EXPECT_TRUE(IsValidPermutation({}, 3));       // empty prefix is fine
  EXPECT_FALSE(IsValidPermutation({0, 0}, 3));  // duplicate
  EXPECT_FALSE(IsValidPermutation({3}, 3));     // out of range
  EXPECT_FALSE(IsValidPermutation({0, 1, 2, 0}, 3));  // longer than n
  // Past the stack bitset's 4096 pivots the check still finds repeats.
  for (size_t n : {size_t{64}, size_t{4096}, size_t{5000}}) {
    Permutation perm(n);
    std::iota(perm.begin(), perm.end(), 0u);
    std::reverse(perm.begin(), perm.end());
    EXPECT_TRUE(IsValidPermutation(perm, n)) << n;
    perm[n / 2] = perm[n - 1];
    EXPECT_FALSE(IsValidPermutation(perm, n)) << n;
  }
}

TEST(PermutationTest, FullPermutationContainsEveryPivot) {
  Rng rng(9);
  std::vector<float> distances(64);
  for (auto& d : distances) d = rng.NextFloat();
  const Permutation perm = DistancesToPermutation(distances);
  ASSERT_EQ(perm.size(), 64u);
  EXPECT_TRUE(IsValidPermutation(perm, 64));
  // Sorted by actual distances.
  for (size_t i = 1; i < perm.size(); ++i) {
    EXPECT_LE(distances[perm[i - 1]], distances[perm[i]]);
  }
}

}  // namespace
}  // namespace mindex
}  // namespace simcloud
