// M-Index correctness tests: tree invariants, precise range search
// equivalence with linear-scan ground truth (the key correctness property
// of Algorithm 3's pruning + pivot filtering), approximate candidate-set
// behaviour, and memory/disk storage equivalence.

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "common/scratch_dir.h"
#include "common/serialize.h"
#include "data/synthetic.h"
#include "metric/ground_truth.h"
#include "mindex/mindex.h"
#include "mindex/pivot_set.h"

namespace simcloud {
namespace mindex {
namespace {

using metric::VectorObject;

// Builds an index over `objects` the way a key-holding client would:
// distances computed outside the index, payload = serialized object.
std::unique_ptr<MIndex> BuildIndex(
    const std::vector<VectorObject>& objects, const PivotSet& pivots,
    const metric::DistanceFunction& metric, MIndexOptions options,
    bool with_distances = true) {
  options.num_pivots = pivots.size();
  auto index = MIndex::Create(options);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  for (const auto& object : objects) {
    std::vector<float> distances = pivots.ComputeDistances(object, metric);
    BinaryWriter payload;
    object.Serialize(&payload);
    Status st;
    if (with_distances) {
      st = (*index)->Insert(object.id(), std::move(distances), {},
                            payload.buffer());
    } else {
      st = (*index)->Insert(object.id(), {},
                            DistancesToPermutation(distances),
                            payload.buffer());
    }
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return std::move(index).value();
}

struct TestWorld {
  std::vector<VectorObject> objects;
  std::shared_ptr<metric::DistanceFunction> metric;
  PivotSet pivots;
};

TestWorld MakeWorld(size_t n, size_t dim, size_t num_pivots, uint64_t seed) {
  TestWorld world;
  data::MixtureOptions options;
  options.num_objects = n;
  options.dimension = dim;
  options.num_clusters = 8;
  options.seed = seed;
  world.objects = data::MakeGaussianMixture(options);
  world.metric = std::make_shared<metric::L2Distance>();
  auto pivots = PivotSet::SelectRandom(world.objects, num_pivots, seed + 1);
  EXPECT_TRUE(pivots.ok());
  world.pivots = std::move(pivots).value();
  return world;
}

// ---------------------------------------------------------------- Options

TEST(MIndexOptionsTest, CreateValidatesOptions) {
  MIndexOptions options;
  options.num_pivots = 0;
  EXPECT_FALSE(MIndex::Create(options).ok());
  options = MIndexOptions{};
  options.bucket_capacity = 0;
  EXPECT_FALSE(MIndex::Create(options).ok());
  options = MIndexOptions{};
  options.max_level = 0;
  EXPECT_FALSE(MIndex::Create(options).ok());
  options = MIndexOptions{};
  options.stored_prefix_length = 2;
  options.max_level = 8;
  EXPECT_FALSE(MIndex::Create(options).ok());
  options = MIndexOptions{};
  options.promise_decay = 0.0;
  EXPECT_FALSE(MIndex::Create(options).ok());
  EXPECT_TRUE(MIndex::Create(MIndexOptions{}).ok());
}

TEST(MIndexTest, InsertValidatesInput) {
  MIndexOptions options;
  options.num_pivots = 4;
  options.max_level = 2;
  auto index = MIndex::Create(options);
  ASSERT_TRUE(index.ok());
  // Neither distances nor permutation.
  EXPECT_FALSE((*index)->Insert(1, {}, {}, Bytes{}).ok());
  // Wrong distance vector length.
  EXPECT_FALSE((*index)->Insert(1, {1.0f, 2.0f}, {}, Bytes{}).ok());
  // Permutation too short for the tree depth.
  EXPECT_FALSE((*index)->Insert(1, {}, {2}, Bytes{}).ok());
  // Invalid permutation (duplicate).
  EXPECT_FALSE((*index)->Insert(1, {}, {2, 2, 1, 0}, Bytes{}).ok());
  // Valid inputs.
  EXPECT_TRUE((*index)->Insert(1, {1, 2, 3, 4}, {}, Bytes{1}).ok());
  EXPECT_TRUE((*index)->Insert(2, {}, {3, 2, 1, 0}, Bytes{2}).ok());
  EXPECT_EQ((*index)->size(), 2u);
}

// ------------------------------------------------------------- Invariants

TEST(MIndexTest, TreeInvariantsHoldAfterManyInsertsAndSplits) {
  auto world = MakeWorld(2000, 8, 16, 10);
  MIndexOptions options;
  options.bucket_capacity = 20;  // force many splits
  options.max_level = 5;
  auto index = BuildIndex(world.objects, world.pivots, *world.metric, options);
  EXPECT_EQ(index->size(), 2000u);
  EXPECT_TRUE(index->CheckInvariants().ok());

  auto stats = index->Stats();
  EXPECT_EQ(stats.object_count, 2000u);
  EXPECT_GT(stats.leaf_count, 1u);
  EXPECT_GT(stats.inner_count, 0u);
  EXPECT_LE(stats.max_depth, 5u);
  EXPECT_GT(stats.storage_bytes, 0u);
}

TEST(MIndexTest, DeepSkewedInsertStillSatisfiesInvariants) {
  // All objects identical => same permutation => one chain to max depth.
  MIndexOptions options;
  options.num_pivots = 6;
  options.bucket_capacity = 4;
  options.max_level = 3;
  auto index = MIndex::Create(options);
  ASSERT_TRUE(index.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        (*index)
            ->Insert(i, {1, 2, 3, 4, 5, 6}, {}, Bytes{static_cast<uint8_t>(i)})
            .ok());
  }
  EXPECT_TRUE((*index)->CheckInvariants().ok());
  auto stats = (*index)->Stats();
  EXPECT_EQ(stats.max_depth, 3u);  // grew to max level, then stopped
}

// ----------------------------------------------- Precise range correctness

class RangeCorrectnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RangeCorrectnessTest, CandidatesContainExactlyTheTrueResults) {
  auto world = MakeWorld(800, 6, 12, GetParam());
  MIndexOptions options;
  options.bucket_capacity = 25;
  options.max_level = 4;
  auto index = BuildIndex(world.objects, world.pivots, *world.metric, options);

  Rng rng(GetParam() + 500);
  for (int iter = 0; iter < 10; ++iter) {
    const VectorObject& query =
        world.objects[rng.NextBounded(world.objects.size())];
    // Radii spanning selective to broad.
    const double base =
        world.metric->Distance(query, world.objects[rng.NextBounded(
                                          world.objects.size())]);
    const double radius = base * rng.NextUniform(0.05, 0.6);

    const auto exact =
        metric::LinearRangeSearch(world.objects, *world.metric, query, radius);

    std::vector<float> query_distances =
        world.pivots.ComputeDistances(query, *world.metric);
    SearchStats stats;
    auto candidates =
        index->RangeSearchCandidates(query_distances, radius, &stats);
    ASSERT_TRUE(candidates.ok());

    // Completeness: every true result must be in the candidate set
    // (pruning and pivot filtering are lossless for precise queries).
    std::set<metric::ObjectId> candidate_ids;
    for (const auto& c : *candidates) candidate_ids.insert(c.id);
    for (const auto& n : exact) {
      EXPECT_EQ(candidate_ids.count(n.id), 1u)
          << "true result " << n.id << " missing from candidates";
    }
    // Client-side refinement yields exactly the ground truth.
    metric::NeighborList refined;
    for (const auto& c : *candidates) {
      BinaryReader reader(c.payload);
      auto object = VectorObject::Deserialize(&reader);
      ASSERT_TRUE(object.ok());
      const double d = world.metric->Distance(query, *object);
      if (d <= radius) refined.push_back({object->id(), d});
    }
    std::sort(refined.begin(), refined.end());
    ASSERT_EQ(refined.size(), exact.size());
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ(refined[i].id, exact[i].id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeCorrectnessTest,
                         ::testing::Values(21, 22, 23, 24));

TEST(MIndexTest, RangePruningActuallyPrunes) {
  auto world = MakeWorld(2000, 6, 16, 31);
  MIndexOptions options;
  options.bucket_capacity = 20;
  options.max_level = 4;
  auto index = BuildIndex(world.objects, world.pivots, *world.metric, options);

  const VectorObject& query = world.objects[7];
  std::vector<float> query_distances =
      world.pivots.ComputeDistances(query, *world.metric);
  SearchStats stats;
  auto candidates = index->RangeSearchCandidates(query_distances, 1.0, &stats);
  ASSERT_TRUE(candidates.ok());
  EXPECT_GT(stats.cells_pruned, 0u) << "selective query should prune cells";
  EXPECT_LT(candidates->size(), world.objects.size() / 2)
      << "pivot filtering should cut most of the collection";
}

TEST(MIndexTest, RangeLowerBoundNeverExceedsTrueDistance) {
  auto world = MakeWorld(500, 5, 10, 41);
  auto index = BuildIndex(world.objects, world.pivots, *world.metric,
                          MIndexOptions{});
  const VectorObject& query = world.objects[3];
  std::vector<float> query_distances =
      world.pivots.ComputeDistances(query, *world.metric);
  auto candidates = index->RangeSearchCandidates(query_distances, 50.0);
  ASSERT_TRUE(candidates.ok());
  for (const auto& c : *candidates) {
    BinaryReader reader(c.payload);
    auto object = VectorObject::Deserialize(&reader);
    ASSERT_TRUE(object.ok());
    const double d = world.metric->Distance(query, *object);
    EXPECT_LE(c.score, d + 1e-4)
        << "pivot-filter score must lower-bound the true distance";
  }
}

TEST(MIndexTest, RangeRequiresDistances) {
  MIndexOptions options;
  options.num_pivots = 4;
  options.max_level = 2;
  auto index = MIndex::Create(options);
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE((*index)->RangeSearchCandidates({1.0f, 2.0f}, 1.0).ok());
  EXPECT_FALSE(
      (*index)->RangeSearchCandidates({1.0f, 2.0f, 3.0f, 4.0f}, -1.0).ok());
}

// ------------------------------------------------ Approximate k-NN search

TEST(MIndexTest, ApproxReturnsRequestedCandidateCount) {
  auto world = MakeWorld(1000, 6, 12, 51);
  MIndexOptions options;
  options.bucket_capacity = 30;
  options.max_level = 4;
  auto index = BuildIndex(world.objects, world.pivots, *world.metric, options);

  std::vector<float> query_distances =
      world.pivots.ComputeDistances(world.objects[0], *world.metric);
  QuerySignature signature;
  signature.permutation = DistancesToPermutation(query_distances);

  for (size_t cand_size : {10u, 100u, 500u}) {
    auto candidates = index->ApproxKnnCandidates(signature, cand_size);
    ASSERT_TRUE(candidates.ok());
    EXPECT_EQ(candidates->size(), cand_size);
  }
  // Requesting more than the collection yields the whole collection.
  auto all = index->ApproxKnnCandidates(signature, 5000);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 1000u);
}

TEST(MIndexTest, ApproxRecallImprovesWithCandidateSize) {
  auto world = MakeWorld(1500, 8, 16, 61);
  MIndexOptions options;
  options.bucket_capacity = 30;
  options.max_level = 5;
  auto index = BuildIndex(world.objects, world.pivots, *world.metric, options);

  Rng rng(62);
  const size_t k = 10;
  double recall_small_total = 0, recall_large_total = 0;
  for (int iter = 0; iter < 15; ++iter) {
    const VectorObject& query =
        world.objects[rng.NextBounded(world.objects.size())];
    const auto exact =
        metric::LinearKnnSearch(world.objects, *world.metric, query, k);

    std::vector<float> query_distances =
        world.pivots.ComputeDistances(query, *world.metric);
    QuerySignature signature;
    signature.permutation = DistancesToPermutation(query_distances);

    auto evaluate = [&](size_t cand_size) {
      auto candidates = index->ApproxKnnCandidates(signature, cand_size);
      EXPECT_TRUE(candidates.ok());
      metric::NeighborList refined;
      for (const auto& c : *candidates) {
        BinaryReader reader(c.payload);
        auto object = VectorObject::Deserialize(&reader);
        EXPECT_TRUE(object.ok());
        refined.push_back(
            {object->id(), world.metric->Distance(query, *object)});
      }
      std::sort(refined.begin(), refined.end());
      if (refined.size() > k) refined.resize(k);
      return metric::RecallPercent(refined, exact);
    };
    recall_small_total += evaluate(30);
    recall_large_total += evaluate(600);
  }
  const double recall_small = recall_small_total / 15;
  const double recall_large = recall_large_total / 15;
  EXPECT_GE(recall_large, recall_small);
  EXPECT_GT(recall_large, 85.0) << "40% of the collection as candidates "
                                   "should recover most true neighbors";
}

TEST(MIndexTest, ApproxWorksWithPermutationOnlyEntries) {
  auto world = MakeWorld(600, 6, 10, 71);
  MIndexOptions options;
  options.bucket_capacity = 25;
  options.max_level = 4;
  auto index = BuildIndex(world.objects, world.pivots, *world.metric, options,
                          /*with_distances=*/false);
  EXPECT_TRUE(index->CheckInvariants().ok());

  std::vector<float> query_distances =
      world.pivots.ComputeDistances(world.objects[5], *world.metric);
  QuerySignature signature;
  signature.permutation = DistancesToPermutation(query_distances);
  auto candidates = index->ApproxKnnCandidates(signature, 100);
  ASSERT_TRUE(candidates.ok());
  EXPECT_EQ(candidates->size(), 100u);
  // The query object itself (distance 0) must be among the candidates of a
  // reasonable approximate search.
  bool found_self = false;
  for (const auto& c : *candidates) found_self |= (c.id == 5u);
  EXPECT_TRUE(found_self);
}

TEST(MIndexTest, ApproxCandidatesArePreRanked) {
  auto world = MakeWorld(800, 6, 12, 81);
  auto index = BuildIndex(world.objects, world.pivots, *world.metric,
                          MIndexOptions{});
  std::vector<float> query_distances =
      world.pivots.ComputeDistances(world.objects[11], *world.metric);
  QuerySignature signature;
  signature.pivot_distances = query_distances;
  signature.permutation = DistancesToPermutation(query_distances);
  auto candidates = index->ApproxKnnCandidates(signature, 200);
  ASSERT_TRUE(candidates.ok());
  for (size_t i = 1; i < candidates->size(); ++i) {
    EXPECT_LE((*candidates)[i - 1].score, (*candidates)[i].score);
  }
}

TEST(MIndexTest, ApproxRejectsInvalidArguments) {
  MIndexOptions options;
  options.num_pivots = 4;
  options.max_level = 2;
  auto index = MIndex::Create(options);
  ASSERT_TRUE(index.ok());
  QuerySignature empty;
  EXPECT_FALSE((*index)->ApproxKnnCandidates(empty, 10).ok());
  QuerySignature ok_sig;
  ok_sig.permutation = {0, 1, 2, 3};
  EXPECT_FALSE((*index)->ApproxKnnCandidates(ok_sig, 0).ok());
}

// ---------------------------------------------------- Storage equivalence

TEST(MIndexTest, DiskAndMemoryBackedIndexesAgree) {
  auto world = MakeWorld(500, 6, 10, 91);
  MIndexOptions mem_options;
  mem_options.bucket_capacity = 25;
  mem_options.max_level = 4;
  auto mem_index =
      BuildIndex(world.objects, world.pivots, *world.metric, mem_options);

  MIndexOptions disk_options = mem_options;
  disk_options.storage_kind = StorageKind::kDisk;
  const ScratchDir dir;
  disk_options.disk_path = dir.File("mindex_disk.bin");
  auto disk_index =
      BuildIndex(world.objects, world.pivots, *world.metric, disk_options);

  std::vector<float> query_distances =
      world.pivots.ComputeDistances(world.objects[2], *world.metric);
  for (double radius : {5.0, 20.0, 100.0}) {
    auto from_memory =
        mem_index->RangeSearchCandidates(query_distances, radius);
    auto from_disk =
        disk_index->RangeSearchCandidates(query_distances, radius);
    ASSERT_TRUE(from_memory.ok());
    ASSERT_TRUE(from_disk.ok());
    ASSERT_EQ(from_memory->size(), from_disk->size());
    for (size_t i = 0; i < from_memory->size(); ++i) {
      EXPECT_EQ((*from_memory)[i].id, (*from_disk)[i].id);
      EXPECT_EQ((*from_memory)[i].payload, (*from_disk)[i].payload);
    }
  }
}

// --------------------------------------------------------------- PivotSet

TEST(PivotSetTest, SelectRandomValidatesAndIsDeterministic) {
  auto world = MakeWorld(100, 4, 4, 101);
  EXPECT_FALSE(PivotSet::SelectRandom(world.objects, 0, 1).ok());
  EXPECT_FALSE(PivotSet::SelectRandom(world.objects, 101, 1).ok());
  auto a = PivotSet::SelectRandom(world.objects, 10, 7);
  auto b = PivotSet::SelectRandom(world.objects, 10, 7);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(a->pivot(i).id(), b->pivot(i).id());
  }
}

TEST(PivotSetTest, SerializeRoundTrip) {
  auto world = MakeWorld(50, 4, 8, 111);
  BinaryWriter writer;
  world.pivots.Serialize(&writer);
  BinaryReader reader(writer.buffer());
  auto back = PivotSet::Deserialize(&reader);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), world.pivots.size());
  for (size_t i = 0; i < back->size(); ++i) {
    EXPECT_EQ(back->pivot(i), world.pivots.pivot(i));
  }
}

TEST(PivotSetTest, ComputeDistancesMatchesMetric) {
  auto world = MakeWorld(50, 4, 8, 121);
  const VectorObject& object = world.objects[0];
  auto distances = world.pivots.ComputeDistances(object, *world.metric);
  ASSERT_EQ(distances.size(), world.pivots.size());
  for (size_t i = 0; i < distances.size(); ++i) {
    EXPECT_FLOAT_EQ(
        distances[i],
        static_cast<float>(
            world.metric->Distance(object, world.pivots.pivot(i))));
  }
}

}  // namespace
}  // namespace mindex
}  // namespace simcloud
