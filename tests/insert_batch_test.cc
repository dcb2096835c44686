// MIndex::InsertBatch tests. A batch appends its payloads in cell order
// but enters the tree in request order, so an index loaded in batches
// must answer byte for byte like a twin loaded item by item — on every
// storage stack — while its payload handles follow the cell-prefix order.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "common/scratch_dir.h"
#include "common/serialize.h"
#include "data/synthetic.h"
#include "mindex/mindex.h"
#include "mindex/persistence.h"
#include "mindex/pivot_set.h"
#include "obs/metrics.h"

namespace simcloud {
namespace mindex {
namespace {

constexpr size_t kObjects = 1500;
constexpr size_t kBatch = 300;

struct World {
  std::vector<metric::VectorObject> objects;
  metric::L2Distance metric;
  PivotSet pivots;
};

const World& TheWorld() {
  static const World* const world = [] {
    auto* w = new World;
    data::MixtureOptions options;
    options.num_objects = kObjects;
    options.dimension = 12;
    options.num_clusters = 6;
    options.seed = 21;
    w->objects = data::MakeGaussianMixture(options);
    w->pivots = PivotSet::SelectRandom(w->objects, 10, 22).value();
    return w;
  }();
  return *world;
}

Insertion ItemFor(const metric::VectorObject& object) {
  const World& world = TheWorld();
  BinaryWriter payload;
  object.Serialize(&payload);
  return Insertion{object.id(),
                   world.pivots.ComputeDistances(object, world.metric), {},
                   payload.TakeBuffer()};
}

enum class Stack { kMemory, kDisk, kDiskCache };

class InsertBatchTest : public ::testing::TestWithParam<Stack> {
 protected:
  std::unique_ptr<MIndex> MakeIndex(const std::string& name) {
    MIndexOptions options;
    options.num_pivots = TheWorld().pivots.size();
    options.bucket_capacity = 20;
    options.max_level = 4;
    if (GetParam() != Stack::kMemory) {
      options.storage_kind = StorageKind::kDisk;
      options.disk_path = dir_.File(name + ".log");
    }
    // Smaller than the log, so the cached stack mixes hits and misses.
    if (GetParam() == Stack::kDiskCache) options.cache_bytes = 64 * 1024;
    auto index = MIndex::Create(options);
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    return std::move(index).value();
  }

  // The twin: every item through the single-item path, in request order.
  std::unique_ptr<MIndex> LoadOneByOne(const std::string& name) {
    auto index = MakeIndex(name);
    for (const auto& object : TheWorld().objects) {
      Insertion item = ItemFor(object);
      EXPECT_TRUE(index
                      ->Insert(item.id, std::move(item.pivot_distances),
                               std::move(item.permutation), item.payload)
                      .ok());
    }
    return index;
  }

  std::unique_ptr<MIndex> LoadInBatches(const std::string& name) {
    auto index = MakeIndex(name);
    const auto& objects = TheWorld().objects;
    for (size_t first = 0; first < objects.size(); first += kBatch) {
      std::vector<Insertion> batch;
      for (size_t i = first; i < std::min(first + kBatch, objects.size());
           ++i) {
        batch.push_back(ItemFor(objects[i]));
      }
      EXPECT_TRUE(index->InsertBatch(std::move(batch)).ok());
    }
    return index;
  }

  ScratchDir dir_;  // outlives every index a test creates
};

// The snapshot records the disk path; twins live at equally long paths,
// so swapping one for the other leaves every other byte in place.
Bytes SnapshotAt(const MIndex& index, const std::string& canonical_path) {
  Bytes snapshot = SerializeIndex(index).value();
  const std::string& path = index.options().disk_path;
  EXPECT_EQ(path.size(), canonical_path.size());
  auto at = std::search(snapshot.begin(), snapshot.end(), path.begin(),
                        path.end());
  if (!path.empty() && at != snapshot.end()) {
    std::copy(canonical_path.begin(), canonical_path.end(), at);
  }
  return snapshot;
}

void ExpectSameCandidates(const Result<CandidateList>& a,
                          const Result<CandidateList>& b,
                          const std::string& what) {
  ASSERT_TRUE(a.ok()) << what << ": " << a.status().ToString();
  ASSERT_TRUE(b.ok()) << what << ": " << b.status().ToString();
  ASSERT_EQ(a->size(), b->size()) << what;
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].id, (*b)[i].id) << what << " rank " << i;
    EXPECT_EQ((*a)[i].score, (*b)[i].score) << what << " rank " << i;
    EXPECT_EQ((*a)[i].payload, (*b)[i].payload) << what << " rank " << i;
  }
}

TEST_P(InsertBatchTest, AnswersMatchItemByItemTwinByteForByte) {
  auto twin = LoadOneByOne("a");
  auto batched = LoadInBatches("b");
  ASSERT_EQ(batched->size(), twin->size());
  ASSERT_TRUE(batched->CheckInvariants().ok());

  const World& world = TheWorld();
  size_t range_candidates = 0;
  size_t ranked_candidates = 0;
  for (size_t q = 0; q < kObjects; q += 97) {
    const std::vector<float> distances =
        world.pivots.ComputeDistances(world.objects[q], world.metric);
    const std::string tag = "query " + std::to_string(q);

    const auto range = twin->RangeSearchCandidates(distances, 60.0);
    ExpectSameCandidates(batched->RangeSearchCandidates(distances, 60.0),
                         range, tag + " range");
    range_candidates += range.ok() ? range->size() : 0;

    QuerySignature with_distances;
    with_distances.pivot_distances = distances;
    ExpectSameCandidates(batched->ApproxKnnCandidates(with_distances, 90),
                         twin->ApproxKnnCandidates(with_distances, 90),
                         tag + " knn/distances");

    QuerySignature permutation_only;
    permutation_only.permutation = DistancesToPermutation(distances);
    ExpectSameCandidates(batched->ApproxKnnCandidates(permutation_only, 90),
                         twin->ApproxKnnCandidates(permutation_only, 90),
                         tag + " knn/permutation");

    // Ranked pages: the snapshots differ only in their handles.
    auto ranked_batched =
        batched->RangeSearchRankedCandidates(distances, 80.0);
    auto ranked_twin = twin->RangeSearchRankedCandidates(distances, 80.0);
    ASSERT_TRUE(ranked_batched.ok());
    ASSERT_TRUE(ranked_twin.ok());
    ASSERT_EQ(ranked_batched->size(), ranked_twin->size());
    ranked_candidates += ranked_twin->size();
    size_t next_batched = 0;
    size_t next_twin = 0;
    while (next_twin < ranked_twin->size()) {
      ExpectSameCandidates(
          batched->MaterializeRankedPage(*ranked_batched, &next_batched, 17),
          twin->MaterializeRankedPage(*ranked_twin, &next_twin, 17),
          tag + " page at " + std::to_string(next_twin));
      ASSERT_EQ(next_batched, next_twin);
    }
  }
  // The comparisons above must not be vacuous.
  EXPECT_GT(range_candidates, 0u);
  EXPECT_GT(ranked_candidates, 17u);
}

TEST_P(InsertBatchTest, BusEventsAndSnapshotMatchTwin) {
  auto twin = LoadOneByOne("a");
  auto batched = LoadInBatches("b");

  std::vector<MutationEvent> twin_events;
  std::vector<MutationEvent> batched_events;
  ASSERT_TRUE(twin->mutation_bus()->ReplayAfter(0, &twin_events).ok());
  ASSERT_TRUE(batched->mutation_bus()->ReplayAfter(0, &batched_events).ok());
  ASSERT_EQ(batched_events.size(), kObjects);
  ASSERT_EQ(batched_events.size(), twin_events.size());
  for (size_t i = 0; i < twin_events.size(); ++i) {
    EXPECT_EQ(batched_events[i].seq, twin_events[i].seq);
    EXPECT_EQ(batched_events[i].kind, twin_events[i].kind);
    EXPECT_EQ(batched_events[i].id, twin_events[i].id) << "event " << i;
    EXPECT_EQ(batched_events[i].pivot_distances,
              twin_events[i].pivot_distances);
    EXPECT_EQ(batched_events[i].payload, twin_events[i].payload);
  }

  const std::string& path = twin->options().disk_path;
  EXPECT_EQ(SnapshotAt(*batched, path), SnapshotAt(*twin, path));
}

TEST_P(InsertBatchTest, OneBatchIsStoredInCellPrefixOrder) {
  auto batched = LoadInBatches("b");
  // (batch, permutation, request index) -> handle; within one batch the
  // handles must ascend in (permutation, request index) order.
  std::map<std::tuple<size_t, Permutation, size_t>, PayloadHandle> handles;
  ASSERT_TRUE(batched
                  ->ForEachEntry([&](const Entry& entry, const Bytes&) {
                    const size_t request = static_cast<size_t>(entry.id);
                    handles[{request / kBatch, entry.permutation, request}] =
                        entry.payload_handle;
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(handles.size(), kObjects);
  size_t batch = 0;
  PayloadHandle previous = 0;
  bool first = true;
  for (const auto& [key, handle] : handles) {
    if (first || std::get<0>(key) != batch) {
      batch = std::get<0>(key);
      first = false;
    } else {
      EXPECT_GT(handle, previous) << "batch " << batch;
    }
    previous = handle;
  }
}

TEST_P(InsertBatchTest, RejectedItemKeepsTheAcceptedPrefixOnly) {
  const auto& objects = TheWorld().objects;
  auto batched = MakeIndex("b");
  auto twin = MakeIndex("a");
  std::vector<Insertion> batch;
  for (size_t i = 0; i < 10; ++i) batch.push_back(ItemFor(objects[i]));
  for (size_t i = 0; i < 6; ++i) {
    Insertion item = ItemFor(objects[i]);
    ASSERT_TRUE(twin->Insert(item.id, std::move(item.pivot_distances), {},
                             item.payload)
                    .ok());
  }
  // Item 6 routes on a permutation shorter than the tree's max level.
  batch[6].pivot_distances.clear();
  batch[6].permutation = {0, 1};
  const Status status = batched->InsertBatch(std::move(batch));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_EQ(batched->size(), 6u);
  const BucketStorage::CompactionStats stats = batched->StorageStats();
  EXPECT_EQ(stats.live_payloads, 6u);
  EXPECT_EQ(stats.dead_payloads, 0u);
  EXPECT_EQ(stats.dead_bytes, 0u);
  EXPECT_EQ(batched->mutation_bus()->last_seq(), 6u);
  const std::string& path = twin->options().disk_path;
  EXPECT_EQ(SnapshotAt(*batched, path), SnapshotAt(*twin, path));

  // A wrong-length distance vector first in the batch: nothing lands.
  auto empty = MakeIndex("c");
  std::vector<Insertion> bad;
  bad.push_back(ItemFor(objects[0]));
  bad.push_back(ItemFor(objects[1]));
  bad[0].pivot_distances.pop_back();
  EXPECT_EQ(empty->InsertBatch(std::move(bad)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(empty->size(), 0u);
  EXPECT_EQ(empty->StorageStats().TotalBytes(), 0u);
}

// Counts backend reads, so it runs on the bare disk stack only.
class InsertBatchDiskTest : public InsertBatchTest {};

TEST_P(InsertBatchDiskTest, CellOrderShortensDiskReadRuns) {
  ASSERT_TRUE(obs::MetricsEnabled());
  auto runs_sum = [] {
    const obs::MetricsSnapshot snapshot = obs::Registry::Default().Snapshot();
    const obs::HistogramSnapshot* runs =
        snapshot.histogram("simcloud_payload_fetch_runs");
    return runs == nullptr ? uint64_t{0} : runs->sum;
  };
  auto count_runs = [&](const MIndex& index) {
    const uint64_t before = runs_sum();
    const World& world = TheWorld();
    for (size_t q = 0; q < kObjects; q += 97) {
      QuerySignature query;
      query.pivot_distances =
          world.pivots.ComputeDistances(world.objects[q], world.metric);
      EXPECT_TRUE(index.ApproxKnnCandidates(query, 90).ok());
    }
    return runs_sum() - before;
  };
  const uint64_t twin_runs = count_runs(*LoadOneByOne("a"));
  const uint64_t batched_runs = count_runs(*LoadInBatches("b"));
  EXPECT_LT(2 * batched_runs, twin_runs)
      << "batched " << batched_runs << " vs item-by-item " << twin_runs;
}

INSTANTIATE_TEST_SUITE_P(Stacks, InsertBatchTest,
                         ::testing::Values(Stack::kMemory, Stack::kDisk,
                                           Stack::kDiskCache),
                         [](const auto& info) {
                           switch (info.param) {
                             case Stack::kMemory:
                               return "memory";
                             case Stack::kDisk:
                               return "disk";
                             default:
                               return "disk_cache";
                           }
                         });
INSTANTIATE_TEST_SUITE_P(Stacks, InsertBatchDiskTest,
                         ::testing::Values(Stack::kDisk),
                         [](const auto&) { return "disk"; });

}  // namespace
}  // namespace mindex
}  // namespace simcloud
