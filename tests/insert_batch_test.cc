// MIndex::InsertBatch and DeleteBatch tests. A batch appends its payloads
// in cell order but enters the tree in request order, so an index loaded
// in batches must answer byte for byte like a twin loaded item by item —
// on every storage stack — while its payload handles follow the
// cell-prefix order. A batch delete compacts each touched leaf once and
// must leave exactly what one-by-one deletes leave. Routing is checked
// once, rejects NaN distances, and keeps a stored prefix at its length.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <tuple>

#include "common/scratch_dir.h"
#include "common/serialize.h"
#include "data/synthetic.h"
#include "mindex/mindex.h"
#include "mindex/persistence.h"
#include "mindex/pivot_set.h"
#include "obs/metrics.h"
#include "secure/protocol.h"

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

// Twins for the delete side: both indexes are loaded the same way (in
// batches, every third object permutation-only, object 5 inserted twice),
// then one runs DeleteBatch and the other the same deletions one by one.
class DeleteBatchTest : public InsertBatchTest {
 protected:
  static constexpr metric::ObjectId kTwice = 5;

  std::unique_ptr<MIndex> LoadMixed(const std::string& name) {
    auto index = MakeIndex(name);
    const auto& objects = TheWorld().objects;
    for (size_t first = 0; first < objects.size(); first += kBatch) {
      std::vector<Insertion> batch;
      for (size_t i = first; i < std::min(first + kBatch, objects.size());
           ++i) {
        batch.push_back(ItemFor(objects[i]));
        if (i % 3 == 1) {
          batch.back().permutation =
              DistancesToPermutation(batch.back().pivot_distances);
          batch.back().pivot_distances.clear();
        }
      }
      // A second copy of one object, same routing, different payload.
      if (first == kBatch) {
        batch.push_back(ItemFor(objects[kTwice]));
        batch.back().payload.push_back(0xEE);
      }
      EXPECT_TRUE(index->InsertBatch(std::move(batch)).ok());
    }
    return index;
  }

  static Deletion DeletionFor(size_t object) {
    const World& world = TheWorld();
    std::vector<float> distances =
        world.pivots.ComputeDistances(world.objects[object], world.metric);
    if (object % 2 == 0) {
      return Deletion{world.objects[object].id(), std::move(distances), {}};
    }
    return Deletion{world.objects[object].id(),
                    {},
                    DistancesToPermutation(distances)};
  }

  // The churn shape (oldest objects, several per leaf) plus a stride
  // through the rest, a duplicate id that was inserted twice, one that was
  // inserted once, and an id that was never inserted.
  static std::vector<Deletion> Deletions() {
    std::vector<Deletion> deletions;
    for (size_t i = 0; i < 120; ++i) deletions.push_back(DeletionFor(i));
    for (size_t i = 200; i < kObjects; i += 7) {
      deletions.push_back(DeletionFor(i));
    }
    deletions.push_back(DeletionFor(kTwice));  // the second copy
    deletions.push_back(DeletionFor(kTwice));  // nothing left: skipped
    deletions.push_back(DeletionFor(3));       // already gone: skipped
    Deletion missing = DeletionFor(11);
    missing.id = 1'000'000;  // routes to a real leaf, never inserted
    deletions.push_back(std::move(missing));
    return deletions;
  }
};

Bytes EncodedRange(const MIndex& index, const std::vector<float>& distances,
                   double radius) {
  SearchStats stats;
  auto candidates = index.RangeSearchCandidates(distances, radius, &stats);
  EXPECT_TRUE(candidates.ok()) << candidates.status().ToString();
  return secure::EncodeCandidateResponse(candidates.value_or(CandidateList{}),
                                         stats);
}

Bytes EncodedKnn(const MIndex& index, const QuerySignature& query) {
  SearchStats stats;
  auto candidates = index.ApproxKnnCandidates(query, 90, &stats);
  EXPECT_TRUE(candidates.ok()) << candidates.status().ToString();
  return secure::EncodeCandidateResponse(candidates.value_or(CandidateList{}),
                                         stats);
}

TEST_P(DeleteBatchTest, MatchesItemByItemTwinByteForByte) {
  auto twin = LoadMixed("a");
  auto batched = LoadMixed("b");
  const std::vector<Deletion> deletions = Deletions();

  uint64_t twin_deleted = 0;
  for (const Deletion& deletion : deletions) {
    const Status status = twin->Delete(deletion.id, deletion.pivot_distances,
                                       deletion.permutation);
    ASSERT_TRUE(status.ok() || status.code() == StatusCode::kNotFound)
        << status.ToString();
    twin_deleted += status.ok() ? 1 : 0;
  }
  auto deleted = batched->DeleteBatch(deletions);
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(*deleted, twin_deleted);
  EXPECT_EQ(*deleted, deletions.size() - 3);  // three skips
  ASSERT_EQ(batched->size(), twin->size());
  ASSERT_TRUE(batched->CheckInvariants().ok());
  EXPECT_EQ(batched->Stats().object_count, twin->Stats().object_count);

  // Leaf order, entry by entry.
  auto entries = [](const MIndex& index) {
    std::vector<std::tuple<metric::ObjectId, Permutation, std::vector<float>,
                           PayloadHandle, Bytes>>
        out;
    EXPECT_TRUE(index
                    .ForEachEntry([&](const Entry& e, const Bytes& payload) {
                      out.emplace_back(e.id, e.permutation, e.pivot_distances,
                                       e.payload_handle, payload);
                      return Status::OK();
                    })
                    .ok());
    return out;
  };
  EXPECT_EQ(entries(*batched), entries(*twin));

  // The bus: the same events under the same sequence numbers.
  std::vector<MutationEvent> twin_events;
  std::vector<MutationEvent> batched_events;
  ASSERT_TRUE(twin->mutation_bus()->ReplayAfter(0, &twin_events).ok());
  ASSERT_TRUE(batched->mutation_bus()->ReplayAfter(0, &batched_events).ok());
  ASSERT_EQ(batched_events.size(), twin_events.size());
  for (size_t i = 0; i < twin_events.size(); ++i) {
    EXPECT_EQ(batched_events[i].seq, twin_events[i].seq);
    EXPECT_EQ(batched_events[i].kind, twin_events[i].kind) << "event " << i;
    EXPECT_EQ(batched_events[i].id, twin_events[i].id) << "event " << i;
    EXPECT_EQ(batched_events[i].pivot_distances,
              twin_events[i].pivot_distances);
    EXPECT_EQ(batched_events[i].payload, twin_events[i].payload);
  }

  const std::string& path = twin->options().disk_path;
  EXPECT_EQ(SnapshotAt(*batched, path), SnapshotAt(*twin, path));
  EXPECT_EQ(batched->StorageStats().dead_bytes,
            twin->StorageStats().dead_bytes);

  const World& world = TheWorld();
  size_t answer_bytes = 0;
  for (size_t q = 0; q < kObjects; q += 61) {
    const std::vector<float> distances =
        world.pivots.ComputeDistances(world.objects[q], world.metric);
    const Bytes range = EncodedRange(*twin, distances, 60.0);
    EXPECT_EQ(EncodedRange(*batched, distances, 60.0), range) << q;
    QuerySignature with_distances;
    with_distances.pivot_distances = distances;
    const Bytes knn = EncodedKnn(*twin, with_distances);
    EXPECT_EQ(EncodedKnn(*batched, with_distances), knn) << q;
    QuerySignature permutation_only;
    permutation_only.permutation = DistancesToPermutation(distances);
    EXPECT_EQ(EncodedKnn(*batched, permutation_only),
              EncodedKnn(*twin, permutation_only))
        << q;
    answer_bytes += range.size() + knn.size();
  }
  EXPECT_GT(answer_bytes, 10'000u);  // not vacuous
}

TEST_P(DeleteBatchTest, DuplicateIdTakesMatchingEntriesInLeafOrder) {
  auto index = LoadMixed("b");
  const Deletion once = DeletionFor(kTwice);
  auto payload_of_twice = [&] {
    std::vector<Bytes> payloads;
    EXPECT_TRUE(index
                    ->ForEachEntry([&](const Entry& e, const Bytes& payload) {
                      if (e.id == kTwice) payloads.push_back(payload);
                      return Status::OK();
                    })
                    .ok());
    return payloads;
  };
  ASSERT_EQ(payload_of_twice().size(), 2u);
  const Bytes second_copy = payload_of_twice()[1];
  // The first request takes the first copy in leaf order.
  ASSERT_EQ(index->DeleteBatch({once}).value_or(0), 1u);
  ASSERT_EQ(payload_of_twice(), std::vector<Bytes>{second_copy});
  ASSERT_EQ(index->DeleteBatch({once, once}).value_or(0), 1u);
  EXPECT_TRUE(payload_of_twice().empty());
  EXPECT_TRUE(index->CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(Stacks, DeleteBatchTest,
                         ::testing::Values(Stack::kMemory, Stack::kDisk),
                         [](const auto& info) {
                           return info.param == Stack::kMemory ? "memory"
                                                               : "disk";
                         });

// A stored prefix keeps no more capacity than its length, whether the
// server derived it from distances or truncated a client's permutation.
TEST(StoredPrefixTest, PermutationCapacityIsTheStoredLength) {
  const World& world = TheWorld();
  for (size_t stored : {size_t{0}, size_t{6}}) {
    MIndexOptions options;
    options.num_pivots = world.pivots.size();
    options.bucket_capacity = 20;
    options.max_level = 4;
    options.stored_prefix_length = stored;
    auto index = MIndex::Create(options);
    ASSERT_TRUE(index.ok());
    std::vector<Insertion> batch;
    for (size_t i = 0; i < 400; ++i) {
      batch.push_back(ItemFor(world.objects[i]));
      if (i % 2 == 1) {  // the permutation-only strategy: full permutation
        batch.back().permutation =
            DistancesToPermutation(batch.back().pivot_distances);
        batch.back().pivot_distances.clear();
      }
    }
    ASSERT_TRUE((*index)->Insert(9999, {}, DistancesToPermutation(
                                               batch[0].pivot_distances),
                                 Bytes{1})
                    .ok());
    ASSERT_TRUE((*index)->InsertBatch(std::move(batch)).ok());
    const size_t expected = stored == 0 ? options.num_pivots : stored;
    size_t seen = 0;
    ASSERT_TRUE((*index)
                    ->ForEachEntry([&](const Entry& e, const Bytes&) {
                      EXPECT_EQ(e.permutation.size(), expected);
                      EXPECT_EQ(e.permutation.capacity(), expected)
                          << "entry " << e.id;
                      ++seen;
                      return Status::OK();
                    })
                    .ok());
    EXPECT_EQ(seen, 401u);
  }
}

// A NaN breaks ordering by distance, so routing and range checks refuse
// it before anything sorts; an insert batch keeps the accepted prefix.
TEST(NaNDistanceTest, RejectedBeforeAnythingSorts) {
  const World& world = TheWorld();
  MIndexOptions options;
  options.num_pivots = world.pivots.size();
  options.bucket_capacity = 20;
  options.max_level = 4;
  auto index = MIndex::Create(options);
  ASSERT_TRUE(index.ok());
  const float nan = std::numeric_limits<float>::quiet_NaN();

  std::vector<Insertion> batch;
  for (size_t i = 0; i < 8; ++i) batch.push_back(ItemFor(world.objects[i]));
  batch[5].pivot_distances[3] = nan;
  const Status status = (*index)->InsertBatch(std::move(batch));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_EQ((*index)->size(), 5u);
  EXPECT_EQ((*index)->StorageStats().live_payloads, 5u);
  EXPECT_EQ((*index)->mutation_bus()->last_seq(), 5u);

  // A NaN beside a valid client permutation would still poison the
  // subtree distance bounds.
  Insertion with_permutation = ItemFor(world.objects[6]);
  with_permutation.permutation =
      DistancesToPermutation(with_permutation.pivot_distances);
  with_permutation.pivot_distances[0] = nan;
  EXPECT_EQ((*index)
                ->Insert(with_permutation.id,
                         std::move(with_permutation.pivot_distances),
                         std::move(with_permutation.permutation),
                         with_permutation.payload)
                .code(),
            StatusCode::kInvalidArgument);

  std::vector<float> distances =
      world.pivots.ComputeDistances(world.objects[2], world.metric);
  distances[1] = nan;
  EXPECT_EQ((*index)->Delete(world.objects[2].id(), distances, {}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*index)->size(), 5u);
  EXPECT_EQ((*index)->RangeSearchCandidates(distances, 10.0).status().code(),
            StatusCode::kInvalidArgument);
  distances[1] = 0.0f;
  EXPECT_EQ((*index)->RangeSearchCandidates(distances, nan).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*index)
                ->RangeSearchRankedCandidates(distances, nan)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  QuerySignature knn;
  knn.pivot_distances = distances;
  knn.pivot_distances[7] = nan;
  EXPECT_EQ((*index)->ApproxKnnCandidates(knn, 5).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE((*index)->CheckInvariants().ok());
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
