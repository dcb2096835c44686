// Dynamic-maintenance and persistence tests: M-Index deletions (tree
// invariants, search correctness after removals, interleaved workloads)
// and whole-index snapshots (round trips, compaction of deleted payloads,
// corruption handling, disk-storage path overrides).

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <set>

#include "common/rng.h"
#include "common/scratch_dir.h"
#include "common/serialize.h"
#include "data/synthetic.h"
#include "metric/ground_truth.h"
#include "mindex/mindex.h"
#include "mindex/persistence.h"
#include "mindex/pivot_set.h"

namespace simcloud {
namespace mindex {
namespace {

using metric::VectorObject;

struct TestWorld {
  std::vector<VectorObject> objects;
  std::shared_ptr<metric::DistanceFunction> metric;
  PivotSet pivots;
};

TestWorld MakeWorld(size_t n, uint64_t seed) {
  TestWorld world;
  data::MixtureOptions options;
  options.num_objects = n;
  options.dimension = 8;
  options.num_clusters = 6;
  options.seed = seed;
  world.objects = data::MakeGaussianMixture(options);
  world.metric = std::make_shared<metric::L2Distance>();
  auto pivots = PivotSet::SelectRandom(world.objects, 8, seed + 1);
  EXPECT_TRUE(pivots.ok());
  world.pivots = std::move(pivots).value();
  return world;
}

std::unique_ptr<MIndex> BuildIndex(const TestWorld& world,
                                   MIndexOptions options,
                                   bool with_distances = true) {
  options.num_pivots = world.pivots.size();
  auto index = MIndex::Create(options);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  for (const auto& object : world.objects) {
    std::vector<float> distances =
        world.pivots.ComputeDistances(object, *world.metric);
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

std::vector<float> DistancesFor(const TestWorld& world,
                                const VectorObject& object) {
  return world.pivots.ComputeDistances(object, *world.metric);
}

std::set<uint64_t> RangeIds(const MIndex& index, const TestWorld& world,
                            const VectorObject& query, double radius) {
  auto candidates =
      index.RangeSearchCandidates(DistancesFor(world, query), radius);
  EXPECT_TRUE(candidates.ok()) << candidates.status().ToString();
  std::set<uint64_t> ids;
  for (const auto& c : *candidates) ids.insert(c.id);
  return ids;
}

// --------------------------------------------------------------- Deletes

TEST(MIndexDeleteTest, DeletedObjectDisappearsFromRangeCandidates) {
  TestWorld world = MakeWorld(400, 41);
  MIndexOptions options;
  options.bucket_capacity = 40;
  options.max_level = 4;
  auto index = BuildIndex(world, options);

  const VectorObject& victim = world.objects[123];
  ASSERT_TRUE(RangeIds(*index, world, victim, 1.0).count(victim.id()) > 0);

  ASSERT_TRUE(
      index->Delete(victim.id(), DistancesFor(world, victim), {}).ok());
  EXPECT_EQ(index->size(), world.objects.size() - 1);
  EXPECT_EQ(RangeIds(*index, world, victim, 1.0).count(victim.id()), 0u);
  EXPECT_TRUE(index->CheckInvariants().ok());
}

TEST(MIndexDeleteTest, DeleteByPermutationOnly) {
  TestWorld world = MakeWorld(300, 43);
  MIndexOptions options;
  options.bucket_capacity = 30;
  options.max_level = 4;
  auto index = BuildIndex(world, options, /*with_distances=*/false);

  const VectorObject& victim = world.objects[7];
  const Permutation perm =
      DistancesToPermutation(DistancesFor(world, victim));
  ASSERT_TRUE(index->Delete(victim.id(), {}, perm).ok());
  EXPECT_EQ(index->size(), world.objects.size() - 1);
  EXPECT_TRUE(index->CheckInvariants().ok());
}

TEST(MIndexDeleteTest, DeleteMissingObjectIsNotFound) {
  TestWorld world = MakeWorld(200, 47);
  MIndexOptions options;
  options.bucket_capacity = 30;
  options.max_level = 3;
  auto index = BuildIndex(world, options);

  const VectorObject& present = world.objects[0];
  // Wrong id under a real cell.
  auto status = index->Delete(999999, DistancesFor(world, present), {});
  EXPECT_EQ(status.code(), StatusCode::kNotFound) << status.ToString();

  // Deleting twice: second attempt must fail.
  ASSERT_TRUE(
      index->Delete(present.id(), DistancesFor(world, present), {}).ok());
  status = index->Delete(present.id(), DistancesFor(world, present), {});
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST(MIndexDeleteTest, DeleteValidatesArguments) {
  TestWorld world = MakeWorld(100, 53);
  MIndexOptions options;
  options.max_level = 3;
  auto index = BuildIndex(world, options);
  EXPECT_FALSE(index->Delete(1, {}, {}).ok());
  EXPECT_FALSE(index->Delete(1, std::vector<float>(3, 1.0f), {}).ok());
}

TEST(MIndexDeleteTest, DeleteThenReinsertRestoresSearchability) {
  TestWorld world = MakeWorld(300, 59);
  MIndexOptions options;
  options.bucket_capacity = 30;
  options.max_level = 4;
  auto index = BuildIndex(world, options);

  const VectorObject& victim = world.objects[50];
  ASSERT_TRUE(
      index->Delete(victim.id(), DistancesFor(world, victim), {}).ok());

  BinaryWriter payload;
  victim.Serialize(&payload);
  ASSERT_TRUE(index->Insert(victim.id(), DistancesFor(world, victim), {},
                            payload.buffer())
                  .ok());
  EXPECT_EQ(index->size(), world.objects.size());
  EXPECT_GT(RangeIds(*index, world, victim, 1.0).count(victim.id()), 0u);
  EXPECT_TRUE(index->CheckInvariants().ok());
}

TEST(MIndexDeleteTest, InterleavedInsertDeleteKeepsInvariantsAndResults) {
  TestWorld world = MakeWorld(500, 61);
  MIndexOptions options;
  options.bucket_capacity = 25;
  options.max_level = 4;
  options.num_pivots = world.pivots.size();
  auto index = MIndex::Create(options);
  ASSERT_TRUE(index.ok());

  // Mirror set of what should currently be indexed.
  std::set<uint64_t> live;
  Rng rng(62);
  for (int step = 0; step < 1200; ++step) {
    const size_t pick = rng.NextBounded(world.objects.size());
    const VectorObject& object = world.objects[pick];
    if (live.count(object.id()) == 0) {
      BinaryWriter payload;
      object.Serialize(&payload);
      ASSERT_TRUE((*index)
                      ->Insert(object.id(), DistancesFor(world, object), {},
                               payload.buffer())
                      .ok());
      live.insert(object.id());
    } else {
      ASSERT_TRUE(
          (*index)->Delete(object.id(), DistancesFor(world, object), {}).ok());
      live.erase(object.id());
    }
    if (step % 300 == 299) {
      ASSERT_TRUE((*index)->CheckInvariants().ok()) << "step " << step;
    }
  }
  EXPECT_EQ((*index)->size(), live.size());

  // Range results over the survivors match a linear scan over `live`.
  const VectorObject& query = world.objects[11];
  const double radius = 2.0;
  std::set<uint64_t> expected;
  for (const auto& object : world.objects) {
    if (live.count(object.id()) > 0 &&
        world.metric->Distance(query, object) <= radius) {
      expected.insert(object.id());
    }
  }
  // Candidates are a superset of the true result (pivot filtering keeps
  // every true hit); verify against the true-member subset.
  auto got = RangeIds(**index, world, query, radius);
  for (uint64_t id : expected) {
    EXPECT_TRUE(got.count(id) > 0) << "lost live object " << id;
  }
  for (uint64_t id : got) {
    EXPECT_TRUE(live.count(id) > 0) << "candidate " << id << " was deleted";
  }
}

// ----------------------------------------------------------- Persistence

TEST(PersistenceTest, SnapshotRoundTripPreservesContentAndResults) {
  TestWorld world = MakeWorld(400, 71);
  MIndexOptions options;
  options.bucket_capacity = 40;
  options.max_level = 4;
  // Compaction policy (snapshot version 4) must survive the round trip.
  options.compaction_trigger = 0.4;
  options.compaction_mode = CompactionMode::kPartial;
  options.segment_dead_threshold = 0.6;
  options.compaction_max_pass_bytes = 1 << 20;
  auto index = BuildIndex(world, options);

  auto snapshot = SerializeIndex(*index);
  ASSERT_TRUE(snapshot.ok());
  auto loaded = DeserializeIndex(*snapshot);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ((*loaded)->size(), index->size());
  EXPECT_TRUE((*loaded)->CheckInvariants().ok());
  EXPECT_EQ((*loaded)->options().compaction_trigger, 0.4);
  EXPECT_EQ((*loaded)->options().compaction_mode, CompactionMode::kPartial);
  EXPECT_EQ((*loaded)->options().segment_dead_threshold, 0.6);
  EXPECT_EQ((*loaded)->options().compaction_max_pass_bytes,
            uint64_t{1} << 20);

  for (size_t qi : {0u, 50u, 111u}) {
    const VectorObject& query = world.objects[qi];
    EXPECT_EQ(RangeIds(*index, world, query, 2.0),
              RangeIds(**loaded, world, query, 2.0))
        << "query " << qi;
  }
}

TEST(PersistenceTest, SnapshotIsDeterministic) {
  TestWorld world = MakeWorld(200, 73);
  MIndexOptions options;
  options.bucket_capacity = 20;
  options.max_level = 3;
  auto index = BuildIndex(world, options);
  auto a = SerializeIndex(*index);
  auto b = SerializeIndex(*index);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(PersistenceTest, SaveLoadFileRoundTrip) {
  const ScratchDir dir;
  TestWorld world = MakeWorld(250, 79);
  MIndexOptions options;
  options.bucket_capacity = 30;
  options.max_level = 4;
  auto index = BuildIndex(world, options);

  const std::string path = dir.File("snapshot.midx");
  ASSERT_TRUE(SaveIndex(*index, path).ok());
  auto loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->size(), index->size());
}

TEST(PersistenceTest, SnapshotCompactsDeletedPayloads) {
  TestWorld world = MakeWorld(300, 83);
  MIndexOptions options;
  options.bucket_capacity = 30;
  options.max_level = 4;
  auto index = BuildIndex(world, options);
  const uint64_t bytes_before = index->Stats().storage_bytes;

  // Delete a third of the collection; append-only storage keeps the bytes.
  for (size_t i = 0; i < world.objects.size(); i += 3) {
    const VectorObject& victim = world.objects[i];
    ASSERT_TRUE(
        index->Delete(victim.id(), DistancesFor(world, victim), {}).ok());
  }
  EXPECT_EQ(index->Stats().storage_bytes, bytes_before)
      << "deletes must not rewrite append-only storage";

  auto snapshot = SerializeIndex(*index);
  ASSERT_TRUE(snapshot.ok());
  auto compacted = DeserializeIndex(*snapshot);
  ASSERT_TRUE(compacted.ok());
  EXPECT_EQ((*compacted)->size(), index->size());
  EXPECT_LT((*compacted)->Stats().storage_bytes, bytes_before);
}

TEST(PersistenceTest, CrashMidCompactionLosesAndDuplicatesNothing) {
  const ScratchDir dir;
  TestWorld world = MakeWorld(300, 101);
  MIndexOptions options;
  options.bucket_capacity = 30;
  options.max_level = 4;
  options.storage_kind = StorageKind::kDisk;
  options.disk_path = dir.File("crash.bucket");
  const std::string temp_path = options.disk_path + ".compact";
  const std::string snapshot_path = dir.File("crash.midx");
  auto index = BuildIndex(world, options);

  // Delete a third, snapshot the durable state, remember the live set.
  std::set<uint64_t> expected_live;
  for (const auto& object : world.objects) expected_live.insert(object.id());
  for (size_t i = 0; i < world.objects.size(); i += 3) {
    const VectorObject& victim = world.objects[i];
    ASSERT_TRUE(
        index->Delete(victim.id(), DistancesFor(world, victim), {}).ok());
    expected_live.erase(victim.id());
  }
  ASSERT_TRUE(SaveIndex(*index, snapshot_path).ok());
  const auto pre_crash = RangeIds(*index, world, world.objects[7], 2.0);

  // Crash mid-compaction: the test hook aborts after 50 payloads, leaving
  // the fresh log half-written. The old log was never touched, so the
  // live index keeps answering exactly as before...
  CompactorOptions copts;
  copts.force = true;
  copts.fail_after_payloads = 50;
  auto crashed = index->Compact(copts);
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(RangeIds(*index, world, world.objects[7], 2.0), pre_crash);
  EXPECT_EQ(index->size(), expected_live.size());

  // ...even if the half-written log is truncated further (simulating an
  // unflushed page cache at crash time), recovery from the snapshot sees
  // exactly the pre-compaction live set: nothing lost, nothing doubled.
  {
    std::FILE* file = std::fopen(temp_path.c_str(), "rb");
    ASSERT_NE(file, nullptr) << "crash must leave the temp log behind";
    std::fclose(file);
  }
  ASSERT_EQ(::truncate(temp_path.c_str(), 100), 0);
  index.reset();  // the crashed process is gone; its descriptors close

  auto recovered = LoadIndex(snapshot_path, options.disk_path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  {
    // Recovery reclaims the crashed pass's temp log along the way.
    std::FILE* stale = std::fopen(temp_path.c_str(), "rb");
    EXPECT_EQ(stale, nullptr) << "stale .compact file must be removed";
    if (stale != nullptr) std::fclose(stale);
  }
  EXPECT_EQ((*recovered)->size(), expected_live.size());
  EXPECT_TRUE((*recovered)->CheckInvariants().ok());
  std::multiset<uint64_t> seen;
  ASSERT_TRUE((*recovered)
                  ->ForEachEntry([&](const Entry& entry,
                                     const Bytes& payload) -> Status {
                    seen.insert(entry.id);
                    if (payload.empty()) {
                      return Status::Corruption("payload lost");
                    }
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(seen.size(), expected_live.size()) << "no duplicated payloads";
  for (uint64_t id : expected_live) {
    EXPECT_EQ(seen.count(id), 1u) << "object " << id;
  }
  EXPECT_EQ(RangeIds(**recovered, world, world.objects[7], 2.0), pre_crash);

  // The stale temp file does not break the next compaction.
  auto report = (*recovered)->Compact();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->compacted) << "fresh load starts with a clean log";
}

TEST(PersistenceTest, RejectsCorruptedSnapshots) {
  TestWorld world = MakeWorld(100, 89);
  MIndexOptions options;
  options.max_level = 3;
  auto index = BuildIndex(world, options);
  auto snapshot = SerializeIndex(*index);
  ASSERT_TRUE(snapshot.ok());

  Bytes bad_magic = *snapshot;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(DeserializeIndex(bad_magic).ok());

  Bytes truncated(snapshot->begin(), snapshot->begin() + snapshot->size() / 2);
  EXPECT_FALSE(DeserializeIndex(truncated).ok());

  EXPECT_FALSE(LoadIndex("/nonexistent/simcloud.midx").ok());
}

TEST(PersistenceTest, DiskStorageSnapshotWithPathOverride) {
  const ScratchDir dir;
  TestWorld world = MakeWorld(200, 97);
  MIndexOptions options;
  options.bucket_capacity = 30;
  options.max_level = 3;
  options.storage_kind = StorageKind::kDisk;
  options.disk_path = dir.File("original.bucket");
  auto index = BuildIndex(world, options);

  auto snapshot = SerializeIndex(*index);
  ASSERT_TRUE(snapshot.ok());
  const std::string override_path = dir.File("restored.bucket");
  auto loaded = DeserializeIndex(*snapshot, override_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->size(), index->size());
  EXPECT_EQ((*loaded)->options().disk_path, override_path);

  const VectorObject& query = world.objects[3];
  EXPECT_EQ(RangeIds(*index, world, query, 2.0),
            RangeIds(**loaded, world, query, 2.0));
}

}  // namespace
}  // namespace mindex
}  // namespace simcloud
