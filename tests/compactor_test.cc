// Compaction-engine tests: the log shrinks to the live bytes, handles are
// remapped so every answer is byte-identical to the uncompacted index,
// the payload cache survives the swap warm and never stale, automatic
// triggering bounds the garbage ratio, and the kCompact / kDeleteBatch
// opcodes work through the single and sharded servers.

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "common/scratch_dir.h"
#include "common/serialize.h"
#include "data/synthetic.h"
#include "mindex/mindex.h"
#include "mindex/payload_cache.h"
#include "mindex/pivot_set.h"
#include "secure/client.h"
#include "secure/server.h"
#include "secure/sharded_server.h"

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

std::vector<float> DistancesFor(const TestWorld& world,
                                const VectorObject& object) {
  return world.pivots.ComputeDistances(object, *world.metric);
}

std::unique_ptr<MIndex> BuildIndex(const TestWorld& world,
                                   MIndexOptions options) {
  options.num_pivots = world.pivots.size();
  auto index = MIndex::Create(options);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  for (const auto& object : world.objects) {
    BinaryWriter payload;
    object.Serialize(&payload);
    Status st = (*index)->Insert(object.id(), DistancesFor(world, object),
                                 {}, payload.buffer());
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return std::move(index).value();
}

/// Full observable answer of one range query: (id, score, payload bytes).
std::vector<std::tuple<uint64_t, double, Bytes>> RangeAnswer(
    const MIndex& index, const TestWorld& world, const VectorObject& query,
    double radius) {
  auto candidates =
      index.RangeSearchCandidates(DistancesFor(world, query), radius);
  EXPECT_TRUE(candidates.ok()) << candidates.status().ToString();
  std::vector<std::tuple<uint64_t, double, Bytes>> answer;
  for (const auto& c : *candidates) {
    answer.emplace_back(c.id, c.score, c.payload);
  }
  return answer;
}

std::vector<std::tuple<uint64_t, double, Bytes>> KnnAnswer(
    const MIndex& index, const TestWorld& world, const VectorObject& query,
    size_t cand_size) {
  QuerySignature signature;
  signature.pivot_distances = DistancesFor(world, query);
  signature.permutation = DistancesToPermutation(signature.pivot_distances);
  auto candidates = index.ApproxKnnCandidates(signature, cand_size);
  EXPECT_TRUE(candidates.ok()) << candidates.status().ToString();
  std::vector<std::tuple<uint64_t, double, Bytes>> answer;
  for (const auto& c : *candidates) {
    answer.emplace_back(c.id, c.score, c.payload);
  }
  return answer;
}

class CompactorTest : public ::testing::TestWithParam<StorageKind> {
 protected:
  MIndexOptions Options() {
    MIndexOptions options;
    options.bucket_capacity = 30;
    options.max_level = 4;
    options.storage_kind = GetParam();
    if (GetParam() == StorageKind::kDisk) {
      path_ = dir_.File("compactor.bucket");
      options.disk_path = path_;
    }
    return options;
  }
  ScratchDir dir_;
  std::string path_;
};

TEST_P(CompactorTest, CompactReclaimsDeadBytesAndPreservesEveryAnswer) {
  TestWorld world = MakeWorld(400, 131);
  auto index = BuildIndex(world, Options());

  // Delete 40% of the collection.
  for (size_t i = 0; i < world.objects.size(); i += 5) {
    const VectorObject& victim = world.objects[i];
    ASSERT_TRUE(
        index->Delete(victim.id(), DistancesFor(world, victim), {}).ok());
    if (i + 2 < world.objects.size()) {
      const VectorObject& second = world.objects[i + 2];
      ASSERT_TRUE(
          index->Delete(second.id(), DistancesFor(world, second), {}).ok());
    }
  }
  const auto before = index->StorageStats();
  ASSERT_GT(before.dead_bytes, 0u);
  const uint64_t log_before = index->Stats().storage_bytes;

  // Pin the answers of several queries before compaction.
  std::vector<VectorObject> queries = {world.objects[1], world.objects[33],
                                       world.objects[123]};
  std::vector<std::vector<std::tuple<uint64_t, double, Bytes>>> range_before,
      knn_before;
  for (const auto& query : queries) {
    range_before.push_back(RangeAnswer(*index, world, query, 2.0));
    knn_before.push_back(KnnAnswer(*index, world, query, 50));
  }

  auto report = index->Compact();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->compacted);
  EXPECT_EQ(report->bytes_before, log_before);
  EXPECT_EQ(report->bytes_after, before.live_bytes);
  EXPECT_EQ(report->payloads_moved, index->size());
  EXPECT_EQ(report->reclaimed_bytes, before.dead_bytes);

  // The log now holds exactly the live bytes, nothing dead.
  const auto after = index->StorageStats();
  EXPECT_EQ(after.dead_bytes, 0u);
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  EXPECT_EQ(index->Stats().storage_bytes, before.live_bytes);
  EXPECT_TRUE(index->CheckInvariants().ok());

  // Every answer — ids, scores, payload bytes — is unchanged.
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(RangeAnswer(*index, world, queries[q], 2.0), range_before[q])
        << "range query " << q;
    EXPECT_EQ(KnnAnswer(*index, world, queries[q], 50), knn_before[q])
        << "knn query " << q;
  }

  // A second pass has nothing to do.
  auto again = index->Compact();
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->compacted);
  EXPECT_EQ(again->bytes_after, before.live_bytes);
}

TEST_P(CompactorTest, AutomaticTriggerBoundsGarbageRatio) {
  TestWorld world = MakeWorld(400, 137);
  MIndexOptions options = Options();
  options.compaction_trigger = 0.3;
  auto index = BuildIndex(world, options);

  // Delete 60% one by one; every time the dead fraction passes 30% the
  // index must compact itself, so the ratio stays bounded throughout.
  size_t deleted = 0;
  for (size_t i = 0; i < world.objects.size(); ++i) {
    if (i % 5 == 4) continue;  // keep 20%... delete indices not ending in 4
    if (deleted >= (world.objects.size() * 3) / 5) break;
    const VectorObject& victim = world.objects[i];
    ASSERT_TRUE(
        index->Delete(victim.id(), DistancesFor(world, victim), {}).ok());
    ++deleted;
    EXPECT_LT(index->StorageStats().GarbageRatio(), 0.3 + 1e-9)
        << "after delete " << deleted;
  }
  ASSERT_GT(deleted, 0u);
  EXPECT_TRUE(index->CheckInvariants().ok());
  // The log never holds more than live / (1 - trigger) bytes.
  const auto stats = index->StorageStats();
  EXPECT_LE(stats.TotalBytes(),
            static_cast<uint64_t>(stats.live_bytes / 0.7) + 1);

  // Deleted objects are really gone; survivors still answer.
  auto survivors = RangeAnswer(*index, world, world.objects[4], 2.0);
  for (const auto& [id, score, payload] : survivors) {
    (void)score;
    (void)payload;
    bool is_live = false;
    for (const auto& object : world.objects) {
      if (object.id() == id) {
        is_live = true;
        break;
      }
    }
    EXPECT_TRUE(is_live);
  }
}

TEST(InsertTest, RejectedInsertDoesNotLeakStoredPayload) {
  MIndexOptions options;
  options.num_pivots = 8;
  options.bucket_capacity = 20;
  options.max_level = 3;
  auto index = MIndex::Create(options);
  ASSERT_TRUE(index.ok());

  // The tree's routing checks reject the too-short permutation before
  // the payload is stored: nothing is leaked as live, and no dead bytes
  // are left for compaction either.
  auto status = (*index)->Insert(1, {}, Permutation{0, 1}, Bytes(64, 0xEE));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*index)->size(), 0u);
  const auto stats = (*index)->StorageStats();
  EXPECT_EQ(stats.live_payloads, 0u);
  EXPECT_EQ(stats.dead_payloads, 0u);
  EXPECT_EQ(stats.TotalBytes(), 0u);
}

TEST(DeleteBatchTest, MalformedItemRejectsTheBatchBeforeAnyMutation) {
  TestWorld world = MakeWorld(100, 149);
  MIndexOptions options;
  options.bucket_capacity = 20;
  options.max_level = 3;
  auto index = BuildIndex(world, options);

  std::vector<Deletion> batch;
  batch.push_back(Deletion{world.objects[0].id(),
                           DistancesFor(world, world.objects[0]),
                           {}});
  batch.push_back(Deletion{world.objects[1].id(), {}, {}});  // no routing
  auto result = index->DeleteBatch(batch);
  ASSERT_FALSE(result.ok());
  // Routing is validated for the whole batch up front: nothing applied.
  EXPECT_EQ(index->size(), world.objects.size());
  EXPECT_EQ(index->StorageStats().dead_payloads, 0u);
}

TEST(DeleteBatchTest, InvalidPermutationRejectsTheBatchBeforeAnyMutation) {
  TestWorld world = MakeWorld(100, 151);
  MIndexOptions options;
  options.bucket_capacity = 20;
  options.max_level = 3;
  auto index = BuildIndex(world, options);

  // The second item carries a permutation the tree would reject; routing
  // validation catches it up front, so the first item must not have been
  // applied either — DeleteBatch is all-or-nothing (NotFound aside).
  std::vector<Deletion> batch;
  batch.push_back(Deletion{world.objects[0].id(),
                           DistancesFor(world, world.objects[0]),
                           {}});
  batch.push_back(
      Deletion{world.objects[1].id(), {}, Permutation{99, 99, 99, 99}});
  auto result = index->DeleteBatch(batch);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(index->size(), world.objects.size());
  EXPECT_EQ(index->StorageStats().dead_payloads, 0u);
}

TEST(CompactorCacheTest, CacheSurvivesCompactionWarmAndNeverStale) {
  const ScratchDir dir;
  TestWorld world = MakeWorld(300, 139);
  MIndexOptions options;
  options.bucket_capacity = 30;
  options.max_level = 4;
  options.storage_kind = StorageKind::kDisk;
  options.disk_path = dir.File("compactor_cache.bucket");
  options.cache_bytes = 1 << 20;
  auto index = BuildIndex(world, options);

  // Warm the cache with a few queries, then delete a third.
  const VectorObject& hot_query = world.objects[10];
  auto warm = RangeAnswer(*index, world, hot_query, 2.0);
  ASSERT_FALSE(warm.empty());
  for (size_t i = 0; i < world.objects.size(); i += 3) {
    const VectorObject& victim = world.objects[i];
    ASSERT_TRUE(
        index->Delete(victim.id(), DistancesFor(world, victim), {}).ok());
  }
  const auto expected = RangeAnswer(*index, world, hot_query, 2.0);

  auto report = index->Compact();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->compacted);

  // The hot set was re-admitted under the remapped handles: the cache is
  // warm immediately after the swap...
  const auto* cache = dynamic_cast<const PayloadCache*>(&index->storage());
  ASSERT_NE(cache, nullptr);
  EXPECT_GT(cache->stats().cached_payloads, 0u)
      << "compaction must re-admit the pre-compaction hot set";

  // ...and, critically, serves the exact post-delete answer.
  EXPECT_EQ(RangeAnswer(*index, world, hot_query, 2.0), expected);
  EXPECT_EQ(index->StorageStats().dead_bytes, 0u);
}

// The mid-pass mutation window: the between_steps hook runs with no lock
// held, exactly where concurrent writers interleave with a background
// pass. Everything that lands there must flow through the relocation
// journal — inserts are caught up into the fresh log, deletes of
// already-copied payloads free the copy at the swap.
TEST_P(CompactorTest, MidPassMutationsSurviveTheRelocationJournal) {
  TestWorld world = MakeWorld(360, 167);
  MIndexOptions options = Options();
  const std::vector<VectorObject> initial(world.objects.begin(),
                                          world.objects.begin() + 300);
  const std::vector<VectorObject> extra(world.objects.begin() + 300,
                                        world.objects.end());

  auto make_index = [&](const std::string& suffix) {
    MIndexOptions opts = options;
    if (!opts.disk_path.empty()) opts.disk_path += suffix;
    opts.num_pivots = world.pivots.size();
    auto index = MIndex::Create(opts);
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    for (const auto& object : initial) {
      BinaryWriter payload;
      object.Serialize(&payload);
      EXPECT_TRUE((*index)
                      ->Insert(object.id(), DistancesFor(world, object), {},
                               payload.buffer())
                      .ok());
    }
    return std::move(index).value();
  };
  auto compacting = make_index("");
  auto reference = make_index(".ref");

  auto insert_both = [&](const VectorObject& object) {
    BinaryWriter payload;
    object.Serialize(&payload);
    for (MIndex* index : {compacting.get(), reference.get()}) {
      ASSERT_TRUE(index
                      ->Insert(object.id(), DistancesFor(world, object), {},
                               payload.buffer())
                      .ok());
    }
  };
  auto delete_both = [&](const VectorObject& object) {
    for (MIndex* index : {compacting.get(), reference.get()}) {
      ASSERT_TRUE(
          index->Delete(object.id(), DistancesFor(world, object), {}).ok());
    }
  };

  // Pre-pass garbage: delete every third object from both.
  for (size_t i = 0; i < initial.size(); i += 3) delete_both(initial[i]);
  ASSERT_GT(compacting->StorageStats().dead_bytes, 0u);

  // Run a forced pass with small steps, mutating BOTH indexes from the
  // mid-pass window: fresh inserts, deletes of long-copied survivors, and
  // an insert that is deleted again before the pass ends (its journal
  // entries must cancel out).
  CompactorOptions copts;
  copts.force = true;
  copts.batch_size = 16;
  size_t step = 0;
  copts.between_steps = [&] {
    ++step;
    if (step == 2) {
      for (size_t i = 0; i < 20; ++i) insert_both(extra[i]);
    }
    if (step == 4) {
      // Survivors copied by the very first steps (handle order follows
      // insert order on a single-segment log).
      delete_both(initial[1]);
      delete_both(initial[2]);
      // Inserted two steps ago, gone before the swap.
      delete_both(extra[0]);
      delete_both(extra[1]);
    }
    if (step == 6) {
      for (size_t i = 20; i < extra.size(); ++i) insert_both(extra[i]);
    }
  };
  auto report = compacting->Compact(copts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->compacted);
  ASSERT_GT(step, 5u) << "the pass must have run in many small steps";

  // Both indexes now hold the same live set; every answer must agree.
  EXPECT_EQ(compacting->size(), reference->size());
  EXPECT_TRUE(compacting->CheckInvariants().ok());
  for (size_t qi : {1u, 40u, 123u, 310u}) {
    const VectorObject& query = world.objects[qi];
    EXPECT_EQ(RangeAnswer(*compacting, world, query, 2.0),
              RangeAnswer(*reference, world, query, 2.0))
        << "range query " << qi;
    EXPECT_EQ(KnnAnswer(*compacting, world, query, 50),
              KnnAnswer(*reference, world, query, 50))
        << "knn query " << qi;
  }
  const auto live_ref = reference->StorageStats();
  const auto live_got = compacting->StorageStats();
  EXPECT_EQ(live_got.live_bytes, live_ref.live_bytes);
  EXPECT_EQ(live_got.live_payloads, live_ref.live_payloads);

  // The only garbage the fresh log may carry is the copies of payloads
  // deleted mid-pass; a quiescent second pass clears it.
  auto second = compacting->Compact();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(compacting->StorageStats().dead_bytes, 0u);
  for (size_t qi : {1u, 310u}) {
    const VectorObject& query = world.objects[qi];
    EXPECT_EQ(RangeAnswer(*compacting, world, query, 2.0),
              RangeAnswer(*reference, world, query, 2.0));
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, CompactorTest,
                         ::testing::Values(StorageKind::kMemory,
                                           StorageKind::kDisk),
                         [](const auto& info) {
                           return info.param == StorageKind::kMemory
                                      ? "memory"
                                      : "disk";
                         });

// ---------------------------------------------------- partial compaction

class PartialCompactionTest : public ::testing::Test {
 protected:
  static constexpr size_t kPayloadBytes = 2048;

  void SetUp() override {
    world_ = MakeWorld(400, 173);
    path_ = dir_.File("partial.bucket");
    compacting_ = Build(path_);
    reference_ = Build(path_ + ".ref");
    // Delete two of every three among the first 300 objects from both:
    // the early (sealed) 64 KiB segments end up ~2/3 dead, the tail
    // segments stay clean.
    for (size_t i = 0; i < 300; ++i) {
      if (i % 3 == 2) continue;
      for (MIndex* index : {compacting_.get(), reference_.get()}) {
        const VectorObject& victim = world_.objects[i];
        ASSERT_TRUE(
            index->Delete(victim.id(), DistancesFor(world_, victim), {})
                .ok());
      }
    }
  }
  std::unique_ptr<MIndex> Build(const std::string& path) {
    MIndexOptions options;
    options.num_pivots = world_.pivots.size();
    options.bucket_capacity = 40;
    options.max_level = 4;
    options.storage_kind = StorageKind::kDisk;
    options.disk_path = path;
    auto index = MIndex::Create(options);
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    for (size_t i = 0; i < world_.objects.size(); ++i) {
      const VectorObject& object = world_.objects[i];
      // Padded payloads so the log spans many segments.
      Bytes payload(kPayloadBytes, static_cast<uint8_t>(i));
      EXPECT_TRUE((*index)
                      ->Insert(object.id(), DistancesFor(world_, object), {},
                               payload)
                      .ok());
    }
    return std::move(index).value();
  }

  void ExpectAnswersMatchReference() {
    for (size_t qi : {2u, 47u, 200u, 350u}) {
      const VectorObject& query = world_.objects[qi];
      EXPECT_EQ(RangeAnswer(*compacting_, world_, query, 2.0),
                RangeAnswer(*reference_, world_, query, 2.0))
          << "range query " << qi;
      EXPECT_EQ(KnnAnswer(*compacting_, world_, query, 50),
                KnnAnswer(*reference_, world_, query, 50))
          << "knn query " << qi;
    }
  }

  ScratchDir dir_;
  TestWorld world_;
  std::string path_;
  std::unique_ptr<MIndex> compacting_;
  std::unique_ptr<MIndex> reference_;
};

TEST_F(PartialCompactionTest, ReleasesDeadestSegmentsWithoutFullRewrite) {
  const auto before = compacting_->StorageStats();
  ASSERT_GT(before.dead_bytes, 0u);
  ASSERT_GT(before.segment_count, 8u) << "log must span many segments";

  CompactorOptions opts;
  opts.force = true;
  opts.mode = CompactionMode::kPartial;
  opts.segment_dead_threshold = 0.5;
  auto report = compacting_->Compact(opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->compacted);
  EXPECT_EQ(report->mode, CompactionMode::kPartial);
  EXPECT_GE(report->segments_released, 5u);
  // Partial means partial: only the live payloads of the targeted
  // segments moved, not the whole collection.
  EXPECT_GT(report->payloads_moved, 0u);
  EXPECT_LT(report->payloads_moved, compacting_->size());
  EXPECT_GT(report->reclaimed_bytes, 0u);

  const auto after = compacting_->StorageStats();
  EXPECT_LT(after.TotalBytes(), before.TotalBytes());
  EXPECT_LT(after.dead_bytes, before.dead_bytes);
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  EXPECT_TRUE(compacting_->CheckInvariants().ok());
  ExpectAnswersMatchReference();

  // Everything eligible was released; a second pass finds no target.
  auto again = compacting_->Compact(opts);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->compacted);
  ExpectAnswersMatchReference();
}

TEST_F(PartialCompactionTest, PassByteBudgetBoundsTheWork) {
  CompactorOptions opts;
  opts.force = true;
  opts.mode = CompactionMode::kPartial;
  opts.segment_dead_threshold = 0.5;
  opts.max_pass_bytes = 1;  // at least one segment is always taken
  auto report = compacting_->Compact(opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->compacted);
  EXPECT_EQ(report->segments_released, 1u);
  // One 64 KiB segment holds ~32 of these payloads, a third of them live.
  EXPECT_LE(report->payloads_moved, 16u);
  EXPECT_TRUE(compacting_->CheckInvariants().ok());
  ExpectAnswersMatchReference();

  // Later passes keep eating the backlog one segment at a time.
  auto next = compacting_->Compact(opts);
  ASSERT_TRUE(next.ok());
  EXPECT_TRUE(next->compacted);
  EXPECT_EQ(next->segments_released, 1u);
  ExpectAnswersMatchReference();
}

TEST(PartialCompactionFallbackTest, MemoryBackendFallsBackToFullPass) {
  TestWorld world = MakeWorld(200, 179);
  MIndexOptions options;
  options.num_pivots = world.pivots.size();
  options.bucket_capacity = 30;
  options.max_level = 4;
  auto index = BuildIndex(world, options);
  for (size_t i = 0; i < world.objects.size(); i += 2) {
    const VectorObject& victim = world.objects[i];
    ASSERT_TRUE(
        index->Delete(victim.id(), DistancesFor(world, victim), {}).ok());
  }

  CompactorOptions opts;
  opts.force = true;
  opts.mode = CompactionMode::kPartial;
  auto report = index->Compact(opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->compacted);
  // Memory storage cannot release segments in place: the pass must have
  // run (and reported) the full rewrite, leaving zero garbage.
  EXPECT_EQ(report->mode, CompactionMode::kFull);
  EXPECT_EQ(index->StorageStats().dead_bytes, 0u);
  EXPECT_TRUE(index->CheckInvariants().ok());
}

}  // namespace
}  // namespace mindex

// ------------------------------------------------------- wire-level tests

namespace secure {
namespace {

using metric::VectorObject;

struct Stack {
  mindex::PivotSet pivots;
  SecretKey key;
  std::unique_ptr<net::RequestHandler> server;
  std::unique_ptr<net::LoopbackTransport> transport;
  std::unique_ptr<EncryptionClient> client;
};

Stack MakeStack(const std::vector<VectorObject>& objects,
                std::shared_ptr<metric::DistanceFunction> metric,
                size_t num_shards, const std::string& disk_path,
                double compaction_trigger) {
  auto pivots = mindex::PivotSet::SelectRandom(objects, 10, 77);
  EXPECT_TRUE(pivots.ok());
  auto key = SecretKey::Create(*pivots, Bytes(16, 0x42));
  EXPECT_TRUE(key.ok());

  mindex::MIndexOptions options;
  options.num_pivots = 10;
  options.bucket_capacity = 40;
  options.max_level = 4;
  options.compaction_trigger = compaction_trigger;
  if (!disk_path.empty()) {
    options.storage_kind = mindex::StorageKind::kDisk;
    options.disk_path = disk_path;
    options.cache_bytes = 1 << 18;
  }

  Stack stack{std::move(*pivots), std::move(*key), nullptr, nullptr, nullptr};
  if (num_shards <= 1) {
    auto server = EncryptedMIndexServer::Create(options);
    EXPECT_TRUE(server.ok());
    stack.server = std::move(*server);
  } else {
    auto server = ShardedServer::Create(options, num_shards);
    EXPECT_TRUE(server.ok());
    stack.server = std::move(*server);
  }
  stack.transport =
      std::make_unique<net::LoopbackTransport>(stack.server.get());
  stack.client = std::make_unique<EncryptionClient>(stack.key, metric,
                                                    stack.transport.get());
  EXPECT_TRUE(stack.client
                  ->InsertBulk(objects, InsertStrategy::kPrecise, 200)
                  .ok());
  return stack;
}

class CompactOpcodeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CompactOpcodeTest, DeleteBatchThenCompactThroughTheWire) {
  const size_t num_shards = GetParam();
  data::MixtureOptions mixture;
  mixture.num_objects = 500;
  mixture.dimension = 8;
  mixture.num_clusters = 5;
  mixture.seed = 149;
  const auto objects = data::MakeGaussianMixture(mixture);
  auto metric = std::make_shared<metric::L2Distance>();
  const ScratchDir dir;
  const std::string disk_path = dir.File("compact_opcode.bucket");
  Stack stack = MakeStack(objects, metric, num_shards, disk_path,
                          /*compaction_trigger=*/0.0);

  // Batched delete of half the collection: one request per bulk.
  std::vector<VectorObject> victims(objects.begin(),
                                    objects.begin() + objects.size() / 2);
  ASSERT_TRUE(stack.client->DeleteBatch(victims).ok());

  auto stats = stack.client->GetServerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->object_count, objects.size() - victims.size());
  EXPECT_GT(stats->dead_storage_bytes, 0u);
  const uint64_t log_before = stats->storage_bytes;
  const uint64_t live = stats->live_storage_bytes;

  // Unforced compaction with trigger 0 must refuse...
  auto skipped = stack.client->Compact(/*force=*/false);
  ASSERT_TRUE(skipped.ok());
  EXPECT_FALSE(skipped->compacted);

  // ...forced compaction reclaims everything dead, on every shard.
  auto report = stack.client->Compact(/*force=*/true);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->compacted);
  EXPECT_EQ(report->bytes_before, log_before);
  EXPECT_EQ(report->bytes_after, live);

  stats = stack.client->GetServerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->storage_bytes, live);
  EXPECT_EQ(stats->dead_storage_bytes, 0u);

  // Queries after compaction equal a reference stack that saw the same
  // inserts and deletes but never compacted.
  const std::string ref_path = disk_path + ".ref";
  Stack reference = MakeStack(objects, metric, num_shards, ref_path, 0.0);
  ASSERT_TRUE(reference.client->DeleteBatch(victims).ok());
  for (size_t qi : {0u, 7u, 140u}) {
    auto got = stack.client->RangeSearch(objects[qi], 2.0);
    auto want = reference.client->RangeSearch(objects[qi], 2.0);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(got->size(), want->size()) << "query " << qi;
    for (size_t i = 0; i < want->size(); ++i) {
      EXPECT_EQ((*got)[i].id, (*want)[i].id);
      EXPECT_EQ((*got)[i].distance, (*want)[i].distance);
    }
  }

  // Deleting already-deleted objects reports NotFound but is harmless.
  auto missing = stack.client->DeleteBatch(victims);
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
}

TEST(ShardedDeleteBatchTest, MalformedItemLeavesEveryShardUntouched) {
  data::MixtureOptions mixture;
  mixture.num_objects = 200;
  mixture.dimension = 8;
  mixture.num_clusters = 4;
  mixture.seed = 157;
  const auto objects = data::MakeGaussianMixture(mixture);
  auto metric = std::make_shared<metric::L2Distance>();
  Stack stack = MakeStack(objects, metric, /*num_shards=*/3, "", 0.0);
  auto* sharded = dynamic_cast<ShardedServer*>(stack.server.get());
  ASSERT_NE(sharded, nullptr);

  // Valid deletes for shards 0..2 plus one item whose permutation is
  // invalid: the facade must reject the whole batch with NO shard
  // mutated, exactly like a single-node server would.
  std::vector<DeleteItem> items;
  for (size_t i = 0; i < 6; ++i) {
    std::vector<float> d =
        stack.pivots.ComputeDistances(objects[i], *metric);
    items.push_back(
        DeleteItem{objects[i].id(), mindex::DistancesToPermutation(d)});
  }
  items.push_back(DeleteItem{objects[6].id(),
                             mindex::Permutation{42, 42, 42, 42}});
  auto response =
      stack.server->Handle(EncodeDeleteBatchRequest(items));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(sharded->TotalObjects(), objects.size());
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, CompactOpcodeTest,
                         ::testing::Values(1, 3),
                         [](const auto& info) {
                           return "shards" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace secure
}  // namespace simcloud
