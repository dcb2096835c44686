// Churn soak test: a randomized interleaving of insert batches, delete
// batches, range queries, and k-NN batches runs against two identically
// fed deployments — one that compacts aggressively (automatic trigger
// plus periodic explicit kCompact, payload cache enabled) and one that
// never compacts — while an in-memory oracle tracks the live collection.
// Invariants checked throughout:
//   * precise range answers equal the oracle's brute-force answer exactly;
//   * every answer (range and k-NN, ids and distances) from the
//     compacting deployment is identical to the never-compacted one —
//     compaction must never change any result;
//   * tree invariants hold and object counts match the oracle;
//   * after a final compaction the log holds exactly the live bytes.
// Runs on memory and disk backends, single-node and sharded servers.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/scratch_dir.h"
#include "data/synthetic.h"
#include "mindex/mindex.h"
#include "secure/client.h"
#include "secure/server.h"
#include "secure/sharded_server.h"

namespace simcloud {
namespace secure {
namespace {

using metric::VectorObject;

struct ChurnConfig {
  mindex::StorageKind storage_kind;
  size_t num_shards;
};

std::string ConfigName(const ChurnConfig& config) {
  std::string name = config.storage_kind == mindex::StorageKind::kMemory
                         ? "memory"
                         : "disk";
  name += "_shards" + std::to_string(config.num_shards);
  return name;
}

class ChurnTest : public ::testing::TestWithParam<ChurnConfig> {};

struct Deployment {
  std::unique_ptr<ScratchDir> scratch;  // disk deployments; outlives server
  std::unique_ptr<net::RequestHandler> server;
  std::unique_ptr<net::LoopbackTransport> transport;
  std::unique_ptr<EncryptionClient> client;

  /// White-box access to every shard's index.
  std::vector<const mindex::MIndex*> Indexes() const {
    std::vector<const mindex::MIndex*> indexes;
    if (auto* sharded = dynamic_cast<ShardedServer*>(server.get())) {
      for (size_t i = 0; i < sharded->num_shards(); ++i) {
        indexes.push_back(&sharded->shard(i).index());
      }
    } else {
      indexes.push_back(
          &static_cast<EncryptedMIndexServer*>(server.get())->index());
    }
    return indexes;
  }
};

Deployment MakeDeployment(const ChurnConfig& config, const SecretKey& key,
                          std::shared_ptr<metric::DistanceFunction> metric,
                          double compaction_trigger, uint64_t cache_bytes) {
  mindex::MIndexOptions options;
  options.num_pivots = key.num_pivots();
  options.bucket_capacity = 25;
  options.max_level = 4;
  options.compaction_trigger = compaction_trigger;
  options.cache_bytes = cache_bytes;
  Deployment deployment;
  if (config.storage_kind == mindex::StorageKind::kDisk) {
    options.storage_kind = mindex::StorageKind::kDisk;
    deployment.scratch = std::make_unique<ScratchDir>();
    options.disk_path = deployment.scratch->File("churn.bucket");
  }
  if (config.num_shards <= 1) {
    auto server = EncryptedMIndexServer::Create(options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    deployment.server = std::move(*server);
  } else {
    auto server = ShardedServer::Create(options, config.num_shards);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    deployment.server = std::move(*server);
  }
  deployment.transport =
      std::make_unique<net::LoopbackTransport>(deployment.server.get());
  deployment.client = std::make_unique<EncryptionClient>(
      key, std::move(metric), deployment.transport.get());
  return deployment;
}

TEST_P(ChurnTest, RandomizedChurnMatchesOracleAndCompactionChangesNothing) {
  const ChurnConfig config = GetParam();

  data::MixtureOptions mixture;
  mixture.num_objects = 400;
  mixture.dimension = 8;
  mixture.num_clusters = 6;
  mixture.seed = 211;
  const std::vector<VectorObject> pool = data::MakeGaussianMixture(mixture);
  auto metric = std::make_shared<metric::L2Distance>();
  auto pivots = mindex::PivotSet::SelectRandom(pool, 8, 213);
  ASSERT_TRUE(pivots.ok());
  auto key = SecretKey::Create(std::move(*pivots), Bytes(16, 0x37));
  ASSERT_TRUE(key.ok());

  Deployment compacting =
      MakeDeployment(config, *key, metric, /*compaction_trigger=*/0.35,
                     /*cache_bytes=*/1 << 17);
  Deployment reference =
      MakeDeployment(config, *key, metric, /*compaction_trigger=*/0.0,
                     /*cache_bytes=*/0);

  // Oracle: which pool objects are currently indexed.
  std::vector<bool> live(pool.size(), false);
  size_t live_count = 0;
  Rng rng(503 + config.num_shards);

  auto insert_batch = [&](size_t want) {
    std::vector<VectorObject> batch;
    for (size_t attempts = 0; attempts < 4 * want && batch.size() < want;
         ++attempts) {
      const size_t pick = rng.NextBounded(pool.size());
      if (live[pick]) continue;
      live[pick] = true;
      ++live_count;
      batch.push_back(pool[pick]);
    }
    if (batch.empty()) return;
    ASSERT_TRUE(compacting.client
                    ->InsertBulk(batch, InsertStrategy::kPrecise, 50)
                    .ok());
    ASSERT_TRUE(reference.client
                    ->InsertBulk(batch, InsertStrategy::kPrecise, 50)
                    .ok());
  };

  auto delete_batch = [&](size_t want) {
    std::vector<VectorObject> batch;
    for (size_t attempts = 0; attempts < 6 * want && batch.size() < want;
         ++attempts) {
      const size_t pick = rng.NextBounded(pool.size());
      if (!live[pick]) continue;
      live[pick] = false;
      --live_count;
      batch.push_back(pool[pick]);
    }
    if (batch.empty()) return;
    if (batch.size() == 1) {
      // Exercise the single-delete opcode too.
      ASSERT_TRUE(compacting.client->Delete(batch[0]).ok());
      ASSERT_TRUE(reference.client->Delete(batch[0]).ok());
    } else {
      ASSERT_TRUE(compacting.client->DeleteBatch(batch).ok());
      ASSERT_TRUE(reference.client->DeleteBatch(batch).ok());
    }
  };

  auto check_queries = [&](int round) {
    // Precise range queries: compare both deployments to each other AND
    // to the oracle's brute-force answer (range search is exact).
    for (int qi = 0; qi < 2; ++qi) {
      const VectorObject& query = pool[rng.NextBounded(pool.size())];
      const double radius = 1.0 + 0.25 * rng.NextBounded(8);
      auto got = compacting.client->RangeSearch(query, radius);
      auto want = reference.client->RangeSearch(query, radius);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_EQ(got->size(), want->size()) << "round " << round;
      for (size_t i = 0; i < want->size(); ++i) {
        ASSERT_EQ((*got)[i].id, (*want)[i].id) << "round " << round;
        ASSERT_EQ((*got)[i].distance, (*want)[i].distance)
            << "round " << round;
      }
      std::map<uint64_t, double> oracle;
      for (size_t i = 0; i < pool.size(); ++i) {
        if (!live[i]) continue;
        const double d = metric->Distance(query, pool[i]);
        if (d <= radius) oracle[pool[i].id()] = d;
      }
      ASSERT_EQ(got->size(), oracle.size()) << "round " << round;
      for (const auto& neighbor : *got) {
        auto it = oracle.find(neighbor.id);
        ASSERT_NE(it, oracle.end()) << "round " << round;
        ASSERT_EQ(neighbor.distance, it->second) << "round " << round;
      }
    }
    // Batched approximate k-NN: byte-identical across deployments.
    std::vector<VectorObject> knn_queries;
    for (int qi = 0; qi < 4; ++qi) {
      knn_queries.push_back(pool[rng.NextBounded(pool.size())]);
    }
    auto got = compacting.client->ApproxKnnBatch(knn_queries, 5, 40);
    auto want = reference.client->ApproxKnnBatch(knn_queries, 5, 40);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_EQ(got->size(), want->size());
    for (size_t q = 0; q < want->size(); ++q) {
      ASSERT_EQ((*got)[q].size(), (*want)[q].size()) << "round " << round;
      for (size_t i = 0; i < (*want)[q].size(); ++i) {
        ASSERT_EQ((*got)[q][i].id, (*want)[q][i].id) << "round " << round;
        ASSERT_EQ((*got)[q][i].distance, (*want)[q][i].distance)
            << "round " << round;
      }
    }
  };

  insert_batch(200);
  for (int round = 0; round < 12; ++round) {
    insert_batch(5 + rng.NextBounded(25));
    delete_batch(5 + rng.NextBounded(30));
    if (round % 3 == 2) delete_batch(1);  // single-delete opcode
    if (round % 4 == 3) {
      auto report = compacting.client->Compact(/*force=*/true);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
    }
    check_queries(round);
  }

  // Final accounting: counts match the oracle on both deployments...
  auto stats = compacting.client->GetServerStats();
  auto ref_stats = reference.client->GetServerStats();
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(ref_stats.ok());
  EXPECT_EQ(stats->object_count, live_count);
  EXPECT_EQ(ref_stats->object_count, live_count);

  // ...tree invariants hold on every shard...
  for (const Deployment* deployment : {&compacting, &reference}) {
    for (const mindex::MIndex* index : deployment->Indexes()) {
      EXPECT_TRUE(index->CheckInvariants().ok());
    }
  }

  // ...and one final forced compaction leaves a log of exactly the live
  // bytes while the reference kept every byte ever appended.
  auto report = compacting.client->Compact(/*force=*/true);
  ASSERT_TRUE(report.ok());
  stats = compacting.client->GetServerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->dead_storage_bytes, 0u);
  EXPECT_EQ(stats->storage_bytes, stats->live_storage_bytes);
  EXPECT_EQ(stats->live_storage_bytes, ref_stats->live_storage_bytes);
  EXPECT_GT(ref_stats->dead_storage_bytes, 0u)
      << "the reference deployment must have accumulated garbage for this "
         "test to mean anything";
  check_queries(999);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ChurnTest,
    ::testing::Values(
        ChurnConfig{mindex::StorageKind::kMemory, 1},
        ChurnConfig{mindex::StorageKind::kMemory, 3},
        ChurnConfig{mindex::StorageKind::kDisk, 1},
        ChurnConfig{mindex::StorageKind::kDisk, 3}),
    [](const auto& info) { return ConfigName(info.param); });

// Background compaction vs. REAL concurrency: two mutator threads churn
// disjoint id ranges (their deletes cross the trigger, so the server's
// background thread compacts underneath them), a third thread hammers
// explicit kCompact, and a query thread continuously verifies a stable
// region that is never deleted — every stable object in range must appear
// in every answer, with its exact distance, no matter where a pass is.
// This is the relocation journal's adversarial workout; run it under
// ThreadSanitizer via `ci.sh --tsan`.
TEST(ConcurrentChurnTest, BackgroundCompactionRacesMutatorsAndQueries) {
  data::MixtureOptions mixture;
  mixture.num_objects = 600;
  mixture.dimension = 8;
  mixture.num_clusters = 6;
  mixture.seed = 271;
  const std::vector<VectorObject> pool = data::MakeGaussianMixture(mixture);
  auto metric = std::make_shared<metric::L2Distance>();
  auto pivots = mindex::PivotSet::SelectRandom(pool, 8, 277);
  ASSERT_TRUE(pivots.ok());
  auto key = SecretKey::Create(std::move(*pivots), Bytes(16, 0x44));
  ASSERT_TRUE(key.ok());

  mindex::MIndexOptions options;
  options.num_pivots = key->num_pivots();
  options.bucket_capacity = 25;
  options.max_level = 4;
  options.storage_kind = mindex::StorageKind::kDisk;
  const ScratchDir dir;
  options.disk_path = dir.File("concurrent_churn.bucket");
  options.cache_bytes = 1 << 17;
  options.compaction_trigger = 0.3;  // background thread territory
  auto server = EncryptedMIndexServer::Create(options);
  ASSERT_TRUE(server.ok());

  // One transport+client per thread: the server handles concurrent
  // calls, the client-side cost accounting does not.
  auto make_client = [&](std::unique_ptr<net::LoopbackTransport>* transport) {
    *transport = std::make_unique<net::LoopbackTransport>(server->get());
    return std::make_unique<EncryptionClient>(*key, metric,
                                              transport->get());
  };

  // Stable region [500, 600): inserted up front, never deleted.
  const std::vector<VectorObject> stable(pool.begin() + 500, pool.end());
  {
    std::unique_ptr<net::LoopbackTransport> transport;
    auto client = make_client(&transport);
    ASSERT_TRUE(
        client->InsertBulk(stable, InsertStrategy::kPrecise, 50).ok());
  }

  std::atomic<bool> stop{false};
  // gtest assertions are not thread-safe; threads record failures and the
  // main thread asserts after the join.
  std::vector<std::string> failures(4);
  std::vector<std::vector<bool>> live_sets(2);

  // Mutators: churn [begin, end) with insert/delete batches.
  auto mutator = [&](size_t slot, size_t begin, size_t end, uint64_t seed) {
    std::unique_ptr<net::LoopbackTransport> transport;
    auto client = make_client(&transport);
    std::vector<bool> live(end - begin, false);
    Rng rng(seed);
    for (int round = 0; round < 10 && failures[slot].empty(); ++round) {
      std::vector<VectorObject> batch;
      for (size_t tries = 0; tries < 120 && batch.size() < 30; ++tries) {
        const size_t pick = begin + rng.NextBounded(end - begin);
        if (live[pick - begin]) continue;
        live[pick - begin] = true;
        batch.push_back(pool[pick]);
      }
      if (!batch.empty()) {
        Status inserted =
            client->InsertBulk(batch, InsertStrategy::kPrecise, 30);
        if (!inserted.ok()) {
          failures[slot] = "insert: " + inserted.ToString();
          break;
        }
      }
      batch.clear();
      for (size_t tries = 0; tries < 160 && batch.size() < 22; ++tries) {
        const size_t pick = begin + rng.NextBounded(end - begin);
        if (!live[pick - begin]) continue;
        live[pick - begin] = false;
        batch.push_back(pool[pick]);
      }
      if (!batch.empty()) {
        Status deleted = client->DeleteBatch(batch);
        if (!deleted.ok()) {
          failures[slot] = "delete: " + deleted.ToString();
          break;
        }
      }
    }
    live_sets[slot] = std::move(live);
  };

  // Query thread: the stable region must answer exactly, always.
  auto querier = [&] {
    std::unique_ptr<net::LoopbackTransport> transport;
    auto client = make_client(&transport);
    Rng rng(701);
    while (!stop.load(std::memory_order_relaxed) && failures[2].empty()) {
      const VectorObject& query = stable[rng.NextBounded(stable.size())];
      const double radius = 1.5 + 0.5 * rng.NextBounded(3);
      auto got = client->RangeSearch(query, radius);
      if (!got.ok()) {
        failures[2] = "query: " + got.status().ToString();
        return;
      }
      for (const VectorObject& object : stable) {
        const double d = metric->Distance(query, object);
        if (d > radius) continue;
        bool found = false;
        for (const auto& neighbor : *got) {
          if (neighbor.id == object.id() && neighbor.distance == d) {
            found = true;
            break;
          }
        }
        if (!found) {
          failures[2] = "stable object " + std::to_string(object.id()) +
                        " missing from a range answer mid-compaction";
          return;
        }
      }
    }
  };

  // Admin thread: explicit forced passes racing the background trigger.
  auto compactor = [&] {
    std::unique_ptr<net::LoopbackTransport> transport;
    auto client = make_client(&transport);
    for (int i = 0; i < 6 && failures[3].empty(); ++i) {
      auto report = client->Compact(/*force=*/true);
      if (!report.ok()) {
        failures[3] = "compact: " + report.status().ToString();
        return;
      }
    }
  };

  std::thread t_mut_a(mutator, 0, size_t{0}, size_t{250}, 881);
  std::thread t_mut_b(mutator, 1, size_t{250}, size_t{500}, 883);
  std::thread t_query(querier);
  std::thread t_compact(compactor);
  t_mut_a.join();
  t_mut_b.join();
  t_compact.join();
  stop.store(true, std::memory_order_relaxed);
  t_query.join();
  for (const std::string& failure : failures) {
    ASSERT_TRUE(failure.empty()) << failure;
  }

  // Quiescent now: a final forced pass, then exact accounting against the
  // mutators' recorded live sets and the oracle answer for every region.
  std::unique_ptr<net::LoopbackTransport> transport;
  auto client = make_client(&transport);
  auto report = client->Compact(/*force=*/true);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto stats = client->GetServerStats();
  ASSERT_TRUE(stats.ok());
  size_t expect_live = stable.size();
  std::vector<bool> live_all(pool.size(), false);
  for (size_t i = 500; i < 600; ++i) live_all[i] = true;
  for (size_t slot = 0; slot < 2; ++slot) {
    for (size_t i = 0; i < live_sets[slot].size(); ++i) {
      if (!live_sets[slot][i]) continue;
      live_all[slot * 250 + i] = true;
      ++expect_live;
    }
  }
  EXPECT_EQ(stats->object_count, expect_live);
  EXPECT_EQ(stats->dead_storage_bytes, 0u);
  // Some of the 6 explicit + N triggered passes found work (a forced
  // pass with zero dead bytes is a no-op and does not count).
  EXPECT_GE(stats->compaction_passes, 1u);
  EXPECT_TRUE((*server)->index().CheckInvariants().ok());
  Rng verify_rng(907);
  for (int qi = 0; qi < 6; ++qi) {
    const VectorObject& query = pool[verify_rng.NextBounded(pool.size())];
    auto got = client->RangeSearch(query, 2.0);
    ASSERT_TRUE(got.ok());
    std::map<uint64_t, double> oracle;
    for (size_t i = 0; i < pool.size(); ++i) {
      if (!live_all[i]) continue;
      const double d = metric->Distance(query, pool[i]);
      if (d <= 2.0) oracle[pool[i].id()] = d;
    }
    ASSERT_EQ(got->size(), oracle.size()) << "verify query " << qi;
    for (const auto& neighbor : *got) {
      auto it = oracle.find(neighbor.id);
      ASSERT_NE(it, oracle.end());
      ASSERT_EQ(neighbor.distance, it->second);
    }
  }
}

}  // namespace
}  // namespace secure
}  // namespace simcloud
