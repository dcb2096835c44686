// Failover soak: a 3-shard x 2-replica cluster must keep answering
// queries byte-identically to the brute-force oracle while one replica
// is killed mid-churn, and the topology monitor must bring the replica
// back to `up` — with its missed writes replayed — once its server
// restarts.
//
// The dataset layout follows pipeline_test.cc: a STABLE region queries
// verify against and a far-away CHURN region the delete traffic eats.
// Churn is delete-only on purpose — write replay is at-least-once, and
// kDeleteBatch skips already-deleted items per id, so a replayed delete
// is idempotent where a replayed insert of fresh data would not be.
//
// CI runs this in both channel policies (SIMCLOUD_CHANNEL_POLICY=secure
// reconnects through the full PSK handshake) and under TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/scratch_dir.h"
#include "data/synthetic.h"
#include "metric/ground_truth.h"
#include "net/tcp.h"
#include "secure/client.h"
#include "secure/server.h"
#include "secure/sharded_server.h"

namespace simcloud {
namespace secure {
namespace {

using metric::VectorObject;

net::ChannelPolicy PolicyFromEnv() {
  const char* env = std::getenv("SIMCLOUD_CHANNEL_POLICY");
  return env != nullptr && std::string(env) == "secure"
             ? net::ChannelPolicy::kSecure
             : net::ChannelPolicy::kPlaintext;
}

net::SecureChannelOptions SoakChannelOptions() {
  net::SecureChannelOptions options;
  options.psk = Bytes(32, 0x77);
  options.rekey_after_records = 64;
  return options;
}

/// Fast cadences so the whole down -> reconnect -> replay -> up cycle
/// fits in a test-sized soak.
TopologyOptions SoakTopologyOptions() {
  TopologyOptions options;
  options.probe_interval_ms = 25;
  options.probe_timeout_ms = 500;
  options.failures_to_down = 2;
  options.backoff_initial_ms = 25;
  options.backoff_max_ms = 200;
  return options;
}

constexpr size_t kStableObjects = 300;
constexpr size_t kChurnObjects = 200;
constexpr size_t kDim = 8;
constexpr float kChurnOffset = 500.0f;
constexpr double kQueryRadius = 2.5;  // << the ~1400 region separation

std::vector<VectorObject> MakeStable(uint64_t seed) {
  data::MixtureOptions options;
  options.num_objects = kStableObjects;
  options.dimension = kDim;
  options.num_clusters = 5;
  options.seed = seed;
  return data::MakeGaussianMixture(options);
}

std::vector<VectorObject> MakeChurn(uint64_t seed) {
  data::MixtureOptions options;
  options.num_objects = kChurnObjects;
  options.dimension = kDim;
  options.num_clusters = 3;
  options.seed = seed;
  std::vector<VectorObject> objects = data::MakeGaussianMixture(options);
  std::vector<VectorObject> shifted;
  shifted.reserve(objects.size());
  for (const VectorObject& object : objects) {
    std::vector<float> values = object.values();
    for (float& v : values) v += kChurnOffset;
    shifted.emplace_back(object.id() + 1000000, std::move(values));
  }
  return shifted;
}

class FailoverSoakTest
    : public ::testing::TestWithParam<mindex::StorageKind> {};

TEST_P(FailoverSoakTest, ReplicaKillMidChurnLosesNoQueryAndRecovers) {
  const mindex::StorageKind storage_kind = GetParam();
  constexpr size_t kShards = 3;
  constexpr size_t kReplicas = 2;

  const std::vector<VectorObject> stable = MakeStable(921);
  const std::vector<VectorObject> churn = MakeChurn(922);
  std::vector<VectorObject> all = stable;
  all.insert(all.end(), churn.begin(), churn.end());
  auto metric = std::make_shared<metric::L2Distance>();
  metric::Dataset stable_set("stable", stable, metric);

  auto pivots = mindex::PivotSet::SelectRandom(all, 8, 923);
  ASSERT_TRUE(pivots.ok());
  auto key = SecretKey::Create(std::move(pivots).value(), Bytes(16, 0x72));
  ASSERT_TRUE(key.ok());

  mindex::MIndexOptions index_options;
  index_options.num_pivots = 8;
  index_options.bucket_capacity = 25;
  index_options.max_level = 4;
  index_options.cache_bytes = 256 * 1024;

  const net::ChannelPolicy policy = PolicyFromEnv();
  net::TcpServerOptions server_options;
  server_options.worker_threads = 2;
  server_options.channel_policy = policy;
  if (policy == net::ChannelPolicy::kSecure) {
    server_options.secure_channel = SoakChannelOptions();
  }

  // kShards x kReplicas shard servers; each replica holds its own full
  // copy of its shard (the facade's write fan-out keeps them identical).
  const ScratchDir dir;  // declared first: removed after the servers stop
  std::vector<std::unique_ptr<EncryptedMIndexServer>> handlers;
  std::vector<std::unique_ptr<net::TcpServer>> servers;
  std::vector<std::vector<ShardEndpoint>> replica_sets(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    for (size_t r = 0; r < kReplicas; ++r) {
      mindex::MIndexOptions replica_options = index_options;
      if (storage_kind == mindex::StorageKind::kDisk) {
        replica_options.storage_kind = mindex::StorageKind::kDisk;
        replica_options.disk_path = dir.File(
            "s" + std::to_string(s) + "r" + std::to_string(r) + ".bucket");
      }
      auto handler = EncryptedMIndexServer::Create(replica_options);
      ASSERT_TRUE(handler.ok()) << handler.status().ToString();
      handlers.push_back(std::move(*handler));
      servers.push_back(std::make_unique<net::TcpServer>(
          handlers.back().get(), server_options));
      ASSERT_TRUE(servers.back()->Start(0).ok());
      replica_sets[s].push_back(
          ShardEndpoint{"127.0.0.1", servers.back()->port()});
    }
  }

  auto facade =
      ShardedServer::Connect(replica_sets, index_options.num_pivots, policy,
                             SoakChannelOptions(), SoakTopologyOptions());
  ASSERT_TRUE(facade.ok()) << facade.status().ToString();

  // The facade handler is thread-safe; LoopbackTransport is not, so each
  // thread below wraps the facade in its own transport.
  net::LoopbackTransport transport(facade->get());
  EncryptionClient owner(*key, metric, &transport);
  ASSERT_TRUE(owner.InsertBulk(all, InsertStrategy::kPrecise, 100).ok());

  // Fixed query pool + brute-force oracle over the stable region.
  constexpr size_t kQueryPool = 24;
  Rng query_rng(924);
  std::vector<VectorObject> queries;
  std::vector<metric::NeighborList> oracle;
  for (size_t i = 0; i < kQueryPool; ++i) {
    queries.push_back(stable[query_rng.NextBounded(stable.size())]);
    oracle.push_back(
        metric::LinearRangeSearch(stable_set, queries.back(), kQueryRadius));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> query_rounds{0};
  auto fail = [&](const std::string& why) {
    failures.fetch_add(1);
    ADD_FAILURE() << why;
  };

  // Queriers: every answer must match the oracle id-for-id, before,
  // during, and after the replica kill. Zero failed queries allowed.
  constexpr int kQueriers = 2;
  std::vector<std::thread> queriers;
  queriers.reserve(kQueriers);
  for (int c = 0; c < kQueriers; ++c) {
    queriers.emplace_back([&, c] {
      net::LoopbackTransport own_transport(facade->get());
      EncryptionClient client(*key, metric, &own_transport);
      Rng rng(930 + c);
      while (!stop.load()) {
        std::vector<size_t> picks;
        std::vector<VectorObject> batch;
        for (int q = 0; q < 4; ++q) {
          picks.push_back(rng.NextBounded(kQueryPool));
          batch.push_back(queries[picks.back()]);
        }
        auto answers = client.RangeSearchBatch(batch, kQueryRadius);
        if (!answers.ok()) {
          return fail("query failed during soak: " +
                      answers.status().ToString());
        }
        for (size_t q = 0; q < batch.size(); ++q) {
          const metric::NeighborList& expected = oracle[picks[q]];
          const metric::NeighborList& got = (*answers)[q];
          if (got.size() != expected.size()) {
            return fail("answer size diverged from oracle");
          }
          for (size_t n = 0; n < expected.size(); ++n) {
            if (got[n].id != expected[n].id) {
              return fail("answer ids diverged from oracle");
            }
          }
        }
        query_rounds.fetch_add(1);
      }
    });
  }

  // Churner: delete-only traffic through the facade. A slice landing
  // while the victim is down is buffered and replayed on reconnect.
  std::thread churner([&] {
    net::LoopbackTransport own_transport(facade->get());
    EncryptionClient client(*key, metric, &own_transport);
    constexpr size_t kSlice = 20;
    size_t next = 0;
    while (!stop.load() && next + kSlice <= churn.size()) {
      std::vector<VectorObject> slice(churn.begin() + next,
                                      churn.begin() + next + kSlice);
      next += kSlice;
      auto pending = client.SubmitDeleteBatch(slice);
      if (!pending.ok()) return fail("delete submit failed");
      Status deleted = client.CollectDeleteBatch(&*pending);
      if (!deleted.ok()) {
        return fail("delete failed during soak: " + deleted.ToString());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  // Let traffic flow, then kill shard 1's first replica mid-churn.
  const size_t victim_shard = 1;
  const size_t victim_index = victim_shard * kReplicas;  // shard 1, replica 0
  const uint16_t victim_port = servers[victim_index]->port();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const uint64_t rounds_at_kill = query_rounds.load();
  servers[victim_index]->Stop();

  // Traffic must keep flowing while the replica is dead.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const uint64_t rounds_during_outage = query_rounds.load() - rounds_at_kill;

  // Restart: a fresh TcpServer on the SAME port over the SAME handler —
  // the replica still has the data it had when it died; replay brings
  // the writes it missed.
  servers[victim_index] = std::make_unique<net::TcpServer>(
      handlers[victim_index].get(), server_options);
  ASSERT_TRUE(servers[victim_index]->Start(victim_port).ok());

  // The monitor must redial it (full handshake under kSecure), drain the
  // replay queue, and flip the replica back to up.
  bool recovered = false;
  Stopwatch recovery;
  while (recovery.ElapsedSeconds() < 30) {
    auto topology = (*facade)->TopologySnapshot();
    if (topology[victim_shard].replicas[0].health == ShardHealth::kUp) {
      recovered = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(recovered) << "victim replica never returned to up";

  // A little more traffic against the recovered cluster, then stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  stop.store(true);
  for (std::thread& thread : queriers) thread.join();
  churner.join();

  ASSERT_EQ(failures.load(), 0) << "queries failed during the replica loss";
  EXPECT_GT(rounds_during_outage, 0u)
      << "soak too short: no query completed while the replica was down";

  // The victim rejoined: reconnect counted, replay drained.
  {
    auto topology = (*facade)->TopologySnapshot();
    const ReplicaStatus& victim = topology[victim_shard].replicas[0];
    EXPECT_GE(victim.reconnects, 1u);
    EXPECT_EQ(victim.replay_queued, 0u);
    for (size_t s = 0; s < kShards; ++s) {
      EXPECT_EQ(topology[s].health(), ShardHealth::kUp);
    }
  }

  // Replay converged: each shard's replicas hold identical object
  // counts, including the shard whose replica missed writes while dead.
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(handlers[s * kReplicas]->index().size(),
              handlers[s * kReplicas + 1]->index().size())
        << "replicas of shard " << s << " diverged after replay";
  }

  // Byte-identical final answers vs the oracle, and consistent counts.
  {
    EncryptionClient client(*key, metric, &transport);
    auto final_answers = client.RangeSearchBatch(
        std::vector<VectorObject>(queries.begin(), queries.begin() + 8),
        kQueryRadius);
    ASSERT_TRUE(final_answers.ok());
    for (size_t q = 0; q < 8; ++q) {
      ASSERT_EQ((*final_answers)[q].size(), oracle[q].size());
      for (size_t n = 0; n < oracle[q].size(); ++n) {
        EXPECT_EQ((*final_answers)[q][n].id, oracle[q][n].id);
      }
    }
    auto stats = client.GetServerStats();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->shards_total, kShards);
    EXPECT_EQ(stats->shards_up, kShards);
    uint64_t survivors = 0;
    for (size_t s = 0; s < kShards; ++s) {
      survivors += handlers[s * kReplicas]->index().size();
    }
    EXPECT_EQ(stats->object_count, survivors);
  }

  facade->reset();  // stops the monitor before the servers go away
  for (auto& server : servers) server->Stop();
}

// Watch soak: a client watching through the facade must see every
// delete exactly once — across a mid-stream client reconnect (resume
// token) AND a replica kill (the facade's pump re-registers the shard's
// watch leg on a surviving replica with that shard's resume cursor).
//
// Churn is delete-only for the same reason as above, with one more
// twist: replica event sequence numbers stay aligned only while both
// replicas publish identical mutation streams, which idempotent deletes
// guarantee and at-least-once insert replay would not.
TEST(WatchFailoverSoakTest, ReplicaKillMidStreamLosesNoEvent) {
  constexpr size_t kShards = 3;
  constexpr size_t kReplicas = 2;

  const std::vector<VectorObject> stable = MakeStable(941);
  const std::vector<VectorObject> churn = MakeChurn(942);
  std::vector<VectorObject> all = stable;
  all.insert(all.end(), churn.begin(), churn.end());
  auto metric = std::make_shared<metric::L2Distance>();

  auto pivots = mindex::PivotSet::SelectRandom(all, 8, 943);
  ASSERT_TRUE(pivots.ok());
  auto key = SecretKey::Create(std::move(pivots).value(), Bytes(16, 0x73));
  ASSERT_TRUE(key.ok());

  mindex::MIndexOptions index_options;
  index_options.num_pivots = 8;
  index_options.bucket_capacity = 25;
  index_options.max_level = 4;

  const net::ChannelPolicy policy = PolicyFromEnv();
  net::TcpServerOptions server_options;
  server_options.worker_threads = 2;
  server_options.channel_policy = policy;
  if (policy == net::ChannelPolicy::kSecure) {
    server_options.secure_channel = SoakChannelOptions();
  }

  std::vector<std::unique_ptr<EncryptedMIndexServer>> handlers;
  std::vector<std::unique_ptr<net::TcpServer>> servers;
  std::vector<std::vector<ShardEndpoint>> replica_sets(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    for (size_t r = 0; r < kReplicas; ++r) {
      auto handler = EncryptedMIndexServer::Create(index_options);
      ASSERT_TRUE(handler.ok()) << handler.status().ToString();
      handlers.push_back(std::move(*handler));
      servers.push_back(std::make_unique<net::TcpServer>(
          handlers.back().get(), server_options));
      ASSERT_TRUE(servers.back()->Start(0).ok());
      replica_sets[s].push_back(
          ShardEndpoint{"127.0.0.1", servers.back()->port()});
    }
  }

  auto facade =
      ShardedServer::Connect(replica_sets, index_options.num_pivots, policy,
                             SoakChannelOptions(), SoakTopologyOptions());
  ASSERT_TRUE(facade.ok()) << facade.status().ToString();

  // Watch streams need server push, so the facade itself goes behind a
  // TCP listener; writers keep using the in-process loopback.
  net::TcpServer facade_server(facade->get(), server_options);
  ASSERT_TRUE(facade_server.Start(0).ok());
  auto connect_facade = [&]() {
    return net::TcpTransport::Connect("127.0.0.1", facade_server.port(),
                                      policy, SoakChannelOptions());
  };

  net::LoopbackTransport transport(facade->get());
  EncryptionClient owner(*key, metric, &transport);
  ASSERT_TRUE(owner.InsertBulk(all, InsertStrategy::kPrecise, 100).ok());

  // Churner: deletes the whole churn region in slices, slowly enough
  // that the replica kill lands mid-stream. Started only once the watch
  // below is REGISTERED — a watch delivers mutations from registration
  // (or its resume token) onward, not retroactively.
  std::atomic<bool> start_churn{false};
  std::atomic<int> churn_failures{0};
  std::thread churner([&] {
    while (!start_churn.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    net::LoopbackTransport own_transport(facade->get());
    EncryptionClient client(*key, metric, &own_transport);
    constexpr size_t kSlice = 20;
    for (size_t next = 0; next + kSlice <= churn.size(); next += kSlice) {
      std::vector<VectorObject> slice(churn.begin() + next,
                                      churn.begin() + next + kSlice);
      auto pending = client.SubmitDeleteBatch(slice);
      if (!pending.ok() || !client.CollectDeleteBatch(&*pending).ok()) {
        churn_failures.fetch_add(1);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  });
  // ASSERT returns from the test body; never leave the churner unjoined.
  struct Joiner {
    std::thread* thread;
    std::atomic<bool>* start;
    ~Joiner() {
      start->store(true);
      if (thread->joinable()) thread->join();
    }
  } joiner{&churner, &start_churn};

  std::map<metric::ObjectId, size_t> deletes_seen;
  std::vector<uint64_t> token;

  // Phase 1: watch from a TCP client, consume the first chunk, then
  // vanish without cancelling (connection loss, resume token kept).
  constexpr size_t kPhaseOne = 60;
  {
    auto watcher_transport = connect_facade();
    ASSERT_TRUE(watcher_transport.ok()) << watcher_transport.status().ToString();
    EncryptionClient watcher(*key, metric, watcher_transport->get());
    auto stream = watcher.WatchAll();
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    ASSERT_EQ((*stream)->resume_token().size(), kShards);
    start_churn.store(true);
    for (size_t i = 0; i < kPhaseOne; ++i) {
      auto event = (*stream)->Next(10000);
      ASSERT_TRUE(event.ok())
          << "event " << i << ": " << event.status().ToString();
      ASSERT_EQ(event->kind, WatchEvent::Kind::kDelete);
      ++deletes_seen[event->id];
    }
    token = (*stream)->resume_token();
  }

  // Kill shard 1's first replica — the replica every shard-1 watch leg
  // registered on — while the churner is still deleting.
  const size_t victim_index = 1 * kReplicas;
  servers[victim_index]->Stop();

  // Phase 2: reconnect with the composite token. The facade re-opens
  // shard 1's leg on the surviving replica at that shard's cursor; the
  // merged stream must deliver exactly the missed deletes.
  {
    auto watcher_transport = connect_facade();
    ASSERT_TRUE(watcher_transport.ok());
    EncryptionClient watcher(*key, metric, watcher_transport->get());
    auto stream = watcher.WatchAll(token);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    while (deletes_seen.size() < churn.size()) {
      auto event = (*stream)->Next(10000);
      ASSERT_TRUE(event.ok())
          << "after " << deletes_seen.size()
          << " distinct deletes: " << event.status().ToString();
      ASSERT_EQ(event->kind, WatchEvent::Kind::kDelete);
      ++deletes_seen[event->id];
    }
    // Nothing beyond the oracle: the stream runs dry.
    auto extra = (*stream)->Next(500);
    EXPECT_FALSE(extra.ok());
    EXPECT_EQ(extra.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_TRUE((*stream)->Cancel().ok());
  }
  churner.join();
  ASSERT_EQ(churn_failures.load(), 0);

  // Every churn delete observed exactly once — no gap, no duplicate,
  // across both the client reconnect and the replica failover.
  for (const VectorObject& object : churn) {
    EXPECT_EQ(deletes_seen[object.id()], 1u)
        << "delete " << object.id() << " delivered "
        << deletes_seen[object.id()] << " times";
  }
  EXPECT_EQ(deletes_seen.size(), churn.size());

  // The kill degraded shard 1 but nothing went stale (replay buffers
  // the victim's missed deletes; the ring never overflowed).
  {
    auto stats = owner.GetServerStats();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->shards_total, kShards);
    EXPECT_EQ(stats->shards_stale, 0u);
    EXPECT_EQ(stats->object_count, stable.size());
  }

  facade_server.Stop();
  facade->reset();  // stops pumps and monitor before the servers go away
  for (auto& server : servers) server->Stop();
}

INSTANTIATE_TEST_SUITE_P(Backends, FailoverSoakTest,
                         ::testing::Values(mindex::StorageKind::kMemory,
                                           mindex::StorageKind::kDisk),
                         [](const ::testing::TestParamInfo<
                             mindex::StorageKind>& info) {
                           return info.param == mindex::StorageKind::kMemory
                                      ? "memory"
                                      : "disk";
                         });

}  // namespace
}  // namespace secure
}  // namespace simcloud
