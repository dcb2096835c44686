// Concurrency soak for the pipelined transport: several clients keep
// multiple query batches in flight on single TCP connections while a
// churn client interleaves kDeleteBatch and kCompact — all against one
// epoll server (memory and disk backends, single-node and 3-shard).
//
// The dataset is split into a STABLE region and a CHURN region placed
// ~500 units away in every dimension. Only churn objects are ever
// deleted, and every verified range query uses a radius far below the
// region separation, so its exact answer is a fixed oracle no matter how
// the churn interleaves. Each collected response must therefore
//   * resolve against the ticket of ITS request (a response delivered to
//     the wrong request id would answer the wrong query), and
//   * match the precomputed brute-force oracle id-for-id.
// Pipelined k-NN batches are additionally checked structurally: every
// returned distance must equal the true distance between THIS request's
// query and the returned id — a cross-wired response cannot pass.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

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

struct PipelineConfig {
  mindex::StorageKind storage_kind;
  size_t num_shards;
};

std::string ConfigName(const PipelineConfig& config) {
  std::string name = config.storage_kind == mindex::StorageKind::kMemory
                         ? "memory"
                         : "disk";
  return name + "_shards" + std::to_string(config.num_shards);
}

class PipelineSoakTest : public ::testing::TestWithParam<PipelineConfig> {};

/// CI runs this soak in both channel policies: SIMCLOUD_CHANNEL_POLICY=
/// secure secures every connection (PSK handshake + AEAD records, with
/// an aggressive rekey budget so the soak crosses epoch boundaries);
/// unset/anything else is the plaintext wire.
net::ChannelPolicy PolicyFromEnv() {
  const char* env = std::getenv("SIMCLOUD_CHANNEL_POLICY");
  return env != nullptr && std::string(env) == "secure"
             ? net::ChannelPolicy::kSecure
             : net::ChannelPolicy::kPlaintext;
}

net::SecureChannelOptions SoakChannelOptions() {
  net::SecureChannelOptions options;
  options.psk = Bytes(32, 0x77);
  options.rekey_after_records = 64;  // many rekeys over the soak
  return options;
}

constexpr size_t kStableObjects = 400;
constexpr size_t kChurnObjects = 240;
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

TEST_P(PipelineSoakTest, PipelinedBatchesMatchOracleUnderChurn) {
  const PipelineConfig config = GetParam();

  const std::vector<VectorObject> stable = MakeStable(901);
  const std::vector<VectorObject> churn = MakeChurn(902);
  std::vector<VectorObject> all = stable;
  all.insert(all.end(), churn.begin(), churn.end());
  auto metric = std::make_shared<metric::L2Distance>();
  metric::Dataset stable_set("stable", stable, metric);

  auto pivots = mindex::PivotSet::SelectRandom(all, 8, 903);
  ASSERT_TRUE(pivots.ok());
  auto key = SecretKey::Create(std::move(pivots).value(), Bytes(16, 0x71));
  ASSERT_TRUE(key.ok());

  mindex::MIndexOptions options;
  options.num_pivots = 8;
  options.bucket_capacity = 25;
  options.max_level = 4;
  options.compaction_trigger = 0.4;  // automatic compactions mid-churn
  options.cache_bytes = 256 * 1024;
  const ScratchDir dir;  // declared before the handler: removed after it
  if (config.storage_kind == mindex::StorageKind::kDisk) {
    options.storage_kind = mindex::StorageKind::kDisk;
    options.disk_path = dir.File("pipeline.bucket");
  }

  std::unique_ptr<net::RequestHandler> handler;
  std::vector<const mindex::MIndex*> indexes;
  if (config.num_shards <= 1) {
    auto server = EncryptedMIndexServer::Create(options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    indexes.push_back(&(*server)->index());
    handler = std::move(*server);
  } else {
    auto server = ShardedServer::Create(options, config.num_shards);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    for (size_t i = 0; i < config.num_shards; ++i) {
      indexes.push_back(&(*server)->shard(i).index());
    }
    handler = std::move(*server);
  }

  const net::ChannelPolicy policy = PolicyFromEnv();
  net::TcpServerOptions server_options;
  server_options.channel_policy = policy;
  if (policy == net::ChannelPolicy::kSecure) {
    server_options.secure_channel = SoakChannelOptions();
  }
  net::TcpServer server(handler.get(), server_options);
  ASSERT_TRUE(server.Start(0).ok());
  auto connect = [&server, policy] {
    return net::TcpTransport::Connect("127.0.0.1", server.port(), policy,
                                      SoakChannelOptions());
  };

  {
    auto transport = connect();
    ASSERT_TRUE(transport.ok());
    EncryptionClient owner(*key, metric, transport->get());
    ASSERT_TRUE(owner.InsertBulk(all, InsertStrategy::kPrecise, 200).ok());
  }

  // Fixed query set + brute-force oracle over the stable region.
  constexpr size_t kQueryPool = 48;
  Rng query_rng(904);
  std::vector<VectorObject> queries;
  std::vector<metric::NeighborList> oracle;
  std::map<metric::ObjectId, const VectorObject*> by_id;
  for (const VectorObject& object : all) by_id.emplace(object.id(), &object);
  for (size_t i = 0; i < kQueryPool; ++i) {
    queries.push_back(stable[query_rng.NextBounded(stable.size())]);
    oracle.push_back(
        metric::LinearRangeSearch(stable_set, queries.back(), kQueryRadius));
  }

  constexpr int kClients = 3;
  constexpr int kRounds = 6;
  constexpr int kDepth = 3;   // pipelined batches in flight per client
  constexpr int kBatch = 6;   // queries per batch
  std::atomic<int> failures{0};
  std::atomic<bool> queriers_done{false};

  auto fail = [&](const std::string& why) {
    failures.fetch_add(1);
    ADD_FAILURE() << why;
  };

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto transport = connect();
      if (!transport.ok()) return fail("connect failed");
      EncryptionClient client(*key, metric, transport->get());
      Rng rng(910 + c);
      for (int round = 0; round < kRounds; ++round) {
        // Submit kDepth range batches (recording which oracle entries
        // each asks for), plus one k-NN batch, before collecting any.
        std::vector<std::vector<size_t>> picks(kDepth);
        std::vector<PendingQueryBatch> pending(kDepth);
        for (int d = 0; d < kDepth; ++d) {
          std::vector<VectorObject> batch;
          for (int q = 0; q < kBatch; ++q) {
            picks[d].push_back(rng.NextBounded(kQueryPool));
            batch.push_back(queries[picks[d].back()]);
          }
          auto submitted = client.SubmitRangeSearchBatch(batch, kQueryRadius);
          if (!submitted.ok()) return fail("submit failed");
          pending[d] = std::move(*submitted);
        }
        std::vector<VectorObject> knn_queries;
        for (int q = 0; q < kBatch; ++q) {
          knn_queries.push_back(queries[rng.NextBounded(kQueryPool)]);
        }
        auto knn_pending = client.SubmitApproxKnnBatch(knn_queries, 3, 40);
        if (!knn_pending.ok()) return fail("knn submit failed");

        // Collect in a rotated order: responses must resolve by ticket.
        for (int i = 0; i < kDepth; ++i) {
          const int d = (i + round) % kDepth;
          auto answers = client.CollectRangeSearchBatch(&pending[d]);
          if (!answers.ok()) return fail("collect failed");
          for (int q = 0; q < kBatch; ++q) {
            const metric::NeighborList& expected = oracle[picks[d][q]];
            const metric::NeighborList& got = (*answers)[q];
            if (got.size() != expected.size()) {
              return fail("range answer size mismatch vs oracle");
            }
            for (size_t n = 0; n < expected.size(); ++n) {
              if (got[n].id != expected[n].id) {
                return fail("range answer ids diverge from oracle");
              }
            }
          }
        }
        auto knn_answers = client.CollectApproxKnnBatch(&*knn_pending);
        if (!knn_answers.ok()) return fail("knn collect failed");
        for (int q = 0; q < kBatch; ++q) {
          const metric::NeighborList& got = (*knn_answers)[q];
          if (got.size() > 3) return fail("knn answer larger than k");
          for (size_t n = 0; n < got.size(); ++n) {
            auto it = by_id.find(got[n].id);
            if (it == by_id.end()) return fail("knn returned unknown id");
            const double true_distance =
                metric->Distance(knn_queries[q], *it->second);
            if (got[n].distance != true_distance) {
              return fail("knn distance does not match this query — "
                          "response was cross-wired to another request");
            }
            if (n > 0 && got[n].distance < got[n - 1].distance) {
              return fail("knn answer not sorted");
            }
          }
        }
      }
    });
  }

  // Churn client: batched deletes (pipelined on their own connection)
  // interleaved with explicit compactions while the queriers run.
  std::thread churner([&] {
    auto transport = connect();
    if (!transport.ok()) return fail("churn connect failed");
    EncryptionClient client(*key, metric, transport->get());
    constexpr size_t kSlice = 40;
    size_t next = 0;
    int round = 0;
    while (!queriers_done.load() && next + kSlice <= churn.size()) {
      std::vector<VectorObject> slice(churn.begin() + next,
                                      churn.begin() + next + kSlice);
      next += kSlice;
      auto pending = client.SubmitDeleteBatch(slice);
      if (!pending.ok()) return fail("delete submit failed");
      Status deleted = client.CollectDeleteBatch(&*pending);
      if (!deleted.ok()) return fail("delete collect failed");
      if (++round % 2 == 0) {
        auto report = client.Compact(/*force=*/true);
        if (!report.ok()) return fail("compact failed");
      }
      if (!client.Ping().ok()) return fail("ping failed");
    }
  });

  size_t deleted_count = 0;
  for (auto& thread : clients) thread.join();
  queriers_done.store(true);
  churner.join();
  ASSERT_EQ(failures.load(), 0);

  // The dust settles: object count equals stable + surviving churn, and
  // every shard's tree invariants hold.
  {
    auto transport = connect();
    ASSERT_TRUE(transport.ok());
    EncryptionClient client(*key, metric, transport->get());
    auto stats = client.GetServerStats();
    ASSERT_TRUE(stats.ok());
    uint64_t live = 0;
    for (const auto* index : indexes) live += index->size();
    deleted_count = stable.size() + churn.size() - live;
    EXPECT_EQ(stats->object_count, live);
    EXPECT_LE(deleted_count, churn.size());

    // Post-churn answers still equal the oracle, synchronously.
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
  }
  for (const auto* index : indexes) {
    EXPECT_TRUE(index->CheckInvariants().ok());
  }

  server.Stop();
}

INSTANTIATE_TEST_SUITE_P(
    Deployments, PipelineSoakTest,
    ::testing::Values(PipelineConfig{mindex::StorageKind::kMemory, 1},
                      PipelineConfig{mindex::StorageKind::kMemory, 3},
                      PipelineConfig{mindex::StorageKind::kDisk, 1},
                      PipelineConfig{mindex::StorageKind::kDisk, 3}),
    [](const ::testing::TestParamInfo<PipelineConfig>& info) {
      return ConfigName(info.param);
    });

}  // namespace
}  // namespace secure
}  // namespace simcloud
