// End-to-end tests for live change streams (kWatch): ordered delivery
// against an in-memory oracle, resume tokens across reconnects, replay
// ring overflow, cancellation, a watch registered through Call, slow-watcher
// backpressure isolation, range-filtered watches, and composite tokens
// over a sharded facade.
//
// CI runs this in both channel policies (SIMCLOUD_CHANNEL_POLICY=secure
// seals every frame — pushes included — in AEAD records).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "net/tcp.h"
#include "secure/client.h"
#include "secure/server.h"
#include "secure/sharded_server.h"
#include "secure/watch.h"

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

net::SecureChannelOptions WatchChannelOptions() {
  net::SecureChannelOptions options;
  options.psk = Bytes(32, 0x5A);
  options.rekey_after_records = 128;  // cross epoch boundaries mid-stream
  return options;
}

constexpr size_t kDim = 6;
constexpr int kEventTimeoutMs = 5000;

std::vector<VectorObject> MakeObjects(size_t count, uint64_t seed,
                                      float offset = 0.0f,
                                      uint64_t id_base = 0) {
  data::MixtureOptions options;
  options.num_objects = count;
  options.dimension = kDim;
  options.num_clusters = 3;
  options.seed = seed;
  std::vector<VectorObject> objects = data::MakeGaussianMixture(options);
  if (offset == 0.0f && id_base == 0) return objects;
  std::vector<VectorObject> shifted;
  shifted.reserve(objects.size());
  for (const VectorObject& object : objects) {
    std::vector<float> values = object.values();
    for (float& v : values) v += offset;
    shifted.emplace_back(object.id() + id_base, std::move(values));
  }
  return shifted;
}

/// The oracle's view of one applied mutation.
struct Mutation {
  bool insert = false;
  metric::ObjectId id = 0;
  std::vector<float> values;  // inserts only
};

/// Shared fixture state: a server handler behind a TCP listener plus the
/// secret key both clients share.
struct Cluster {
  std::shared_ptr<metric::L2Distance> metric;
  std::unique_ptr<SecretKey> key;
  std::unique_ptr<net::RequestHandler> handler;
  EncryptedMIndexServer* single = nullptr;  // white-box (single-node only)
  ShardedServer* sharded = nullptr;         // white-box (sharded only)
  std::unique_ptr<net::TcpServer> server;
  net::ChannelPolicy policy = net::ChannelPolicy::kPlaintext;

  Result<std::unique_ptr<net::TcpTransport>> Connect() const {
    return net::TcpTransport::Connect("127.0.0.1", server->port(), policy,
                                      WatchChannelOptions());
  }
};

Cluster StartCluster(const std::vector<VectorObject>& pivot_pool,
                     size_t num_shards, size_t watch_ring_capacity = 4096,
                     size_t max_output_queue_bytes = 8u << 20) {
  Cluster cluster;
  cluster.metric = std::make_shared<metric::L2Distance>();
  auto pivots = mindex::PivotSet::SelectRandom(pivot_pool, 8, 1301);
  EXPECT_TRUE(pivots.ok());
  auto key = SecretKey::Create(std::move(pivots).value(), Bytes(16, 0x42));
  EXPECT_TRUE(key.ok());
  cluster.key = std::make_unique<SecretKey>(std::move(*key));

  mindex::MIndexOptions options;
  options.num_pivots = 8;
  options.bucket_capacity = 25;
  options.max_level = 4;
  options.watch_ring_capacity = watch_ring_capacity;
  if (num_shards <= 1) {
    auto server = EncryptedMIndexServer::Create(options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    cluster.single = server->get();
    cluster.handler = std::move(*server);
  } else {
    auto server = ShardedServer::Create(options, num_shards);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    cluster.sharded = server->get();
    cluster.handler = std::move(*server);
  }

  cluster.policy = PolicyFromEnv();
  net::TcpServerOptions server_options;
  server_options.channel_policy = cluster.policy;
  server_options.max_output_queue_bytes = max_output_queue_bytes;
  if (cluster.policy == net::ChannelPolicy::kSecure) {
    server_options.secure_channel = WatchChannelOptions();
  }
  cluster.server =
      std::make_unique<net::TcpServer>(cluster.handler.get(), server_options);
  EXPECT_TRUE(cluster.server->Start(0).ok());
  return cluster;
}

/// Applies `objects` as inserts then deletes `deletions` of them through
/// `writer`, appending each applied mutation to `oracle` in order.
void ApplyChurn(EncryptionClient* writer,
                const std::vector<VectorObject>& objects,
                const std::vector<VectorObject>& deletions,
                std::vector<Mutation>* oracle) {
  ASSERT_TRUE(
      writer->InsertBulk(objects, InsertStrategy::kPrecise, 64).ok());
  for (const VectorObject& object : objects) {
    oracle->push_back(Mutation{true, object.id(), object.values()});
  }
  for (const VectorObject& object : deletions) {
    ASSERT_TRUE(writer->Delete(object).ok());
    oracle->push_back(Mutation{false, object.id(), {}});
  }
}

/// One expected-vs-received check, byte-level for inserts.
void ExpectEventMatches(const WatchEvent& event, const Mutation& expected) {
  if (expected.insert) {
    ASSERT_EQ(event.kind, WatchEvent::Kind::kInsert);
    EXPECT_EQ(event.id, expected.id);
    ASSERT_EQ(event.object.id(), expected.id);
    ASSERT_EQ(event.object.values().size(), expected.values.size());
    for (size_t d = 0; d < expected.values.size(); ++d) {
      EXPECT_EQ(event.object.values()[d], expected.values[d])
          << "decrypted insert payload diverges at dim " << d;
    }
  } else {
    ASSERT_EQ(event.kind, WatchEvent::Kind::kDelete);
    EXPECT_EQ(event.id, expected.id);
  }
}

TEST(WatchTest, DeliversMutationsInOrderByteVerified) {
  const std::vector<VectorObject> objects = MakeObjects(120, 1401);
  Cluster cluster = StartCluster(objects, /*num_shards=*/1);

  auto writer_transport = cluster.Connect();
  ASSERT_TRUE(writer_transport.ok());
  EncryptionClient writer(*cluster.key, cluster.metric,
                          writer_transport->get());
  auto watcher_transport = cluster.Connect();
  ASSERT_TRUE(watcher_transport.ok());
  EncryptionClient watcher(*cluster.key, cluster.metric,
                           watcher_transport->get());

  auto stream = watcher.WatchAll();
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  ASSERT_EQ((*stream)->resume_token().size(), 1u);

  std::vector<Mutation> oracle;
  ApplyChurn(&writer, objects,
             {objects.begin(), objects.begin() + 30}, &oracle);

  std::vector<uint64_t> last_token;
  for (size_t i = 0; i < oracle.size(); ++i) {
    auto event = (*stream)->Next(kEventTimeoutMs);
    ASSERT_TRUE(event.ok())
        << "event " << i << ": " << event.status().ToString();
    ExpectEventMatches(*event, oracle[i]);
    ASSERT_EQ(event->resume_token.size(), 1u);
    if (!last_token.empty()) {
      EXPECT_GT(event->resume_token[0], last_token[0])
          << "resume tokens must advance strictly";
    }
    last_token = event->resume_token;
  }
  // Nothing extra arrives: the stream delivered exactly the oracle.
  auto extra = (*stream)->Next(100);
  EXPECT_FALSE(extra.ok());
  EXPECT_EQ(extra.status().code(), StatusCode::kDeadlineExceeded);

  EXPECT_TRUE((*stream)->Cancel().ok());
  stream->reset();
  cluster.server->Stop();
}

TEST(WatchTest, ResumeTokenReplaysExactlyTheMissedEvents) {
  const std::vector<VectorObject> objects = MakeObjects(100, 1402);
  Cluster cluster = StartCluster(objects, /*num_shards=*/1);

  auto writer_transport = cluster.Connect();
  ASSERT_TRUE(writer_transport.ok());
  EncryptionClient writer(*cluster.key, cluster.metric,
                          writer_transport->get());

  std::vector<Mutation> oracle;
  std::vector<uint64_t> token;
  constexpr size_t kConsumed = 25;
  {
    auto watcher_transport = cluster.Connect();
    ASSERT_TRUE(watcher_transport.ok());
    EncryptionClient watcher(*cluster.key, cluster.metric,
                             watcher_transport->get());
    auto stream = watcher.WatchAll();
    ASSERT_TRUE(stream.ok());

    ApplyChurn(&writer, {objects.begin(), objects.begin() + 50},
               {objects.begin(), objects.begin() + 10}, &oracle);
    for (size_t i = 0; i < kConsumed; ++i) {
      auto event = (*stream)->Next(kEventTimeoutMs);
      ASSERT_TRUE(event.ok());
      ExpectEventMatches(*event, oracle[i]);
    }
    token = (*stream)->resume_token();
    // The watcher drops off the face of the earth: no cancel, the
    // stream and its whole connection just go away.
  }

  // More churn while nobody is watching.
  ApplyChurn(&writer, {objects.begin() + 50, objects.end()},
             {objects.begin() + 10, objects.begin() + 20}, &oracle);

  // Reconnect and resume: exactly the missed suffix, nothing twice.
  auto watcher_transport = cluster.Connect();
  ASSERT_TRUE(watcher_transport.ok());
  EncryptionClient watcher(*cluster.key, cluster.metric,
                           watcher_transport->get());
  auto resumed = watcher.WatchAll(token);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  for (size_t i = kConsumed; i < oracle.size(); ++i) {
    auto event = (*resumed)->Next(kEventTimeoutMs);
    ASSERT_TRUE(event.ok())
        << "event " << i << ": " << event.status().ToString();
    ExpectEventMatches(*event, oracle[i]);
  }
  auto extra = (*resumed)->Next(100);
  EXPECT_FALSE(extra.ok());
  EXPECT_EQ(extra.status().code(), StatusCode::kDeadlineExceeded);

  EXPECT_TRUE((*resumed)->Cancel().ok());
  resumed->reset();
  cluster.server->Stop();
}

TEST(WatchTest, OverflowedResumeTokenReportsWatchLost) {
  const std::vector<VectorObject> objects = MakeObjects(80, 1403);
  // Tiny replay ring: 4 events, then history is gone.
  Cluster cluster = StartCluster(objects, /*num_shards=*/1,
                                 /*watch_ring_capacity=*/4);

  auto transport = cluster.Connect();
  ASSERT_TRUE(transport.ok());
  EncryptionClient client(*cluster.key, cluster.metric, transport->get());

  // Baseline token from a fresh (immediately cancelled) watch.
  std::vector<uint64_t> stale_token;
  {
    auto stream = client.WatchAll();
    ASSERT_TRUE(stream.ok());
    stale_token = (*stream)->resume_token();
    EXPECT_TRUE((*stream)->Cancel().ok());
  }

  // 80 inserts blow far past the 4-slot ring.
  ASSERT_TRUE(
      client.InsertBulk(objects, InsertStrategy::kPrecise, 40).ok());

  auto resumed = client.WatchAll(stale_token);
  ASSERT_FALSE(resumed.ok());
  EXPECT_TRUE(EncryptionClient::IsWatchLost(resumed.status()))
      << resumed.status().ToString();

  // The connection survives the rejected registration, and a FRESH
  // watch works: the client re-runs its query and starts over.
  ASSERT_TRUE(client.Ping().ok());
  auto fresh = client.WatchAll();
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE((*fresh)->Cancel().ok());
  fresh->reset();
  cluster.server->Stop();
}

TEST(WatchTest, CancelStopsDeliveryAndLeavesConnectionUsable) {
  const std::vector<VectorObject> objects = MakeObjects(60, 1404);
  Cluster cluster = StartCluster(objects, /*num_shards=*/1);

  auto transport = cluster.Connect();
  ASSERT_TRUE(transport.ok());
  EncryptionClient client(*cluster.key, cluster.metric, transport->get());

  auto stream = client.WatchAll();
  ASSERT_TRUE(stream.ok());
  ASSERT_EQ(cluster.single->watch_hub()->active(), 1u);

  ASSERT_TRUE(client
                  .InsertBulk({objects.begin(), objects.begin() + 10},
                              InsertStrategy::kPrecise, 10)
                  .ok());
  auto first = (*stream)->Next(kEventTimeoutMs);
  ASSERT_TRUE(first.ok());

  ASSERT_TRUE((*stream)->Cancel().ok());
  EXPECT_TRUE((*stream)->finished());
  EXPECT_EQ(cluster.single->watch_hub()->active(), 0u);
  auto after = (*stream)->Next(100);
  EXPECT_EQ(after.status().code(), StatusCode::kFailedPrecondition);

  // Same connection keeps serving ordinary traffic.
  ASSERT_TRUE(client.Ping().ok());
  auto found = client.RangeSearch(objects[0], 1.0);
  ASSERT_TRUE(found.ok());
  auto stats = client.GetServerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->object_count, 10u);

  stream->reset();
  cluster.server->Stop();
}

TEST(WatchTest, WatchRegisteredThroughCallIsDroppedAndReaped) {
  const std::vector<VectorObject> objects = MakeObjects(40, 1405);
  Cluster cluster = StartCluster(objects, /*num_shards=*/1);

  auto transport = cluster.Connect();
  ASSERT_TRUE(transport.ok());

  // A raw Call of kWatch registers a watch (every frame carries an id the
  // server can push on) and returns its ack; Call is then done with the
  // id, so the watch's pushes arrive on an id nobody waits on.
  auto answered = (*transport)->Call(EncodeWatchRequest(WatchFilter{}, {}));
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  auto ack = DecodeWatchFrame(*answered);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->kind, WatchFrame::Kind::kAck);
  EXPECT_EQ(cluster.single->watch_hub()->active(), 1u);

  // The transport drops and counts those pushes instead of treating them
  // as a protocol violation: the same connection keeps working.
  EncryptionClient client(*cluster.key, cluster.metric, transport->get());
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.InsertBulk(objects, InsertStrategy::kPrecise, 40).ok());
  Stopwatch watch;
  while ((*transport)->stray_frames_dropped() < objects.size() &&
         watch.ElapsedSeconds() < 10) {
    ASSERT_TRUE(client.Ping().ok());
  }
  EXPECT_EQ((*transport)->stray_frames_dropped(), objects.size());
  auto stream = client.WatchAll();
  ASSERT_TRUE(stream.ok());
  EXPECT_TRUE((*stream)->Cancel().ok());
  stream->reset();
  EXPECT_TRUE((*transport)->stream_status().ok());

  // Closing the connection reaps the stray watch server-side.
  EXPECT_EQ(cluster.single->watch_hub()->active(), 1u);
  transport->reset();
  watch.Reset();
  while (cluster.single->watch_hub()->active() > 0 &&
         watch.ElapsedSeconds() < 10) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(cluster.single->watch_hub()->active(), 0u);
  cluster.server->Stop();
}

TEST(WatchTest, SlowWatcherParksWithoutStallingOtherConnections) {
  const std::vector<VectorObject> objects = MakeObjects(300, 1406);
  // Small output queue: a never-reading watcher hits it fast.
  Cluster cluster = StartCluster(objects, /*num_shards=*/1,
                                 /*watch_ring_capacity=*/4096,
                                 /*max_output_queue_bytes=*/16 * 1024);

  auto watcher_transport = cluster.Connect();
  ASSERT_TRUE(watcher_transport.ok());
  EncryptionClient watcher(*cluster.key, cluster.metric,
                           watcher_transport->get());
  auto stream = watcher.WatchAll();
  ASSERT_TRUE(stream.ok());

  auto writer_transport = cluster.Connect();
  ASSERT_TRUE(writer_transport.ok());
  EncryptionClient writer(*cluster.key, cluster.metric,
                          writer_transport->get());
  // The watcher never reads while these land: its connection parks at
  // the bounded output queue; the hub holds its cursor.
  ASSERT_TRUE(writer.InsertBulk(objects, InsertStrategy::kPrecise, 50).ok());

  // Other connections stay fully served while the watcher is parked.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(writer.Ping().ok());
    auto stats = writer.GetServerStats();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->object_count, objects.size());
    auto answers = writer.RangeSearch(objects[i], 1.0);
    ASSERT_TRUE(answers.ok());
  }

  // When the watcher finally reads, the stream is the oracle prefix —
  // parked, not corrupted: no gap, no reorder, byte-identical inserts.
  for (size_t i = 0; i < objects.size(); ++i) {
    auto event = (*stream)->Next(kEventTimeoutMs);
    ASSERT_TRUE(event.ok())
        << "event " << i << ": " << event.status().ToString();
    ExpectEventMatches(*event,
                       Mutation{true, objects[i].id(), objects[i].values()});
  }

  EXPECT_TRUE((*stream)->Cancel().ok());
  stream->reset();
  cluster.server->Stop();
}

TEST(WatchTest, RangeWatchDeliversAllTrueMatchesAndAllDeletes) {
  const std::vector<VectorObject> near = MakeObjects(60, 1407);
  const std::vector<VectorObject> far =
      MakeObjects(60, 1408, /*offset=*/500.0f, /*id_base=*/1000000);
  std::vector<VectorObject> all = near;
  all.insert(all.end(), far.begin(), far.end());
  Cluster cluster = StartCluster(all, /*num_shards=*/1);

  auto writer_transport = cluster.Connect();
  ASSERT_TRUE(writer_transport.ok());
  EncryptionClient writer(*cluster.key, cluster.metric,
                          writer_transport->get());
  auto watcher_transport = cluster.Connect();
  ASSERT_TRUE(watcher_transport.ok());
  EncryptionClient watcher(*cluster.key, cluster.metric,
                           watcher_transport->get());

  const VectorObject& query = near[0];
  constexpr double kRadius = 25.0;
  auto stream = watcher.Watch(query, kRadius);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();

  ASSERT_TRUE(writer.InsertBulk(all, InsertStrategy::kPrecise, 40).ok());
  // Deletes always flow, matching or not; the far delete doubles as the
  // stream's end-of-churn sentinel (per-stream order == bus order).
  ASSERT_TRUE(writer.Delete(near[1]).ok());
  ASSERT_TRUE(writer.Delete(far[0]).ok());

  std::map<metric::ObjectId, bool> inserts_seen;  // id -> byte-verified
  std::vector<metric::ObjectId> deletes_seen;
  for (;;) {
    auto event = (*stream)->Next(kEventTimeoutMs);
    ASSERT_TRUE(event.ok()) << event.status().ToString();
    if (event->kind == WatchEvent::Kind::kDelete) {
      deletes_seen.push_back(event->id);
      if (event->id == far[0].id()) break;  // sentinel
      continue;
    }
    ASSERT_EQ(event->kind, WatchEvent::Kind::kInsert);
    inserts_seen[event->id] = true;
  }

  // Every insert whose TRUE distance admits it into the radius must
  // have been delivered (the pivot bound is a lower bound, so the
  // filter may deliver extra candidates but can never drop a match).
  for (const VectorObject& object : all) {
    if (cluster.metric->Distance(query, object) <= kRadius) {
      EXPECT_TRUE(inserts_seen.count(object.id()))
          << "true range match " << object.id() << " was filtered out";
    }
  }
  ASSERT_EQ(deletes_seen.size(), 2u);
  EXPECT_EQ(deletes_seen[0], near[1].id());
  EXPECT_EQ(deletes_seen[1], far[0].id());

  EXPECT_TRUE((*stream)->Cancel().ok());
  stream->reset();
  cluster.server->Stop();
}

TEST(WatchTest, MatchesInsertUsesTheRangeLowerBound) {
  WatchFilter all;
  EXPECT_TRUE(WatchHub::MatchesInsert(all, {1, 2, 3}));

  WatchFilter range;
  range.kind = WatchFilter::Kind::kRange;
  range.query_distances = {10.0f, 20.0f};
  range.radius = 5.0;
  EXPECT_TRUE(WatchHub::MatchesInsert(range, {12.0f, 18.0f}));   // bound 2
  EXPECT_TRUE(WatchHub::MatchesInsert(range, {15.0f, 20.0f}));   // bound 5
  EXPECT_FALSE(WatchHub::MatchesInsert(range, {16.0f, 20.0f}));  // bound 6
  EXPECT_FALSE(WatchHub::MatchesInsert(range, {10.0f, 40.0f}));  // bound 20
  // No usable distances: deliver conservatively.
  EXPECT_TRUE(WatchHub::MatchesInsert(range, {}));
  EXPECT_TRUE(WatchHub::MatchesInsert(range, {1.0f, 2.0f, 3.0f}));
}

TEST(WatchTest, ShardedFacadeMergesStreamsWithCompositeTokens) {
  const std::vector<VectorObject> objects = MakeObjects(150, 1409);
  Cluster cluster = StartCluster(objects, /*num_shards=*/3);

  auto writer_transport = cluster.Connect();
  ASSERT_TRUE(writer_transport.ok());
  EncryptionClient writer(*cluster.key, cluster.metric,
                          writer_transport->get());

  // Phase 1: consume half the churn, keep the composite token.
  std::vector<Mutation> oracle;
  std::map<metric::ObjectId, size_t> insert_seen, delete_seen;
  std::vector<uint64_t> token;
  size_t consumed = 0;
  {
    auto watcher_transport = cluster.Connect();
    ASSERT_TRUE(watcher_transport.ok());
    EncryptionClient watcher(*cluster.key, cluster.metric,
                             watcher_transport->get());
    auto stream = watcher.WatchAll();
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    ASSERT_EQ((*stream)->resume_token().size(), 3u)
        << "composite token must carry one cursor per shard";

    ApplyChurn(&writer, objects, {objects.begin(), objects.begin() + 40},
               &oracle);
    std::vector<uint64_t> previous = (*stream)->resume_token();
    for (consumed = 0; consumed < oracle.size() / 2; ++consumed) {
      auto event = (*stream)->Next(kEventTimeoutMs);
      ASSERT_TRUE(event.ok()) << event.status().ToString();
      ASSERT_EQ(event->resume_token.size(), 3u);
      for (size_t s = 0; s < 3; ++s) {
        EXPECT_GE(event->resume_token[s], previous[s])
            << "per-shard cursors never move backwards";
      }
      previous = event->resume_token;
      if (event->kind == WatchEvent::Kind::kInsert) {
        ++insert_seen[event->id];
      } else {
        ++delete_seen[event->id];
      }
    }
    token = (*stream)->resume_token();
    // Drop the watcher without cancelling (connection loss).
  }

  // Phase 2: resume with the composite token; the union of both phases
  // must equal the oracle exactly — every event once, none twice.
  auto watcher_transport = cluster.Connect();
  ASSERT_TRUE(watcher_transport.ok());
  EncryptionClient watcher(*cluster.key, cluster.metric,
                           watcher_transport->get());
  auto resumed = watcher.WatchAll(token);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  for (size_t i = consumed; i < oracle.size(); ++i) {
    auto event = (*resumed)->Next(kEventTimeoutMs);
    ASSERT_TRUE(event.ok())
        << "event " << i << ": " << event.status().ToString();
    if (event->kind == WatchEvent::Kind::kInsert) {
      // Byte-verify against the oracle's record of this id.
      bool found = false;
      for (const Mutation& mutation : oracle) {
        if (mutation.insert && mutation.id == event->id) {
          ASSERT_EQ(event->object.values(), mutation.values);
          found = true;
          break;
        }
      }
      ASSERT_TRUE(found) << "insert event for unknown id " << event->id;
      ++insert_seen[event->id];
    } else {
      ASSERT_EQ(event->kind, WatchEvent::Kind::kDelete);
      ++delete_seen[event->id];
    }
  }
  auto extra = (*resumed)->Next(100);
  EXPECT_FALSE(extra.ok());

  size_t oracle_inserts = 0, oracle_deletes = 0;
  for (const Mutation& mutation : oracle) {
    if (mutation.insert) {
      ++oracle_inserts;
      EXPECT_EQ(insert_seen[mutation.id], 1u)
          << "insert " << mutation.id << " delivered "
          << insert_seen[mutation.id] << " times";
    } else {
      ++oracle_deletes;
      EXPECT_EQ(delete_seen[mutation.id], 1u)
          << "delete " << mutation.id << " delivered "
          << delete_seen[mutation.id] << " times";
    }
  }
  EXPECT_EQ(insert_seen.size(), oracle_inserts);
  EXPECT_EQ(delete_seen.size(), oracle_deletes);

  EXPECT_TRUE((*resumed)->Cancel().ok());
  resumed->reset();
  cluster.server->Stop();
}

// Regression: a composite watch whose client vanished used to linger on
// the facade until the NEXT delivery tried to push into the dead
// connection. The disconnect hook must reap it eagerly — with zero
// intervening mutations.
TEST(WatchTest, OrphanedShardedWatchIsReapedOnDisconnectNotNextDelivery) {
  const std::vector<VectorObject> objects = MakeObjects(60, 1410);
  Cluster cluster = StartCluster(objects, /*num_shards=*/3);
  ASSERT_NE(cluster.sharded, nullptr);

  auto watcher_transport = cluster.Connect();
  ASSERT_TRUE(watcher_transport.ok());
  {
    EncryptionClient watcher(*cluster.key, cluster.metric,
                             watcher_transport->get());
    auto stream = watcher.WatchAll();
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    ASSERT_EQ(cluster.sharded->open_watches(), 1u);

    // The client evaporates: no Cancel, no clean shutdown — the socket
    // just dies. Abort before the stream destructor so its best-effort
    // cancel cannot mask the server-side reap.
    (*watcher_transport)->Abort(Status::NetworkError("client vanished"));
  }

  // NO churn here. The old code would only notice the orphan when a
  // delivery sweep hit the dead connection; the fanout must disappear
  // on the disconnect alone.
  for (int i = 0; i < 500 && cluster.sharded->open_watches() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(cluster.sharded->open_watches(), 0u)
      << "orphaned watch fanout lingered past the disconnect";

  // The reaped fanout must not wound delivery: churn afterwards reaches
  // a fresh watcher intact.
  auto writer_transport = cluster.Connect();
  ASSERT_TRUE(writer_transport.ok());
  EncryptionClient writer(*cluster.key, cluster.metric,
                          writer_transport->get());
  auto fresh_transport = cluster.Connect();
  ASSERT_TRUE(fresh_transport.ok());
  EncryptionClient fresh(*cluster.key, cluster.metric,
                         fresh_transport->get());
  auto fresh_stream = fresh.WatchAll();
  ASSERT_TRUE(fresh_stream.ok()) << fresh_stream.status().ToString();
  std::vector<Mutation> oracle;
  ApplyChurn(&writer, {objects.begin(), objects.begin() + 10}, {}, &oracle);
  // Shards interleave freely in the merged stream: assert exactly-once
  // delivery of every mutation, not a global order.
  std::map<metric::ObjectId, size_t> seen;
  for (size_t i = 0; i < oracle.size(); ++i) {
    auto event = (*fresh_stream)->Next(kEventTimeoutMs);
    ASSERT_TRUE(event.ok())
        << "event " << i << ": " << event.status().ToString();
    ASSERT_EQ(event->kind, WatchEvent::Kind::kInsert);
    ++seen[event->id];
  }
  for (const Mutation& mutation : oracle) {
    EXPECT_EQ(seen[mutation.id], 1u)
        << "insert " << mutation.id << " delivered " << seen[mutation.id]
        << " times";
  }
  EXPECT_TRUE((*fresh_stream)->Cancel().ok());
  fresh_stream->reset();
  cluster.server->Stop();
}

}  // namespace
}  // namespace secure
}  // namespace simcloud
