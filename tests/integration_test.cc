// End-to-end integration tests: the full Encrypted M-Index stack over a
// real TCP connection (two "processes" — server thread and client — as in
// the paper's deployment), plus cross-system consistency checks between
// the encrypted index, the plain index, and the trivial client on the
// same data and queries.

#include <gtest/gtest.h>

#include "baselines/plain_mindex.h"
#include "baselines/trivial.h"
#include "common/clock.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "metric/ground_truth.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "secure/client.h"
#include "secure/server.h"

namespace simcloud {
namespace {

using metric::VectorObject;

metric::Dataset MakeDataset(uint64_t seed) {
  data::MixtureOptions options;
  options.num_objects = 500;
  options.dimension = 8;
  options.num_clusters = 5;
  options.seed = seed;
  return metric::Dataset("itest", data::MakeGaussianMixture(options),
                         std::make_shared<metric::L2Distance>());
}

TEST(IntegrationTest, EncryptedSearchOverRealTcp) {
  auto dataset = MakeDataset(1);
  auto pivots = mindex::PivotSet::SelectRandom(dataset.objects(), 8, 2);
  ASSERT_TRUE(pivots.ok());
  auto key = secure::SecretKey::Create(std::move(pivots).value(),
                                       Bytes(16, 0x11));
  ASSERT_TRUE(key.ok());

  mindex::MIndexOptions options;
  options.num_pivots = 8;
  options.bucket_capacity = 40;
  options.max_level = 4;
  auto server_handler = secure::EncryptedMIndexServer::Create(options);
  ASSERT_TRUE(server_handler.ok());

  net::TcpServer server(server_handler->get());
  ASSERT_TRUE(server.Start(0).ok());
  auto transport = net::TcpTransport::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(transport.ok());

  secure::EncryptionClient client(*key, dataset.distance(), transport->get());
  ASSERT_TRUE(client
                  .InsertBulk(dataset.objects(),
                              secure::InsertStrategy::kPrecise, 100)
                  .ok());

  Rng rng(3);
  for (int iter = 0; iter < 4; ++iter) {
    const VectorObject& query =
        dataset.objects()[rng.NextBounded(dataset.size())];
    const double radius = rng.NextUniform(10.0, 40.0);
    const auto exact = metric::LinearRangeSearch(dataset, query, radius);
    auto answer = client.RangeSearch(query, radius);
    ASSERT_TRUE(answer.ok());
    ASSERT_EQ(answer->size(), exact.size());
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ((*answer)[i].id, exact[i].id);
    }
  }
  // Cost split over real TCP: both components observed.
  EXPECT_GT(transport->get()->costs().server_nanos, 0);
  EXPECT_GT(transport->get()->costs().communication_nanos, 0);
  server.Stop();
}

// Deleting an object that is not indexed is NotFound over a real TCP
// connection too, as EncryptionClient::Delete documents, not a remote
// error.
TEST(IntegrationTest, DeleteOfMissingObjectIsNotFoundOverTcp) {
  auto dataset = MakeDataset(4);
  auto pivots = mindex::PivotSet::SelectRandom(dataset.objects(), 8, 5);
  ASSERT_TRUE(pivots.ok());
  auto key = secure::SecretKey::Create(std::move(pivots).value(),
                                       Bytes(16, 0x12));
  ASSERT_TRUE(key.ok());

  mindex::MIndexOptions options;
  options.num_pivots = 8;
  options.bucket_capacity = 40;
  options.max_level = 4;
  auto server_handler = secure::EncryptedMIndexServer::Create(options);
  ASSERT_TRUE(server_handler.ok());
  net::TcpServer server(server_handler->get());
  ASSERT_TRUE(server.Start(0).ok());
  auto transport = net::TcpTransport::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(transport.ok());

  secure::EncryptionClient client(*key, dataset.distance(), transport->get());
  const std::vector<VectorObject> indexed(dataset.objects().begin(),
                                          dataset.objects().begin() + 100);
  ASSERT_TRUE(
      client.InsertBulk(indexed, secure::InsertStrategy::kPrecise).ok());

  const VectorObject& victim = indexed[17];
  ASSERT_TRUE(client.Delete(victim).ok());
  Status again = client.Delete(victim);
  EXPECT_EQ(again.code(), StatusCode::kNotFound) << again.ToString();
  Status never = client.Delete(dataset.objects()[300]);
  EXPECT_EQ(never.code(), StatusCode::kNotFound) << never.ToString();
  EXPECT_EQ(server_handler->get()->index().size(), indexed.size() - 1);
  server.Stop();
}

// The paper's cost split adds up over a real socket: client time plus the
// transport's server and communication time stays within the wall time
// the caller measured. The client's overhead leaves out the time inside
// transport calls, so it never counts the wire a second time.
TEST(IntegrationTest, CostSplitAddsUpToWallTimeOverTcp) {
  auto dataset = MakeDataset(15);
  auto pivots = mindex::PivotSet::SelectRandom(dataset.objects(), 8, 16);
  ASSERT_TRUE(pivots.ok());
  auto key = secure::SecretKey::Create(std::move(pivots).value(),
                                       Bytes(16, 0x13));
  ASSERT_TRUE(key.ok());

  mindex::MIndexOptions options;
  options.num_pivots = 8;
  options.bucket_capacity = 40;
  options.max_level = 4;
  auto server_handler = secure::EncryptedMIndexServer::Create(options);
  ASSERT_TRUE(server_handler.ok());
  net::TcpServer server(server_handler->get());
  ASSERT_TRUE(server.Start(0).ok());
  auto transport = net::TcpTransport::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(transport.ok());

  secure::EncryptionClient client(*key, dataset.distance(), transport->get());
  ASSERT_TRUE(client
                  .InsertBulk(dataset.objects(),
                              secure::InsertStrategy::kPermutationOnly, 100)
                  .ok());
  client.ResetCosts();
  transport->get()->ResetCosts();

  Stopwatch wall;
  for (size_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.ApproxKnn(dataset.objects()[i * 7], 10, 200).ok());
  }
  const int64_t wall_nanos = wall.ElapsedNanos();

  const net::TransportCosts& wire = transport->get()->costs();
  const int64_t split_nanos = client.costs().TotalNanos() +
                              wire.server_nanos + wire.communication_nanos;
  EXPECT_GT(client.costs().overhead_nanos, 0);
  EXPECT_GT(wire.communication_nanos, 0);
  EXPECT_LE(static_cast<double>(split_nanos), 1.02 * wall_nanos)
      << "client " << client.costs().TotalNanos() << " ns + server "
      << wire.server_nanos << " ns + communication "
      << wire.communication_nanos << " ns against " << wall_nanos
      << " ns of wall time";
  server.Stop();
}

// The same split holds for the bulk writes, whose per-object work runs on
// several threads: each parallel pass is charged at its wall time on the
// caller's clock, never as the sum of the workers' times, and the counts
// (client and registry) are exact.
TEST(IntegrationTest, BulkWriteCostSplitAddsUpToWallTimeOverTcp) {
  auto dataset = MakeDataset(17);
  const uint64_t num_pivots = 8;
  auto pivots =
      mindex::PivotSet::SelectRandom(dataset.objects(), num_pivots, 18);
  ASSERT_TRUE(pivots.ok());
  auto key = secure::SecretKey::Create(std::move(pivots).value(),
                                       Bytes(16, 0x14));
  ASSERT_TRUE(key.ok());

  mindex::MIndexOptions options;
  options.num_pivots = num_pivots;
  options.bucket_capacity = 40;
  options.max_level = 4;
  auto server_handler = secure::EncryptedMIndexServer::Create(options);
  ASSERT_TRUE(server_handler.ok());
  net::TcpServer server(server_handler->get());
  ASSERT_TRUE(server.Start(0).ok());
  auto transport = net::TcpTransport::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(transport.ok());

  secure::EncryptionClient client(*key, dataset.distance(), transport->get());
  const std::vector<VectorObject>& objects = dataset.objects();
  ASSERT_EQ(objects.size(), 500u);
  obs::Counter* distances = obs::Registry::Default().GetCounter(
      "simcloud_distance_computations_total");
  const uint64_t distances_before = distances->Value();

  Stopwatch wall;
  ASSERT_TRUE(
      client.InsertBulk(objects, secure::InsertStrategy::kPrecise, 500).ok());
  ASSERT_TRUE(client.DeleteBatch(objects, 500).ok());
  const int64_t wall_nanos = wall.ElapsedNanos();

  const secure::ClientCosts& costs = client.costs();
  const net::TransportCosts& wire = transport->get()->costs();
  const int64_t split_nanos =
      costs.TotalNanos() + wire.server_nanos + wire.communication_nanos;
  EXPECT_GT(costs.distance_nanos, 0);
  EXPECT_GT(costs.encryption_nanos, 0);
  EXPECT_GT(wire.communication_nanos, 0);
  EXPECT_LE(static_cast<double>(split_nanos), 1.02 * wall_nanos)
      << "client " << costs.TotalNanos() << " ns (distance "
      << costs.distance_nanos << ", encryption " << costs.encryption_nanos
      << ") + server " << wire.server_nanos << " ns + communication "
      << wire.communication_nanos << " ns against " << wall_nanos
      << " ns of wall time";
  EXPECT_EQ(costs.distance_computations, 1000 * num_pivots);
  EXPECT_EQ(costs.objects_encrypted, 500u);
  if (obs::MetricsEnabled()) {
    EXPECT_EQ(distances->Value() - distances_before, 1000 * num_pivots);
  }
  EXPECT_EQ(server_handler->get()->index().size(), 0u);
  server.Stop();
}

TEST(IntegrationTest, EncryptedAndPlainAgreeOnTheSameWorkload) {
  // The encrypted index and the plain index implement the same search
  // semantics; given the same pivots, parameters, and candidate budget,
  // their approximate k-NN answers must be identical.
  auto dataset = MakeDataset(5);
  const size_t num_pivots = 10;
  auto pivots = mindex::PivotSet::SelectRandom(dataset.objects(), num_pivots,
                                               6);
  ASSERT_TRUE(pivots.ok());

  mindex::MIndexOptions options;
  options.num_pivots = num_pivots;
  options.bucket_capacity = 40;
  options.max_level = 4;

  // Encrypted stack.
  auto key = secure::SecretKey::Create(*pivots, Bytes(16, 0x22));
  ASSERT_TRUE(key.ok());
  auto enc_server = secure::EncryptedMIndexServer::Create(options);
  ASSERT_TRUE(enc_server.ok());
  net::LoopbackTransport enc_transport(enc_server->get());
  secure::EncryptionClient enc_client(*key, dataset.distance(),
                                      &enc_transport);
  // Note: permutation-only inserts — same routing information the plain
  // server derives from its own distance computations.
  ASSERT_TRUE(enc_client
                  .InsertBulk(dataset.objects(),
                              secure::InsertStrategy::kPermutationOnly, 100)
                  .ok());

  // Plain stack with the *same* pivots.
  auto plain_server = baselines::PlainMIndexServer::Create(
      options, *pivots, dataset.distance());
  ASSERT_TRUE(plain_server.ok());
  net::LoopbackTransport plain_transport(plain_server->get());
  baselines::PlainClient plain_client(&plain_transport);
  ASSERT_TRUE(plain_client.InsertBulk(dataset.objects(), 100).ok());

  Rng rng(7);
  for (int iter = 0; iter < 6; ++iter) {
    const VectorObject& query =
        dataset.objects()[rng.NextBounded(dataset.size())];
    const size_t cand_size = 120;
    auto enc_answer = enc_client.ApproxKnn(query, 10, cand_size);
    auto plain_answer = plain_client.ApproxKnn(query, 10, cand_size);
    ASSERT_TRUE(enc_answer.ok());
    ASSERT_TRUE(plain_answer.ok());
    ASSERT_EQ(enc_answer->size(), plain_answer->size());
    for (size_t i = 0; i < enc_answer->size(); ++i) {
      EXPECT_EQ((*enc_answer)[i].id, (*plain_answer)[i].id)
          << "iter " << iter << " rank " << i;
    }
  }
}

TEST(IntegrationTest, EncryptedMatchesTrivialExactlyOnPreciseQueries) {
  auto dataset = MakeDataset(9);
  auto pivots = mindex::PivotSet::SelectRandom(dataset.objects(), 8, 10);
  ASSERT_TRUE(pivots.ok());
  auto key = secure::SecretKey::Create(std::move(pivots).value(),
                                       Bytes(16, 0x33));
  ASSERT_TRUE(key.ok());

  mindex::MIndexOptions options;
  options.num_pivots = 8;
  options.max_level = 4;
  auto enc_server = secure::EncryptedMIndexServer::Create(options);
  ASSERT_TRUE(enc_server.ok());
  net::LoopbackTransport enc_transport(enc_server->get());
  secure::EncryptionClient enc_client(*key, dataset.distance(),
                                      &enc_transport);
  ASSERT_TRUE(enc_client
                  .InsertBulk(dataset.objects(),
                              secure::InsertStrategy::kPrecise, 100)
                  .ok());

  baselines::BlobStoreServer blob_server;
  net::LoopbackTransport blob_transport(&blob_server);
  auto trivial = baselines::TrivialClient::Create(
      Bytes(16, 0x44), dataset.distance(), &blob_transport);
  ASSERT_TRUE(trivial.ok());
  ASSERT_TRUE(trivial->InsertBulk(dataset.objects(), 100).ok());

  Rng rng(11);
  for (int iter = 0; iter < 4; ++iter) {
    const VectorObject& query =
        dataset.objects()[rng.NextBounded(dataset.size())];
    const double radius = rng.NextUniform(10.0, 40.0);
    auto enc_answer = enc_client.RangeSearch(query, radius);
    auto trivial_answer = trivial->RangeSearch(query, radius);
    ASSERT_TRUE(enc_answer.ok());
    ASSERT_TRUE(trivial_answer.ok());
    ASSERT_EQ(enc_answer->size(), trivial_answer->size());
    for (size_t i = 0; i < enc_answer->size(); ++i) {
      EXPECT_EQ((*enc_answer)[i].id, (*trivial_answer)[i].id);
    }
  }
  // But their communication profiles differ radically: the trivial client
  // downloads everything on each query.
  EXPECT_GT(blob_transport.costs().bytes_received,
            enc_transport.costs().bytes_received);
}

TEST(IntegrationTest, SecretKeyHandoffAuthorizedClientWorkflow) {
  // Data-owner inserts, serializes the key, a *different* authorized
  // client deserializes it and queries — the paper's Figure 1 workflow.
  auto dataset = MakeDataset(13);
  auto pivots = mindex::PivotSet::SelectRandom(dataset.objects(), 8, 14);
  ASSERT_TRUE(pivots.ok());
  auto owner_key = secure::SecretKey::Create(std::move(pivots).value(),
                                             Bytes(16, 0x55));
  ASSERT_TRUE(owner_key.ok());

  mindex::MIndexOptions options;
  options.num_pivots = 8;
  options.max_level = 4;
  auto server = secure::EncryptedMIndexServer::Create(options);
  ASSERT_TRUE(server.ok());
  net::LoopbackTransport owner_transport(server->get());
  secure::EncryptionClient owner(*owner_key, dataset.distance(),
                                 &owner_transport);
  ASSERT_TRUE(owner
                  .InsertBulk(dataset.objects(),
                              secure::InsertStrategy::kPrecise, 100)
                  .ok());

  // Key distribution.
  auto key_blob = owner_key->Serialize();
  ASSERT_TRUE(key_blob.ok());
  auto client_key = secure::SecretKey::Deserialize(*key_blob);
  ASSERT_TRUE(client_key.ok());

  net::LoopbackTransport client_transport(server->get());
  secure::EncryptionClient authorized(*client_key, dataset.distance(),
                                      &client_transport);
  const VectorObject& query = dataset.objects()[42];
  const auto exact = metric::LinearKnnSearch(dataset, query, 5);
  auto answer = authorized.PreciseKnn(query, 5);
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->size(), exact.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ((*answer)[i].id, exact[i].id);
  }
}

}  // namespace
}  // namespace simcloud
