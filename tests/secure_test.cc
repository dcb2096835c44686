// Encrypted M-Index tests: secret key lifecycle, the distribution-hiding
// transform's mathematical properties, the wire protocol, and full
// client-server search correctness over the loopback transport.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "common/rng.h"
#include "data/synthetic.h"
#include "metric/ground_truth.h"
#include "mindex/permutation.h"
#include "secure/client.h"
#include "secure/distance_transform.h"
#include "secure/privacy.h"
#include "secure/protocol.h"
#include "secure/secret_key.h"
#include "secure/server.h"

namespace simcloud {
namespace secure {
namespace {

using metric::VectorObject;

struct SecureWorld {
  metric::Dataset dataset{};
  SecretKey key;
  std::unique_ptr<EncryptedMIndexServer> server;
  std::unique_ptr<net::LoopbackTransport> transport;
  std::unique_ptr<EncryptionClient> client;
};

/// Forwards to another transport and keeps every request it sent and
/// every response it received, so a test can pin the client's wire bytes
/// and count what the server shipped.
class RecordingTransport : public net::Transport {
 public:
  explicit RecordingTransport(net::Transport* inner) : inner_(inner) {}

  Result<Bytes> Call(const Bytes& request) override {
    requests.push_back(request);
    return Keep(inner_->Call(request));
  }
  Result<uint64_t> Submit(const Bytes& request) override {
    requests.push_back(request);
    return inner_->Submit(request);
  }
  Result<Bytes> Collect(uint64_t ticket) override {
    return Keep(inner_->Collect(ticket));
  }
  const net::TransportCosts& costs() const override {
    return inner_->costs();
  }
  void ResetCosts() override { inner_->ResetCosts(); }

  std::vector<Bytes> requests;
  std::vector<Bytes> responses;

 private:
  Result<Bytes> Keep(Result<Bytes> response) {
    if (response.ok()) responses.push_back(*response);
    return response;
  }

  net::Transport* inner_;
};

SecureWorld MakeSecureWorld(size_t num_pivots = 10, size_t bucket_capacity = 50,
                            bool with_transform = false,
                            size_t num_objects = 700) {
  SecureWorld world{
      .key =
          []() {
            // placeholder; replaced below
            auto pivots = mindex::PivotSet({VectorObject(0, {0.0f})});
            return SecretKey::Create(std::move(pivots), Bytes(16, 1)).value();
          }(),
      .server = nullptr,
      .transport = nullptr,
      .client = nullptr};

  data::MixtureOptions options;
  options.num_objects = num_objects;
  options.dimension = 8;
  options.num_clusters = 6;
  options.seed = 77;
  world.dataset = metric::Dataset(
      "test", data::MakeGaussianMixture(options),
      std::make_shared<metric::L2Distance>());

  auto pivots = mindex::PivotSet::SelectRandom(world.dataset.objects(),
                                               num_pivots, 78);
  EXPECT_TRUE(pivots.ok());
  auto key = SecretKey::Create(std::move(pivots).value(), Bytes(16, 0x42));
  EXPECT_TRUE(key.ok());
  world.key = std::move(key).value();
  if (with_transform) {
    EXPECT_TRUE(world.key.EnableDistanceTransform(99, 2000.0).ok());
  }

  mindex::MIndexOptions index_options;
  index_options.num_pivots = num_pivots;
  index_options.bucket_capacity = bucket_capacity;
  index_options.max_level = 4;
  auto server = EncryptedMIndexServer::Create(index_options);
  EXPECT_TRUE(server.ok());
  world.server = std::move(server).value();
  world.transport =
      std::make_unique<net::LoopbackTransport>(world.server.get());
  world.client = std::make_unique<EncryptionClient>(
      world.key, world.dataset.distance(), world.transport.get());
  return world;
}

// -------------------------------------------------------------- SecretKey

TEST(SecretKeyTest, CreateValidates) {
  EXPECT_FALSE(SecretKey::Create(mindex::PivotSet{}, Bytes(16)).ok());
  mindex::PivotSet pivots({VectorObject(0, {1.0f})});
  EXPECT_FALSE(SecretKey::Create(pivots, Bytes(10)).ok());
  EXPECT_TRUE(SecretKey::Create(pivots, Bytes(16)).ok());
}

TEST(SecretKeyTest, DeriveChannelKeyIsDomainSeparated) {
  mindex::PivotSet pivots({VectorObject(0, {1.0f})});
  auto key1 = SecretKey::Create(pivots, Bytes(16, 0x01));
  auto key2 = SecretKey::Create(pivots, Bytes(16, 0x02));
  ASSERT_TRUE(key1.ok() && key2.ok());
  // Deterministic per key (both ends derive the same PSK), 32 bytes,
  // key-dependent, and distinct from every other derived secret.
  EXPECT_EQ(key1->DeriveChannelKey(), key1->DeriveChannelKey());
  EXPECT_EQ(key1->DeriveChannelKey().size(), 32u);
  EXPECT_NE(key1->DeriveChannelKey(), key2->DeriveChannelKey());
  EXPECT_NE(key1->DeriveChannelKey(), key1->DeriveQueryMacKey());
  EXPECT_NE(key1->DeriveChannelKey(), Bytes(16, 0x01));
}

TEST(SecretKeyTest, MovedFromKeysAreCleared) {
  // Key hygiene regression: moving a SecretKey must leave the source
  // without key material (its buffer wiped), so a stale copy on the
  // stack or in a container cannot leak the AES key.
  mindex::PivotSet pivots({VectorObject(0, {1.0f})});
  auto created = SecretKey::Create(pivots, Bytes(16, 0x3C));
  ASSERT_TRUE(created.ok());
  SecretKey original = std::move(*created);
  EXPECT_TRUE(original.has_key_material());

  SecretKey moved_to = std::move(original);
  EXPECT_FALSE(original.has_key_material());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(moved_to.has_key_material());

  auto assigned = SecretKey::Create(pivots, Bytes(16, 0x3D));
  ASSERT_TRUE(assigned.ok());
  *assigned = std::move(moved_to);
  EXPECT_FALSE(moved_to.has_key_material());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(assigned->has_key_material());

  // Copies stay independent: copying does not clear the source.
  SecretKey copy = *assigned;
  EXPECT_TRUE(copy.has_key_material());
  EXPECT_TRUE(assigned->has_key_material());
  // The surviving key still works end to end.
  VectorObject object(7, {1.5f, 2.5f});
  auto ciphertext = copy.EncryptObject(object);
  ASSERT_TRUE(ciphertext.ok());
  auto back = copy.DecryptObject(*ciphertext);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, object);
}

TEST(SecretKeyTest, EncryptDecryptObjectRoundTrip) {
  mindex::PivotSet pivots({VectorObject(0, {1.0f})});
  auto key = SecretKey::Create(pivots, Bytes(16, 9));
  ASSERT_TRUE(key.ok());
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    std::vector<float> values(rng.NextBounded(100) + 1);
    for (auto& v : values) v = rng.NextFloat();
    VectorObject object(rng.NextBounded(1000), std::move(values));
    auto ciphertext = key->EncryptObject(object);
    ASSERT_TRUE(ciphertext.ok());
    auto back = key->DecryptObject(*ciphertext);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, object);
  }
}

TEST(SecretKeyTest, WrongKeyCannotDecrypt) {
  mindex::PivotSet pivots({VectorObject(0, {1.0f})});
  auto key1 = SecretKey::Create(pivots, Bytes(16, 1));
  auto key2 = SecretKey::Create(pivots, Bytes(16, 2));
  ASSERT_TRUE(key1.ok());
  ASSERT_TRUE(key2.ok());
  VectorObject object(7, {1.0f, 2.0f, 3.0f});
  auto ciphertext = key1->EncryptObject(object);
  ASSERT_TRUE(ciphertext.ok());
  auto wrong = key2->DecryptObject(*ciphertext);
  // Either padding fails or the payload deserializes into garbage.
  if (wrong.ok()) {
    EXPECT_NE(*wrong, object);
  }
}

TEST(SecretKeyTest, SerializeRoundTripPreservesEverything) {
  auto dataset = data::MakeYeastLike(1);
  auto pivots = mindex::PivotSet::SelectRandom(dataset.objects(), 5, 2);
  ASSERT_TRUE(pivots.ok());
  auto key = SecretKey::Create(std::move(pivots).value(), Bytes(16, 0xAA));
  ASSERT_TRUE(key.ok());
  ASSERT_TRUE(key->EnableDistanceTransform(3, 1000.0).ok());

  auto blob = key->Serialize();
  ASSERT_TRUE(blob.ok());
  auto back = SecretKey::Deserialize(*blob);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_pivots(), 5u);
  EXPECT_TRUE(back->has_transform());
  // Same pivots.
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(back->pivots().pivot(i), key->pivots().pivot(i));
  }
  // Same transform behaviour.
  for (double x : {0.0, 1.5, 500.0, 5000.0}) {
    EXPECT_DOUBLE_EQ(back->transform().Apply(x), key->transform().Apply(x));
  }
  // Cross-decryption works.
  VectorObject object(3, {4.0f, 5.0f});
  auto ciphertext = key->EncryptObject(object);
  ASSERT_TRUE(ciphertext.ok());
  auto decrypted = back->DecryptObject(*ciphertext);
  ASSERT_TRUE(decrypted.ok());
  EXPECT_EQ(*decrypted, object);
}

TEST(SecretKeyTest, FromPasswordIsDeterministic) {
  mindex::PivotSet pivots({VectorObject(0, {1.0f})});
  const Bytes salt = {1, 2, 3, 4};
  auto key1 = SecretKey::FromPassword(pivots, "hunter2", salt, 100);
  auto key2 = SecretKey::FromPassword(pivots, "hunter2", salt, 100);
  ASSERT_TRUE(key1.ok());
  ASSERT_TRUE(key2.ok());
  VectorObject object(1, {2.0f});
  auto ciphertext = key1->EncryptObject(object);
  ASSERT_TRUE(ciphertext.ok());
  auto decrypted = key2->DecryptObject(*ciphertext);
  ASSERT_TRUE(decrypted.ok());
  EXPECT_EQ(*decrypted, object);
}

TEST(SecretKeyTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(SecretKey::Deserialize(Bytes{1, 2, 3}).ok());
}

// ---------------------------------------------------- ConcaveTransform

class TransformPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TransformPropertyTest, MonotoneConcaveSubadditive) {
  auto transform = ConcaveTransform::FromSeed(GetParam(), 100.0, 32);
  ASSERT_TRUE(transform.ok());
  Rng rng(GetParam() * 31 + 7);
  EXPECT_DOUBLE_EQ(transform->Apply(0.0), 0.0);
  for (int iter = 0; iter < 200; ++iter) {
    const double x = rng.NextUniform(0.0, 300.0);  // also beyond domain
    const double y = rng.NextUniform(0.0, 300.0);
    // Strict monotonicity.
    if (x < y) {
      EXPECT_LT(transform->Apply(x), transform->Apply(y));
    }
    // Subadditivity: T(x+y) <= T(x) + T(y). This is the property every
    // server-side pruning rule relies on (see distance_transform.h).
    EXPECT_LE(transform->Apply(x + y),
              transform->Apply(x) + transform->Apply(y) + 1e-9);
    // The derived filtering bound: |T(x) - T(y)| <= T(|x - y|).
    EXPECT_LE(std::fabs(transform->Apply(x) - transform->Apply(y)),
              transform->Apply(std::fabs(x - y)) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(TransformTest, ValidatesArguments) {
  EXPECT_FALSE(ConcaveTransform::FromSeed(1, 0.0).ok());
  EXPECT_FALSE(ConcaveTransform::FromSeed(1, -5.0).ok());
  EXPECT_FALSE(ConcaveTransform::FromSeed(1, 10.0, 0).ok());
}

TEST(TransformTest, PreservesPermutations) {
  // Strictly increasing => the pivot permutation is unchanged.
  auto transform = ConcaveTransform::FromSeed(17, 50.0);
  ASSERT_TRUE(transform.ok());
  Rng rng(18);
  std::vector<float> distances(20);
  for (auto& d : distances) d = static_cast<float>(rng.NextUniform(0, 60));
  const auto before = mindex::DistancesToPermutation(distances);
  const auto after =
      mindex::DistancesToPermutation(transform->ApplyAll(distances));
  EXPECT_EQ(before, after);
}

// ---------------------------------------------------------------- Protocol

TEST(ProtocolTest, InsertRequestRoundTrip) {
  std::vector<InsertItem> items(2);
  items[0].id = 7;
  items[0].pivot_distances = {1.0f, 2.0f};
  items[0].payload = {9, 9, 9};
  items[1].id = 8;
  items[1].permutation = {1, 0};
  items[1].payload = {1};
  const Bytes encoded = EncodeInsertBatchRequest(items);
  auto request = DecodeRequest(encoded);
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->op, Op::kInsertBatch);
  ASSERT_EQ(request->insert_items.size(), 2u);
  EXPECT_EQ(request->insert_items[0].id, 7u);
  EXPECT_EQ(request->insert_items[0].pivot_distances,
            std::vector<float>({1.0f, 2.0f}));
  EXPECT_EQ(request->insert_items[1].permutation,
            mindex::Permutation({1, 0}));
}

TEST(ProtocolTest, SearchRequestsRoundTrip) {
  auto range = DecodeRequest(EncodeRangeSearchRequest({3.0f, 4.0f}, 2.5));
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->op, Op::kRangeSearch);
  ASSERT_EQ(range->range_queries.size(), 1u);
  EXPECT_EQ(range->range_queries[0].pivot_distances,
            std::vector<float>({3.0f, 4.0f}));
  EXPECT_DOUBLE_EQ(range->range_queries[0].radius, 2.5);

  mindex::QuerySignature signature;
  signature.permutation = {2, 0, 1};
  auto knn = DecodeRequest(EncodeApproxKnnRequest(signature, 150));
  ASSERT_TRUE(knn.ok());
  EXPECT_EQ(knn->op, Op::kApproxKnn);
  ASSERT_EQ(knn->knn_queries.size(), 1u);
  EXPECT_EQ(knn->knn_queries[0].signature.permutation,
            mindex::Permutation({2, 0, 1}));
  EXPECT_EQ(knn->knn_queries[0].cand_size, 150u);
}

TEST(ProtocolTest, DeleteRequestRoundTrip) {
  auto request = DecodeRequest(EncodeDeleteRequest(42, {3, 1, 0, 2}));
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->op, Op::kDelete);
  ASSERT_EQ(request->delete_items.size(), 1u);
  EXPECT_EQ(request->delete_items[0].id, 42u);
  EXPECT_EQ(request->delete_items[0].permutation,
            mindex::Permutation({3, 1, 0, 2}));
}

// A single query or delete opcode decodes into exactly the one-item
// vector its batch opcode decodes into; only `op` differs.
TEST(ProtocolTest, SingleOpcodesDecodeAsBatchesOfOne) {
  Rng rng(2207);
  auto random_distances = [&rng](size_t count) {
    std::vector<float> distances(count);
    for (float& d : distances) d = rng.NextFloat() * 100.0f;
    return distances;
  };
  auto random_permutation = [&rng](size_t count) {
    mindex::Permutation permutation(count);
    for (size_t i = 0; i < count; ++i) {
      permutation[i] = static_cast<uint32_t>(i);
    }
    rng.Shuffle(permutation);
    return permutation;
  };
  for (int trial = 0; trial < 50; ++trial) {
    const size_t pivots = 1 + rng.NextBounded(40);

    mindex::RangeQuery range{random_distances(pivots),
                             rng.NextUniform(0.0, 50.0)};
    auto single_range = DecodeRequest(
        EncodeRangeSearchRequest(range.pivot_distances, range.radius));
    auto batch_range = DecodeRequest(EncodeRangeSearchBatchRequest({range}));
    ASSERT_TRUE(single_range.ok() && batch_range.ok());
    EXPECT_EQ(single_range->op, Op::kRangeSearch);
    ASSERT_EQ(single_range->range_queries.size(), 1u);
    ASSERT_EQ(batch_range->range_queries.size(), 1u);
    EXPECT_EQ(single_range->range_queries[0].pivot_distances,
              batch_range->range_queries[0].pivot_distances);
    EXPECT_EQ(single_range->range_queries[0].radius,
              batch_range->range_queries[0].radius);
    EXPECT_EQ(single_range->range_queries[0].radius, range.radius);

    // With distances, permutation-only, and whole-cell (paper Table 9).
    mindex::KnnQuery knn;
    knn.signature.permutation = random_permutation(pivots);
    if (trial % 3 == 0) {
      knn.signature.pivot_distances = random_distances(pivots);
    }
    knn.signature.whole_cells = trial % 3 == 2;
    knn.cand_size = 1 + rng.NextBounded(1000);
    auto single_knn =
        DecodeRequest(EncodeApproxKnnRequest(knn.signature, knn.cand_size));
    auto batch_knn = DecodeRequest(EncodeApproxKnnBatchRequest({knn}));
    ASSERT_TRUE(single_knn.ok() && batch_knn.ok());
    EXPECT_EQ(single_knn->op, Op::kApproxKnn);
    ASSERT_EQ(single_knn->knn_queries.size(), 1u);
    ASSERT_EQ(batch_knn->knn_queries.size(), 1u);
    const mindex::KnnQuery& a = single_knn->knn_queries[0];
    const mindex::KnnQuery& b = batch_knn->knn_queries[0];
    EXPECT_EQ(a.signature.pivot_distances, b.signature.pivot_distances);
    EXPECT_EQ(a.signature.permutation, b.signature.permutation);
    EXPECT_EQ(a.signature.whole_cells, b.signature.whole_cells);
    EXPECT_EQ(a.cand_size, b.cand_size);
    EXPECT_EQ(a.signature.permutation, knn.signature.permutation);
    EXPECT_EQ(a.signature.whole_cells, knn.signature.whole_cells);

    const DeleteItem item{rng.NextU64(), random_permutation(pivots)};
    auto single_delete =
        DecodeRequest(EncodeDeleteRequest(item.id, item.permutation));
    auto batch_delete = DecodeRequest(EncodeDeleteBatchRequest({item}));
    ASSERT_TRUE(single_delete.ok() && batch_delete.ok());
    EXPECT_EQ(single_delete->op, Op::kDelete);
    ASSERT_EQ(single_delete->delete_items.size(), 1u);
    ASSERT_EQ(batch_delete->delete_items.size(), 1u);
    EXPECT_EQ(single_delete->delete_items[0].id,
              batch_delete->delete_items[0].id);
    EXPECT_EQ(single_delete->delete_items[0].permutation,
              batch_delete->delete_items[0].permutation);
    EXPECT_EQ(single_delete->delete_items[0].id, item.id);
  }
}

TEST(ProtocolTest, RejectsTruncatedRequests) {
  const Bytes full = EncodeDeleteRequest(42, {3, 1, 0, 2});
  for (size_t len = 1; len + 1 < full.size(); len += 3) {
    Bytes truncated(full.begin(), full.begin() + len);
    EXPECT_FALSE(DecodeRequest(truncated).ok()) << "length " << len;
  }
}

TEST(ProtocolTest, CandidateResponseRoundTrip) {
  mindex::CandidateList candidates(2);
  candidates[0] = {11, 0.5, Bytes{1, 2}};
  candidates[1] = {12, 1.5, Bytes{3}};
  mindex::SearchStats stats;
  stats.cells_visited = 3;
  stats.candidates = 2;
  const Bytes encoded = EncodeCandidateResponse(candidates, stats);
  auto response = DecodeCandidateResponse(encoded);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->stats.cells_visited, 3u);
  ASSERT_EQ(response->candidates.size(), 2u);
  EXPECT_EQ(response->candidates[0].id, 11u);
  EXPECT_DOUBLE_EQ(response->candidates[1].score, 1.5);
  EXPECT_EQ(response->candidates[1].payload, Bytes{3});
}

TEST(ProtocolTest, RejectsUnknownOpcode) {
  EXPECT_FALSE(DecodeRequest(Bytes{0xFD}).ok());
  EXPECT_FALSE(DecodeRequest(Bytes{}).ok());
}

// ------------------------------------------------- Client-server searches

TEST(EncryptedMIndexTest, InsertThenStats) {
  auto world = MakeSecureWorld();
  ASSERT_TRUE(world.client
                  ->InsertBulk(world.dataset.objects(),
                               InsertStrategy::kPrecise, 200)
                  .ok());
  auto stats = world.client->GetServerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->object_count, world.dataset.size());
  EXPECT_GT(stats->storage_bytes, 0u);
  EXPECT_GT(world.client->costs().encryption_nanos, 0);
  EXPECT_GT(world.client->costs().distance_nanos, 0);
  EXPECT_EQ(world.client->costs().objects_encrypted, world.dataset.size());
}

class SecureRangeTest : public ::testing::TestWithParam<bool> {};

TEST_P(SecureRangeTest, RangeSearchEqualsGroundTruth) {
  const bool with_transform = GetParam();
  auto world = MakeSecureWorld(10, 50, with_transform);
  ASSERT_TRUE(world.client
                  ->InsertBulk(world.dataset.objects(),
                               InsertStrategy::kPrecise, 500)
                  .ok());

  Rng rng(123);
  for (int iter = 0; iter < 8; ++iter) {
    const VectorObject& query =
        world.dataset.objects()[rng.NextBounded(world.dataset.size())];
    const double radius = rng.NextUniform(5.0, 60.0);
    const auto exact = metric::LinearRangeSearch(world.dataset, query, radius);

    auto answer = world.client->RangeSearch(query, radius);
    ASSERT_TRUE(answer.ok());
    ASSERT_EQ(answer->size(), exact.size())
        << "transform=" << with_transform << " radius=" << radius;
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ((*answer)[i].id, exact[i].id);
      EXPECT_NEAR((*answer)[i].distance, exact[i].distance, 1e-5);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PlainAndTransformed, SecureRangeTest,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "withTransform" : "plain";
                         });

TEST(EncryptedMIndexTest, ApproxKnnRecallIsHighWithGenerousCandidates) {
  auto world = MakeSecureWorld();
  ASSERT_TRUE(world.client
                  ->InsertBulk(world.dataset.objects(),
                               InsertStrategy::kPermutationOnly, 500)
                  .ok());
  Rng rng(321);
  double recall_total = 0;
  const int query_count = 10;
  for (int iter = 0; iter < query_count; ++iter) {
    const VectorObject& query =
        world.dataset.objects()[rng.NextBounded(world.dataset.size())];
    const auto exact = metric::LinearKnnSearch(world.dataset, query, 10);
    auto answer = world.client->ApproxKnn(query, 10, 300);
    ASSERT_TRUE(answer.ok());
    EXPECT_LE(answer->size(), 10u);
    recall_total += metric::RecallPercent(*answer, exact);
  }
  EXPECT_GT(recall_total / query_count, 80.0);
}

TEST(EncryptedMIndexTest, PreciseKnnEqualsGroundTruth) {
  auto world = MakeSecureWorld();
  ASSERT_TRUE(world.client
                  ->InsertBulk(world.dataset.objects(),
                               InsertStrategy::kPrecise, 500)
                  .ok());
  Rng rng(55);
  for (int iter = 0; iter < 6; ++iter) {
    const VectorObject& query =
        world.dataset.objects()[rng.NextBounded(world.dataset.size())];
    const auto exact = metric::LinearKnnSearch(world.dataset, query, 5);
    auto answer = world.client->PreciseKnn(query, 5);
    ASSERT_TRUE(answer.ok());
    ASSERT_EQ(answer->size(), exact.size());
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ((*answer)[i].id, exact[i].id);
    }
  }
}

TEST(EncryptedMIndexTest, SearchCostsArePopulated) {
  auto world = MakeSecureWorld();
  ASSERT_TRUE(world.client
                  ->InsertBulk(world.dataset.objects(),
                               InsertStrategy::kPermutationOnly, 500)
                  .ok());
  world.client->ResetCosts();
  world.transport->ResetCosts();

  auto answer =
      world.client->ApproxKnn(world.dataset.objects()[0], 5, 100);
  ASSERT_TRUE(answer.ok());
  const ClientCosts& costs = world.client->costs();
  EXPECT_GT(costs.decryption_nanos, 0);
  EXPECT_GT(costs.distance_nanos, 0);
  EXPECT_EQ(costs.candidates_decrypted, 100u);
  // 10 pivots + 100 candidate refinements.
  EXPECT_EQ(costs.distance_computations, 110u);
  EXPECT_GT(world.transport->costs().bytes_received, 100u * 16u)
      << "candidate ciphertexts dominate the response volume";

  // Every other accounted operation accounts the same way: one decryption
  // per candidate the server shipped, one distance per pivot and per
  // refinement. Early stop and range need stored pivot distances.
  auto precise = MakeSecureWorld();
  const auto& objects = precise.dataset.objects();
  ASSERT_TRUE(
      precise.client->InsertBulk(objects, InsertStrategy::kPrecise, 500).ok());
  RecordingTransport recorder(precise.transport.get());
  EncryptionClient client(precise.key, precise.dataset.distance(), &recorder);
  const uint64_t pivots = 10;
  const VectorObject& query = objects[0];
  const double radius =
      metric::LinearKnnSearch(precise.dataset, query, 30).back().distance;
  auto shipped = [&](size_t response) {
    auto decoded = DecodeCandidateResponse(recorder.responses.at(response));
    EXPECT_TRUE(decoded.ok());
    return static_cast<uint64_t>(decoded->candidates.size());
  };
  auto expect_accounted = [&](const char* op, uint64_t queries,
                              uint64_t decrypted, uint64_t refined) {
    EXPECT_GT(decrypted, 0u) << op;
    EXPECT_EQ(client.costs().candidates_decrypted, decrypted) << op;
    EXPECT_EQ(client.costs().distance_computations,
              queries * pivots + refined)
        << op;
    EXPECT_GE(client.costs().overhead_nanos, 0) << op;
    client.ResetCosts();
    recorder.responses.clear();
  };

  ASSERT_TRUE(client.RangeSearch(query, radius).ok());
  expect_accounted("RangeSearch", 1, shipped(0), shipped(0));

  ASSERT_TRUE(client.ApproxKnnSingleCell(query, 5).ok());
  expect_accounted("ApproxKnnSingleCell", 1, shipped(0), shipped(0));

  // Early stop decrypts a prefix of the ranked candidates and refines
  // each one it decrypts.
  ASSERT_TRUE(client.ApproxKnnEarlyStop(query, 5, 200).ok());
  const uint64_t early_decrypted = client.costs().candidates_decrypted;
  EXPECT_LE(early_decrypted, shipped(0));
  expect_accounted("ApproxKnnEarlyStop", 1, early_decrypted,
                   early_decrypted);

  // A batch decrypts each distinct payload of its dictionary once and
  // refines every per-query reference.
  ASSERT_TRUE(
      client.RangeSearchBatch({objects[0], objects[1], objects[0]}, radius)
          .ok());
  auto batch = DecodeBatchCandidateResponse(recorder.responses.at(0));
  ASSERT_TRUE(batch.ok());
  uint64_t refs = 0;
  for (const auto& per_query : batch->batch.per_query) {
    refs += per_query.size();
  }
  expect_accounted("RangeSearchBatch", 3, batch->batch.payloads.size(),
                   refs);

  // A cursor's open computes the pivot distances; each Next decrypts and
  // refines one page.
  auto cursor = client.OpenRangeCursor(query, radius, 8);
  ASSERT_TRUE(cursor.ok());
  while (!(*cursor)->exhausted()) {
    ASSERT_TRUE((*cursor)->Next().ok());
  }
  uint64_t paged = 0;
  for (const Bytes& response : recorder.responses) {
    auto page = DecodeCursorPage(response);
    ASSERT_TRUE(page.ok());
    paged += page->candidates.size();
  }
  EXPECT_GT(recorder.responses.size(), 1u);
  expect_accounted("cursor Next", 1, paged, paged);
}

// The single searches send exactly the request their query signature
// encodes: kRangeSearch with the (transformed) pivot distances and
// radius, kApproxKnn with the permutation, whole cells for the single
// cell, and the distances too for early stop. The benchmark's traced
// pass sends these same bytes and checks its answers against the client.
class ClientWireTest : public ::testing::TestWithParam<bool> {};

TEST_P(ClientWireTest, SingleSearchesSendTheirSignatureRequest) {
  const bool with_transform = GetParam();
  auto world = MakeSecureWorld(10, 50, with_transform);
  ASSERT_TRUE(world.client
                  ->InsertBulk(world.dataset.objects(),
                               InsertStrategy::kPrecise, 500)
                  .ok());
  RecordingTransport recorder(world.transport.get());
  EncryptionClient client(world.key, world.dataset.distance(), &recorder);

  const VectorObject& query = world.dataset.objects()[3];
  const double radius = 2.5;
  std::vector<float> distances =
      world.key.pivots().ComputeDistances(query, *world.dataset.distance());
  double sent_radius = radius;
  if (with_transform) {
    distances = world.key.transform().ApplyAll(distances);
    sent_radius = world.key.transform().Apply(radius);
  }
  mindex::QuerySignature ranked;
  ranked.permutation = mindex::DistancesToPermutation(distances);
  mindex::QuerySignature single_cell = ranked;
  single_cell.whole_cells = true;
  mindex::QuerySignature with_distances = ranked;
  with_distances.pivot_distances = distances;

  ASSERT_TRUE(client.RangeSearch(query, radius).ok());
  ASSERT_TRUE(client.ApproxKnn(query, 5, 60).ok());
  ASSERT_TRUE(client.ApproxKnnSingleCell(query, 5).ok());
  ASSERT_TRUE(client.ApproxKnnEarlyStop(query, 5, 60).ok());
  const std::vector<Bytes> expected = {
      EncodeRangeSearchRequest(distances, sent_radius),
      EncodeApproxKnnRequest(ranked, 60),
      EncodeApproxKnnRequest(single_cell, 1),
      EncodeApproxKnnRequest(with_distances, 60)};
  ASSERT_EQ(recorder.requests.size(), expected.size());
  const char* names[] = {"RangeSearch", "ApproxKnn", "ApproxKnnSingleCell",
                         "ApproxKnnEarlyStop"};
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(recorder.requests[i], expected[i]) << names[i];
  }
}

INSTANTIATE_TEST_SUITE_P(DistanceTransform, ClientWireTest,
                         ::testing::Bool());

// Every multi-object path spreads its per-object work over threads, one
// slot per object, so its requests are the serial loop's: ids, order,
// (transformed) pivot distances and permutations, at sizes on both sides
// of the parallel threshold (more than 8 objects run on more than one
// thread) and across bulks. Delete and batch-query requests are compared
// byte for byte; insert payloads carry random IVs, so they are decrypted
// back to their objects instead.
class BulkWireTest : public ::testing::TestWithParam<bool> {};

TEST_P(BulkWireTest, BulkRequestsAreTheSerialLoopsRequests) {
  const bool with_transform = GetParam();
  const size_t kBulk = 500;
  for (InsertStrategy strategy :
       {InsertStrategy::kPrecise, InsertStrategy::kPermutationOnly}) {
    auto world = MakeSecureWorld(10, 50, with_transform, 1001);
    RecordingTransport recorder(world.transport.get());
    EncryptionClient client(world.key, world.dataset.distance(), &recorder);
    const auto routing = [&](const VectorObject& object) {
      std::vector<float> distances = world.key.pivots().ComputeDistances(
          object, *world.dataset.distance());
      if (with_transform) distances = world.key.transform().ApplyAll(distances);
      return distances;
    };
    const auto serial_deletes = [&](std::span<const VectorObject> objects) {
      std::vector<DeleteItem> items;
      for (const VectorObject& object : objects) {
        items.push_back(DeleteItem{
            object.id(), mindex::DistancesToPermutation(routing(object))});
      }
      return EncodeDeleteBatchRequest(items);
    };

    for (size_t size : {1, 8, 9, 500, 1001}) {
      const bool precise = strategy == InsertStrategy::kPrecise;
      SCOPED_TRACE("size " + std::to_string(size) +
                   (precise ? " precise" : " permutation only"));
      const std::vector<VectorObject> objects(
          world.dataset.objects().begin(),
          world.dataset.objects().begin() + size);
      const std::span<const VectorObject> all(objects);
      const size_t bulks = (size + kBulk - 1) / kBulk;
      const auto bulk_of = [&](size_t b) {
        return all.subspan(b * kBulk, std::min(kBulk, size - b * kBulk));
      };

      recorder.requests.clear();
      ASSERT_TRUE(client.InsertBulk(objects, strategy, kBulk).ok());
      ASSERT_EQ(recorder.requests.size(), bulks);
      for (size_t b = 0; b < bulks; ++b) {
        auto request = DecodeRequest(recorder.requests[b]);
        ASSERT_TRUE(request.ok());
        const auto bulk = bulk_of(b);
        ASSERT_EQ(request->insert_items.size(), bulk.size());
        for (size_t i = 0; i < bulk.size(); ++i) {
          const InsertItem& item = request->insert_items[i];
          const std::vector<float> distances = routing(bulk[i]);
          EXPECT_EQ(item.id, bulk[i].id());
          if (precise) {
            EXPECT_EQ(item.pivot_distances, distances);
            EXPECT_TRUE(item.permutation.empty());
          } else {
            EXPECT_TRUE(item.pivot_distances.empty());
            EXPECT_EQ(item.permutation,
                      mindex::DistancesToPermutation(distances));
          }
          auto decrypted = world.key.DecryptObject(item.payload);
          ASSERT_TRUE(decrypted.ok());
          EXPECT_EQ(*decrypted, bulk[i]);
        }
      }

      // The batch queries' requests do not depend on the insert strategy.
      if (precise) {
        const double radius = 0.5;
        std::vector<mindex::RangeQuery> ranges;
        std::vector<mindex::KnnQuery> knns;
        for (const VectorObject& object : objects) {
          const std::vector<float> distances = routing(object);
          ranges.push_back(mindex::RangeQuery{
              distances, with_transform
                             ? world.key.transform().Apply(radius)
                             : radius});
          mindex::KnnQuery knn;
          knn.signature.permutation = mindex::DistancesToPermutation(distances);
          knn.cand_size = 5;
          knns.push_back(std::move(knn));
        }
        recorder.requests.clear();
        ASSERT_TRUE(client.RangeSearchBatch(objects, radius).ok());
        ASSERT_TRUE(client.ApproxKnnBatch(objects, 1, 5).ok());
        ASSERT_EQ(recorder.requests.size(), 2u);
        EXPECT_EQ(recorder.requests[0], EncodeRangeSearchBatchRequest(ranges));
        EXPECT_EQ(recorder.requests[1], EncodeApproxKnnBatchRequest(knns));
      }

      recorder.requests.clear();
      ASSERT_TRUE(client.DeleteBatch(objects, kBulk).ok());
      ASSERT_EQ(recorder.requests.size(), bulks);
      for (size_t b = 0; b < bulks; ++b) {
        EXPECT_EQ(recorder.requests[b], serial_deletes(bulk_of(b)));
      }

      ASSERT_TRUE(client.InsertBulk(objects, strategy, kBulk).ok());
      recorder.requests.clear();
      auto pending = client.SubmitDeleteBatch(objects);
      ASSERT_TRUE(pending.ok());
      ASSERT_TRUE(client.CollectDeleteBatch(&*pending).ok());
      ASSERT_EQ(recorder.requests.size(), 1u);
      EXPECT_EQ(recorder.requests[0], serial_deletes(all));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DistanceTransform, BulkWireTest, ::testing::Bool());

// DeleteBatch runs under an Op like InsertBulk: the request encoding, the
// permutation sorts and the response decode land in overhead_nanos.
TEST(EncryptedMIndexTest, DeleteBatchIsAccountedLikeInsertBulk) {
  auto world = MakeSecureWorld();
  const auto& objects = world.dataset.objects();
  ASSERT_TRUE(
      world.client->InsertBulk(objects, InsertStrategy::kPrecise, 500).ok());
  world.client->ResetCosts();

  const std::vector<VectorObject> victims(objects.begin(),
                                          objects.begin() + 50);
  ASSERT_TRUE(world.client->DeleteBatch(victims).ok());
  const ClientCosts& costs = world.client->costs();
  EXPECT_GT(costs.overhead_nanos, 0);
  EXPECT_GT(costs.distance_nanos, 0);
  EXPECT_EQ(costs.distance_computations, 50u * 10u);
  EXPECT_EQ(costs.objects_encrypted, 0u);
}

TEST(EncryptedMIndexTest, CandidateVolumeScalesWithCandSize) {
  auto world = MakeSecureWorld();
  ASSERT_TRUE(world.client
                  ->InsertBulk(world.dataset.objects(),
                               InsertStrategy::kPermutationOnly, 500)
                  .ok());
  world.transport->ResetCosts();
  ASSERT_TRUE(world.client->ApproxKnn(world.dataset.objects()[0], 5, 50).ok());
  const uint64_t volume_small = world.transport->costs().bytes_received;
  world.transport->ResetCosts();
  ASSERT_TRUE(
      world.client->ApproxKnn(world.dataset.objects()[0], 5, 400).ok());
  const uint64_t volume_large = world.transport->costs().bytes_received;
  EXPECT_GT(volume_large, volume_small * 6);
}

TEST(EncryptedMIndexTest, ValidatesQueryArguments) {
  auto world = MakeSecureWorld();
  ASSERT_TRUE(world.client
                  ->InsertBulk(world.dataset.objects(),
                               InsertStrategy::kPrecise, 500)
                  .ok());
  const VectorObject& query = world.dataset.objects()[0];
  EXPECT_FALSE(world.client->RangeSearch(query, -1.0).ok());
  EXPECT_FALSE(world.client->ApproxKnn(query, 0, 10).ok());
  EXPECT_FALSE(world.client->ApproxKnn(query, 20, 10).ok());
  EXPECT_FALSE(world.client->PreciseKnn(query, 0).ok());
}

// Distances arrive from the wire unchecked; a NaN must be refused before
// the server sorts them, and an insert batch keeps its accepted prefix.
TEST(EncryptedMIndexTest, RejectsNaNDistancesFromTheWire) {
  auto world = MakeSecureWorld();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<InsertItem> items(4);
  for (size_t i = 0; i < items.size(); ++i) {
    items[i].id = 100 + i;
    items[i].pivot_distances.assign(10, 1.0f + static_cast<float>(i));
    items[i].payload = Bytes(32, static_cast<uint8_t>(i));
  }
  items[2].pivot_distances[4] = nan;
  auto inserted = world.server->Handle(EncodeInsertBatchRequest(items));
  EXPECT_EQ(inserted.status().code(), StatusCode::kInvalidArgument)
      << inserted.status().ToString();
  EXPECT_EQ(world.server->index().size(), 2u);

  std::vector<float> query(10, 2.0f);
  query[9] = nan;
  EXPECT_EQ(world.server->Handle(EncodeRangeSearchRequest(query, 5.0))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  mindex::QuerySignature knn;
  knn.pivot_distances = query;
  EXPECT_EQ(world.server->Handle(EncodeApproxKnnRequest(knn, 5)).status().code(),
            StatusCode::kInvalidArgument);
  query[9] = 2.0f;
  EXPECT_EQ(world.server->Handle(EncodeRangeSearchRequest(query, nan))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  auto answered = world.server->Handle(EncodeRangeSearchRequest(query, 5.0));
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  EXPECT_EQ(DecodeCandidateResponse(*answered)->candidates.size(), 2u);
}

// Both client insert strategies leave entries whose permutation keeps no
// capacity beyond the server's stored prefix length.
TEST(EncryptedMIndexTest, StoredPrefixKeepsItsLengthUnderBothStrategies) {
  auto world = MakeSecureWorld();
  mindex::MIndexOptions options;
  options.num_pivots = 10;
  options.bucket_capacity = 50;
  options.max_level = 4;
  options.stored_prefix_length = 5;
  auto server = EncryptedMIndexServer::Create(options);
  ASSERT_TRUE(server.ok());
  net::LoopbackTransport transport(server->get());
  EncryptionClient client(world.key, world.dataset.distance(), &transport);
  const auto& objects = world.dataset.objects();
  const size_t half = objects.size() / 2;
  const std::vector<VectorObject> first(objects.begin(),
                                        objects.begin() + half);
  const std::vector<VectorObject> second(objects.begin() + half,
                                         objects.end());
  ASSERT_TRUE(client.InsertBulk(first, InsertStrategy::kPrecise, 100).ok());
  ASSERT_TRUE(
      client.InsertBulk(second, InsertStrategy::kPermutationOnly, 100).ok());
  size_t precise = 0;
  size_t permutation_only = 0;
  ASSERT_TRUE((*server)
                  ->index()
                  .ForEachEntry([&](const mindex::Entry& entry, const Bytes&) {
                    EXPECT_EQ(entry.permutation.size(), 5u);
                    EXPECT_EQ(entry.permutation.capacity(), 5u);
                    (entry.pivot_distances.empty() ? permutation_only
                                                   : precise)++;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(precise, half);
  EXPECT_EQ(permutation_only, objects.size() - half);
}

TEST(EncryptedMIndexTest, EarlyStopKnnMatchesFullRefinementAnswer) {
  auto world = MakeSecureWorld();
  ASSERT_TRUE(world.client
                  ->InsertBulk(world.dataset.objects(),
                               InsertStrategy::kPrecise, 500)
                  .ok());
  // With the candidate budget = whole collection, the candidate set is
  // everything, so the early-stop answer must equal exact ground truth.
  Rng rng(91);
  for (int iter = 0; iter < 5; ++iter) {
    const VectorObject& query =
        world.dataset.objects()[rng.NextBounded(world.dataset.size())];
    const size_t k = 10;
    const auto exact = metric::LinearKnnSearch(world.dataset, query, k);
    auto answer =
        world.client->ApproxKnnEarlyStop(query, k, world.dataset.size());
    ASSERT_TRUE(answer.ok());
    ASSERT_EQ(answer->size(), exact.size());
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ((*answer)[i].id, exact[i].id) << "iter " << iter;
    }
  }
}

TEST(EncryptedMIndexTest, EarlyStopDecryptsFewerCandidates) {
  auto world = MakeSecureWorld();
  ASSERT_TRUE(world.client
                  ->InsertBulk(world.dataset.objects(),
                               InsertStrategy::kPrecise, 500)
                  .ok());
  world.client->ResetCosts();
  const size_t cand_size = 400;
  const VectorObject& query = world.dataset.objects()[3];

  ASSERT_TRUE(world.client->ApproxKnn(query, 10, cand_size).ok());
  const uint64_t full_decrypted = world.client->costs().candidates_decrypted;
  world.client->ResetCosts();

  ASSERT_TRUE(world.client->ApproxKnnEarlyStop(query, 10, cand_size).ok());
  const uint64_t early_decrypted =
      world.client->costs().candidates_decrypted;

  EXPECT_EQ(full_decrypted, cand_size);
  EXPECT_LT(early_decrypted, full_decrypted)
      << "early stop should save decryptions on pre-ranked candidates";
}

TEST(EncryptedMIndexTest, EarlyStopSoundUnderDistanceTransform) {
  auto world = MakeSecureWorld(10, 50, /*with_transform=*/true);
  ASSERT_TRUE(world.client
                  ->InsertBulk(world.dataset.objects(),
                               InsertStrategy::kPrecise, 500)
                  .ok());
  const VectorObject& query = world.dataset.objects()[8];
  const size_t k = 5;
  const auto exact = metric::LinearKnnSearch(world.dataset, query, k);
  auto answer =
      world.client->ApproxKnnEarlyStop(query, k, world.dataset.size());
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->size(), exact.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ((*answer)[i].id, exact[i].id);
  }
}

TEST(EncryptedMIndexTest, DeleteRemovesObjectEndToEnd) {
  auto world = MakeSecureWorld();
  ASSERT_TRUE(world.client
                  ->InsertBulk(world.dataset.objects(),
                               InsertStrategy::kPrecise, 500)
                  .ok());
  const VectorObject& victim = world.dataset.objects()[42];

  auto before = world.client->RangeSearch(victim, 0.5);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(std::any_of(
      before->begin(), before->end(),
      [&](const metric::Neighbor& n) { return n.id == victim.id(); }));

  ASSERT_TRUE(world.client->Delete(victim).ok());
  auto after = world.client->RangeSearch(victim, 0.5);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(std::none_of(
      after->begin(), after->end(),
      [&](const metric::Neighbor& n) { return n.id == victim.id(); }));

  // Deleting again fails loudly — the server no longer has the object.
  EXPECT_FALSE(world.client->Delete(victim).ok());
}

TEST(EncryptedMIndexTest, DeleteWorksWithPermutationOnlyInserts) {
  auto world = MakeSecureWorld();
  ASSERT_TRUE(world.client
                  ->InsertBulk(world.dataset.objects(),
                               InsertStrategy::kPermutationOnly, 500)
                  .ok());
  const VectorObject& victim = world.dataset.objects()[10];
  ASSERT_TRUE(world.client->Delete(victim).ok());
  auto stats = world.client->GetServerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->object_count, world.dataset.size() - 1);
}

TEST(EncryptedMIndexTest, AuthenticatedPayloadsDetectServerTampering) {
  // Build a world whose key seals payloads with the AEAD; then corrupt
  // the candidate bytes "on the server" and verify the client refuses.
  auto pivots_objects = []() {
    data::MixtureOptions options;
    options.num_objects = 200;
    options.dimension = 6;
    options.num_clusters = 4;
    options.seed = 31;
    return data::MakeGaussianMixture(options);
  }();
  metric::Dataset dataset("tamper", pivots_objects,
                          std::make_shared<metric::L2Distance>());
  auto pivots = mindex::PivotSet::SelectRandom(dataset.objects(), 6, 32);
  ASSERT_TRUE(pivots.ok());
  auto key = SecretKey::Create(std::move(pivots).value(), Bytes(16, 0x77),
                               PayloadScheme::kAuthenticated);
  ASSERT_TRUE(key.ok());

  // Round trip through the key works.
  auto sealed = key->EncryptObject(dataset.objects()[0]);
  ASSERT_TRUE(sealed.ok());
  auto opened = key->DecryptObject(*sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->id(), dataset.objects()[0].id());

  // A tampered payload is rejected instead of decrypting to garbage.
  Bytes corrupted = *sealed;
  corrupted[corrupted.size() / 2] ^= 0x01;
  EXPECT_FALSE(key->DecryptObject(corrupted).ok());

  // End-to-end: search still returns correct results under the AEAD.
  mindex::MIndexOptions index_options;
  index_options.num_pivots = 6;
  index_options.bucket_capacity = 50;
  index_options.max_level = 3;
  auto server = EncryptedMIndexServer::Create(index_options);
  ASSERT_TRUE(server.ok());
  net::LoopbackTransport transport(server->get());
  EncryptionClient client(*key, dataset.distance(), &transport);
  ASSERT_TRUE(
      client.InsertBulk(dataset.objects(), InsertStrategy::kPrecise, 100)
          .ok());
  const VectorObject& query = dataset.objects()[5];
  const auto exact = metric::LinearKnnSearch(dataset, query, 5);
  auto answer = client.PreciseKnn(query, 5);
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->size(), exact.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ((*answer)[i].id, exact[i].id);
  }
}

TEST(SecretKeyTest, AuthenticatedSchemeSurvivesSerialization) {
  mindex::PivotSet pivots({VectorObject(0, {1.0f, 2.0f})});
  auto key = SecretKey::Create(pivots, Bytes(16, 3),
                               PayloadScheme::kAuthenticated);
  ASSERT_TRUE(key.ok());
  auto blob = key->Serialize();
  ASSERT_TRUE(blob.ok());
  auto restored = SecretKey::Deserialize(*blob);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->scheme(), PayloadScheme::kAuthenticated);

  // Cross-compatibility: a payload sealed by the original opens under the
  // restored key.
  VectorObject object(7, {3.0f, 4.0f});
  auto sealed = key->EncryptObject(object);
  ASSERT_TRUE(sealed.ok());
  auto opened = restored->DecryptObject(*sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->id(), 7u);
}

TEST(PrivacyTest, TaxonomyNamesAreStable) {
  EXPECT_STREQ(PrivacyLevelName(PrivacyLevel::kMsObjectEncryption),
               "ms-object-encryption");
  EXPECT_STREQ(PrivacyLevelName(PrivacyLevel::kDistributionHiding),
               "distribution-hiding");
  EXPECT_NE(std::string(AttackerView(PrivacyLevel::kMsObjectEncryption)),
            std::string(AttackerView(PrivacyLevel::kNoEncryption)));
}

}  // namespace
}  // namespace secure
}  // namespace simcloud
