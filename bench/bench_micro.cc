// Component microbenchmarks (google-benchmark): the primitive costs the
// paper's cost model is built from — AES encryption/decryption, SHA-256,
// distance functions, batched pivot distances, pivot-permutation
// computation, serialization, the client's bulk write path, and the
// server's share of a write round.

#include <benchmark/benchmark.h>

#include "common/clock.h"
#include "common/rng.h"
#include "common/scratch_dir.h"
#include "common/serialize.h"
#include "crypto/cipher.h"
#include "crypto/sha256.h"
#include "data/synthetic.h"
#include "metric/distance.h"
#include "mindex/permutation.h"
#include "mindex/pivot_set.h"
#include "net/transport.h"
#include "secure/client.h"
#include "secure/protocol.h"
#include "secure/server.h"

namespace simcloud {
namespace {

Bytes RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.NextBounded(256));
  return out;
}

void BM_AesCbcEncrypt(benchmark::State& state) {
  auto cipher =
      crypto::Cipher::Create(RandomBytes(16, 1), crypto::CipherMode::kCbc);
  const Bytes plaintext = RandomBytes(state.range(0), 2);
  const Bytes iv = RandomBytes(16, 3);
  for (auto _ : state) {
    auto ct = cipher->EncryptWithIv(plaintext, iv);
    benchmark::DoNotOptimize(ct);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesCbcEncrypt)->Arg(80)->Arg(1200)->Arg(16384);

void BM_AesCbcDecrypt(benchmark::State& state) {
  auto cipher =
      crypto::Cipher::Create(RandomBytes(16, 1), crypto::CipherMode::kCbc);
  const Bytes plaintext = RandomBytes(state.range(0), 2);
  const Bytes ciphertext = cipher->Encrypt(plaintext).value();
  for (auto _ : state) {
    auto pt = cipher->Decrypt(ciphertext);
    benchmark::DoNotOptimize(pt);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesCbcDecrypt)->Arg(80)->Arg(1200)->Arg(16384);

void BM_Sha256(benchmark::State& state) {
  const Bytes data = RandomBytes(state.range(0), 4);
  for (auto _ : state) {
    auto digest = crypto::Sha256::Hash(data);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(65536);

template <typename Distance>
void BM_Distance(benchmark::State& state) {
  Rng rng(5);
  std::vector<float> a(state.range(0)), b(state.range(0));
  for (auto& v : a) v = rng.NextFloat();
  for (auto& v : b) v = rng.NextFloat();
  metric::VectorObject oa(0, a), ob(1, b);
  Distance distance;
  for (auto _ : state) {
    benchmark::DoNotOptimize(distance.Distance(oa, ob));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_Distance, metric::L1Distance)->Arg(17)->Arg(96)->Arg(280);
BENCHMARK_TEMPLATE(BM_Distance, metric::L2Distance)->Arg(17)->Arg(96)->Arg(280);

void BM_CophirDistance(benchmark::State& state) {
  Rng rng(6);
  std::vector<float> a(280), b(280);
  for (auto& v : a) v = rng.NextFloat() * 255;
  for (auto& v : b) v = rng.NextFloat() * 255;
  metric::VectorObject oa(0, a), ob(1, b);
  auto distance = data::MakeCophirDistance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(distance->Distance(oa, ob));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CophirDistance);

// One object's pivot work on the client (Alg. 1 and 2): 100 CoPhIR
// pivots, 280-d, in one batched DistanceMany call.
void BM_PivotDistancesCophir(benchmark::State& state) {
  const metric::Dataset dataset = data::MakeCophirLike(200, 9);
  const mindex::PivotSet pivots =
      mindex::PivotSet::SelectRandom(dataset.objects(), 100, 10).value();
  const metric::VectorObject& object = dataset.objects()[0];
  for (auto _ : state) {
    auto distances = pivots.ComputeDistances(object, *dataset.distance());
    benchmark::DoNotOptimize(distances);
  }
  state.SetItemsProcessed(state.iterations() * pivots.size());
}
BENCHMARK(BM_PivotDistancesCophir);

// The client's bulk write path (Alg. 1 and its delete mirror): InsertBulk
// then DeleteBatch of 500 CoPhIR-like objects with 100 pivots, through
// LoopbackTransport to an in-memory server. `client_us_per_object` is the
// client's distance + encryption time per object written (an insert or a
// delete), the work the client spreads over its cores.
void BM_BulkWriteCophir(benchmark::State& state) {
  constexpr size_t kObjects = 500;
  constexpr size_t kPivots = 100;
  const metric::Dataset dataset = data::MakeCophirLike(kObjects, 11);
  auto key = secure::SecretKey::Create(
      mindex::PivotSet::SelectRandom(dataset.objects(), kPivots, 12).value(),
      RandomBytes(16, 13));
  mindex::MIndexOptions options;
  options.num_pivots = kPivots;
  auto server = secure::EncryptedMIndexServer::Create(options);
  if (!key.ok() || !server.ok()) {
    state.SkipWithError("cannot build the client/server stack");
    return;
  }
  net::LoopbackTransport transport(server->get());
  secure::EncryptionClient client(*key, dataset.distance(), &transport);
  for (auto _ : state) {
    if (!client
             .InsertBulk(dataset.objects(), secure::InsertStrategy::kPrecise,
                         kObjects)
             .ok() ||
        !client.DeleteBatch(dataset.objects(), kObjects).ok()) {
      state.SkipWithError("bulk write failed");
      return;
    }
  }
  const double written = 2.0 * kObjects * state.iterations();
  state.counters["client_us_per_object"] =
      (client.costs().distance_nanos + client.costs().encryption_nanos) /
      1e3 / written;
  state.SetItemsProcessed(static_cast<int64_t>(written));
}
BENCHMARK(BM_BulkWriteCophir)->Unit(benchmark::kMillisecond)->UseRealTime();

// The server's share of a churn write round (Alg. 1 on the server): one
// kInsertBatch of 500 CoPhIR-like objects (100 pivot distances, a
// 1.1 KB ciphertext-sized payload) and one kDeleteBatch of the 500 oldest,
// handled by an EncryptedMIndexServer over a 20,000-entry disk index with
// the paper's Table 2 CoPhIR options. Request encoding is paused out;
// `handle_us_per_object` is the handler time per object written.
void BM_ServerWriteCophir(benchmark::State& state) {
  constexpr size_t kLive = 20000;
  constexpr size_t kBulk = 500;
  constexpr size_t kPool = kLive + kBulk;
  constexpr size_t kPayloadBytes = 1136;
  const metric::Dataset dataset = data::MakeCophirLike(kPool, 14);
  const mindex::PivotSet pivots =
      mindex::PivotSet::SelectRandom(dataset.objects(), 100, 15).value();
  std::vector<std::vector<float>> distances(kPool);
  for (size_t i = 0; i < kPool; ++i) {
    distances[i] = pivots.ComputeDistances(dataset.objects()[i],
                                           *dataset.distance());
  }
  const ScratchDir dir;
  mindex::MIndexOptions options;
  options.num_pivots = 100;
  options.bucket_capacity = 1000;
  options.max_level = 8;
  options.storage_kind = mindex::StorageKind::kDisk;
  options.stored_prefix_length = 16;
  options.disk_path = dir.File("server_write.log");
  auto server = secure::EncryptedMIndexServer::Create(options);
  if (!server.ok()) {
    state.SkipWithError("cannot build the server");
    return;
  }
  // Pool slot i holds object i; the live window is [lo, lo + kLive).
  auto insert_request = [&](size_t first) {
    std::vector<secure::InsertItem> items(kBulk);
    for (size_t k = 0; k < kBulk; ++k) {
      const size_t slot = (first + k) % kPool;
      items[k].id = dataset.objects()[slot].id();
      items[k].pivot_distances = distances[slot];
      items[k].payload = RandomBytes(kPayloadBytes, slot);
    }
    return secure::EncodeInsertBatchRequest(items);
  };
  auto delete_request = [&](size_t first) {
    std::vector<secure::DeleteItem> items(kBulk);
    for (size_t k = 0; k < kBulk; ++k) {
      const size_t slot = (first + k) % kPool;
      items[k].id = dataset.objects()[slot].id();
      items[k].permutation = mindex::DistancesToPermutation(distances[slot]);
    }
    return secure::EncodeDeleteBatchRequest(items);
  };
  for (size_t first = 0; first < kLive; first += kBulk) {
    if (!(*server)->Handle(insert_request(first)).ok()) {
      state.SkipWithError("initial load failed");
      return;
    }
  }
  size_t lo = 0;
  int64_t handle_nanos = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const Bytes inserts = insert_request(lo + kLive);
    const Bytes deletes = delete_request(lo);
    state.ResumeTiming();
    Stopwatch watch;
    const bool ok = (*server)->Handle(inserts).ok() &&
                    (*server)->Handle(deletes).ok();
    handle_nanos += watch.ElapsedNanos();
    if (!ok) {
      state.SkipWithError("server write failed");
      return;
    }
    lo += kBulk;
  }
  const double written = 2.0 * kBulk * state.iterations();
  state.counters["handle_us_per_object"] = handle_nanos / 1e3 / written;
  state.SetItemsProcessed(static_cast<int64_t>(written));
}
BENCHMARK(BM_ServerWriteCophir)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_PivotPermutation(benchmark::State& state) {
  Rng rng(7);
  std::vector<float> distances(state.range(0));
  for (auto& d : distances) d = rng.NextFloat();
  for (auto _ : state) {
    auto perm = mindex::DistancesToPermutation(distances);
    benchmark::DoNotOptimize(perm);
  }
}
BENCHMARK(BM_PivotPermutation)->Arg(30)->Arg(50)->Arg(100);

void BM_PermutationPrefix(benchmark::State& state) {
  Rng rng(8);
  std::vector<float> distances(100);
  for (auto& d : distances) d = rng.NextFloat();
  for (auto _ : state) {
    auto perm =
        mindex::DistancesToPermutationPrefix(distances, state.range(0));
    benchmark::DoNotOptimize(perm);
  }
}
BENCHMARK(BM_PermutationPrefix)->Arg(8)->Arg(16);

void BM_ObjectSerialize(benchmark::State& state) {
  Rng rng(9);
  std::vector<float> values(state.range(0));
  for (auto& v : values) v = rng.NextFloat();
  metric::VectorObject object(123456, values);
  for (auto _ : state) {
    BinaryWriter writer;
    object.Serialize(&writer);
    benchmark::DoNotOptimize(writer.buffer());
  }
}
BENCHMARK(BM_ObjectSerialize)->Arg(17)->Arg(280);

}  // namespace
}  // namespace simcloud

BENCHMARK_MAIN();
