// Ablation C: bucket capacity and storage backend (memory vs disk), on a
// CoPhIR-like subset. Justifies the paper's Table 2 choices (bucket 1000 +
// disk storage for the large set) by showing the cost of the extremes.

#include <cstdio>

#include "bench/bench_common.h"
#include "common/clock.h"

namespace simcloud {
namespace bench {
namespace {

void Run() {
  const size_t n = 20000;  // subset: this ablation studies shape, not scale
  const size_t k = 30;
  const size_t cand_size = 2000;

  std::printf("Ablation: bucket capacity x storage backend "
              "(CoPhIR-like n=%zu, approx %zu-NN, |SC|=%zu, 50 queries)\n",
              n, k, cand_size);
  std::printf("%10s  %8s  %12s  %12s  %14s  %12s  %12s\n", "storage",
              "bucket", "build[s]", "recall[%]", "server[ms]", "leaves",
              "depth");

  for (auto storage : {mindex::StorageKind::kMemory,
                       mindex::StorageKind::kDisk}) {
    for (size_t bucket : {100u, 1000u, 5000u}) {
      DatasetConfig config = MakeCophirConfig(n);
      config.index_options.bucket_capacity = bucket;
      config.index_options.storage_kind = storage;
      if (storage == mindex::StorageKind::kDisk) {
        config.index_options.disk_path =
            ScratchPath("ablation_" + std::to_string(bucket) + ".bin");
      }

      const auto queries = config.dataset.SampleQueries(50, 2024);
      const auto exact = ComputeGroundTruth(config.dataset, queries, k);

      Stopwatch build;
      SecureStack stack = BuildSecureStack(
          config, secure::InsertStrategy::kPermutationOnly, nullptr);
      const double build_s = build.ElapsedSeconds();

      CostRow row = RunSecureKnnWorkload(stack, queries, exact, k, cand_size);
      auto stats = stack.client->GetServerStats();
      std::printf("%10s  %8zu  %12.3f  %12.2f  %14.4f  %12llu  %12llu\n",
                  storage == mindex::StorageKind::kMemory ? "memory" : "disk",
                  bucket, build_s, row.recall_pct, row.server_s * 1e3,
                  stats.ok() ? static_cast<unsigned long long>(
                                   stats->leaf_count)
                             : 0ull,
                  stats.ok() ? static_cast<unsigned long long>(
                                   stats->max_depth)
                             : 0ull);
    }
  }
  std::printf(
      "\nExpected shapes: small buckets -> deeper tree, finer cells "
      "(higher recall at fixed |SC|) but more tree overhead; disk storage "
      "adds a modest server-time cost over memory at identical recall.\n");
}

}  // namespace
}  // namespace bench
}  // namespace simcloud

int main() {
  simcloud::bench::Run();
  return 0;
}
