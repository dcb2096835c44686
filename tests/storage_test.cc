// Bucket storage tests: memory and disk backends must behave identically,
// including the free/dead-byte accounting compaction is built on, and the
// payload cache must never serve bytes for a freed (possibly recycled)
// handle.

#include <limits.h>  // IOV_MAX
#include <unistd.h>  // truncate

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <tuple>

#include "common/rng.h"
#include "common/scratch_dir.h"
#include "mindex/payload_cache.h"
#include "mindex/storage.h"
#include "obs/metrics.h"

namespace simcloud {
namespace mindex {
namespace {

class StorageTest : public ::testing::TestWithParam<StorageKind> {
 protected:
  void SetUp() override {
    auto storage = MakeStorage(GetParam(), dir_.File("storage.bin"));
    ASSERT_TRUE(storage.ok());
    storage_ = std::move(storage).value();
  }

  ScratchDir dir_;  // declared first: removed after the storage closes
  std::unique_ptr<BucketStorage> storage_;
};

TEST_P(StorageTest, StoreFetchRoundTrip) {
  Rng rng(1);
  std::vector<std::pair<PayloadHandle, Bytes>> stored;
  for (int i = 0; i < 100; ++i) {
    Bytes payload(rng.NextBounded(500));
    for (auto& b : payload) b = static_cast<uint8_t>(rng.NextBounded(256));
    auto handle = storage_->Store(payload);
    ASSERT_TRUE(handle.ok());
    stored.emplace_back(*handle, std::move(payload));
  }
  // Fetch in shuffled order.
  rng.Shuffle(stored);
  for (const auto& [handle, expected] : stored) {
    auto got = storage_->Fetch(handle);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, expected);
  }
}

TEST_P(StorageTest, EmptyPayloadIsAllowed) {
  auto handle = storage_->Store({});
  ASSERT_TRUE(handle.ok());
  auto got = storage_->Fetch(*handle);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
}

TEST_P(StorageTest, CountersTrackVolume) {
  EXPECT_EQ(storage_->TotalBytes(), 0u);
  EXPECT_EQ(storage_->Count(), 0u);
  ASSERT_TRUE(storage_->Store(Bytes(100)).ok());
  ASSERT_TRUE(storage_->Store(Bytes(50)).ok());
  EXPECT_EQ(storage_->TotalBytes(), 150u);
  EXPECT_EQ(storage_->Count(), 2u);
}

TEST_P(StorageTest, OutOfRangeHandleIsNotFound) {
  ASSERT_TRUE(storage_->Store(Bytes(10)).ok());
  auto got = storage_->Fetch(999);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
}

TEST_P(StorageTest, FreeMarksBytesDeadAndInvalidatesHandle) {
  auto h1 = storage_->Store(Bytes(100, 0xA1));
  auto h2 = storage_->Store(Bytes(60, 0xB2));
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  auto stats = storage_->GetCompactionStats();
  EXPECT_EQ(stats.live_bytes, 160u);
  EXPECT_EQ(stats.dead_bytes, 0u);
  EXPECT_EQ(stats.GarbageRatio(), 0.0);

  ASSERT_TRUE(storage_->Free(*h1).ok());
  stats = storage_->GetCompactionStats();
  EXPECT_EQ(stats.live_bytes, 60u);
  EXPECT_EQ(stats.dead_bytes, 100u);
  EXPECT_EQ(stats.live_payloads, 1u);
  EXPECT_EQ(stats.dead_payloads, 1u);
  EXPECT_NEAR(stats.GarbageRatio(), 100.0 / 160.0, 1e-9);
  // The log keeps the dead bytes until compaction; only Count shrinks.
  EXPECT_EQ(storage_->TotalBytes(), 160u);
  EXPECT_EQ(storage_->Count(), 1u);

  // A freed handle must not serve stale bytes — single or batched path.
  EXPECT_EQ(storage_->Fetch(*h1).status().code(), StatusCode::kNotFound);
  std::vector<Bytes> out;
  std::vector<PayloadHandle> handles = {*h1};
  EXPECT_EQ(storage_->FetchMany(handles, &out).code(),
            StatusCode::kNotFound);
  auto live = storage_->Fetch(*h2);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(*live, Bytes(60, 0xB2));

  // Double free and unknown handles are errors.
  EXPECT_FALSE(storage_->Free(*h1).ok());
  EXPECT_FALSE(storage_->Free(999).ok());
}

INSTANTIATE_TEST_SUITE_P(Backends, StorageTest,
                         ::testing::Values(StorageKind::kMemory,
                                           StorageKind::kDisk),
                         [](const auto& info) {
                           return info.param == StorageKind::kMemory
                                      ? "memory"
                                      : "disk";
                         });

// ------------------------------------------------------- read-plan builder

TEST(DiskReadPlanTest, MergesRunsAcrossSegmentBoundaries) {
  // Three payloads appended back to back straddling a kSegmentBytes
  // boundary: segments are accounting units, the log bytes stay
  // contiguous, so the plan must coalesce them into ONE run.
  const uint64_t boundary = DiskStorage::kSegmentBytes;
  std::vector<uint64_t> offsets = {boundary - 100, boundary - 50,
                                   boundary + 10};
  std::vector<uint32_t> lengths = {50, 60, 30};
  std::vector<PayloadHandle> handles = {0, 1, 2};
  const DiskReadPlan plan = BuildDiskReadPlan(handles, offsets, lengths);
  ASSERT_EQ(plan.runs.size(), 1u);
  EXPECT_EQ(plan.runs[0].offset, boundary - 100);
  EXPECT_EQ(plan.runs[0].length, 140u);
  EXPECT_EQ(plan.runs[0].first, 0u);
  EXPECT_EQ(plan.runs[0].count, 3u);
}

TEST(DiskReadPlanTest, SortsByOffsetAndSplitsAtGaps) {
  // Handles arrive out of order; payloads 2 and 0 are adjacent
  // (100..150..200), payload 1 sits past a gap.
  std::vector<uint64_t> offsets = {150, 400, 100};
  std::vector<uint32_t> lengths = {50, 25, 50};
  std::vector<PayloadHandle> handles = {0, 1, 2};
  const DiskReadPlan plan = BuildDiskReadPlan(handles, offsets, lengths);
  ASSERT_EQ(plan.runs.size(), 2u);
  EXPECT_EQ(plan.runs[0].offset, 100u);
  EXPECT_EQ(plan.runs[0].length, 100u);
  EXPECT_EQ(plan.runs[0].count, 2u);
  EXPECT_EQ(plan.runs[1].offset, 400u);
  EXPECT_EQ(plan.runs[1].length, 25u);
  EXPECT_EQ(plan.runs[1].count, 1u);
  // order = handle indices sorted by offset: 2 (100), 0 (150), 1 (400).
  ASSERT_EQ(plan.order.size(), 3u);
  EXPECT_EQ(plan.order[0], 2u);
  EXPECT_EQ(plan.order[1], 0u);
  EXPECT_EQ(plan.order[2], 1u);
}

TEST(DiskReadPlanTest, DuplicateHandlesGetTheirOwnRuns) {
  // The same payload requested twice: equal offsets are not adjacent,
  // so each request is its own run and both output slots get filled.
  std::vector<uint64_t> offsets = {100};
  std::vector<uint32_t> lengths = {40};
  std::vector<PayloadHandle> handles = {0, 0};
  const DiskReadPlan plan = BuildDiskReadPlan(handles, offsets, lengths);
  ASSERT_EQ(plan.runs.size(), 2u);
  EXPECT_EQ(plan.runs[0].offset, 100u);
  EXPECT_EQ(plan.runs[1].offset, 100u);
}

TEST(DiskStorageTest, FetchManyCoalescesAcrossSegmentBoundary) {
  // End-to-end cousin of MergesRunsAcrossSegmentBoundaries: payloads
  // sized so consecutive stores straddle segment boundaries, fetched in
  // one batch and compared byte for byte.
  const ScratchDir dir;
  auto created = DiskStorage::Create(dir.File("segplan.bin"));
  ASSERT_TRUE(created.ok());
  std::unique_ptr<DiskStorage> disk = std::move(created).value();
  Rng rng(7);
  const size_t payload_bytes = 40 * 1024;  // ~1.6 boundaries per pair
  std::vector<PayloadHandle> handles;
  std::vector<Bytes> expected;
  for (int i = 0; i < 8; ++i) {
    Bytes payload(payload_bytes);
    for (auto& b : payload) b = static_cast<uint8_t>(rng.NextBounded(256));
    auto handle = disk->Store(payload);
    ASSERT_TRUE(handle.ok());
    handles.push_back(handle.value_or(0));
    expected.push_back(std::move(payload));
  }
  std::vector<Bytes> fetched;
  ASSERT_TRUE(disk->FetchMany(handles, &fetched).ok());
  ASSERT_EQ(fetched.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(fetched[i], expected[i]) << "payload " << i;
  }
}

// FetchMany reads each run with preadv straight into the output buffers;
// these pin the executor's edge cases against a byte-for-byte oracle.
class DiskFetchManyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto created = DiskStorage::Create(dir_.File("fetchmany.bin"));
    ASSERT_TRUE(created.ok());
    disk_ = std::move(created).value();
  }

  // Appends one payload of `size` random bytes and records it.
  PayloadHandle StoreRandom(size_t size) {
    Bytes payload(size);
    for (auto& b : payload) b = static_cast<uint8_t>(rng_.NextBounded(256));
    auto handle = disk_->Store(payload);
    EXPECT_TRUE(handle.ok());
    expected_[handle.value_or(0)] = std::move(payload);
    return handle.value_or(0);
  }

  void ExpectFetched(const std::vector<PayloadHandle>& handles) {
    std::vector<Bytes> fetched;
    ASSERT_TRUE(disk_->FetchMany(handles, &fetched).ok());
    ASSERT_EQ(fetched.size(), handles.size());
    for (size_t i = 0; i < handles.size(); ++i) {
      EXPECT_EQ(fetched[i], expected_[handles[i]]) << "slot " << i;
    }
  }

  ScratchDir dir_;  // declared first: removed after the storage closes
  std::unique_ptr<DiskStorage> disk_;
  Rng rng_{11};
  std::map<PayloadHandle, Bytes> expected_;
};

TEST_F(DiskFetchManyTest, RunLongerThanIovMaxIsSplitIntoChunks) {
  // 2.5 IOV_MAX adjacent payloads form ONE plan run that crosses several
  // kSegmentBytes boundaries; the executor must chunk its iovecs.
  const size_t count = 5 * static_cast<size_t>(IOV_MAX) / 2;
  std::vector<PayloadHandle> handles;
  for (size_t i = 0; i < count; ++i) {
    handles.push_back(StoreRandom(1 + rng_.NextBounded(120)));
  }
  ASSERT_GT(disk_->TotalBytes(), 2 * DiskStorage::kSegmentBytes);
  rng_.Shuffle(handles);
  ExpectFetched(handles);
}

TEST_F(DiskFetchManyTest, RecordsOneRunCountPerCall) {
  std::vector<PayloadHandle> handles;
  for (int i = 0; i < 6; ++i) handles.push_back(StoreRandom(32));
  // Slots 0-1 and 4-5 are adjacent pairs; 2-3 are skipped: two runs.
  const std::vector<PayloadHandle> fetch = {handles[5], handles[0],
                                            handles[4], handles[1]};
  auto runs_count = [] {
    const obs::MetricsSnapshot snapshot = obs::Registry::Default().Snapshot();
    const obs::HistogramSnapshot* runs =
        snapshot.histogram("simcloud_payload_fetch_runs");
    return runs == nullptr ? std::pair<uint64_t, uint64_t>{0, 0}
                           : std::pair<uint64_t, uint64_t>{runs->count,
                                                           runs->sum};
  };
  ASSERT_TRUE(obs::MetricsEnabled());
  const auto before = runs_count();
  ExpectFetched(fetch);
  const auto after = runs_count();
  EXPECT_EQ(after.first - before.first, 1u);
  EXPECT_EQ(after.second - before.second, 2u);
}

TEST_F(DiskFetchManyTest, DuplicateHandlesFillEverySlot) {
  std::vector<PayloadHandle> handles;
  for (int i = 0; i < 5; ++i) handles.push_back(StoreRandom(200 + 10 * i));
  ExpectFetched({handles[1], handles[3], handles[1], handles[1], handles[4],
                 handles[3], handles[0]});
}

TEST_F(DiskFetchManyTest, ZeroLengthPayloadsInsideAndAroundRuns) {
  std::vector<PayloadHandle> handles;
  for (size_t size : {0, 5, 0, 0, 7, 0, 300, 0}) {
    handles.push_back(StoreRandom(size));
  }
  ExpectFetched(handles);
  ExpectFetched({handles[0], handles[3], handles[7]});  // all empty
  ExpectFetched({handles[6], handles[2], handles[2], handles[1]});
}

TEST_F(DiskFetchManyTest, TruncatedBackingFileIsCorruption) {
  std::vector<PayloadHandle> handles;
  for (int i = 0; i < 8; ++i) handles.push_back(StoreRandom(1000));
  // Cut the log in the middle of payload 5: one preadv covering the run
  // comes back short, and the payload-by-payload finish reports it.
  ASSERT_EQ(::truncate(disk_->path().c_str(), 5 * 1000 + 400), 0);
  std::vector<Bytes> fetched;
  const Status status = disk_->FetchMany(handles, &fetched);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  // Payloads wholly before the cut still read back intact.
  ExpectFetched({handles[0], handles[4]});
  EXPECT_EQ(disk_->FetchMany(std::vector<PayloadHandle>{handles[6]}, &fetched)
                .code(),
            StatusCode::kCorruption);
}

TEST(StorageFactoryTest, DiskRequiresPath) {
  EXPECT_FALSE(MakeStorage(StorageKind::kDisk, "").ok());
  EXPECT_TRUE(MakeStorage(StorageKind::kMemory, "").ok());
}

TEST(StorageFactoryTest, DiskRejectsUnwritablePath) {
  EXPECT_FALSE(
      MakeStorage(StorageKind::kDisk, "/nonexistent/dir/file.bin").ok());
}

TEST(DiskStorageTest, SegmentAccountingTracksDeadSegments) {
  const ScratchDir dir;
  auto storage = DiskStorage::Create(dir.File("segments.bin"));
  ASSERT_TRUE(storage.ok());
  // 40 KiB payloads against 64 KiB segments: payloads 0,1 start in
  // segment 0 (offsets 0 and 40 KiB), payloads 2,3 in segment 1.
  const size_t payload_size = 40 * 1024;
  std::vector<PayloadHandle> handles;
  for (int i = 0; i < 4; ++i) {
    auto handle = (*storage)->Store(Bytes(payload_size, 0x10 + i));
    ASSERT_TRUE(handle.ok());
    handles.push_back(*handle);
  }
  auto stats = (*storage)->GetCompactionStats();
  EXPECT_EQ(stats.segment_count, 2u);
  EXPECT_EQ(stats.dead_segments, 0u);

  // Freeing both payloads attributed to segment 0 kills that segment.
  ASSERT_TRUE((*storage)->Free(handles[0]).ok());
  stats = (*storage)->GetCompactionStats();
  EXPECT_EQ(stats.dead_segments, 0u);
  ASSERT_TRUE((*storage)->Free(handles[1]).ok());
  stats = (*storage)->GetCompactionStats();
  EXPECT_EQ(stats.dead_segments, 1u);
  EXPECT_EQ(stats.dead_bytes, 2 * payload_size);
}

TEST(DiskStorageTest, SegmentViewAndReleaseReclaimInPlace) {
  const ScratchDir dir;
  auto created = DiskStorage::Create(dir.File("seg_release.bin"));
  ASSERT_TRUE(created.ok());
  std::unique_ptr<DiskStorage> storage = std::move(created).value();

  // 3000-byte payloads: ~21 per 64 KiB segment, spanning 3+ segments.
  const size_t payload_size = 3000;
  const size_t count = 50;
  for (size_t i = 0; i < count; ++i) {
    ASSERT_TRUE(
        storage->Store(Bytes(payload_size, static_cast<uint8_t>(i))).ok());
  }

  // The segment iteration API: every live handle reports its segment,
  // and the view marks only the tail segment unsealed.
  std::vector<PayloadHandle> segment0;
  uint64_t last_segment = 0;
  ASSERT_TRUE(storage
                  ->ForEachLiveHandle([&](PayloadHandle handle,
                                          uint64_t segment, uint32_t bytes) {
                    EXPECT_EQ(bytes, payload_size);
                    if (segment == 0) segment0.push_back(handle);
                    last_segment = std::max(last_segment, segment);
                  })
                  .ok());
  ASSERT_GE(last_segment, 2u);
  ASSERT_FALSE(segment0.empty());
  for (const auto& view : storage->Segments()) {
    EXPECT_EQ(view.sealed, view.segment != last_segment)
        << "segment " << view.segment;
  }

  // Releasing needs the segment fully dead and sealed.
  EXPECT_EQ(storage->ReleaseDeadSegments({0}).status().code(),
            StatusCode::kFailedPrecondition);
  for (PayloadHandle handle : segment0) {
    ASSERT_TRUE(storage->Free(handle).ok());
  }
  EXPECT_EQ(storage->ReleaseDeadSegments({last_segment}).status().code(),
            StatusCode::kFailedPrecondition)
      << "the append segment must not be releasable";

  const auto before = storage->GetCompactionStats();
  auto released = storage->ReleaseDeadSegments({0});
  ASSERT_TRUE(released.ok()) << released.status().ToString();
  EXPECT_EQ(*released, segment0.size() * payload_size);

  // The accounting dropped the whole segment: bytes, dead bytes, counts.
  const auto after = storage->GetCompactionStats();
  EXPECT_EQ(after.dead_bytes, 0u);
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  EXPECT_EQ(storage->TotalBytes(), before.TotalBytes() - *released);
  EXPECT_EQ(storage->Count(), count - segment0.size());
  EXPECT_EQ(after.segment_count, before.segment_count - 1);

  // Released handles stay invalid; stores and fetches keep working, and
  // a released segment cannot be released twice.
  EXPECT_EQ(storage->Fetch(segment0[0]).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(storage->ReleaseDeadSegments({0}).status().code(),
            StatusCode::kFailedPrecondition);
  auto fresh = storage->Store(Bytes(64, 0xEE));
  ASSERT_TRUE(fresh.ok());
  auto fetched = storage->Fetch(*fresh);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(*fetched, Bytes(64, 0xEE));
}

// Backend that recycles freed handle slots — the shape a compacted log
// presents to the cache layer. Without cache eviction on Free, a
// deleted-then-reinserted object would be served the PREVIOUS occupant's
// bytes from the cache.
class RecyclingStorage : public BucketStorage {
 public:
  Status StoreBatch(std::span<const PayloadView> payloads,
                    std::vector<PayloadHandle>* handles) override {
    handles->clear();
    for (PayloadView payload : payloads) {
      if (!free_slots_.empty()) {
        handles->push_back(free_slots_.back());
        free_slots_.pop_back();
        payloads_[handles->back()].assign(payload.begin(), payload.end());
        continue;
      }
      handles->push_back(payloads_.size());
      payloads_.emplace_back(payload.begin(), payload.end());
    }
    return Status::OK();
  }
  Result<Bytes> Fetch(PayloadHandle handle) const override {
    if (handle >= payloads_.size()) return Status::NotFound("bad handle");
    return payloads_[handle];
  }
  Status Free(PayloadHandle handle) override {
    if (handle >= payloads_.size()) return Status::NotFound("bad handle");
    free_slots_.push_back(handle);
    return Status::OK();
  }
  CompactionStats GetCompactionStats() const override { return {}; }
  uint64_t TotalBytes() const override { return 0; }
  uint64_t Count() const override { return payloads_.size(); }
  std::string Name() const override { return "recycling"; }

 private:
  std::vector<Bytes> payloads_;
  std::vector<PayloadHandle> free_slots_;
};

TEST(PayloadCacheTest, FreeEvictsSoRecycledHandleNeverServesStaleBytes) {
  PayloadCache cache(std::make_unique<RecyclingStorage>(), 1 << 20);
  auto handle = cache.Store(Bytes(64, 0xAA));
  ASSERT_TRUE(handle.ok());
  auto first = cache.Fetch(*handle);  // populates the cache
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(cache.Contains(*handle));

  ASSERT_TRUE(cache.Free(*handle).ok());
  EXPECT_FALSE(cache.Contains(*handle));

  // The backend recycles the slot for a different payload; the cache must
  // serve the new bytes, not the stale ciphertext.
  auto reused = cache.Store(Bytes(64, 0xBB));
  ASSERT_TRUE(reused.ok());
  ASSERT_EQ(*reused, *handle) << "test premise: the handle is recycled";
  auto got = cache.Fetch(*reused);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, Bytes(64, 0xBB));
}

TEST(PayloadCacheTest, FreeEvictsOverRealBackendToo) {
  PayloadCache cache(std::make_unique<MemoryStorage>(), 1 << 20);
  auto handle = cache.Store(Bytes(32, 0xCD));
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(cache.Fetch(*handle).ok());
  ASSERT_TRUE(cache.Free(*handle).ok());
  // Without the eviction the cache would answer the freed handle.
  EXPECT_EQ(cache.Fetch(*handle).status().code(), StatusCode::kNotFound);
}

TEST(PayloadCacheTest, ClearAndAdmitRebuildTheHotSet) {
  PayloadCache cache(std::make_unique<MemoryStorage>(), 1 << 20);
  auto handle = cache.Store(Bytes(16, 0x01));
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(cache.Fetch(*handle).ok());
  EXPECT_GT(cache.stats().cached_payloads, 0u);
  cache.Clear();
  EXPECT_EQ(cache.stats().cached_payloads, 0u);
  EXPECT_EQ(cache.stats().cached_bytes, 0u);
  cache.Admit(*handle, Bytes(16, 0x01));
  EXPECT_TRUE(cache.Contains(*handle));
}

// The batch append is the one write path: it must leave the same handles,
// segment accounting and log bytes as storing the payloads one at a time,
// across several IOV_MAX-sized pwritev chunks and with empty payloads.
Bytes ReadWholeFile(const std::string& path) {
  Bytes bytes;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return bytes;
  uint8_t buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    bytes.insert(bytes.end(), buffer, buffer + n);
  }
  std::fclose(file);
  return bytes;
}

std::vector<Bytes> RandomPayloads(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Bytes> payloads(count);
  for (Bytes& payload : payloads) {
    // One in five is empty; the rest straddle segment boundaries often.
    payload.resize(rng.NextBounded(5) == 0 ? 0 : rng.NextBounded(300));
    for (auto& b : payload) b = static_cast<uint8_t>(rng.NextBounded(256));
  }
  return payloads;
}

TEST(StoreBatchTest, DiskBatchEqualsPerPayloadStores) {
  const ScratchDir dir;
  const std::vector<Bytes> payloads =
      RandomPayloads(2 * static_cast<size_t>(IOV_MAX) + 300, 41);
  auto batched = DiskStorage::Create(dir.File("batched.bin"));
  auto single = DiskStorage::Create(dir.File("single.bin"));
  ASSERT_TRUE(batched.ok() && single.ok());

  // Two batches, so the second starts mid-segment at a nonzero offset.
  const size_t split = 700;
  const std::vector<PayloadView> views(payloads.begin(), payloads.end());
  std::vector<PayloadHandle> first;
  std::vector<PayloadHandle> second;
  ASSERT_TRUE((*batched)
                  ->StoreBatch(std::span(views).first(split), &first)
                  .ok());
  ASSERT_TRUE((*batched)
                  ->StoreBatch(std::span(views).subspan(split), &second)
                  .ok());
  ASSERT_EQ(first.size(), split);
  ASSERT_EQ(second.size(), payloads.size() - split);
  first.insert(first.end(), second.begin(), second.end());

  Bytes expected_log;
  for (size_t i = 0; i < payloads.size(); ++i) {
    auto handle = (*single)->Store(payloads[i]);
    ASSERT_TRUE(handle.ok());
    EXPECT_EQ(first[i], *handle) << "payload " << i;
    expected_log.insert(expected_log.end(), payloads[i].begin(),
                        payloads[i].end());
  }
  EXPECT_EQ(ReadWholeFile((*batched)->path()), expected_log);
  EXPECT_EQ(ReadWholeFile((*single)->path()), expected_log);

  // Offsets: a handle's bytes are where the per-payload loop put them.
  std::vector<Bytes> fetched;
  ASSERT_TRUE((*batched)->FetchMany(first, &fetched).ok());
  EXPECT_EQ(fetched, payloads);
  auto segments = [](const DiskStorage& disk) {
    std::vector<std::tuple<uint64_t, uint64_t, uint64_t, bool>> out;
    for (const auto& view : disk.Segments()) {
      out.emplace_back(view.segment, view.bytes, view.dead_bytes, view.sealed);
    }
    return out;
  };
  EXPECT_EQ(segments(**batched), segments(**single));
  std::vector<std::tuple<PayloadHandle, uint64_t, uint32_t>> live_batched;
  std::vector<std::tuple<PayloadHandle, uint64_t, uint32_t>> live_single;
  ASSERT_TRUE((*batched)
                  ->ForEachLiveHandle([&](PayloadHandle h, uint64_t seg,
                                          uint32_t bytes) {
                    live_batched.emplace_back(h, seg, bytes);
                  })
                  .ok());
  ASSERT_TRUE((*single)
                  ->ForEachLiveHandle([&](PayloadHandle h, uint64_t seg,
                                          uint32_t bytes) {
                    live_single.emplace_back(h, seg, bytes);
                  })
                  .ok());
  EXPECT_EQ(live_batched, live_single);
  EXPECT_EQ((*batched)->TotalBytes(), expected_log.size());
  EXPECT_EQ((*batched)->Count(), payloads.size());
}

TEST(StoreBatchTest, EmptyPayloadsAndEmptyBatches) {
  const ScratchDir dir;
  auto disk = DiskStorage::Create(dir.File("empty.bin"));
  ASSERT_TRUE(disk.ok());
  std::vector<PayloadHandle> handles = {99};
  ASSERT_TRUE((*disk)->StoreBatch({}, &handles).ok());
  EXPECT_TRUE(handles.empty());
  const std::vector<Bytes> payloads = {{}, {}, {1, 2, 3}, {}};
  const std::vector<PayloadView> views(payloads.begin(), payloads.end());
  ASSERT_TRUE((*disk)->StoreBatch(views, &handles).ok());
  EXPECT_EQ(handles, (std::vector<PayloadHandle>{0, 1, 2, 3}));
  for (size_t i = 0; i < payloads.size(); ++i) {
    auto fetched = (*disk)->Fetch(handles[i]);
    ASSERT_TRUE(fetched.ok());
    EXPECT_EQ(*fetched, payloads[i]);
  }
  EXPECT_EQ(ReadWholeFile((*disk)->path()), (Bytes{1, 2, 3}));
}

TEST(StoreBatchTest, ClosedDiskStoreIssuesNoHandle) {
  const ScratchDir dir;
  auto disk = DiskStorage::Create(dir.File("closed.bin"));
  ASSERT_TRUE(disk.ok());
  ASSERT_TRUE((*disk)->Store(Bytes(10, 0x11)).ok());
  ASSERT_TRUE((*disk)->Close().ok());
  const std::vector<Bytes> payloads = {Bytes(5, 0x22), Bytes(7, 0x33)};
  const std::vector<PayloadView> views(payloads.begin(), payloads.end());
  std::vector<PayloadHandle> handles = {42};
  const Status status = (*disk)->StoreBatch(views, &handles);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.ToString();
  EXPECT_TRUE(handles.empty());
  EXPECT_EQ((*disk)->Count(), 1u);
  EXPECT_EQ((*disk)->TotalBytes(), 10u);
  EXPECT_EQ((*disk)->Store(payloads[0]).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(StoreBatchTest, MemoryBatchEqualsPerPayloadStores) {
  const std::vector<Bytes> payloads = RandomPayloads(500, 43);
  const std::vector<PayloadView> views(payloads.begin(), payloads.end());
  MemoryStorage batched;
  MemoryStorage single;
  std::vector<PayloadHandle> handles;
  ASSERT_TRUE(batched.StoreBatch(views, &handles).ok());
  ASSERT_EQ(handles.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    auto handle = single.Store(payloads[i]);
    ASSERT_TRUE(handle.ok());
    EXPECT_EQ(handles[i], *handle);
  }
  std::vector<Bytes> fetched;
  ASSERT_TRUE(batched.FetchMany(handles, &fetched).ok());
  EXPECT_EQ(fetched, payloads);
  EXPECT_EQ(batched.TotalBytes(), single.TotalBytes());
  EXPECT_EQ(batched.Count(), single.Count());
}

TEST(StorageTest, NamesIdentifyBackend) {
  auto mem = MakeStorage(StorageKind::kMemory, "");
  ASSERT_TRUE(mem.ok());
  EXPECT_EQ((*mem)->Name(), "memory");
  const ScratchDir dir;
  auto disk = MakeStorage(StorageKind::kDisk, dir.File("named.bin"));
  ASSERT_TRUE(disk.ok());
  EXPECT_EQ((*disk)->Name(), "disk");
}

}  // namespace
}  // namespace mindex
}  // namespace simcloud
