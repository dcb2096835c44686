// Bucket storage tests: memory and disk backends must behave identically,
// including the free/dead-byte accounting compaction is built on, and the
// payload cache must never serve bytes for a freed (possibly recycled)
// handle.

#include <gtest/gtest.h>


#include "common/rng.h"
#include "common/scratch_dir.h"
#include "mindex/payload_cache.h"
#include "mindex/storage.h"

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
  Result<PayloadHandle> Store(const Bytes& payload) override {
    if (!free_slots_.empty()) {
      const PayloadHandle handle = free_slots_.back();
      free_slots_.pop_back();
      payloads_[handle] = payload;
      return handle;
    }
    payloads_.push_back(payload);
    return static_cast<PayloadHandle>(payloads_.size() - 1);
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
