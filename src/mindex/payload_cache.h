// Sharded LRU payload cache: a BucketStorage decorator that keeps hot
// payload bytes in memory so repeated candidate materialization skips the
// backing store entirely.
//
// The paper's disk configuration (CoPhIR, Table 2) pays one storage read
// per candidate per query; under a skewed query load the same buckets are
// materialized over and over. The cache sits between the index and the
// backend (enabled via MIndexOptions::cache_bytes), shards its LRU state
// by handle so concurrent searches do not serialize on one lock, and
// answers FetchMany by splitting the batch into cache hits and one
// FetchMany call to the backend for the misses.

#ifndef SIMCLOUD_MINDEX_PAYLOAD_CACHE_H_
#define SIMCLOUD_MINDEX_PAYLOAD_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mindex/storage.h"

namespace simcloud {
namespace mindex {

/// LRU decorator over any BucketStorage. Stores pass through uncached;
/// fetches populate the cache. Thread-safe for concurrent fetches.
class PayloadCache : public BucketStorage {
 public:
  /// Cache-effectiveness counters, aggregated over all shards.
  struct CacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t cached_bytes = 0;
    uint64_t cached_payloads = 0;
  };

  /// Approximate bookkeeping cost per cached entry (list node + map slot
  /// + Bytes header), charged against the budget alongside the payload
  /// bytes so many tiny payloads cannot blow past `capacity_bytes`.
  static constexpr uint64_t kEntryOverhead = 96;

  /// `capacity_bytes` is the total memory budget (payload bytes plus
  /// kEntryOverhead per entry) across `num_shards` independent LRU
  /// shards; payloads larger than one shard's budget are served but
  /// never cached.
  PayloadCache(std::unique_ptr<BucketStorage> base, uint64_t capacity_bytes,
               size_t num_shards = 16);

  Status StoreBatch(std::span<const PayloadView> payloads,
                    std::vector<PayloadHandle>* handles) override {
    return base_->StoreBatch(payloads, handles);
  }
  Result<Bytes> Fetch(PayloadHandle handle) const override;
  Status FetchMany(std::span<const PayloadHandle> handles,
                   std::vector<Bytes>* out) const override;
  /// Evicts the handle from the cache BEFORE forwarding to the backend —
  /// a backend whose compaction reuses freed handles must never see a
  /// stale ciphertext served under the recycled handle.
  Status Free(PayloadHandle handle) override;
  CompactionStats GetCompactionStats() const override {
    return base_->GetCompactionStats();
  }
  bool IsLive(PayloadHandle handle) const override {
    return base_->IsLive(handle);
  }
  std::vector<SegmentView> Segments() const override {
    return base_->Segments();
  }
  Status ForEachLiveHandle(
      const std::function<void(PayloadHandle, uint64_t, uint32_t)>& fn)
      const override {
    return base_->ForEachLiveHandle(fn);
  }
  bool SupportsSegmentRelease() const override {
    return base_->SupportsSegmentRelease();
  }
  Result<uint64_t> ReleaseDeadSegments(
      const std::vector<uint64_t>& segments) override {
    return base_->ReleaseDeadSegments(segments);
  }
  uint64_t DeadBytes() const override { return base_->DeadBytes(); }
  uint64_t TotalBytes() const override { return base_->TotalBytes(); }
  uint64_t Count() const override { return base_->Count(); }
  std::string Name() const override { return base_->Name() + "+cache"; }

  /// True if `handle` is currently cached (does not touch LRU recency —
  /// the compactor probes the hot set without perturbing it).
  bool Contains(PayloadHandle handle) const;

  /// Every currently cached handle, most-recently-used first within each
  /// shard (shards concatenated). The compactor snapshots the hot set
  /// with this before clearing the cache, and re-admits in reverse so
  /// per-shard recency survives the rebuild.
  std::vector<PayloadHandle> HotHandles() const;

  /// Caches `payload` under `handle` without consulting the backend (the
  /// compactor re-admits the pre-compaction hot set under the remapped
  /// handles). Subject to the normal budget/eviction rules.
  void Admit(PayloadHandle handle, const Bytes& payload) { Insert(handle, payload); }

  /// Drops every cached entry (hit/miss counters are kept).
  void Clear();

  CacheStats stats() const;
  uint64_t capacity_bytes() const { return shard_capacity_ * shards_.size(); }
  const BucketStorage& base() const { return *base_; }

 private:
  /// Payloads are held behind shared_ptr so a hit copies a pointer under
  /// the shard lock and the (potentially large) byte copy happens outside
  /// it — concurrent readers of a hot shard serialize only on the splice.
  using Entry = std::pair<PayloadHandle, std::shared_ptr<const Bytes>>;

  struct Shard {
    mutable std::mutex mutex;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<PayloadHandle, std::list<Entry>::iterator> index;
    uint64_t bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  Shard& ShardFor(PayloadHandle handle) const {
    return shards_[handle % shards_.size()];
  }
  /// Looks up `handle`, moving it to the LRU front on hit.
  bool Lookup(PayloadHandle handle, Bytes* out) const;
  /// Inserts a fetched payload, evicting from the tail to fit.
  void Insert(PayloadHandle handle, const Bytes& payload) const;

  std::unique_ptr<BucketStorage> base_;
  uint64_t shard_capacity_;
  mutable std::vector<Shard> shards_;
};

}  // namespace mindex
}  // namespace simcloud

#endif  // SIMCLOUD_MINDEX_PAYLOAD_CACHE_H_
