// Pluggable payload storage for index buckets.
//
// The paper's Table 2 configures memory storage for YEAST/HUMAN and disk
// storage for CoPhIR; we mirror that with MemoryStorage and an
// append-only-file DiskStorage behind a common interface. The index tree
// keeps routing metadata (permutations / pivot distances) in memory and
// stores opaque payload bytes — serialized plaintext objects for the plain
// M-Index, AES ciphertexts for the Encrypted M-Index — in a BucketStorage.
//
// Batched reads: FetchMany retrieves a whole candidate set in one call.
// DiskStorage sorts the handles by file offset and reads each run of
// byte-adjacent payloads with one preadv(2) straight into the payloads'
// buffers; MemoryStorage copies everything in one pass. Runs are long
// because MIndex::InsertBatch appends each insert batch in cell order, so
// the candidates of one leaf cell sit together in the log. A sharded LRU
// decorator (payload_cache.h) adds an in-memory hot set on top of either
// backend.
//
// Batched writes: StoreBatch appends a whole batch of payloads in order,
// and it is the one store a backend implements. DiskStorage writes the
// batch with one pwritev(2) per IOV_MAX payloads and issues a handle only
// for a payload whose bytes all reached the log; MemoryStorage copies the
// batch in one pass. Store(payload) is a batch of one. MIndex::InsertBatch
// appends each insert batch with one call, and the compactor relocates
// each step's payloads with one call.
//
// Deletes and compaction: both backends are append-only logs — a payload,
// once stored, is never rewritten in place. Free(handle) marks a payload
// dead; the bytes stay in the log (TotalBytes does not shrink) but the
// live/dead accounting, kept per fixed-size log segment for DiskStorage,
// is exposed via CompactionStats so a compactor (compactor.h) can decide
// when rewriting the live payloads into a fresh log pays off.

#ifndef SIMCLOUD_MINDEX_STORAGE_H_
#define SIMCLOUD_MINDEX_STORAGE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace simcloud {
namespace mindex {

/// Handle to a stored payload.
using PayloadHandle = uint64_t;

/// The bytes of one payload to store; it need not be owned by a Bytes.
using PayloadView = std::span<const uint8_t>;

/// One coalesced disk read: `count` payloads that sit contiguously in the
/// log, covering plan.order[first .. first+count).
struct DiskReadRun {
  uint64_t offset = 0;  ///< file offset of the first payload
  uint64_t length = 0;  ///< total bytes across the coalesced payloads
  size_t first = 0;     ///< index into DiskReadPlan::order
  size_t count = 0;
};

/// The coalesced read schedule DiskStorage::FetchMany executes. `order`
/// lists handle indices sorted by file offset; `runs` merges payloads that
/// are byte-adjacent in the log. Adjacency comes from the write side:
/// MIndex::InsertBatch stores each batch in permutation-prefix (cell)
/// order, so one cell's entries from one batch form one run. Runs merge
/// across kSegmentBytes boundaries — segments are an accounting notion,
/// the log bytes stay contiguous.
struct DiskReadPlan {
  std::vector<size_t> order;
  std::vector<DiskReadRun> runs;
};

/// Builds the plan for fetching `handles`, where `offsets[h]`/`lengths[h]`
/// locate payload `h` in the log. Exposed for direct testing.
DiskReadPlan BuildDiskReadPlan(std::span<const PayloadHandle> handles,
                               std::span<const uint64_t> offsets,
                               std::span<const uint32_t> lengths);

/// Abstract payload store: an append-only log of opaque payloads. A
/// backend implements one write, StoreBatch, which appends a batch in
/// order and hands out handles only for payloads that reached the log in
/// full; Store is StoreBatch of one, so writes have a single
/// implementation per backend. Reads are Fetch and the batched FetchMany.
/// Implementations must support concurrent Fetch / FetchMany calls;
/// StoreBatch/Free calls are serialized by the index.
class BucketStorage {
 public:
  /// Live-vs-dead byte accounting of the append-only log. `dead` bytes
  /// belong to freed payloads and are reclaimed only by compaction;
  /// segment counters describe the DiskStorage log in units of
  /// DiskStorage::kSegmentBytes (memory storage reports one segment).
  struct CompactionStats {
    uint64_t live_bytes = 0;
    uint64_t dead_bytes = 0;
    uint64_t live_payloads = 0;
    uint64_t dead_payloads = 0;
    uint64_t segment_count = 0;  ///< log segments holding any data
    uint64_t dead_segments = 0;  ///< segments whose payloads are all dead

    uint64_t TotalBytes() const { return live_bytes + dead_bytes; }
    /// Fraction of the log occupied by dead bytes (0 when empty) — the
    /// quantity MIndexOptions::compaction_trigger thresholds.
    double GarbageRatio() const {
      const uint64_t total = live_bytes + dead_bytes;
      return total == 0 ? 0.0
                        : static_cast<double>(dead_bytes) /
                              static_cast<double>(total);
    }
  };

  /// One log segment as the compactor sees it (the segment iteration
  /// API). `sealed` means no future Store can land in this segment —
  /// only sealed segments are eligible for partial compaction, because an
  /// unsealed segment can still grow live payloads under the compactor.
  struct SegmentView {
    uint64_t segment = 0;     ///< index in units of the backend's segment size
    uint64_t bytes = 0;       ///< payload bytes attributed to the segment
    uint64_t dead_bytes = 0;  ///< freed payload bytes among them
    bool sealed = false;

    double DeadRatio() const {
      return bytes == 0 ? 0.0
                        : static_cast<double>(dead_bytes) /
                              static_cast<double>(bytes);
    }
  };

  virtual ~BucketStorage() = default;

  /// Appends `payloads` to the log in order. `*handles` is cleared and
  /// then receives one handle per payload whose bytes all reached the
  /// log, in order: every payload on OK, the stored prefix on error. No
  /// handle is issued for a payload that was not fully written.
  virtual Status StoreBatch(std::span<const PayloadView> payloads,
                            std::vector<PayloadHandle>* handles) = 0;

  /// Persists one payload (StoreBatch of one) and returns its handle.
  Result<PayloadHandle> Store(const Bytes& payload);

  /// Retrieves a payload previously stored. Freed handles are NotFound.
  virtual Result<Bytes> Fetch(PayloadHandle handle) const = 0;

  /// Retrieves many payloads in one call; on success `(*out)[i]` holds the
  /// payload of `handles[i]` (duplicates allowed). The default loops over
  /// Fetch; backends override it to batch the underlying I/O.
  virtual Status FetchMany(std::span<const PayloadHandle> handles,
                           std::vector<Bytes>* out) const;

  /// Marks a stored payload dead. The handle becomes invalid (fetches
  /// return NotFound); the bytes are reclaimed by the next compaction.
  /// Freeing an unknown or already-freed handle is an error.
  virtual Status Free(PayloadHandle handle) = 0;

  /// Current live/dead accounting of the log. DiskStorage walks its
  /// segment table for the segment counters — per-mutation hot paths
  /// that only need the garbage ratio should use DeadBytes()/TotalBytes.
  virtual CompactionStats GetCompactionStats() const = 0;

  /// Dead payload bytes awaiting compaction — O(1) in the real backends
  /// (the trigger check runs after every delete batch).
  virtual uint64_t DeadBytes() const {
    return GetCompactionStats().dead_bytes;
  }

  /// True while `handle` refers to a live (stored, never freed) payload.
  /// Safe to call concurrently with fetches. The default probes Fetch and
  /// is correct but copies the payload; real backends override it.
  virtual bool IsLive(PayloadHandle handle) const {
    return Fetch(handle).ok();
  }

  /// Per-segment accounting for the compactor, non-empty segments only.
  /// The default reports one unsealed pseudo-segment derived from
  /// GetCompactionStats (a backend without segment-granular accounting
  /// can only ever be compacted as a whole).
  virtual std::vector<SegmentView> Segments() const;

  /// Visits every live handle with its segment and payload byte length,
  /// in handle order (== append order for the built-in backends). This is
  /// how the compactor enumerates the payloads a pass must move, without
  /// walking the index tree. Unimplemented by default.
  virtual Status ForEachLiveHandle(
      const std::function<void(PayloadHandle, uint64_t segment,
                               uint32_t bytes)>& fn) const;

  /// True if ReleaseDeadSegments can reclaim whole dead segments in place
  /// (partial compaction). Backends without it are compacted full-pass.
  virtual bool SupportsSegmentRelease() const { return false; }

  /// Drops fully-dead segments from the log and its accounting, returning
  /// the bytes reclaimed. Every listed segment must be sealed and 100%
  /// dead (FailedPrecondition otherwise, with nothing released).
  /// Unimplemented by default.
  virtual Result<uint64_t> ReleaseDeadSegments(
      const std::vector<uint64_t>& segments);

  /// Total payload bytes in the backing log, live plus dead (dead bytes
  /// persist until compaction rewrites the log).
  virtual uint64_t TotalBytes() const = 0;

  /// Number of live payloads.
  virtual uint64_t Count() const = 0;

  /// "memory", "disk", or a decorated variant such as "disk+cache".
  virtual std::string Name() const = 0;
};

/// Heap-backed storage (paper: "Memory storage"). Free releases the
/// payload's heap bytes immediately but keeps the handle slot occupied
/// (and counted in TotalBytes) until compaction rebuilds the store.
class MemoryStorage : public BucketStorage {
 public:
  Status StoreBatch(std::span<const PayloadView> payloads,
                    std::vector<PayloadHandle>* handles) override;
  Result<Bytes> Fetch(PayloadHandle handle) const override;
  Status FetchMany(std::span<const PayloadHandle> handles,
                   std::vector<Bytes>* out) const override;
  Status Free(PayloadHandle handle) override;
  CompactionStats GetCompactionStats() const override;
  bool IsLive(PayloadHandle handle) const override {
    return handle < live_.size() && live_[handle];
  }
  Status ForEachLiveHandle(
      const std::function<void(PayloadHandle, uint64_t, uint32_t)>& fn)
      const override;
  uint64_t DeadBytes() const override { return dead_bytes_; }
  uint64_t TotalBytes() const override { return total_bytes_; }
  uint64_t Count() const override { return payloads_.size() - dead_count_; }
  std::string Name() const override { return "memory"; }

 private:
  Status CheckLive(PayloadHandle handle) const;

  std::vector<Bytes> payloads_;
  std::vector<bool> live_;
  uint64_t total_bytes_ = 0;
  uint64_t dead_bytes_ = 0;
  uint64_t dead_count_ = 0;
};

/// Append-only single-file storage (paper: "Disk storage"). Handles encode
/// file offsets; lengths are kept in memory. Reads use pread(2)/preadv(2)
/// and are safe to issue concurrently. Live/dead bytes are accounted per
/// kSegmentBytes-sized log segment (a payload is attributed to the segment
/// its first byte lands in) so CompactionStats can report how much of the
/// log — and how many whole segments — a compaction would reclaim.
class DiskStorage : public BucketStorage {
 public:
  /// Accounting granularity of the append-only log.
  static constexpr uint64_t kSegmentBytes = 64 * 1024;

  /// Creates (truncates) the backing file at `path`.
  static Result<std::unique_ptr<DiskStorage>> Create(const std::string& path);
  ~DiskStorage() override;

  /// Writes the batch at the log's tail with one pwritev per IOV_MAX
  /// payloads, resuming after short writes and EINTR.
  Status StoreBatch(std::span<const PayloadView> payloads,
                    std::vector<PayloadHandle>* handles) override;
  Result<Bytes> Fetch(PayloadHandle handle) const override;
  /// Sorts handles by offset and reads each run of adjacent payloads with
  /// one preadv into the output buffers (at most IOV_MAX per call).
  Status FetchMany(std::span<const PayloadHandle> handles,
                   std::vector<Bytes>* out) const override;
  Status Free(PayloadHandle handle) override;
  CompactionStats GetCompactionStats() const override;
  bool IsLive(PayloadHandle handle) const override {
    return handle < live_.size() && live_[handle];
  }
  /// Non-empty, unreleased segments; every segment except the one the
  /// next Store would append into is sealed.
  std::vector<SegmentView> Segments() const override;
  Status ForEachLiveHandle(
      const std::function<void(PayloadHandle, uint64_t, uint32_t)>& fn)
      const override;
  bool SupportsSegmentRelease() const override { return true; }
  /// Punches the segments' byte ranges out of the backing file
  /// (best-effort FALLOC_FL_PUNCH_HOLE; on filesystems without hole
  /// support the blocks stay allocated until the next full rewrite) and
  /// drops them from the live/dead accounting. Payloads attributed to a
  /// segment occupy one contiguous file range (the log is append-only),
  /// so the punched range never touches a neighbouring segment's bytes.
  Result<uint64_t> ReleaseDeadSegments(
      const std::vector<uint64_t>& segments) override;
  uint64_t DeadBytes() const override { return dead_bytes_; }
  uint64_t TotalBytes() const override { return total_bytes_; }
  uint64_t Count() const override {
    return lengths_.size() - dead_count_ - released_payloads_;
  }
  std::string Name() const override { return "disk"; }

  /// Flushes the log to stable storage (compaction syncs the fresh log
  /// before atomically renaming it over the old one).
  Status Sync();

  /// Renames the backing file to `new_path` (atomic on POSIX when the
  /// target exists — the compactor's swap step). The open descriptor
  /// follows the inode, so reads continue uninterrupted.
  Status RenameTo(const std::string& new_path);

  const std::string& path() const { return path_; }

  /// Closes the backing file; subsequent Store/Fetch calls fail with
  /// FailedPrecondition instead of operating on a dead descriptor. The
  /// destructor closes best-effort; call Close() to observe close errors.
  Status Close();

 private:
  struct Segment {
    uint64_t bytes = 0;
    uint64_t dead_bytes = 0;
    uint64_t payload_count = 0;
    uint64_t dead_count = 0;
    /// File range covered by the payloads attributed to this segment
    /// (contiguous: the log is append-only). Punched on release.
    uint64_t first_offset = 0;
    uint64_t end_offset = 0;
    bool released = false;
  };

  DiskStorage(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  /// FailedPrecondition unless the backing file is open.
  Status CheckOpen() const;
  Status CheckLive(PayloadHandle handle) const;
  /// pread exactly `len` bytes at `offset`; short reads (EOF before `len`
  /// bytes, e.g. a truncated backing file) are Corruption, not silence.
  Status ReadExactly(uint8_t* dst, size_t len, uint64_t offset) const;
  /// Accounts one payload of `length` bytes written at the log's tail and
  /// returns its handle.
  PayloadHandle RecordAppend(uint64_t length);

  int fd_;
  std::string path_;
  uint64_t next_offset_ = 0;
  uint64_t total_bytes_ = 0;
  uint64_t dead_bytes_ = 0;
  uint64_t dead_count_ = 0;
  /// Handles whose segment was released: dead and no longer accounted.
  uint64_t released_payloads_ = 0;
  // lengths_[i] = byte length of the payload whose handle is i; the offset
  // is recovered from offsets_[i]; live_[i] = not yet freed.
  std::vector<uint64_t> offsets_;
  std::vector<uint32_t> lengths_;
  std::vector<bool> live_;
  // Per-segment accounting, indexed by offset / kSegmentBytes.
  std::vector<Segment> segments_;
};

/// Storage backend selector mirroring the paper's Table 2.
enum class StorageKind { kMemory, kDisk };

/// Factory: creates the requested storage (disk needs `disk_path`).
Result<std::unique_ptr<BucketStorage>> MakeStorage(StorageKind kind,
                                                   const std::string& disk_path);

}  // namespace mindex
}  // namespace simcloud

#endif  // SIMCLOUD_MINDEX_STORAGE_H_
