#include "mindex/storage.h"

#include <fcntl.h>
#include <limits.h>  // IOV_MAX
#include <sys/uio.h>
#include <unistd.h>
#ifdef __linux__
#include <linux/falloc.h>  // FALLOC_FL_PUNCH_HOLE for segment release
#endif

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "obs/metrics.h"

namespace simcloud {
namespace mindex {

DiskReadPlan BuildDiskReadPlan(std::span<const PayloadHandle> handles,
                               std::span<const uint64_t> offsets,
                               std::span<const uint32_t> lengths) {
  DiskReadPlan plan;
  plan.order.resize(handles.size());
  std::iota(plan.order.begin(), plan.order.end(), size_t{0});
  std::sort(plan.order.begin(), plan.order.end(), [&](size_t a, size_t b) {
    return offsets[handles[a]] < offsets[handles[b]];
  });
  size_t i = 0;
  while (i < plan.order.size()) {
    DiskReadRun run;
    run.offset = offsets[handles[plan.order[i]]];
    run.length = lengths[handles[plan.order[i]]];
    run.first = i;
    run.count = 1;
    size_t j = i + 1;
    while (j < plan.order.size() &&
           offsets[handles[plan.order[j]]] == run.offset + run.length) {
      run.length += lengths[handles[plan.order[j]]];
      run.count++;
      ++j;
    }
    plan.runs.push_back(run);
    i = j;
  }
  return plan;
}

Result<PayloadHandle> BucketStorage::Store(const Bytes& payload) {
  const PayloadView view(payload);
  std::vector<PayloadHandle> handles;
  SIMCLOUD_RETURN_NOT_OK(StoreBatch({&view, 1}, &handles));
  return handles[0];
}

Status BucketStorage::FetchMany(std::span<const PayloadHandle> handles,
                                std::vector<Bytes>* out) const {
  out->clear();
  out->reserve(handles.size());
  for (PayloadHandle handle : handles) {
    SIMCLOUD_ASSIGN_OR_RETURN(Bytes payload, Fetch(handle));
    out->push_back(std::move(payload));
  }
  return Status::OK();
}

std::vector<BucketStorage::SegmentView> BucketStorage::Segments() const {
  const CompactionStats stats = GetCompactionStats();
  if (stats.TotalBytes() == 0) return {};
  SegmentView view;
  view.segment = 0;
  view.bytes = stats.TotalBytes();
  view.dead_bytes = stats.dead_bytes;
  view.sealed = false;  // the whole log can still grow
  return {view};
}

Status BucketStorage::ForEachLiveHandle(
    const std::function<void(PayloadHandle, uint64_t, uint32_t)>& fn) const {
  (void)fn;
  return Status::NotSupported(Name() +
                               " storage does not enumerate live handles");
}

Result<uint64_t> BucketStorage::ReleaseDeadSegments(
    const std::vector<uint64_t>& segments) {
  (void)segments;
  return Status::NotSupported(Name() +
                               " storage cannot release segments in place");
}

Status MemoryStorage::StoreBatch(std::span<const PayloadView> payloads,
                                 std::vector<PayloadHandle>* handles) {
  handles->clear();
  handles->reserve(payloads.size());
  for (PayloadView payload : payloads) {
    handles->push_back(static_cast<PayloadHandle>(payloads_.size()));
    payloads_.emplace_back(payload.begin(), payload.end());
    live_.push_back(true);
    total_bytes_ += payload.size();
  }
  return Status::OK();
}

Status MemoryStorage::CheckLive(PayloadHandle handle) const {
  if (handle >= payloads_.size()) {
    return Status::NotFound("memory storage handle out of range");
  }
  if (!live_[handle]) {
    return Status::NotFound("memory storage handle " +
                            std::to_string(handle) + " was freed");
  }
  return Status::OK();
}

Result<Bytes> MemoryStorage::Fetch(PayloadHandle handle) const {
  SIMCLOUD_RETURN_NOT_OK(CheckLive(handle));
  return payloads_[handle];
}

Status MemoryStorage::FetchMany(std::span<const PayloadHandle> handles,
                                std::vector<Bytes>* out) const {
  for (PayloadHandle handle : handles) {
    SIMCLOUD_RETURN_NOT_OK(CheckLive(handle));
  }
  out->clear();
  out->reserve(handles.size());
  for (PayloadHandle handle : handles) out->push_back(payloads_[handle]);
  return Status::OK();
}

Status MemoryStorage::Free(PayloadHandle handle) {
  SIMCLOUD_RETURN_NOT_OK(CheckLive(handle));
  dead_bytes_ += payloads_[handle].size();
  dead_count_++;
  live_[handle] = false;
  Bytes().swap(payloads_[handle]);  // release the heap bytes now
  return Status::OK();
}

BucketStorage::CompactionStats MemoryStorage::GetCompactionStats() const {
  CompactionStats stats;
  stats.live_bytes = total_bytes_ - dead_bytes_;
  stats.dead_bytes = dead_bytes_;
  stats.live_payloads = payloads_.size() - dead_count_;
  stats.dead_payloads = dead_count_;
  stats.segment_count = payloads_.empty() ? 0 : 1;
  stats.dead_segments =
      (!payloads_.empty() && dead_count_ == payloads_.size()) ? 1 : 0;
  return stats;
}

Status MemoryStorage::ForEachLiveHandle(
    const std::function<void(PayloadHandle, uint64_t, uint32_t)>& fn) const {
  for (PayloadHandle handle = 0; handle < payloads_.size(); ++handle) {
    if (!live_[handle]) continue;
    fn(handle, /*segment=*/0,
       static_cast<uint32_t>(payloads_[handle].size()));
  }
  return Status::OK();
}

Result<std::unique_ptr<DiskStorage>> DiskStorage::Create(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot create disk storage at " + path + ": " +
                           std::strerror(errno));
  }
  return std::unique_ptr<DiskStorage>(new DiskStorage(fd, path));
}

DiskStorage::~DiskStorage() {
  if (fd_ >= 0) ::close(fd_);
}

Status DiskStorage::Close() {
  if (fd_ < 0) return Status::OK();
  const int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) {
    return Status::IoError("close failed on " + path_ + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status DiskStorage::Sync() {
  SIMCLOUD_RETURN_NOT_OK(CheckOpen());
  if (::fsync(fd_) != 0) {
    return Status::IoError("fsync failed on " + path_ + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status DiskStorage::RenameTo(const std::string& new_path) {
  if (std::rename(path_.c_str(), new_path.c_str()) != 0) {
    return Status::IoError("cannot rename " + path_ + " to " + new_path +
                           ": " + std::strerror(errno));
  }
  path_ = new_path;
  return Status::OK();
}

Status DiskStorage::CheckOpen() const {
  if (fd_ < 0) {
    return Status::FailedPrecondition("disk storage " + path_ +
                                      " is not open");
  }
  return Status::OK();
}

Status DiskStorage::CheckLive(PayloadHandle handle) const {
  if (handle >= offsets_.size()) {
    return Status::NotFound("disk storage handle out of range");
  }
  if (!live_[handle]) {
    return Status::NotFound("disk storage handle " + std::to_string(handle) +
                            " was freed");
  }
  return Status::OK();
}

Status DiskStorage::ReadExactly(uint8_t* dst, size_t len,
                                uint64_t offset) const {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pread(fd_, dst + done, len - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("pread failed on " + path_ + ": " +
                             std::strerror(errno));
    }
    if (n == 0) {
      return Status::Corruption(
          "short read in disk storage " + path_ + ": got " +
          std::to_string(done) + " of " + std::to_string(len) + " bytes");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

PayloadHandle DiskStorage::RecordAppend(uint64_t length) {
  const PayloadHandle handle = offsets_.size();
  offsets_.push_back(next_offset_);
  lengths_.push_back(static_cast<uint32_t>(length));
  live_.push_back(true);
  const size_t segment = next_offset_ / kSegmentBytes;
  if (segment >= segments_.size()) segments_.resize(segment + 1);
  Segment& seg = segments_[segment];
  if (seg.payload_count == 0) seg.first_offset = next_offset_;
  seg.bytes += length;
  seg.payload_count++;
  seg.end_offset = next_offset_ + length;
  next_offset_ += length;
  total_bytes_ += length;
  return handle;
}

Status DiskStorage::StoreBatch(std::span<const PayloadView> payloads,
                               std::vector<PayloadHandle>* handles) {
  handles->clear();
  SIMCLOUD_RETURN_NOT_OK(CheckOpen());
  handles->reserve(payloads.size());
  std::vector<iovec> iov;
  for (size_t first = 0; first < payloads.size();) {
    const size_t last = std::min(payloads.size(),
                                 first + static_cast<size_t>(IOV_MAX));
    iov.clear();
    for (size_t k = first; k < last; ++k) {
      // pwritev never writes through iov_base; the cast only drops const.
      iov.push_back({const_cast<uint8_t*>(payloads[k].data()),
                     payloads[k].size()});
    }
    // `next` is the first iovec with bytes still to write; every payload
    // before it is in the log and gets its handle as soon as it is.
    size_t next = 0;
    size_t issued = first;
    uint64_t written = 0;  // bytes past next_offset_ already in the log
    for (;;) {
      while (next < iov.size() && iov[next].iov_len == 0) ++next;
      for (; issued < first + next; ++issued) {
        const uint64_t length = payloads[issued].size();
        handles->push_back(RecordAppend(length));
        written -= length;
      }
      if (next == iov.size()) break;
      const int count = static_cast<int>(iov.size() - next);
      const ssize_t n =
          ::pwritev(fd_, iov.data() + next, count,
                    static_cast<off_t>(next_offset_ + written));
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IoError("pwritev failed on " + path_ + ": " +
                               std::strerror(errno));
      }
      if (n == 0) {
        return Status::IoError("pwritev wrote nothing on " + path_);
      }
      // Advance past the bytes written, trimming a partly written iovec.
      written += static_cast<uint64_t>(n);
      size_t left = static_cast<size_t>(n);
      while (left > 0) {
        const size_t step = std::min(left, iov[next].iov_len);
        iov[next].iov_base = static_cast<uint8_t*>(iov[next].iov_base) + step;
        iov[next].iov_len -= step;
        left -= step;
        if (iov[next].iov_len == 0) ++next;
      }
    }
    first = last;
  }
  return Status::OK();
}

Status DiskStorage::Free(PayloadHandle handle) {
  SIMCLOUD_RETURN_NOT_OK(CheckOpen());
  SIMCLOUD_RETURN_NOT_OK(CheckLive(handle));
  live_[handle] = false;
  dead_bytes_ += lengths_[handle];
  dead_count_++;
  Segment& seg = segments_[offsets_[handle] / kSegmentBytes];
  seg.dead_bytes += lengths_[handle];
  seg.dead_count++;
  return Status::OK();
}

BucketStorage::CompactionStats DiskStorage::GetCompactionStats() const {
  CompactionStats stats;
  stats.live_bytes = total_bytes_ - dead_bytes_;
  stats.dead_bytes = dead_bytes_;
  stats.live_payloads = lengths_.size() - dead_count_ - released_payloads_;
  stats.dead_payloads = dead_count_;
  for (const Segment& segment : segments_) {
    if (segment.bytes == 0) continue;
    stats.segment_count++;
    if (segment.dead_bytes == segment.bytes) stats.dead_segments++;
  }
  return stats;
}

std::vector<BucketStorage::SegmentView> DiskStorage::Segments() const {
  std::vector<SegmentView> views;
  views.reserve(segments_.size());
  const uint64_t append_segment = next_offset_ / kSegmentBytes;
  for (size_t i = 0; i < segments_.size(); ++i) {
    const Segment& segment = segments_[i];
    if (segment.released || segment.bytes == 0) continue;
    SegmentView view;
    view.segment = i;
    view.bytes = segment.bytes;
    view.dead_bytes = segment.dead_bytes;
    view.sealed = i != append_segment;
    views.push_back(view);
  }
  return views;
}

Status DiskStorage::ForEachLiveHandle(
    const std::function<void(PayloadHandle, uint64_t, uint32_t)>& fn) const {
  SIMCLOUD_RETURN_NOT_OK(CheckOpen());
  for (PayloadHandle handle = 0; handle < offsets_.size(); ++handle) {
    if (!live_[handle]) continue;
    fn(handle, offsets_[handle] / kSegmentBytes, lengths_[handle]);
  }
  return Status::OK();
}

Result<uint64_t> DiskStorage::ReleaseDeadSegments(
    const std::vector<uint64_t>& segments) {
  SIMCLOUD_RETURN_NOT_OK(CheckOpen());
  const uint64_t append_segment = next_offset_ / kSegmentBytes;
  for (uint64_t index : segments) {
    if (index >= segments_.size() || segments_[index].released ||
        segments_[index].bytes == 0) {
      return Status::FailedPrecondition(
          "segment " + std::to_string(index) + " of " + path_ +
          " holds no releasable data");
    }
    if (index == append_segment) {
      return Status::FailedPrecondition(
          "segment " + std::to_string(index) + " of " + path_ +
          " is still receiving appends");
    }
    if (segments_[index].dead_bytes != segments_[index].bytes) {
      return Status::FailedPrecondition(
          "segment " + std::to_string(index) + " of " + path_ +
          " still holds live payloads");
    }
  }
  uint64_t released = 0;
  for (uint64_t index : segments) {
    Segment& segment = segments_[index];
#ifdef FALLOC_FL_PUNCH_HOLE
    // Best-effort: deallocate the segment's blocks without changing the
    // file size. Filesystems without hole support keep the blocks until
    // the next full rewrite; the accounting drops them either way — the
    // bytes are unreachable (every handle in the range is dead and
    // handles are never reused).
    (void)::fallocate(fd_, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                      static_cast<off_t>(segment.first_offset),
                      static_cast<off_t>(segment.end_offset -
                                         segment.first_offset));
#endif
    released += segment.bytes;
    total_bytes_ -= segment.bytes;
    dead_bytes_ -= segment.bytes;
    dead_count_ -= segment.dead_count;
    released_payloads_ += segment.payload_count;
    segment.bytes = 0;
    segment.dead_bytes = 0;
    segment.dead_count = 0;
    segment.payload_count = 0;
    segment.released = true;
  }
  return released;
}

Result<Bytes> DiskStorage::Fetch(PayloadHandle handle) const {
  SIMCLOUD_RETURN_NOT_OK(CheckOpen());
  SIMCLOUD_RETURN_NOT_OK(CheckLive(handle));
  Bytes out(lengths_[handle]);
  SIMCLOUD_RETURN_NOT_OK(ReadExactly(out.data(), out.size(),
                                     offsets_[handle]));
  return out;
}

Status DiskStorage::FetchMany(std::span<const PayloadHandle> handles,
                              std::vector<Bytes>* out) const {
  SIMCLOUD_RETURN_NOT_OK(CheckOpen());
  for (PayloadHandle handle : handles) {
    SIMCLOUD_RETURN_NOT_OK(CheckLive(handle));
  }
  out->assign(handles.size(), Bytes());
  for (size_t i = 0; i < handles.size(); ++i) {
    (*out)[i].resize(lengths_[handles[i]]);
  }

  // Read in offset order: a run of byte-adjacent payloads (one cell's
  // entries from one insert batch, see MIndex::InsertBatch) is one preadv
  // whose iovecs are the payloads' own buffers — no staging copy.
  const DiskReadPlan plan = BuildDiskReadPlan(handles, offsets_, lengths_);
  static obs::Histogram* const runs_histogram =
      obs::Registry::Default().GetHistogram("simcloud_payload_fetch_runs");
  runs_histogram->Record(plan.runs.size());

  std::vector<iovec> iov;
  for (const DiskReadRun& run : plan.runs) {
    uint64_t offset = run.offset;
    for (size_t first = run.first; first < run.first + run.count;) {
      const size_t last =
          std::min(run.first + run.count, first + static_cast<size_t>(IOV_MAX));
      iov.clear();
      uint64_t length = 0;
      for (size_t k = first; k < last; ++k) {
        Bytes& payload = (*out)[plan.order[k]];
        iov.push_back({payload.data(), payload.size()});
        length += payload.size();
      }
      const ssize_t n = ::preadv(fd_, iov.data(), static_cast<int>(iov.size()),
                                 static_cast<off_t>(offset));
      if (n < 0 || static_cast<uint64_t>(n) < length) {
        // Short read, EINTR or a real error: finish payload by payload so
        // truncation (Corruption) and I/O failures keep their diagnostics.
        uint64_t got = n < 0 ? 0 : static_cast<uint64_t>(n);
        uint64_t at = offset;
        for (const iovec& slot : iov) {
          const uint64_t have = std::min<uint64_t>(got, slot.iov_len);
          got -= have;
          SIMCLOUD_RETURN_NOT_OK(
              ReadExactly(static_cast<uint8_t*>(slot.iov_base) + have,
                          slot.iov_len - have, at + have));
          at += slot.iov_len;
        }
      }
      offset += length;
      first = last;
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<BucketStorage>> MakeStorage(
    StorageKind kind, const std::string& disk_path) {
  if (kind == StorageKind::kMemory) {
    return std::unique_ptr<BucketStorage>(new MemoryStorage());
  }
  if (disk_path.empty()) {
    return Status::InvalidArgument("disk storage requires a path");
  }
  // A fresh log at `disk_path` obsoletes any half-written temp log a
  // crashed compaction left behind (the compactor writes to
  // "<disk_path>.compact" and renames only on success) — reclaim it now
  // rather than leaking it until the next successful compaction.
  std::remove((disk_path + ".compact").c_str());
  SIMCLOUD_ASSIGN_OR_RETURN(std::unique_ptr<DiskStorage> disk,
                            DiskStorage::Create(disk_path));
  return std::unique_ptr<BucketStorage>(std::move(disk));
}

}  // namespace mindex
}  // namespace simcloud
