#include "mindex/compactor.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "mindex/payload_cache.h"
#include "obs/metrics.h"

namespace simcloud {
namespace mindex {

namespace {

/// Deadest segments first (ties by position). Partial passes pick their
/// targets in this order; full passes copy in it too — the dead-heavy
/// segments the operator cares about reaching a durable home first.
void RankSegmentsDeadestFirst(
    std::vector<BucketStorage::SegmentView>* segments) {
  std::sort(segments->begin(), segments->end(),
            [](const BucketStorage::SegmentView& a,
               const BucketStorage::SegmentView& b) {
              const double ra = a.DeadRatio(), rb = b.DeadRatio();
              return ra != rb ? ra > rb : a.segment < b.segment;
            });
}

Status SimulatedCrash() {
  return Status::IoError(
      "simulated crash during compaction (fail_after_payloads test hook)");
}

}  // namespace

CompactionPass::CompactionPass(std::unique_ptr<BucketStorage>* storage,
                               std::string disk_path, uint64_t cache_bytes,
                               CompactorOptions options)
    : storage_(storage),
      disk_path_(std::move(disk_path)),
      cache_bytes_(cache_bytes),
      options_(std::move(options)) {}

CompactionPass::~CompactionPass() {
  if (!finished_) Abandon();
}

const BucketStorage* CompactionPass::backend() const {
  const auto* cache = dynamic_cast<const PayloadCache*>(storage_->get());
  return cache ? &cache->base() : storage_->get();
}

Result<bool> CompactionPass::Begin() {
  BucketStorage* view = storage_->get();
  const BucketStorage::CompactionStats stats = view->GetCompactionStats();
  report_.bytes_before = stats.TotalBytes();
  report_.bytes_after = stats.TotalBytes();
  report_.mode = options_.mode;
  if (stats.dead_bytes == 0) {  // nothing to reclaim
    finished_ = true;
    return false;
  }
  if (!options_.force &&
      (options_.garbage_threshold <= 0.0 ||
       stats.GarbageRatio() < options_.garbage_threshold)) {
    finished_ = true;
    return false;
  }
  // Partial passes need in-place segment release; backends without it
  // (memory: one heap arena, nothing to punch) get the full rewrite.
  if (options_.mode == CompactionMode::kPartial &&
      view->SupportsSegmentRelease()) {
    return BeginPartial();
  }
  report_.mode = CompactionMode::kFull;
  return BeginFull();
}

Result<bool> CompactionPass::BeginFull() {
  // The fresh log is opened in the first rewrite step: file creation is
  // an ext4 journal transaction away from "microseconds", and it touches
  // no index state, so it has no business under the writer lock.
  if (dynamic_cast<const DiskStorage*>(backend()) != nullptr &&
      disk_path_.empty()) {
    finished_ = true;
    return Status::FailedPrecondition(
        "disk-backed index has no disk_path to compact into");
  }
  return true;
}

Result<bool> CompactionPass::BeginPartial() {
  // Deadest sealed segments first, until the live-byte budget is spent.
  std::vector<BucketStorage::SegmentView> segments =
      storage_->get()->Segments();
  segments.erase(
      std::remove_if(segments.begin(), segments.end(),
                     [&](const BucketStorage::SegmentView& view) {
                       return !view.sealed ||
                              view.DeadRatio() <
                                  options_.segment_dead_threshold;
                     }),
      segments.end());
  if (segments.empty()) {  // all garbage lives in ineligible segments
    finished_ = true;
    return false;
  }
  RankSegmentsDeadestFirst(&segments);
  uint64_t live_budget = 0;
  for (const BucketStorage::SegmentView& view : segments) {
    target_segments_.insert(view.segment);
    target_order_.push_back(view.segment);
    live_budget += view.bytes - view.dead_bytes;
    if (options_.max_pass_bytes > 0 &&
        live_budget >= options_.max_pass_bytes) {
      break;
    }
  }
  return true;
}

CompactionPass::StepLock CompactionPass::NextStepLock() const {
  if (report_.mode == CompactionMode::kPartial && !staged_handles_.empty()) {
    return StepLock::kExclusive;  // append the staged batch to the log
  }
  return StepLock::kShared;
}

Result<bool> CompactionPass::RewriteStep() {
  if (rewrite_done_ || finished_) return false;
  if (!enumerated_) {
    if (report_.mode == CompactionMode::kFull && fresh_ == nullptr) {
      if (dynamic_cast<const DiskStorage*>(backend()) != nullptr) {
        SIMCLOUD_ASSIGN_OR_RETURN(
            std::unique_ptr<DiskStorage> disk,
            DiskStorage::Create(disk_path_ + ".compact"));
        fresh_disk_ = disk.get();
        fresh_ = std::move(disk);
      } else {
        fresh_ = std::make_unique<MemoryStorage>();
      }
    }
    SIMCLOUD_RETURN_NOT_OK(EnumeratePending());
    enumerated_ = true;
    return true;
  }
  if (report_.mode == CompactionMode::kPartial) {
    if (!staged_handles_.empty()) {
      SIMCLOUD_RETURN_NOT_OK(PartialAppendStep());
    } else if (cursor_ < pending_.size()) {
      SIMCLOUD_RETURN_NOT_OK(PartialFetchStep());
    }
    rewrite_done_ = cursor_ >= pending_.size() && staged_handles_.empty();
    return !rewrite_done_;
  }
  if (cursor_ < pending_.size()) {
    SIMCLOUD_RETURN_NOT_OK(CopyStep());
    if (cursor_ < pending_.size()) return true;
  }
  // The sweep is done; catch up payloads that writers appended to the old
  // log while it ran. Each drain happens under the shared lock, so new
  // stores can only land between steps — the set shrinks toward the
  // handful Finish copies under the writer lock.
  if (!journal_stores_.empty() && drained_rounds_ < kMaxJournalDrains) {
    pending_ = std::move(journal_stores_);
    journal_stores_.clear();
    cursor_ = 0;
    ++drained_rounds_;
    return true;
  }
  rewrite_done_ = true;
  return false;
}

Status CompactionPass::EnumeratePending() {
  const BucketStorage* view = storage_->get();
  // Group live handles by segment so the copy order follows the segment
  // ranking (deadest first); within a segment, handle order == offset
  // order, which keeps the batched backend reads coalesced.
  std::unordered_map<uint64_t, std::vector<PayloadHandle>> by_segment;
  uint64_t live_payloads = 0;
  SIMCLOUD_RETURN_NOT_OK(view->ForEachLiveHandle(
      [&](PayloadHandle handle, uint64_t segment, uint32_t bytes) {
        (void)bytes;
        if (report_.mode == CompactionMode::kPartial &&
            target_segments_.count(segment) == 0) {
          return;
        }
        by_segment[segment].push_back(handle);
        ++live_payloads;
      }));
  // Partial passes already ranked their targets in Begin; full passes
  // rank the whole table here (off the writer lock).
  std::vector<uint64_t> order;
  if (report_.mode == CompactionMode::kPartial) {
    order = target_order_;
  } else {
    std::vector<BucketStorage::SegmentView> segments = view->Segments();
    RankSegmentsDeadestFirst(&segments);
    order.reserve(segments.size());
    for (const BucketStorage::SegmentView& segment : segments) {
      order.push_back(segment.segment);
    }
  }
  pending_.reserve(live_payloads);
  for (uint64_t segment : order) {
    auto it = by_segment.find(segment);
    if (it == by_segment.end()) continue;
    pending_.insert(pending_.end(), it->second.begin(), it->second.end());
  }
  return Status::OK();
}

Status CompactionPass::CopyStep() {
  const BucketStorage* source = backend();
  auto* cache = dynamic_cast<PayloadCache*>(storage_->get());
  const size_t batch =
      options_.batch_size == 0 ? 256 : options_.batch_size;
  const size_t end = std::min(cursor_ + batch, pending_.size());
  std::vector<PayloadHandle> handles;
  handles.reserve(end - cursor_);
  for (size_t i = cursor_; i < end; ++i) {
    const PayloadHandle handle = pending_[i];
    // Skip payloads freed since enumeration and journal entries the sweep
    // already covered — the journal may echo handles the enumeration saw.
    if (!source->IsLive(handle) || relocated_.count(handle) > 0) continue;
    handles.push_back(handle);
  }
  cursor_ = end;
  if (handles.empty()) return Status::OK();
  // Read the backend directly: routing the scan through the PayloadCache
  // would evict the query-serving hot set one miss at a time.
  std::vector<Bytes> payloads;
  SIMCLOUD_RETURN_NOT_OK(source->FetchMany(handles, &payloads));
  const size_t movable = MovableBeforeHook(handles.size());
  const std::vector<PayloadView> views(payloads.begin(),
                                       payloads.begin() + movable);
  std::vector<PayloadHandle> stored;
  const Status appended = Relocate(
      fresh_.get(), std::span(handles).first(movable), views, &stored);
  if (cache != nullptr) {
    for (size_t i = 0; i < stored.size(); ++i) {
      if (cache->Contains(handles[i])) {
        hot_[handles[i]] = HotPayload{stored[i], std::move(payloads[i])};
      }
    }
  }
  SIMCLOUD_RETURN_NOT_OK(appended);
  if (movable < handles.size()) {
    keep_temp_file_ = fresh_disk_ != nullptr;
    return SimulatedCrash();
  }
  return Status::OK();
}

Status CompactionPass::PartialFetchStep() {
  const BucketStorage* source = backend();
  const size_t batch =
      options_.batch_size == 0 ? 256 : options_.batch_size;
  const size_t end = std::min(cursor_ + batch, pending_.size());
  staged_handles_.clear();
  for (size_t i = cursor_; i < end; ++i) {
    if (!source->IsLive(pending_[i])) continue;  // freed since enumeration
    staged_handles_.push_back(pending_[i]);
  }
  cursor_ = end;
  if (staged_handles_.empty()) return Status::OK();
  return source->FetchMany(staged_handles_, &staged_payloads_);
}

Status CompactionPass::PartialAppendStep() {
  // Writer lock held: appends mutate the live log. The append itself is
  // the only work here — at most batch_size payload copies — so the
  // exclusive hold stays in the microsecond range.
  BucketStorage* view = storage_->get();
  std::vector<PayloadHandle> sources;
  std::vector<PayloadView> payloads;
  sources.reserve(staged_handles_.size());
  payloads.reserve(staged_handles_.size());
  for (size_t i = 0; i < staged_handles_.size(); ++i) {
    // A delete may have freed the payload between the fetch and this
    // append; its bytes die with the segment, nothing to relocate.
    if (!view->IsLive(staged_handles_[i])) continue;
    sources.push_back(staged_handles_[i]);
    payloads.push_back(staged_payloads_[i]);
  }
  const size_t movable = MovableBeforeHook(sources.size());
  std::vector<PayloadHandle> stored;
  SIMCLOUD_RETURN_NOT_OK(Relocate(view, std::span(sources).first(movable),
                                  std::span(payloads).first(movable),
                                  &stored));
  if (movable < sources.size()) return SimulatedCrash();
  staged_handles_.clear();
  staged_payloads_.clear();
  return Status::OK();
}

size_t CompactionPass::MovableBeforeHook(size_t wanted) const {
  if (options_.fail_after_payloads == 0) return wanted;
  const uint64_t moved = report_.payloads_moved;
  if (moved >= options_.fail_after_payloads) return 0;
  return static_cast<size_t>(
      std::min<uint64_t>(wanted, options_.fail_after_payloads - moved));
}

Status CompactionPass::Relocate(BucketStorage* destination,
                                std::span<const PayloadHandle> sources,
                                std::span<const PayloadView> payloads,
                                std::vector<PayloadHandle>* stored) {
  const Status appended = destination->StoreBatch(payloads, stored);
  for (size_t i = 0; i < stored->size(); ++i) {
    relocated_[sources[i]] = (*stored)[i];
  }
  report_.payloads_moved += stored->size();
  return appended;
}

Status CompactionPass::PrepareSwap() {
  if (report_.mode == CompactionMode::kPartial || !rewrite_done_ ||
      finished_) {
    return Status::OK();
  }
  if (fresh_disk_ != nullptr) {
    SIMCLOUD_RETURN_NOT_OK(fresh_disk_->Sync());
    SIMCLOUD_RETURN_NOT_OK(fresh_disk_->RenameTo(disk_path_));
  }
  // Pre-build the replacement cache off the lock too: wrapping the fresh
  // log and re-admitting the hot set is a hot-set-sized memcpy, which the
  // swap slice should not pay for. Journal frees that land after this
  // point go through the wrapped stack in Finish, evicting as they must.
  auto* old_cache = dynamic_cast<PayloadCache*>(storage_->get());
  if (cache_bytes_ > 0) {
    auto fresh_cache =
        std::make_unique<PayloadCache>(std::move(fresh_), cache_bytes_);
    if (old_cache != nullptr) {
      // Admit least-recent first so the rebuilt LRU order matches the
      // pre-swap recency (HotHandles is safe off-lock: the cache carries
      // its own shard locks), releasing each retained copy as it goes.
      std::vector<PayloadHandle> order = old_cache->HotHandles();
      for (auto it = order.rbegin(); it != order.rend(); ++it) {
        auto found = hot_.find(*it);
        if (found == hot_.end()) continue;  // no longer cached or indexed
        fresh_cache->Admit(found->second.new_handle, found->second.payload);
        Bytes().swap(found->second.payload);
      }
    }
    hot_.clear();
    fresh_ = std::move(fresh_cache);
  }
  swap_prepared_ = true;
  return Status::OK();
}

Status CompactionPass::Finish(CellTree* tree) {
  Status status = report_.mode == CompactionMode::kPartial
                      ? FinishPartial(tree)
                      : FinishFull(tree);
  if (status.ok()) {
    finished_ = true;
    static obs::Counter* const moved = obs::Registry::Default().GetCounter(
        "simcloud_compaction_payloads_moved_total");
    static obs::Counter* const released = obs::Registry::Default().GetCounter(
        "simcloud_compaction_segments_released_total");
    moved->Add(report_.payloads_moved);
    released->Add(report_.segments_released);
  }
  return status;
}

Status CompactionPass::FinishFull(CellTree* tree) {
  // The sync + rename + cache pre-build all happened in PrepareSwap, off
  // the lock; the driver never reaches Finish without it (a PrepareSwap
  // failure abandons the pass instead).
  if (!swap_prepared_) {
    return Status::Internal(
        "CompactionPass::Finish requires PrepareSwap in full mode");
  }
  const BucketStorage* source = backend();
  // Stragglers: inserts journaled after the last drain. Writers are
  // excluded now, so this set is exactly what arrived since that drain.
  std::vector<PayloadHandle> stragglers;
  for (PayloadHandle handle : journal_stores_) {
    if (relocated_.count(handle) > 0 || !source->IsLive(handle)) continue;
    stragglers.push_back(handle);
  }
  if (!stragglers.empty()) {
    std::vector<Bytes> payloads;
    SIMCLOUD_RETURN_NOT_OK(source->FetchMany(stragglers, &payloads));
    const std::vector<PayloadView> views(payloads.begin(), payloads.end());
    std::vector<PayloadHandle> stored;
    SIMCLOUD_RETURN_NOT_OK(Relocate(fresh_.get(), stragglers, views, &stored));
  }
  // Mid-pass frees: the fresh-log copy of a payload deleted during the
  // rewrite is garbage the moment it was copied — free it so the new log
  // accounts it dead, and drop it from the remap and the hot set.
  for (PayloadHandle handle : journal_freed_) {
    auto it = relocated_.find(handle);
    if (it == relocated_.end()) continue;  // freed before it was copied
    SIMCLOUD_RETURN_NOT_OK(fresh_->Free(it->second));
    relocated_.erase(it);
    hot_.erase(handle);
  }
  // Every entry must have a relocation — an entry without one would
  // dangle into the discarded log, so the pass aborts (old stack intact)
  // rather than remap.
  std::vector<std::pair<Entry*, PayloadHandle>> remap;
  Status walk = tree->ForEachEntryMutable([&](Entry& entry) -> Status {
    auto it = relocated_.find(entry.payload_handle);
    if (it == relocated_.end()) {
      return Status::Internal(
          "compaction lost entry " + std::to_string(entry.id) +
          ": payload handle " + std::to_string(entry.payload_handle) +
          " has no relocation");
    }
    remap.emplace_back(&entry, it->second);
    return Status::OK();
  });
  SIMCLOUD_RETURN_NOT_OK(walk);

  // REMAP: from here on nothing can fail. Point every entry at the new
  // log and swap the pre-built stack in; replacing the cache wholesale
  // invalidates every old-handle entry in one stroke, and the payloads
  // that were cached when copied were re-admitted (PrepareSwap) under
  // their new handles, so the working set survives the swap warm.
  for (auto& [entry, new_handle] : remap) {
    entry->payload_handle = new_handle;
  }
  // Park the old stack: tearing it down (cache frees, closing the old
  // log's descriptor) is heap-and-syscall work that the swap slice must
  // not pay for — it dies with the pass object, off the lock.
  retired_ = std::move(*storage_);
  *storage_ = std::move(fresh_);

  report_.compacted = true;
  report_.bytes_after = (*storage_)->TotalBytes();
  report_.reclaimed_bytes = report_.bytes_before > report_.bytes_after
                                ? report_.bytes_before - report_.bytes_after
                                : 0;
  return Status::OK();
}

Status CompactionPass::FinishPartial(CellTree* tree) {
  BucketStorage* view = storage_->get();
  // A payload deleted after its relocation copy was appended leaves that
  // copy orphaned at the tail — free it (through the cache, so a cached
  // copy can never be served under the dead handle).
  for (PayloadHandle handle : journal_freed_) {
    auto it = relocated_.find(handle);
    if (it == relocated_.end()) continue;
    SIMCLOUD_RETURN_NOT_OK(view->Free(it->second));
    relocated_.erase(it);
  }
  // Remap the surviving entries onto their relocated copies and free the
  // originals; that turns every target segment fully dead.
  std::vector<std::pair<Entry*, PayloadHandle>> remap;
  Status walk = tree->ForEachEntryMutable([&](Entry& entry) -> Status {
    auto it = relocated_.find(entry.payload_handle);
    if (it != relocated_.end()) remap.emplace_back(&entry, it->second);
    return Status::OK();
  });
  SIMCLOUD_RETURN_NOT_OK(walk);
  // Apply the whole remap without early exit: once an entry references
  // its relocation copy, that copy is live data — it leaves relocated_
  // immediately so a later failure's Abandon can never free it. A failed
  // Free of an original (unreachable short of a closed backend) is
  // surfaced after the loop; until then it only costs dead bytes.
  Status deferred = Status::OK();
  for (auto& [entry, new_handle] : remap) {
    const PayloadHandle old_handle = entry->payload_handle;
    entry->payload_handle = new_handle;
    relocated_.erase(old_handle);
    Status freed = view->Free(old_handle);
    if (!freed.ok() && deferred.ok()) deferred = freed;
  }
  SIMCLOUD_RETURN_NOT_OK(deferred);
  // Release every target segment that is now pure garbage (all of them,
  // unless the pass was aborted mid-way — verified rather than assumed).
  std::vector<uint64_t> releasable;
  for (const BucketStorage::SegmentView& segment : view->Segments()) {
    if (target_segments_.count(segment.segment) == 0) continue;
    if (segment.sealed && segment.dead_bytes == segment.bytes) {
      releasable.push_back(segment.segment);
    }
  }
  if (!releasable.empty()) {
    SIMCLOUD_ASSIGN_OR_RETURN(uint64_t released,
                              view->ReleaseDeadSegments(releasable));
    (void)released;
    report_.segments_released = releasable.size();
  }
  report_.compacted =
      report_.payloads_moved > 0 || report_.segments_released > 0;
  report_.bytes_after = view->TotalBytes();
  report_.reclaimed_bytes = report_.bytes_before > report_.bytes_after
                                ? report_.bytes_before - report_.bytes_after
                                : 0;
  return Status::OK();
}

void CompactionPass::Abandon() {
  if (finished_) return;
  if (report_.mode == CompactionMode::kPartial) {
    // The relocation copies already appended to the live log are
    // unreferenced; account them dead so the next pass reclaims them.
    BucketStorage* view = storage_->get();
    for (const auto& [old_handle, new_handle] : relocated_) {
      (void)old_handle;
      Status freed = view->Free(new_handle);
      (void)freed;  // best-effort: the stack is intact either way
    }
  } else if (fresh_ != nullptr) {
    const bool on_disk = fresh_disk_ != nullptr;
    fresh_disk_ = nullptr;
    fresh_.reset();  // close the abandoned log before removing it
    if (on_disk && !keep_temp_file_) {
      // Before PrepareSwap the half-written log still sits at
      // <disk_path>.compact; after it, the rename already installed it at
      // <disk_path> (unlinking the old log, which the live stack keeps
      // serving through its descriptor). Remove whichever copy exists so
      // an abandoned pass never leaves its incomplete log squatting on
      // the log's path — after a post-rename abandon the durable state
      // is the persistence snapshot, exactly as after a crash.
      std::remove(
          (swap_prepared_ ? disk_path_ : disk_path_ + ".compact").c_str());
    }
  }
  relocated_.clear();
  hot_.clear();
  staged_handles_.clear();
  staged_payloads_.clear();
  finished_ = true;
}

void CompactionPass::OnStore(PayloadHandle handle) {
  if (finished_) return;
  // Partial passes never consume the store journal: mid-pass appends can
  // only land in the unsealed tail segment, which is never a relocation
  // target — recording them would just grow an unread vector.
  if (report_.mode == CompactionMode::kPartial) return;
  journal_stores_.push_back(handle);
}

void CompactionPass::OnFree(PayloadHandle handle) {
  if (finished_) return;
  journal_freed_.push_back(handle);
}

}  // namespace mindex
}  // namespace simcloud
