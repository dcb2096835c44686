#include "mindex/mindex.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <thread>
#include <utility>

#include "common/clock.h"
#include "common/log.h"
#include "mindex/payload_cache.h"
#include "obs/metrics.h"

namespace simcloud {
namespace mindex {

Result<std::unique_ptr<MIndex>> MIndex::Create(const MIndexOptions& options) {
  if (options.num_pivots == 0) {
    return Status::InvalidArgument("num_pivots must be > 0");
  }
  if (options.bucket_capacity == 0) {
    return Status::InvalidArgument("bucket_capacity must be > 0");
  }
  if (options.max_level == 0) {
    return Status::InvalidArgument("max_level must be >= 1");
  }
  if (options.stored_prefix_length != 0 &&
      options.stored_prefix_length < options.max_level) {
    return Status::InvalidArgument(
        "stored_prefix_length must be 0 (full) or >= max_level");
  }
  if (options.promise_decay <= 0.0 || options.promise_decay > 1.0) {
    return Status::InvalidArgument("promise_decay must be in (0, 1]");
  }
  if (options.compaction_trigger < 0.0 || options.compaction_trigger > 1.0) {
    return Status::InvalidArgument(
        "compaction_trigger must be in [0, 1] (0 disables)");
  }
  if (options.segment_dead_threshold <= 0.0 ||
      options.segment_dead_threshold > 1.0) {
    return Status::InvalidArgument(
        "segment_dead_threshold must be in (0, 1]");
  }
  if (options.query_threads < 0) {
    return Status::InvalidArgument("query_threads must be >= 0");
  }
  MIndexOptions resolved = options;
  // Runtime override for the batch-evaluation thread count; applies to
  // fresh indexes and snapshot loads alike (the snapshot deliberately
  // does not carry query_threads).
  if (const char* env = std::getenv("SIMCLOUD_QUERY_THREADS")) {
    char* end = nullptr;
    const long value = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && value >= 0 && value <= 1024) {
      resolved.query_threads = static_cast<int>(value);
    } else {
      SIMCLOUD_LOG(kWarn) << "ignoring invalid SIMCLOUD_QUERY_THREADS value '"
                          << env << "'";
    }
  }
  SIMCLOUD_ASSIGN_OR_RETURN(
      std::unique_ptr<BucketStorage> storage,
      MakeStorage(resolved.storage_kind, resolved.disk_path));
  if (resolved.cache_bytes > 0) {
    storage = std::make_unique<PayloadCache>(std::move(storage),
                                             resolved.cache_bytes);
  }
  return std::unique_ptr<MIndex>(new MIndex(resolved, std::move(storage)));
}

Result<Permutation> MIndex::RoutingPermutation(
    const std::vector<float>& pivot_distances,
    Permutation permutation) const {
  if (pivot_distances.empty() && permutation.empty()) {
    return Status::InvalidArgument(
        "routing needs pivot distances or a permutation");
  }
  if (!pivot_distances.empty() &&
      pivot_distances.size() != options_.num_pivots) {
    return Status::InvalidArgument("pivot distance vector has wrong length");
  }
  if (ContainsNaN(pivot_distances)) {
    return Status::InvalidArgument("pivot distance vector holds a NaN");
  }
  const size_t prefix_len = options_.stored_prefix_length == 0
                                ? options_.num_pivots
                                : options_.stored_prefix_length;
  // The result is what the entry keeps, so it is sized to its length: a
  // stored prefix of 16 never carries the capacity of a 100-pivot vector.
  if (permutation.empty()) {
    // Server-side derivation (selection only; no distance computations,
    // paper Section 4.2).
    return DistancesToPermutationPrefix(pivot_distances, prefix_len);
  }
  if (permutation.size() > prefix_len) {
    return Permutation(permutation.begin(),
                       permutation.begin() +
                           static_cast<std::ptrdiff_t>(prefix_len));
  }
  if (permutation.capacity() > permutation.size()) {
    permutation.shrink_to_fit();
  }
  return permutation;
}

Status MIndex::Insert(metric::ObjectId id,
                      std::vector<float> pivot_distances,
                      Permutation permutation, const Bytes& payload) {
  std::vector<Insertion> batch(1);
  batch[0] = {id, std::move(pivot_distances), std::move(permutation), payload};
  return InsertBatch(std::move(batch));
}

Status MIndex::InsertBatch(std::vector<Insertion> items) {
  // Pass 1: resolve every item's routing and apply the tree's own checks
  // before anything is stored. The first malformed item ends the batch.
  Status rejected = Status::OK();
  size_t accepted = 0;
  for (; accepted < items.size(); ++accepted) {
    Insertion& item = items[accepted];
    Result<Permutation> permutation =
        RoutingPermutation(item.pivot_distances, std::move(item.permutation));
    rejected = permutation.ok()
                   ? tree_.CheckRouting(*permutation, item.pivot_distances)
                   : permutation.status();
    if (!rejected.ok()) break;
    item.permutation = std::move(*permutation);
  }

  // Pass 2: append the payloads in permutation-prefix order, the order
  // ForEachEntry visits cells, so this batch's share of each cell is
  // byte-adjacent in the log. Stable: equal prefixes keep request order.
  // One StoreBatch writes them all.
  std::vector<size_t> order(accepted);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return items[a].permutation < items[b].permutation;
  });
  std::vector<PayloadView> payloads;
  payloads.reserve(accepted);
  for (size_t i : order) payloads.push_back(items[i].payload);
  std::vector<PayloadHandle> stored;
  const Status appended = storage_->StoreBatch(payloads, &stored);
  constexpr PayloadHandle kUnstored = ~PayloadHandle{0};
  std::vector<PayloadHandle> handles(accepted, kUnstored);
  for (size_t k = 0; k < stored.size(); ++k) {
    handles[order[k]] = stored[k];
    // Mid-pass relocation journal: a background pass must catch this
    // payload up into the log it is rewriting (we hold the writer lock, as
    // does anyone arming the bus's journal).
    bus_.JournalStore(stored[k]);
  }
  if (!appended.ok()) {
    // Keep the request-order prefix whose payloads all reached the log; a
    // payload whose entry never enters the tree is freed, not leaked as
    // live.
    rejected = appended;
    accepted = static_cast<size_t>(
        std::find(handles.begin(), handles.end(), kUnstored) -
        handles.begin());
    for (size_t j = accepted; j < handles.size(); ++j) {
      if (handles[j] == kUnstored) continue;
      const Status freed = storage_->Free(handles[j]);
      if (freed.ok()) {
        bus_.JournalFree(handles[j]);
      } else {
        SIMCLOUD_LOG(kWarn) << "cannot free payload of rejected insert: "
                            << freed.ToString();
      }
    }
  }

  // Pass 3: enter the tree in request order, which keeps every leaf's
  // entry order, and with it every ranking tie, as item-by-item inserts
  // would leave it. The events follow in one publish, still under the
  // caller's writer lock: the bus sequence therefore matches the order
  // mutations became visible to queries.
  std::vector<MutationEvent> events(accepted);
  for (size_t i = 0; i < accepted; ++i) {
    Insertion& item = items[i];
    tree_.Insert(Entry{item.id, std::move(item.permutation),
                       item.pivot_distances, handles[i],
                       static_cast<uint32_t>(item.payload.size())});
    events[i].kind = MutationKind::kInsert;
    events[i].id = item.id;
    events[i].pivot_distances = std::move(item.pivot_distances);
    events[i].payload = std::move(item.payload);
  }
  bus_.Publish(std::move(events));
  return rejected;
}

Status MIndex::Delete(metric::ObjectId id,
                      std::vector<float> pivot_distances,
                      Permutation permutation) {
  std::vector<Deletion> batch(1);
  batch[0] = {id, std::move(pivot_distances), std::move(permutation)};
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t deleted, DeleteBatch(batch));
  if (deleted == 0) {
    return Status::NotFound("object " + std::to_string(id) +
                            " is not indexed");
  }
  return Status::OK();
}

Result<uint64_t> MIndex::DeleteBatch(const std::vector<Deletion>& deletions) {
  // Resolve and validate every deletion's routing before touching the
  // tree, so a malformed item rejects the batch without applying any of
  // it — the remaining per-item failure mode is NotFound, which skips.
  std::vector<Permutation> permutations;
  permutations.reserve(deletions.size());
  for (const Deletion& deletion : deletions) {
    SIMCLOUD_ASSIGN_OR_RETURN(
        Permutation permutation,
        RoutingPermutation(deletion.pivot_distances, deletion.permutation));
    if (!IsValidPermutation(permutation, options_.num_pivots)) {
      return Status::InvalidArgument(
          "delete batch carries an invalid routing permutation");
    }
    permutations.push_back(std::move(permutation));
  }

  // Remove every entry in one pass per touched leaf, then free the dead
  // handles and evaluate the compaction trigger once — a delete-heavy
  // batch costs at most one compaction, not one per item.
  std::vector<metric::ObjectId> ids;
  ids.reserve(deletions.size());
  for (const Deletion& deletion : deletions) ids.push_back(deletion.id);
  std::vector<std::optional<Entry>> removed =
      tree_.RemoveBatch(ids, permutations);

  // Frees and events follow request order. Watchers see the batch as its
  // constituent deletes, each with its own sequence, published together.
  std::vector<MutationEvent> events;
  events.reserve(deletions.size());
  Status freed = Status::OK();
  for (size_t i = 0; i < removed.size() && freed.ok(); ++i) {
    if (!removed[i].has_value()) continue;  // NotFound: skipped
    const PayloadHandle handle = removed[i]->payload_handle;
    freed = storage_->Free(handle);
    if (!freed.ok()) break;
    bus_.JournalFree(handle);
    MutationEvent& event = events.emplace_back();
    event.kind = MutationKind::kDelete;
    event.id = ids[i];
  }
  const uint64_t deleted = events.size();
  bus_.Publish(std::move(events));
  SIMCLOUD_RETURN_NOT_OK(freed);
  MaybeCompact();
  return deleted;
}

void MIndex::MaybeCompact() {
  if (options_.compaction_trigger <= 0.0 || deferred_compaction_) return;
  if (bus_.journal_armed()) return;  // a pass is already running
  // We may be running under the caller's writer lock, so only TRY the
  // pass mutex: if another thread is mid-CompactBackground (it takes the
  // serial mutex first, then the index lock), waiting here would invert
  // the lock order and deadlock. That pass reclaims the garbage anyway.
  std::unique_lock<std::mutex> serialize(compaction_serial_,
                                         std::try_to_lock);
  if (!serialize.owns_lock()) return;
  // Best-effort: the deletes that got us here already succeeded, and a
  // failed pass leaves the old log fully intact — report the failure
  // without masking the mutation's own result (an explicit kCompact
  // surfaces the same error to the operator).
  Result<CompactionReport> report = RunCompactionPass(
      DefaultCompactorOptions(/*force=*/false), /*index_mutex=*/nullptr);
  if (!report.ok()) {
    SIMCLOUD_LOG(kWarn) << "automatic compaction failed: "
                        << report.status().ToString();
  }
}

CompactorOptions MIndex::DefaultCompactorOptions(bool force) const {
  CompactorOptions options;
  options.force = force;
  options.mode = options_.compaction_mode;
  options.garbage_threshold = options_.compaction_trigger;
  options.segment_dead_threshold = options_.segment_dead_threshold;
  options.max_pass_bytes = options_.compaction_max_pass_bytes;
  return options;
}

Result<CompactionReport> MIndex::Compact(CompactorOptions options) {
  return CompactBackground(std::move(options), /*index_mutex=*/nullptr);
}

namespace {

/// Scoped lock over an optional shared_mutex: no-ops when the caller
/// drives the pass without one (direct MIndex users hold exclusivity for
/// the whole call).
class MaybeLock {
 public:
  MaybeLock(std::shared_mutex* mutex, CompactionPass::StepLock kind)
      : mutex_(mutex), exclusive_(kind == CompactionPass::StepLock::kExclusive) {
    if (mutex_ == nullptr) return;
    if (exclusive_) {
      mutex_->lock();
    } else {
      mutex_->lock_shared();
    }
  }
  ~MaybeLock() {
    if (mutex_ == nullptr) return;
    if (exclusive_) {
      mutex_->unlock();
    } else {
      mutex_->unlock_shared();
    }
  }
  MaybeLock(const MaybeLock&) = delete;
  MaybeLock& operator=(const MaybeLock&) = delete;

 private:
  std::shared_mutex* mutex_;
  bool exclusive_;
};

}  // namespace

Result<CompactionReport> MIndex::CompactBackground(
    CompactorOptions options, std::shared_mutex* index_mutex) {
  // One pass at a time: kCompact requests and the server's background
  // trigger queue up here instead of interleaving half-passes.
  std::lock_guard<std::mutex> serialize(compaction_serial_);
  return RunCompactionPass(std::move(options), index_mutex);
}

Result<CompactionReport> MIndex::RunCompactionPass(
    CompactorOptions options, std::shared_mutex* index_mutex) {
  Stopwatch pass_watch;
  if (!options.force && options.garbage_threshold <= 0.0) {
    // An unforced pass with no explicit threshold is gated by the
    // configured trigger (which may itself be 0 = disabled).
    options.garbage_threshold = options_.compaction_trigger;
  }
  CompactionPass pass(&storage_, options_.disk_path, options_.cache_bytes,
                      options);
  uint64_t pause_nanos = 0;

  // BEGIN: decide + arm the journal, one short exclusive slice.
  {
    MaybeLock lock(index_mutex, CompactionPass::StepLock::kExclusive);
    Stopwatch held;
    Result<bool> begun = pass.Begin();
    pause_nanos += held.ElapsedNanos();
    if (!begun.ok()) return begun.status();
    if (!*begun) {
      CompactionReport report = pass.report();
      report.pause_nanos = pause_nanos;
      return report;
    }
    bus_.ArmJournal(&pass);
    compaction_active_.store(true, std::memory_order_relaxed);
    compaction_progress_.store(0, std::memory_order_relaxed);
  }

  // REWRITE: bounded steps; searches share the lock, mutators interleave
  // between steps (partial-mode append slices count toward the pause).
  Status status = Status::OK();
  for (;;) {
    bool more;
    const CompactionPass::StepLock kind = pass.NextStepLock();
    {
      MaybeLock lock(index_mutex, kind);
      Stopwatch held;
      Result<bool> stepped = pass.RewriteStep();
      if (kind == CompactionPass::StepLock::kExclusive) {
        pause_nanos += held.ElapsedNanos();
      }
      if (!stepped.ok()) {
        status = stepped.status();
        break;
      }
      more = *stepped;
      compaction_progress_.store(pass.report().payloads_moved,
                                 std::memory_order_relaxed);
    }
    if (options.between_steps) options.between_steps();
    if (!more) break;
    // Fairness on small machines: hand the core to a waiting handler
    // thread between steps rather than burning a whole scheduler quantum
    // on the rewrite while a query waits.
    if (index_mutex != nullptr) std::this_thread::yield();
  }
  // Fsync and rename the fresh log off every lock: the journal-commit
  // price of making the rewrite durable is paid here, concurrent with
  // traffic, leaving the writer-locked finish with pointer work only.
  if (status.ok()) status = pass.PrepareSwap();

  // FINISH (or abandon): the only other exclusive slice.
  {
    MaybeLock lock(index_mutex, CompactionPass::StepLock::kExclusive);
    Stopwatch held;
    if (status.ok()) status = pass.Finish(&tree_);
    if (!status.ok()) pass.Abandon();
    bus_.DisarmJournal();
    // The pass may have replaced the storage stack; re-point the query
    // engine (cheap — it holds raw pointers only).
    engine_ = QueryEngine(&tree_, storage_.get(), options_.promise_decay,
                          options_.query_threads);
    pause_nanos += held.ElapsedNanos();
    compaction_active_.store(false, std::memory_order_relaxed);
    compaction_progress_.store(0, std::memory_order_relaxed);
  }
  compaction_last_pause_nanos_.store(pause_nanos, std::memory_order_relaxed);
  uint64_t prev_max = compaction_max_pause_nanos_.load(std::memory_order_relaxed);
  while (prev_max < pause_nanos &&
         !compaction_max_pause_nanos_.compare_exchange_weak(
             prev_max, pause_nanos, std::memory_order_relaxed)) {
  }
  SIMCLOUD_RETURN_NOT_OK(status);
  compaction_passes_.fetch_add(1, std::memory_order_relaxed);
  CompactionReport report = pass.report();
  report.pause_nanos = pause_nanos;
  {
    // A skipped pass (nothing to compact) never reaches this point, so
    // the histograms describe real rewrites only.
    static obs::Histogram* const pause_histogram =
        obs::Registry::Default().GetHistogram(
            "simcloud_compaction_pause_nanos");
    static obs::Histogram* const pass_histogram =
        obs::Registry::Default().GetHistogram(
            "simcloud_compaction_pass_nanos");
    pause_histogram->Record(pause_nanos);
    pass_histogram->Record(static_cast<uint64_t>(pass_watch.ElapsedNanos()));
  }
  return report;
}

Status MIndex::ForEachEntry(
    const std::function<Status(const Entry&, const Bytes&)>& fn) const {
  return tree_.ForEachEntry([&](const Entry& entry) -> Status {
    SIMCLOUD_ASSIGN_OR_RETURN(Bytes payload,
                              storage_->Fetch(entry.payload_handle));
    return fn(entry, payload);
  });
}

Result<CandidateList> MIndex::RangeSearchCandidates(
    const std::vector<float>& query_distances, double radius,
    SearchStats* stats) const {
  std::vector<SearchStats> batch_stats;
  SIMCLOUD_ASSIGN_OR_RETURN(
      BatchCandidates batch,
      engine_.RangeSearchBatch({RangeQuery{query_distances, radius}},
                               &batch_stats));
  if (stats != nullptr) *stats = batch_stats[0];
  return batch.TakeOnlyQuery();
}

Result<RankedCandidates> MIndex::RangeSearchRankedCandidates(
    const std::vector<float>& query_distances, double radius,
    SearchStats* stats) const {
  return engine_.RangeSearchRanked(query_distances, radius, stats);
}

Result<CandidateList> MIndex::MaterializeRankedPage(
    const RankedCandidates& ranked, size_t* next, size_t page_size) const {
  return engine_.MaterializePage(ranked, next, page_size);
}

Result<CandidateList> MIndex::ApproxKnnCandidates(const QuerySignature& query,
                                                  size_t cand_size,
                                                  SearchStats* stats) const {
  std::vector<SearchStats> batch_stats;
  SIMCLOUD_ASSIGN_OR_RETURN(
      BatchCandidates batch,
      engine_.ApproxKnnBatch({KnnQuery{query, cand_size}}, &batch_stats));
  if (stats != nullptr) *stats = batch_stats[0];
  return batch.TakeOnlyQuery();
}

Result<BatchCandidates> MIndex::RangeSearchBatchCandidates(
    const std::vector<RangeQuery>& queries,
    std::vector<SearchStats>* stats) const {
  return engine_.RangeSearchBatch(queries, stats);
}

Result<BatchCandidates> MIndex::ApproxKnnBatchCandidates(
    const std::vector<KnnQuery>& queries,
    std::vector<SearchStats>* stats) const {
  return engine_.ApproxKnnBatch(queries, stats);
}

IndexStats MIndex::Stats() const {
  IndexStats stats;
  tree_.FillStats(&stats);
  stats.storage_bytes = storage_->TotalBytes();
  const BucketStorage::CompactionStats compaction =
      storage_->GetCompactionStats();
  stats.live_storage_bytes = compaction.live_bytes;
  stats.dead_storage_bytes = compaction.dead_bytes;
  stats.compaction_passes =
      compaction_passes_.load(std::memory_order_relaxed);
  stats.compaction_active =
      compaction_active_.load(std::memory_order_relaxed) ? 1 : 0;
  stats.compaction_progress_payloads =
      compaction_progress_.load(std::memory_order_relaxed);
  stats.compaction_last_pause_nanos =
      compaction_last_pause_nanos_.load(std::memory_order_relaxed);
  stats.compaction_max_pause_nanos =
      compaction_max_pause_nanos_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace mindex
}  // namespace simcloud
