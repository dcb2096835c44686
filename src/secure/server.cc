#include "secure/server.h"

#include <algorithm>
#include <mutex>

#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace simcloud {
namespace secure {

Result<std::unique_ptr<EncryptedMIndexServer>> EncryptedMIndexServer::Create(
    const mindex::MIndexOptions& options, const CursorConfig& cursor_config) {
  // The index is created with the options untouched (validation included,
  // and snapshots keep the configured trigger), but inline triggering is
  // deferred: a delete batch returns as soon as the handles are freed,
  // and the background thread (below) runs the pass under the server's
  // readers-writer lock instead.
  SIMCLOUD_ASSIGN_OR_RETURN(std::unique_ptr<mindex::MIndex> index,
                            mindex::MIndex::Create(options));
  index->SetDeferredCompaction(true);
  return std::unique_ptr<EncryptedMIndexServer>(new EncryptedMIndexServer(
      std::move(index), options.compaction_trigger, cursor_config));
}

EncryptedMIndexServer::EncryptedMIndexServer(
    std::unique_ptr<mindex::MIndex> index, double compaction_trigger,
    const CursorConfig& cursor_config)
    : index_(std::move(index)), compaction_trigger_(compaction_trigger),
      cursors_(cursor_config) {
  watch_hub_ = std::make_unique<WatchHub>(index_->mutation_bus());
  if (compaction_trigger_ > 0.0) {
    compaction_thread_ = std::thread([this] { CompactionLoop(); });
  }
}

EncryptedMIndexServer::~EncryptedMIndexServer() {
  if (compaction_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(compaction_mutex_);
      compaction_stop_ = true;
    }
    compaction_cv_.notify_all();
    compaction_thread_.join();
  }
}

void EncryptedMIndexServer::MaybeKickCompaction() {
  if (compaction_trigger_ <= 0.0) return;
  double ratio;
  {
    // The accounting is mutated under the writer lock; read it shared.
    // O(1) — this runs after every delete batch.
    std::shared_lock<std::shared_mutex> lock(index_mutex_);
    ratio = index_->GarbageRatio();
  }
  if (ratio < compaction_trigger_) return;
  {
    std::lock_guard<std::mutex> lock(compaction_mutex_);
    compaction_kick_ = true;
  }
  compaction_cv_.notify_one();
}

void EncryptedMIndexServer::CompactionLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(compaction_mutex_);
      compaction_cv_.wait(
          lock, [this] { return compaction_kick_ || compaction_stop_; });
      if (compaction_stop_) return;
      compaction_kick_ = false;
    }
    // Unforced: the pass re-checks the ratio against the trigger itself,
    // so a kick that raced an explicit kCompact just no-ops. Deletes that
    // land while the pass runs set the kick flag again, and the loop
    // re-evaluates — the ratio stays bounded without ever holding the
    // writer lock for more than the begin/swap slices.
    mindex::CompactorOptions options =
        index_->DefaultCompactorOptions(/*force=*/false);
    options.garbage_threshold = compaction_trigger_;
    auto report = index_->CompactBackground(options, &index_mutex_);
    if (!report.ok()) {
      SIMCLOUD_LOG(kWarn) << "background compaction failed: "
                          << report.status().ToString();
    }
  }
}

void EncryptedMIndexServer::AccumulateStats(
    const std::vector<mindex::SearchStats>& stats) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  for (const auto& entry : stats) total_stats_.Add(entry);
}

Result<Bytes> EncryptedMIndexServer::Handle(const Bytes& request_bytes) {
  return HandleStream(request_bytes, nullptr);
}

Result<Bytes> EncryptedMIndexServer::HandleWatch(const Request& request,
                                                net::StreamContext* stream) {
  // An in-process loopback call has no push path — refuse cleanly.
  std::shared_ptr<net::PushSink> sink;
  if (stream != nullptr) sink = stream->MakeSink();
  if (sink == nullptr) {
    return Status::FailedPrecondition(
        "kWatch needs a connection that can push (server push is "
        "impossible on loopback)");
  }
  if (request.watch_resume_token.size() > 1) {
    return Status::InvalidArgument(
        "resume token covers " +
        std::to_string(request.watch_resume_token.size()) +
        " shards; this server is a single shard");
  }
  const bool has_resume = !request.watch_resume_token.empty();
  const uint64_t resume_after =
      has_resume ? request.watch_resume_token[0] : 0;
  SIMCLOUD_ASSIGN_OR_RETURN(
      WatchHub::Registration registration,
      watch_hub_->Register(request.watch_filter, has_resume, resume_after,
                           [sink](const WatchFrame& frame) {
                             return sink->TryPush(EncodeWatchFrame(frame));
                           }));
  // Track the registration against its connection so a dropped client
  // reaps it eagerly (OnConnectionClosed) instead of waiting for the
  // delivery sweep to hit a dead sink.
  const uint64_t conn_id = stream->connection_id();
  if (conn_id != 0) {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    conn_watches_[conn_id].push_back(registration.watch_id);
    watch_conns_[registration.watch_id] = conn_id;
  }
  WatchFrame ack;
  ack.kind = WatchFrame::Kind::kAck;
  ack.watch_id = registration.watch_id;
  ack.token = {registration.start_seq};
  return EncodeWatchFrame(ack);
}

Result<Bytes> EncryptedMIndexServer::HandleRangeSearchCursor(
    const Request& request, net::StreamContext* stream) {
  // Cursors are connection-scoped server state. In-process calls (null
  // stream) have no connection to drop, so the TTL is their only reaper.
  if (request.cursor_page_size == 0) {
    return Status::InvalidArgument("cursor page size must be > 0");
  }
  const uint64_t page_size =
      std::min(request.cursor_page_size, cursors_.config().max_page_size);

  auto cursor = std::make_shared<RangeCursor>();
  cursor->page_size = page_size;
  mindex::SearchStats stats;
  CursorPage page;
  {
    std::shared_lock<std::shared_mutex> lock(index_mutex_);
    SIMCLOUD_ASSIGN_OR_RETURN(
        cursor->ranked,
        index_->RangeSearchRankedCandidates(
            request.range_queries[0].pivot_distances,
            request.range_queries[0].radius, &stats));
    // A compaction pass cannot complete (swap+remap is exclusive) while
    // the shared lock is held, so snapshot + pass count are consistent.
    cursor->compaction_passes = index_->compaction_passes();
    cursor->next = std::min(static_cast<size_t>(request.cursor_start_offset),
                            cursor->ranked.size());
    SIMCLOUD_ASSIGN_OR_RETURN(
        page.candidates,
        index_->MaterializeRankedPage(cursor->ranked, &cursor->next,
                                      page_size));
  }
  AccumulateStats({stats});
  page.total = cursor->ranked.size();
  page.stats = stats;  // full collection stats, candidates = total
  if (cursor->next >= cursor->ranked.size()) {
    // Exhausted in one page: keep no server state, answer cursor id 0.
    return EncodeCursorPage(page);
  }
  SIMCLOUD_ASSIGN_OR_RETURN(
      page.cursor_id,
      cursors_.Open(stream != nullptr ? stream->connection_id() : 0,
                    std::move(cursor)));
  return EncodeCursorPage(page);
}

Result<Bytes> EncryptedMIndexServer::HandleCursorNext(
    const Request& request) {
  SIMCLOUD_ASSIGN_OR_RETURN(std::shared_ptr<void> state,
                            cursors_.Acquire(request.cursor_id));
  auto cursor = std::static_pointer_cast<RangeCursor>(state);
  CursorPage page;
  {
    std::shared_lock<std::shared_mutex> lock(index_mutex_);
    if (index_->compaction_passes() != cursor->compaction_passes) {
      // A completed pass remapped payload handles; the snapshot's handles
      // may now point at relocated bytes. Fail explicitly — never risk
      // silently wrong payloads — and release the state.
      lock.unlock();
      cursors_.Close(request.cursor_id);
      return Status::FailedPrecondition("cursor invalidated");
    }
    Result<mindex::CandidateList> materialized = index_->MaterializeRankedPage(
        cursor->ranked, &cursor->next, cursor->page_size);
    if (!materialized.ok()) {
      lock.unlock();
      cursors_.Release(request.cursor_id);
      return materialized.status();
    }
    page.candidates = std::move(*materialized);
  }
  const bool exhausted = cursor->next >= cursor->ranked.size();
  cursors_.Commit(request.cursor_id, exhausted);
  page.cursor_id = exhausted ? 0 : request.cursor_id;
  page.total = cursor->ranked.size();
  // Continuation pages carry no collection work; only the page count.
  page.stats.candidates = page.candidates.size();
  return EncodeCursorPage(page);
}

Result<Bytes> EncryptedMIndexServer::HandleStream(const Bytes& request_bytes,
                                                  net::StreamContext* stream) {
  SIMCLOUD_ASSIGN_OR_RETURN(Request request, DecodeRequest(request_bytes));
  if (obs::TraceSpan* span = obs::TraceSpan::Current()) {
    // Batch size annotates the slow-query line: at most one item vector
    // is filled, and a single query or delete is a batch of one.
    span->set_batch_size(request.insert_items.size() +
                         request.range_queries.size() +
                         request.knn_queries.size() +
                         request.delete_items.size());
  }
  switch (request.op) {
    case Op::kInsertBatch: {
      const uint64_t count = request.insert_items.size();
      std::unique_lock<std::shared_mutex> lock(index_mutex_);
      SIMCLOUD_RETURN_NOT_OK(
          index_->InsertBatch(std::move(request.insert_items)));
      return EncodeInsertResponse(count);
    }
    case Op::kRangeSearch:
    case Op::kRangeSearchBatch: {
      // The shared lock is taken once for the whole batch: the queries
      // share one tree traversal and one payload fetch inside the index.
      std::shared_lock<std::shared_mutex> lock(index_mutex_);
      std::vector<mindex::SearchStats> stats;
      SIMCLOUD_ASSIGN_OR_RETURN(
          mindex::BatchCandidates batch,
          index_->RangeSearchBatchCandidates(request.range_queries, &stats));
      lock.unlock();
      AccumulateStats(stats);
      return EncodeSearchResponse(request.op, std::move(batch), stats);
    }
    case Op::kApproxKnn:
    case Op::kApproxKnnBatch: {
      std::shared_lock<std::shared_mutex> lock(index_mutex_);
      std::vector<mindex::SearchStats> stats;
      SIMCLOUD_ASSIGN_OR_RETURN(
          mindex::BatchCandidates batch,
          index_->ApproxKnnBatchCandidates(request.knn_queries, &stats));
      lock.unlock();
      AccumulateStats(stats);
      return EncodeSearchResponse(request.op, std::move(batch), stats);
    }
    case Op::kGetStats: {
      mindex::IndexStats stats;
      {
        std::shared_lock<std::shared_mutex> lock(index_mutex_);
        stats = index_->Stats();
      }
      const CursorCounters cursor_counters = cursors_.counters();
      stats.cursors_open = cursor_counters.open;
      stats.cursors_opened_total = cursor_counters.opened_total;
      stats.cursors_expired_total = cursor_counters.expired_total;
      stats.cursors_reaped_total = cursor_counters.reaped_total;
      return EncodeStatsResponse(stats);
    }
    case Op::kDelete:
    case Op::kDeleteBatch: {
      // One exclusive lock for the whole batch; the index frees every
      // dead payload handle in one pass and evaluates the compaction
      // trigger once (mirrors kInsertBatch).
      std::vector<mindex::Deletion> deletions;
      deletions.reserve(request.delete_items.size());
      for (DeleteItem& item : request.delete_items) {
        deletions.push_back(
            mindex::Deletion{item.id, {}, std::move(item.permutation)});
      }
      uint64_t deleted;
      {
        std::unique_lock<std::shared_mutex> lock(index_mutex_);
        SIMCLOUD_ASSIGN_OR_RETURN(deleted, index_->DeleteBatch(deletions));
      }
      MaybeKickCompaction();
      if (request.op == Op::kDelete && deleted == 0) {
        // The single opcode answers 1 or NotFound, as MIndex::Delete does.
        return Status::NotFound("object " + std::to_string(deletions[0].id) +
                                " is not indexed");
      }
      return EncodeInsertResponse(deleted);
    }
    case Op::kCompact: {
      // The pass manages the index lock itself: the rewrite shares it
      // with searches and only the begin and swap+remap slices take it
      // exclusively, so this worker thread blocks on the pass while the
      // rest of the pool keeps serving. Serialized with the background
      // trigger inside CompactBackground.
      mindex::CompactorOptions options =
          index_->DefaultCompactorOptions(request.compact_force);
      // Unforced: gate on the server's configured trigger.
      options.garbage_threshold = compaction_trigger_;
      SIMCLOUD_ASSIGN_OR_RETURN(
          mindex::CompactionReport report,
          index_->CompactBackground(options, &index_mutex_));
      return EncodeCompactResponse(report);
    }
    case Op::kPing:
      // No lock, no state: answers even while writers hold the index.
      return Bytes{};
    case Op::kWatch:
      return HandleWatch(request, stream);
    case Op::kWatchCancel: {
      // The cancel response is framed AFTER every push the delivery
      // thread enqueued before Unregister returned (wire FIFO), so a
      // client that drains until this response sees a complete prefix
      // of its stream.
      const bool cancelled = watch_hub_->Unregister(request.watch_cancel_id);
      if (cancelled) {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        auto it = watch_conns_.find(request.watch_cancel_id);
        if (it != watch_conns_.end()) {
          auto& ids = conn_watches_[it->second];
          ids.erase(std::remove(ids.begin(), ids.end(),
                                request.watch_cancel_id),
                    ids.end());
          if (ids.empty()) conn_watches_.erase(it->second);
          watch_conns_.erase(it);
        }
      }
      return EncodeInsertResponse(cancelled ? 1 : 0);
    }
    case Op::kRangeSearchCursor:
      return HandleRangeSearchCursor(request, stream);
    case Op::kCursorNext:
      return HandleCursorNext(request);
    case Op::kCursorClose:
      // Idempotent: closing an unknown / already-expired / already-closed
      // id answers 0, never an error — the client may race the TTL.
      return EncodeInsertResponse(cursors_.Close(request.cursor_id) ? 1 : 0);
    case Op::kGetMetrics:
      return EncodeMetricsResponse(obs::Registry::Default().Snapshot());
  }
  return Status::Corruption("unhandled opcode");
}

void EncryptedMIndexServer::OnConnectionClosed(uint64_t connection_id) {
  if (connection_id == 0) return;
  // Cursor states are plain snapshots — dropping them frees everything.
  cursors_.CloseOwned(connection_id);
  std::vector<uint64_t> watch_ids;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    auto it = conn_watches_.find(connection_id);
    if (it != conn_watches_.end()) {
      watch_ids = std::move(it->second);
      conn_watches_.erase(it);
      for (uint64_t id : watch_ids) watch_conns_.erase(id);
    }
  }
  // Unregister is bounded (it only joins the hub's registry sweep), so
  // it is safe on the transport's event thread.
  for (uint64_t id : watch_ids) watch_hub_->Unregister(id);
}

}  // namespace secure
}  // namespace simcloud
