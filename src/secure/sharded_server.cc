#include "secure/sharded_server.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>

#include "mindex/permutation.h"
#include "net/tcp.h"
#include "secure/watch.h"

namespace simcloud {
namespace secure {

LocalShardChannel::LocalShardChannel(net::RequestHandler* handler,
                                     size_t num_workers)
    : handler_(handler) {
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back(&LocalShardChannel::WorkerLoop, this);
  }
}

LocalShardChannel::~LocalShardChannel() {
  Stop();
  for (std::thread& worker : workers_) worker.join();
}

void LocalShardChannel::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;
    stop_ = true;
    // Fail queued-but-unstarted tickets NOW: no worker will dequeue them
    // once the pool drains, and a collector parked on one must not wait
    // forever. In-flight handler calls complete normally and their
    // responses stay collectable.
    while (!queue_.empty()) {
      ready_.emplace(queue_.front().first,
                     Status::FailedPrecondition("shard channel stopped"));
      queue_.pop_front();
    }
  }
  cv_.notify_all();
}

Result<uint64_t> LocalShardChannel::Submit(const Bytes& request) {
  uint64_t ticket;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) {
      // A post-stop ticket would never run: the workers are draining (or
      // gone) and a racing Collect would block forever.
      return Status::FailedPrecondition("shard channel stopped");
    }
    ticket = next_ticket_++;
    queue_.emplace_back(ticket, request);
  }
  cv_.notify_all();
  return ticket;
}

Result<Bytes> LocalShardChannel::Collect(uint64_t ticket) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return ready_.count(ticket) != 0; });
  Result<Bytes> response = std::move(ready_.at(ticket));
  ready_.erase(ticket);
  return response;
}

void LocalShardChannel::WorkerLoop() {
  for (;;) {
    uint64_t ticket;
    Bytes request;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      ticket = queue_.front().first;
      request = std::move(queue_.front().second);
      queue_.pop_front();
    }
    Result<Bytes> response = handler_->Handle(request);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ready_.emplace(ticket, std::move(response));
    }
    cv_.notify_all();
  }
}

ShardedServer::ShardedServer(
    std::vector<std::unique_ptr<EncryptedMIndexServer>> shards,
    std::vector<std::unique_ptr<ShardChannel>> channels, size_t num_pivots,
    const CursorConfig& cursor_config)
    : shards_(std::move(shards)), channels_(std::move(channels)),
      num_pivots_(num_pivots), cursors_(cursor_config) {
  reaper_ = std::thread([this] { ReaperLoop(); });
}

Result<std::unique_ptr<ShardedServer>> ShardedServer::Create(
    const mindex::MIndexOptions& options, size_t num_shards,
    const CursorConfig& cursor_config) {
  if (num_shards == 0) {
    return Status::InvalidArgument("need at least one shard");
  }
  std::vector<std::unique_ptr<EncryptedMIndexServer>> shards;
  shards.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    mindex::MIndexOptions shard_options = options;
    if (!shard_options.disk_path.empty()) {
      shard_options.disk_path += "." + std::to_string(i);
    }
    SIMCLOUD_ASSIGN_OR_RETURN(
        std::unique_ptr<EncryptedMIndexServer> shard,
        EncryptedMIndexServer::Create(shard_options, cursor_config));
    shards.push_back(std::move(shard));
  }
  std::vector<std::unique_ptr<ShardChannel>> channels;
  channels.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    channels.push_back(std::make_unique<LocalShardChannel>(shards[i].get()));
  }
  return std::unique_ptr<ShardedServer>(
      new ShardedServer(std::move(shards), std::move(channels),
                        options.num_pivots, cursor_config));
}

namespace {

/// Re-raises `status` with `prefix` prepended to the message, keeping
/// the code for the categories a connect can fail with (Status's
/// code+message constructor is private to the factories).
Status AnnotateStatus(const Status& status, const std::string& prefix) {
  switch (status.code()) {
    case StatusCode::kNetworkError:
      return Status::NetworkError(prefix + status.message());
    case StatusCode::kPermissionDenied:
      return Status::PermissionDenied(prefix + status.message());
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(prefix + status.message());
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(prefix + status.message());
    default:
      return Status::NetworkError(prefix + status.ToString());
  }
}

}  // namespace

Result<std::unique_ptr<ShardedServer>> ShardedServer::Connect(
    const std::vector<ShardEndpoint>& endpoints, size_t num_pivots,
    net::ChannelPolicy policy, const net::SecureChannelOptions& secure) {
  std::vector<std::vector<ShardEndpoint>> replica_sets;
  replica_sets.reserve(endpoints.size());
  for (const ShardEndpoint& endpoint : endpoints) {
    replica_sets.push_back({endpoint});
  }
  return Connect(replica_sets, num_pivots, policy, secure, TopologyOptions());
}

Result<std::unique_ptr<ShardedServer>> ShardedServer::Connect(
    const std::vector<std::vector<ShardEndpoint>>& replica_sets,
    size_t num_pivots, net::ChannelPolicy policy,
    const net::SecureChannelOptions& secure, const TopologyOptions& topology,
    const CursorConfig& cursor_config) {
  if (replica_sets.empty()) {
    return Status::InvalidArgument("need at least one shard endpoint");
  }
  for (const auto& replicas : replica_sets) {
    if (replicas.empty()) {
      return Status::InvalidArgument("every shard needs >= 1 replica");
    }
  }
  if (num_pivots == 0) {
    return Status::InvalidArgument("num_pivots must match the shards'");
  }
  // Establish every connection before constructing any channel, so a
  // partial failure can tear the finished ones down deterministically:
  // each gets an orderly Abort (flush + FIN — a secure peer sees a clean
  // EOF, not a reset mid-record) before its fd closes.
  std::vector<std::vector<std::shared_ptr<net::TcpTransport>>> transports(
      replica_sets.size());
  for (size_t shard = 0; shard < replica_sets.size(); ++shard) {
    for (const ShardEndpoint& endpoint : replica_sets[shard]) {
      auto dialed =
          net::TcpTransport::Connect(endpoint.host, endpoint.port, policy,
                                     secure);
      if (!dialed.ok()) {
        Status failure = AnnotateStatus(
            dialed.status(),
            "shard " + std::to_string(shard) + " replica " +
                endpoint.ToString() + ": ");
        for (auto& established : transports) {
          for (auto& transport : established) {
            transport->Abort(Status::NetworkError(
                "sibling endpoint " + endpoint.ToString() +
                " failed to connect"));
          }
        }
        return failure;
      }
      transports[shard].push_back(std::move(dialed).value());
    }
  }
  std::vector<std::unique_ptr<ShardChannel>> channels;
  std::vector<ReplicaGroupChannel*> groups;
  channels.reserve(replica_sets.size());
  groups.reserve(replica_sets.size());
  for (size_t shard = 0; shard < replica_sets.size(); ++shard) {
    std::vector<std::unique_ptr<ReplicaChannel>> replicas;
    replicas.reserve(replica_sets[shard].size());
    for (size_t r = 0; r < replica_sets[shard].size(); ++r) {
      auto replica = std::make_unique<ReplicaChannel>(
          replica_sets[shard][r], policy, secure, topology);
      replica->AdoptTransport(std::move(transports[shard][r]));
      replicas.push_back(std::move(replica));
    }
    auto group =
        std::make_unique<ReplicaGroupChannel>(std::move(replicas), topology);
    groups.push_back(group.get());
    channels.push_back(std::move(group));
  }
  auto server = std::unique_ptr<ShardedServer>(
      new ShardedServer({}, std::move(channels), num_pivots, cursor_config));
  server->groups_ = std::move(groups);
  server->monitor_ =
      std::make_unique<TopologyMonitor>(server->groups_, topology);
  return server;
}

ShardedServer::~ShardedServer() {
  // Watches first: local adapters push into shard hubs that die with
  // shards_, remote pumps read through groups_ the monitor keeps alive.
  std::vector<std::shared_ptr<WatchFanout>> live;
  {
    std::lock_guard<std::mutex> lock(watch_mutex_);
    for (auto& entry : watches_) live.push_back(entry.second);
    watches_.clear();
  }
  for (const auto& fanout : live) StopWatch(fanout);
  // Deferred disconnect teardowns still queued must run while shards_ /
  // channels_ are alive: the reaper drains its queue, then exits.
  {
    std::lock_guard<std::mutex> lock(reap_mutex_);
    reap_stop_ = true;
  }
  reap_cv_.notify_all();
  if (reaper_.joinable()) reaper_.join();
  // The monitor probes through groups_; stop it before channels_ die.
  if (monitor_) monitor_->Stop();
}

std::vector<ShardTopologyStatus> ShardedServer::TopologySnapshot() const {
  std::vector<ShardTopologyStatus> snapshot;
  snapshot.reserve(groups_.size());
  for (const ReplicaGroupChannel* group : groups_) {
    snapshot.push_back(group->Snapshot());
  }
  return snapshot;
}

size_t ShardedServer::OwnerOf(const mindex::Permutation& permutation) const {
  return permutation.empty() ? 0 : permutation[0] % channels_.size();
}

namespace {

/// First permutation element of an insert item: the stored permutation's
/// head, or the closest pivot derived from the distances (ties to the
/// lower index, matching DistancesToPermutation).
uint32_t FirstPivotOf(const InsertItem& item) {
  if (!item.permutation.empty()) return item.permutation[0];
  uint32_t best = 0;
  for (uint32_t i = 1; i < item.pivot_distances.size(); ++i) {
    if (item.pivot_distances[i] < item.pivot_distances[best]) best = i;
  }
  return best;
}

}  // namespace

uint64_t ShardedServer::TotalObjects() const {
  if (is_local()) {
    uint64_t total = 0;
    for (const auto& shard : shards_) total += shard->index().size();
    return total;
  }
  uint64_t total = 0;
  for (const Result<Bytes>& response :
       CallAllShards(EncodeGetStatsRequest())) {
    if (!response.ok()) return 0;
    auto stats = DecodeStatsResponse(*response);
    if (!stats.ok()) return 0;
    total += stats->object_count;
  }
  return total;
}

std::vector<Result<Bytes>> ShardedServer::CallAllShards(
    const Bytes& request) const {
  // Submit to every shard before collecting from any: the shards (local
  // worker threads or remote servers) all run concurrently while this
  // thread blocks on the earliest un-collected response.
  std::vector<Result<uint64_t>> tickets;
  tickets.reserve(channels_.size());
  for (const auto& channel : channels_) {
    tickets.push_back(channel->Submit(request));
  }
  std::vector<Result<Bytes>> responses;
  responses.reserve(channels_.size());
  for (size_t i = 0; i < channels_.size(); ++i) {
    if (tickets[i].ok()) {
      responses.push_back(channels_[i]->Collect(*tickets[i]));
    } else {
      responses.push_back(tickets[i].status());
    }
  }
  return responses;
}

Result<uint64_t> ShardedServer::ScatterCounted(
    const std::vector<Bytes>& per_shard) const {
  std::vector<std::pair<size_t, uint64_t>> tickets;  // shard -> ticket
  Status submit_failure = Status::OK();
  for (size_t i = 0; i < per_shard.size(); ++i) {
    if (per_shard[i].empty()) continue;
    Result<uint64_t> ticket = channels_[i]->Submit(per_shard[i]);
    if (!ticket.ok()) {
      // Keep collecting what was already submitted so no response is
      // left orphaned on a shared channel, then report the failure.
      if (submit_failure.ok()) submit_failure = ticket.status();
      continue;
    }
    tickets.emplace_back(i, *ticket);
  }
  uint64_t count = 0;
  Status failure = submit_failure;
  for (const auto& [shard, ticket] : tickets) {
    Result<Bytes> response = channels_[shard]->Collect(ticket);
    if (!response.ok()) {
      if (failure.ok()) failure = response.status();
      continue;
    }
    Result<uint64_t> acknowledged = DecodeInsertResponse(*response);
    if (!acknowledged.ok()) {
      if (failure.ok()) failure = acknowledged.status();
      continue;
    }
    count += *acknowledged;
  }
  SIMCLOUD_RETURN_NOT_OK(failure);
  return count;
}

Result<BatchCandidateResponse> ShardedServer::FanOutBatch(
    const Bytes& request, const std::vector<size_t>& limits) {
  std::vector<Result<Bytes>> responses = CallAllShards(request);

  std::vector<BatchCandidateResponse> decoded;
  decoded.reserve(responses.size());
  for (const auto& response : responses) {
    SIMCLOUD_RETURN_NOT_OK(response.status());
    SIMCLOUD_ASSIGN_OR_RETURN(BatchCandidateResponse batch,
                              DecodeBatchCandidateResponse(*response));
    if (batch.query_count() != limits.size()) {
      return Status::Internal("shard answered " +
                              std::to_string(batch.query_count()) + " of " +
                              std::to_string(limits.size()) +
                              " batched queries");
    }
    decoded.push_back(std::move(batch));
  }

  // Shard dictionaries are disjoint (an object lives on exactly one
  // shard), so the combined dictionary is their concatenation; per-shard
  // payload indices shift by the shard's offset.
  size_t total_payloads = 0;
  std::vector<uint32_t> shard_offset(decoded.size());
  for (size_t s = 0; s < decoded.size(); ++s) {
    shard_offset[s] = static_cast<uint32_t>(total_payloads);
    total_payloads += decoded[s].batch.payloads.size();
  }
  std::vector<Bytes*> flat(total_payloads);
  for (size_t s = 0; s < decoded.size(); ++s) {
    for (size_t i = 0; i < decoded[s].batch.payloads.size(); ++i) {
      flat[shard_offset[s] + i] = &decoded[s].batch.payloads[i];
    }
  }

  BatchCandidateResponse merged;
  merged.batch.per_query.resize(limits.size());
  merged.stats.resize(limits.size());
  for (size_t q = 0; q < limits.size(); ++q) {
    std::vector<mindex::BatchCandidateRef>& refs = merged.batch.per_query[q];
    for (size_t s = 0; s < decoded.size(); ++s) {
      merged.stats[q].Add(decoded[s].stats[q]);
      for (const auto& ref : decoded[s].batch.per_query[q]) {
        refs.push_back(mindex::BatchCandidateRef{
            ref.id, ref.score, ref.payload_index + shard_offset[s]});
      }
    }
    std::stable_sort(refs.begin(), refs.end(),
                     [](const mindex::BatchCandidateRef& a,
                        const mindex::BatchCandidateRef& b) {
                       return a.score < b.score;
                     });
    if (limits[q] > 0 && refs.size() > limits[q]) refs.resize(limits[q]);
    merged.stats[q].candidates = refs.size();
  }

  // Compact the dictionary to payloads that survived trimming.
  constexpr uint32_t kUnmapped = ~0u;
  std::vector<uint32_t> remap(total_payloads, kUnmapped);
  for (auto& refs : merged.batch.per_query) {
    for (auto& ref : refs) {
      if (remap[ref.payload_index] == kUnmapped) {
        remap[ref.payload_index] =
            static_cast<uint32_t>(merged.batch.payloads.size());
        merged.batch.payloads.push_back(std::move(*flat[ref.payload_index]));
      }
      ref.payload_index = remap[ref.payload_index];
    }
  }
  return merged;
}

Result<Bytes> ShardedServer::Handle(const Bytes& request_bytes) {
  return HandleStream(request_bytes, nullptr);
}

Result<Bytes> ShardedServer::HandleStream(const Bytes& request_bytes,
                                          net::StreamContext* stream) {
  SIMCLOUD_ASSIGN_OR_RETURN(Request request, DecodeRequest(request_bytes));
  switch (request.op) {
    case Op::kInsertBatch: {
      // Partition the batch by owning shard, then scatter the sub-batches
      // so every shard ingests its share concurrently.
      std::vector<std::vector<InsertItem>> per_shard(channels_.size());
      for (auto& item : request.insert_items) {
        per_shard[FirstPivotOf(item) % channels_.size()].push_back(
            std::move(item));
      }
      std::vector<Bytes> sub_requests(channels_.size());
      for (size_t i = 0; i < channels_.size(); ++i) {
        if (per_shard[i].empty()) continue;
        sub_requests[i] = EncodeInsertBatchRequest(per_shard[i]);
      }
      SIMCLOUD_ASSIGN_OR_RETURN(uint64_t inserted,
                                ScatterCounted(sub_requests));
      return EncodeInsertResponse(inserted);
    }
    case Op::kRangeSearch:
    case Op::kRangeSearchBatch: {
      // Every shard prunes its own subtrees; the union of the per-shard
      // candidate supersets is a superset for the whole collection.
      std::vector<size_t> limits(request.range_queries.size(), 0);
      SIMCLOUD_ASSIGN_OR_RETURN(
          BatchCandidateResponse merged,
          FanOutBatch(EncodeRangeSearchBatchRequest(request.range_queries),
                      limits));
      return EncodeSearchResponse(request.op, std::move(merged.batch),
                                  merged.stats);
    }
    case Op::kApproxKnn:
    case Op::kApproxKnnBatch: {
      // Each shard contributes up to the full budget; the merge keeps
      // the globally best-ranked cand_size candidates. Whole-cell
      // queries return the union of per-shard best cells untrimmed.
      std::vector<size_t> limits(request.knn_queries.size());
      for (size_t q = 0; q < request.knn_queries.size(); ++q) {
        limits[q] = request.knn_queries[q].signature.whole_cells
                        ? 0
                        : static_cast<size_t>(
                              request.knn_queries[q].cand_size);
      }
      SIMCLOUD_ASSIGN_OR_RETURN(
          BatchCandidateResponse merged,
          FanOutBatch(EncodeApproxKnnBatchRequest(request.knn_queries),
                      limits));
      return EncodeSearchResponse(request.op, std::move(merged.batch),
                                  merged.stats);
    }
    case Op::kGetStats: {
      std::vector<Result<Bytes>> responses =
          CallAllShards(EncodeGetStatsRequest());
      mindex::IndexStats total;
      for (const auto& response : responses) {
        SIMCLOUD_RETURN_NOT_OK(response.status());
        SIMCLOUD_ASSIGN_OR_RETURN(mindex::IndexStats stats,
                                  DecodeStatsResponse(*response));
        total.object_count += stats.object_count;
        total.leaf_count += stats.leaf_count;
        total.inner_count += stats.inner_count;
        total.max_depth = std::max(total.max_depth, stats.max_depth);
        total.storage_bytes += stats.storage_bytes;
        total.live_storage_bytes += stats.live_storage_bytes;
        total.dead_storage_bytes += stats.dead_storage_bytes;
        // Compaction telemetry: counts sum (active reports how many
        // shards are mid-pass); pauses report the worst shard, since the
        // shards compact concurrently.
        total.compaction_passes += stats.compaction_passes;
        total.compaction_active += stats.compaction_active;
        total.compaction_progress_payloads +=
            stats.compaction_progress_payloads;
        total.compaction_last_pause_nanos =
            std::max(total.compaction_last_pause_nanos,
                     stats.compaction_last_pause_nanos);
        total.compaction_max_pause_nanos =
            std::max(total.compaction_max_pause_nanos,
                     stats.compaction_max_pause_nanos);
        // Shard-side cursors (the legs of composite cursors plus any
        // opened directly on a shard) sum under the facade's own table.
        total.cursors_open += stats.cursors_open;
        total.cursors_opened_total += stats.cursors_opened_total;
        total.cursors_expired_total += stats.cursors_expired_total;
        total.cursors_reaped_total += stats.cursors_reaped_total;
      }
      const CursorCounters facade_cursors = cursors_.counters();
      total.cursors_open += facade_cursors.open;
      total.cursors_opened_total += facade_cursors.opened_total;
      total.cursors_expired_total += facade_cursors.expired_total;
      total.cursors_reaped_total += facade_cursors.reaped_total;
      // Topology health: a shard counts as its healthiest replica (one
      // kUp replica keeps it fully serving). In-process shards are
      // always up.
      total.shards_total = channels_.size();
      if (groups_.empty()) {
        total.shards_up = channels_.size();
      } else {
        for (const ReplicaGroupChannel* group : groups_) {
          const ShardTopologyStatus shard_status = group->Snapshot();
          switch (shard_status.health()) {
            case ShardHealth::kUp: ++total.shards_up; break;
            case ShardHealth::kDegraded: ++total.shards_degraded; break;
            case ShardHealth::kDown: ++total.shards_down; break;
          }
          // A stale replica (replay overflow: permanently out of the
          // rotation) is otherwise invisible on the wire — the shard
          // still counts as up through its healthy siblings.
          for (const ReplicaStatus& replica : shard_status.replicas) {
            if (replica.stale) {
              ++total.shards_stale;
              break;
            }
          }
        }
      }
      return EncodeStatsResponse(total);
    }
    case Op::kDelete:
    case Op::kDeleteBatch: {
      // Validate the WHOLE batch before forwarding anything: a malformed
      // item must reject the batch with no shard mutated, matching the
      // all-or-nothing contract of the single-index path (per-item
      // NotFound still just skips inside the shards).
      for (const DeleteItem& item : request.delete_items) {
        if (item.permutation.empty() ||
            !mindex::IsValidPermutation(item.permutation, num_pivots_)) {
          return Status::InvalidArgument(
              "delete batch carries an invalid routing permutation");
        }
      }
      // Partition by owning shard (same placement rule as inserts) and
      // scatter the sub-batches; each shard takes its writer lock once.
      std::vector<std::vector<DeleteItem>> per_shard(channels_.size());
      for (DeleteItem& item : request.delete_items) {
        per_shard[OwnerOf(item.permutation)].push_back(std::move(item));
      }
      std::vector<Bytes> sub_requests(channels_.size());
      for (size_t i = 0; i < channels_.size(); ++i) {
        if (per_shard[i].empty()) continue;
        sub_requests[i] = EncodeDeleteBatchRequest(per_shard[i]);
      }
      SIMCLOUD_ASSIGN_OR_RETURN(uint64_t deleted,
                                ScatterCounted(sub_requests));
      if (request.op == Op::kDelete && deleted == 0) {
        // The single opcode answers 1 or NotFound, as a single shard does.
        return Status::NotFound("object is not indexed");
      }
      return EncodeInsertResponse(deleted);
    }
    case Op::kCompact: {
      // Every shard compacts its own log concurrently; the merged report
      // sums the per-shard byte movements.
      std::vector<Result<Bytes>> responses = CallAllShards(request_bytes);
      mindex::CompactionReport total;
      for (const auto& response : responses) {
        SIMCLOUD_RETURN_NOT_OK(response.status());
        SIMCLOUD_ASSIGN_OR_RETURN(mindex::CompactionReport report,
                                  DecodeCompactResponse(*response));
        total.Add(report);
      }
      return EncodeCompactResponse(total);
    }
    case Op::kPing:
      // Answered by the facade itself: the probe measures the facade's
      // transport, not the shard fleet.
      return Bytes{};
    case Op::kWatch:
      return HandleWatch(request, stream);
    case Op::kWatchCancel:
      return HandleWatchCancel(request);
    case Op::kRangeSearchCursor:
      return HandleRangeSearchCursor(request, stream);
    case Op::kCursorNext:
      return HandleCursorNext(request);
    case Op::kCursorClose: {
      // Idempotent: take the composite state (if any), tear its shard
      // legs down inline (worker thread — shard I/O is fine here), ack
      // whether state was actually released.
      std::shared_ptr<void> state = cursors_.TakeClose(request.cursor_id);
      if (state == nullptr) return EncodeInsertResponse(0);
      CloseCursorLegs(std::static_pointer_cast<CompositeCursor>(state));
      return EncodeInsertResponse(1);
    }
    case Op::kGetMetrics: {
      // The merge covers the SHARD registries only — the facade's own
      // registry is excluded so the aggregate equals the sum of the
      // per-shard scrapes exactly (histograms merge bucket-by-bucket on
      // the shared log grid). In-process deployments share one global
      // registry, so every shard answers identically and the merge
      // multiplies counters by the shard count; scrape shards directly
      // when that matters.
      std::vector<Result<Bytes>> responses =
          CallAllShards(EncodeGetMetricsRequest());
      obs::MetricsSnapshot merged;
      for (const auto& response : responses) {
        SIMCLOUD_RETURN_NOT_OK(response.status());
        SIMCLOUD_ASSIGN_OR_RETURN(obs::MetricsSnapshot snapshot,
                                  DecodeMetricsResponse(*response));
        merged.Merge(snapshot);
      }
      return EncodeMetricsResponse(merged);
    }
  }
  return Status::Corruption("unhandled opcode");
}

namespace {

/// How long a remote pump blocks per CollectStream before re-checking
/// its stop flag.
constexpr int kPumpTickMs = 100;
/// Client-side backpressure pacing for remote pumps (a frame that the
/// client's output queue refused is held and retried).
constexpr int kPumpRetryMs = 10;
/// Waiting for a replica to come back before re-registering a watch.
constexpr int kPumpReacquireMs = 100;
/// Registration handshake timeout per replica attempt.
constexpr int kWatchAckTimeoutMs = 5000;

/// True when a stream-call Status is a REMOTE REJECTION (the shard
/// server answered with an error) rather than a broken stream: the
/// transport wrapped it as "remote error: ...", so the connection
/// itself is healthy and must not be failed over.
bool IsRemoteRejection(const Status& status) {
  return status.message().find("remote error:") != std::string::npos;
}

}  // namespace

Status ShardedServer::PushComposite(
    const std::shared_ptr<WatchFanout>& fanout, size_t shard,
    const WatchFrame& frame) {
  std::lock_guard<std::mutex> lock(fanout->mutex);
  if (fanout->lost) {
    // Another shard already reported loss; the stream is over. Return
    // NetworkError so local hub adapters drop their subscription.
    return Status::NetworkError("watch already lost");
  }
  WatchFrame out = frame;
  out.watch_id = fanout->watch_id;
  std::vector<uint64_t> token = fanout->token;
  if (!frame.token.empty()) token[shard] = frame.token[0];
  out.token = token;
  Status pushed = fanout->sink->TryPush(EncodeWatchFrame(out));
  if (pushed.ok()) {
    // Commit the composite cursor only for a delivered frame, so a
    // resume with the client's last token replays exactly the refused
    // suffix.
    fanout->token = std::move(token);
    if (frame.kind == WatchFrame::Kind::kLost) fanout->lost = true;
  }
  return pushed;
}

Result<ShardedServer::ShardWatchLeg> ShardedServer::OpenShardWatch(
    size_t shard, const WatchFilter& filter, bool has_resume,
    uint64_t resume_after) {
  std::vector<uint64_t> token;
  if (has_resume) token.push_back(resume_after);
  const Bytes request = EncodeWatchRequest(filter, token);
  ReplicaGroupChannel* group = groups_[shard];
  Status last_error = Status::NetworkError("no live replica");
  // Two routing passes, like reads: kUp replicas first, then kDegraded.
  for (int pass = 0; pass < 2; ++pass) {
    const bool degraded_ok = pass == 1;
    for (size_t r = 0; r < group->replica_count(); ++r) {
      ReplicaChannel* replica = group->replica(r);
      std::shared_ptr<net::TcpTransport> transport =
          replica->AcquireForRead(degraded_ok);
      if (transport == nullptr) continue;
      if (degraded_ok && replica->health() == ShardHealth::kUp) {
        continue;  // already tried in pass 0
      }
      Result<uint64_t> ticket = transport->SubmitStream(request);
      if (!ticket.ok()) {
        replica->MarkFailure(transport, ticket.status());
        last_error = ticket.status();
        continue;
      }
      Result<Bytes> ack_bytes =
          transport->CollectStream(*ticket, kWatchAckTimeoutMs);
      if (!ack_bytes.ok()) {
        transport->CloseStream(*ticket);
        if (IsRemoteRejection(ack_bytes.status())) {
          // The shard answered: a stale resume token (or bad filter) is
          // the client's problem, not a failover trigger.
          return ack_bytes.status();
        }
        replica->MarkFailure(transport, ack_bytes.status());
        last_error = ack_bytes.status();
        continue;
      }
      Result<WatchFrame> ack = DecodeWatchFrame(*ack_bytes);
      if (!ack.ok() || ack->kind != WatchFrame::Kind::kAck ||
          ack->token.size() != 1) {
        transport->CloseStream(*ticket);
        return Status::Corruption("shard " + std::to_string(shard) +
                                  " answered kWatch without a valid ack");
      }
      ShardWatchLeg leg;
      leg.replica = r;
      leg.transport = std::move(transport);
      leg.ticket = *ticket;
      leg.shard_watch_id = ack->watch_id;
      leg.start_seq = ack->token[0];
      return leg;
    }
  }
  return last_error;
}

void ShardedServer::PumpShardWatch(std::shared_ptr<WatchFanout> fanout,
                                   size_t shard, WatchFilter filter,
                                   ShardWatchLeg leg) {
  // Forwards `frame` with the composite token, absorbing client
  // backpressure by holding the frame. False when the pump must exit
  // (client gone, watch lost, or stop requested while parked).
  auto forward = [&](const WatchFrame& frame) {
    for (;;) {
      Status pushed = PushComposite(fanout, shard, frame);
      if (pushed.ok()) return frame.kind != WatchFrame::Kind::kLost;
      if (pushed.code() != StatusCode::kFailedPrecondition) return false;
      if (fanout->stop) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(kPumpRetryMs));
    }
  };
  auto forward_lost = [&](const std::string& message) {
    WatchFrame lost;
    lost.kind = WatchFrame::Kind::kLost;
    lost.token = {0};  // PushComposite overwrites with the composite
    lost.message = message;
    forward(lost);
  };

  while (!fanout->stop) {
    Result<Bytes> frame_bytes =
        leg.transport->CollectStream(leg.ticket, kPumpTickMs);
    if (!frame_bytes.ok()) {
      if (frame_bytes.status().code() == StatusCode::kDeadlineExceeded) {
        continue;  // soft tick: nothing pushed yet
      }
      // The replica died under the stream: report the failure (the
      // monitor starts redialing) and re-register elsewhere with the
      // shard's resume token — the client stream continues seamlessly.
      groups_[shard]->replica(leg.replica)->MarkFailure(
          leg.transport, frame_bytes.status());
      leg.transport->CloseStream(leg.ticket);
      uint64_t resume;
      {
        std::lock_guard<std::mutex> lock(fanout->mutex);
        resume = fanout->token[shard];
      }
      bool reopened = false;
      while (!fanout->stop) {
        Result<ShardWatchLeg> next =
            OpenShardWatch(shard, filter, /*has_resume=*/true, resume);
        if (next.ok()) {
          leg = std::move(next).value();
          reopened = true;
          break;
        }
        if (IsWatchLost(next.status())) {
          // The surviving replica's ring no longer covers our cursor:
          // the stream is genuinely lost — tell the client to re-run.
          forward_lost(next.status().message());
          return;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kPumpReacquireMs));
      }
      if (!reopened) break;  // stop requested
      continue;
    }
    Result<WatchFrame> frame = DecodeWatchFrame(*frame_bytes);
    if (!frame.ok()) {
      forward_lost(kWatchLostPrefix + ("undecodable frame from shard " +
                                       std::to_string(shard) + ": " +
                                       frame.status().message()));
      return;
    }
    switch (frame->kind) {
      case WatchFrame::Kind::kAck:
        continue;  // late ack duplicate; the registration already took it
      case WatchFrame::Kind::kInsert:
      case WatchFrame::Kind::kDelete:
        if (!forward(*frame)) return;
        continue;
      case WatchFrame::Kind::kLost:
        forward(*frame);
        return;
    }
  }
  // Orderly stop (cancel / shutdown): best-effort cancel on the shard
  // so its hub drops the subscription now rather than on disconnect.
  Result<uint64_t> cancel =
      leg.transport->Submit(EncodeWatchCancelRequest(leg.shard_watch_id));
  if (cancel.ok()) leg.transport->Collect(*cancel).status();
  leg.transport->CloseStream(leg.ticket);
}

void ShardedServer::StopWatch(const std::shared_ptr<WatchFanout>& fanout) {
  fanout->stop = true;
  for (auto& pump : fanout->pumps) {
    if (pump.joinable()) pump.join();
  }
  for (const auto& [shard, hub_id] : fanout->local_regs) {
    shards_[shard]->watch_hub()->Unregister(hub_id);
  }
}

Result<Bytes> ShardedServer::HandleWatch(const Request& request,
                                         net::StreamContext* stream) {
  std::shared_ptr<net::PushSink> sink;
  if (stream != nullptr) sink = stream->MakeSink();
  if (sink == nullptr) {
    return Status::FailedPrecondition(
        "kWatch needs a connection that can push (server push is "
        "impossible on loopback)");
  }
  const size_t shard_count = channels_.size();
  if (!request.watch_resume_token.empty() &&
      request.watch_resume_token.size() != shard_count) {
    return Status::InvalidArgument(
        "resume token covers " +
        std::to_string(request.watch_resume_token.size()) +
        " shards; this deployment has " + std::to_string(shard_count));
  }
  const bool has_resume = !request.watch_resume_token.empty();

  auto fanout = std::make_shared<WatchFanout>();
  fanout->sink = std::move(sink);
  // A sink implies a live pipelined connection: record its id so the
  // disconnect reaper can stop this fanout eagerly instead of letting
  // it linger until the next delivery hits the dead sink.
  fanout->conn_id = stream->connection_id();
  fanout->token = has_resume ? request.watch_resume_token
                             : std::vector<uint64_t>(shard_count, 0);
  {
    std::lock_guard<std::mutex> lock(watch_mutex_);
    fanout->watch_id = next_watch_id_++;
  }

  if (is_local()) {
    for (size_t s = 0; s < shard_count; ++s) {
      // The adapter runs on shard s's hub delivery thread; it captures
      // only shared state, so it stays safe after the facade forgets
      // the watch (the hub drops it on the first NetworkError).
      auto adapter = [fanout, s](const WatchFrame& frame) {
        return PushComposite(fanout, s, frame);
      };
      Result<WatchHub::Registration> registration =
          shards_[s]->watch_hub()->Register(request.watch_filter, has_resume,
                                            fanout->token[s], adapter);
      if (!registration.ok()) {
        StopWatch(fanout);
        return registration.status();
      }
      fanout->local_regs.emplace_back(s, registration->watch_id);
      std::lock_guard<std::mutex> lock(fanout->mutex);
      fanout->token[s] = registration->start_seq;
    }
  } else {
    for (size_t s = 0; s < shard_count; ++s) {
      Result<ShardWatchLeg> leg = OpenShardWatch(
          s, request.watch_filter, has_resume, fanout->token[s]);
      if (!leg.ok()) {
        StopWatch(fanout);
        return leg.status();
      }
      {
        std::lock_guard<std::mutex> lock(fanout->mutex);
        fanout->token[s] = leg->start_seq;
      }
      fanout->pumps.emplace_back([this, fanout, s,
                                  filter = request.watch_filter,
                                  moved = std::move(*leg)]() mutable {
        PumpShardWatch(fanout, s, filter, std::move(moved));
      });
    }
  }

  {
    std::lock_guard<std::mutex> lock(watch_mutex_);
    watches_.emplace(fanout->watch_id, fanout);
  }
  WatchFrame ack;
  ack.kind = WatchFrame::Kind::kAck;
  ack.watch_id = fanout->watch_id;
  {
    std::lock_guard<std::mutex> lock(fanout->mutex);
    ack.token = fanout->token;
  }
  return EncodeWatchFrame(ack);
}

Result<Bytes> ShardedServer::HandleWatchCancel(const Request& request) {
  std::shared_ptr<WatchFanout> fanout;
  {
    std::lock_guard<std::mutex> lock(watch_mutex_);
    auto it = watches_.find(request.watch_cancel_id);
    if (it != watches_.end()) {
      fanout = it->second;
      watches_.erase(it);
    }
  }
  if (fanout == nullptr) return EncodeInsertResponse(0);
  StopWatch(fanout);
  return EncodeInsertResponse(1);
}

Status ShardedServer::OpenCursorLeg(CompositeCursor* cursor, size_t shard,
                                    uint64_t start_offset) {
  const Bytes request = EncodeRangeSearchCursorRequest(
      cursor->query.pivot_distances, cursor->query.radius, cursor->page_size,
      start_offset);
  CursorLeg& leg = cursor->legs[shard];
  Result<Bytes> response = Status::NetworkError("no live replica");
  if (groups_.empty()) {
    // Local mode: the shard channel is the pin — its workers outlive
    // every cursor.
    SIMCLOUD_ASSIGN_OR_RETURN(uint64_t ticket,
                              channels_[shard]->Submit(request));
    response = channels_[shard]->Collect(ticket);
    SIMCLOUD_RETURN_NOT_OK(response.status());
  } else {
    // Pin a live replica exactly like watch legs: kUp first, then
    // kDegraded. The leg must keep hitting the replica that holds its
    // shard-side cursor state, so the transport is remembered.
    ReplicaGroupChannel* group = groups_[shard];
    Status last_error = Status::NetworkError("no live replica");
    bool opened = false;
    for (int pass = 0; pass < 2 && !opened; ++pass) {
      const bool degraded_ok = pass == 1;
      for (size_t r = 0; r < group->replica_count(); ++r) {
        ReplicaChannel* replica = group->replica(r);
        std::shared_ptr<net::TcpTransport> transport =
            replica->AcquireForRead(degraded_ok);
        if (transport == nullptr) continue;
        if (degraded_ok && replica->health() == ShardHealth::kUp) {
          continue;  // already tried in pass 0
        }
        Result<uint64_t> ticket = transport->Submit(request);
        if (!ticket.ok()) {
          replica->MarkFailure(transport, ticket.status());
          last_error = ticket.status();
          continue;
        }
        Result<Bytes> collected = transport->Collect(*ticket);
        if (!collected.ok()) {
          if (IsRemoteRejection(collected.status())) {
            // The shard answered with an error (too many cursors, bad
            // page size): the client's problem, not a failover trigger.
            return collected.status();
          }
          replica->MarkFailure(transport, collected.status());
          last_error = collected.status();
          continue;
        }
        leg.transport = std::move(transport);
        leg.replica = r;
        response = std::move(collected);
        opened = true;
        break;
      }
    }
    if (!opened) return last_error;
  }
  SIMCLOUD_ASSIGN_OR_RETURN(CursorPage page, DecodeCursorPage(*response));
  leg.shard_cursor_id = page.cursor_id;
  leg.exhausted = page.exhausted();
  leg.fetched = start_offset + page.candidates.size();
  for (auto& candidate : page.candidates) {
    leg.buffer.push_back(std::move(candidate));
  }
  // A reopen (start_offset > 0) replays a query whose ranked total and
  // collection stats were already counted at the original open.
  if (start_offset == 0) {
    cursor->total += page.total;
    cursor->stats.Add(page.stats);
  }
  return Status::OK();
}

Status ShardedServer::RefillCursorLeg(CompositeCursor* cursor, size_t shard) {
  CursorLeg& leg = cursor->legs[shard];
  if (leg.exhausted || !leg.buffer.empty()) return Status::OK();
  const Bytes request = EncodeCursorNextRequest(leg.shard_cursor_id);
  Result<Bytes> response = Status::NetworkError("no live replica");
  if (groups_.empty()) {
    SIMCLOUD_ASSIGN_OR_RETURN(uint64_t ticket,
                              channels_[shard]->Submit(request));
    response = channels_[shard]->Collect(ticket);
    SIMCLOUD_RETURN_NOT_OK(response.status());
  } else {
    Result<uint64_t> ticket = leg.transport->Submit(request);
    Result<Bytes> collected =
        ticket.ok() ? leg.transport->Collect(*ticket)
                    : Result<Bytes>(ticket.status());
    if (!collected.ok()) {
      if (IsRemoteRejection(collected.status())) {
        // The shard rejected the next (expired / invalidated): surface
        // it — the composite cursor is over, not the replica.
        return collected.status();
      }
      // The pinned replica died mid-cursor and took the shard-side state
      // with it. Reopen positionally on a survivor: identical data plus
      // the deterministic ranking make `fetched` a portable resume
      // point — this is the cursor analogue of a watch resume token.
      groups_[shard]->replica(leg.replica)->MarkFailure(leg.transport,
                                                        collected.status());
      leg.transport = nullptr;
      leg.shard_cursor_id = 0;
      return OpenCursorLeg(cursor, shard, leg.fetched);
    }
    response = std::move(collected);
  }
  SIMCLOUD_ASSIGN_OR_RETURN(CursorPage page, DecodeCursorPage(*response));
  leg.shard_cursor_id = page.cursor_id;
  leg.exhausted = page.exhausted();
  leg.fetched += page.candidates.size();
  for (auto& candidate : page.candidates) {
    leg.buffer.push_back(std::move(candidate));
  }
  return Status::OK();
}

Result<mindex::CandidateList> ShardedServer::MergeNextPage(
    CompositeCursor* cursor) {
  mindex::CandidateList page;
  while (page.size() < cursor->page_size) {
    // Pick the lowest-score head across shards (tie: lowest shard
    // index), refilling a shard only when its buffer is actually empty —
    // a shard's pages are pulled on demand, never ahead of need. The
    // strict < over ascending shard order reproduces the one-shot
    // concat + stable-sort merge byte for byte.
    size_t best = cursor->legs.size();
    for (size_t s = 0; s < cursor->legs.size(); ++s) {
      CursorLeg& leg = cursor->legs[s];
      if (leg.buffer.empty() && !leg.exhausted) {
        SIMCLOUD_RETURN_NOT_OK(RefillCursorLeg(cursor, s));
      }
      if (leg.buffer.empty()) continue;  // exhausted shard
      if (best == cursor->legs.size() ||
          leg.buffer.front().score < cursor->legs[best].buffer.front().score) {
        best = s;
      }
    }
    if (best == cursor->legs.size()) break;  // every shard drained
    page.push_back(std::move(cursor->legs[best].buffer.front()));
    cursor->legs[best].buffer.pop_front();
  }
  return page;
}

void ShardedServer::CloseCursorLegs(
    const std::shared_ptr<CompositeCursor>& cursor) {
  for (size_t s = 0; s < cursor->legs.size(); ++s) {
    CursorLeg& leg = cursor->legs[s];
    if (leg.shard_cursor_id == 0) continue;
    const Bytes request = EncodeCursorCloseRequest(leg.shard_cursor_id);
    if (groups_.empty()) {
      Result<uint64_t> ticket = channels_[s]->Submit(request);
      if (ticket.ok()) channels_[s]->Collect(*ticket).status();
    } else if (leg.transport != nullptr) {
      // Best effort on the pinned replica; if it died, its cursor died
      // with the connection (the shard reaps on disconnect) and the TTL
      // covers any race.
      Result<uint64_t> ticket = leg.transport->Submit(request);
      if (ticket.ok()) leg.transport->Collect(*ticket).status();
    }
    leg.shard_cursor_id = 0;
  }
}

Result<Bytes> ShardedServer::HandleRangeSearchCursor(
    const Request& request, net::StreamContext* stream) {
  // Same taxonomy as the single server: in-process calls (null stream)
  // rely on the TTL reaper.
  if (request.cursor_page_size == 0) {
    return Status::InvalidArgument("cursor page size must be > 0");
  }
  const uint64_t page_size =
      std::min(request.cursor_page_size, cursors_.config().max_page_size);

  auto cursor = std::make_shared<CompositeCursor>();
  cursor->query = request.range_queries[0];
  cursor->page_size = page_size;
  cursor->legs.resize(channels_.size());
  for (size_t s = 0; s < channels_.size(); ++s) {
    Status opened = OpenCursorLeg(cursor.get(), s, 0);
    if (!opened.ok()) {
      CloseCursorLegs(cursor);
      return opened;
    }
  }
  // The facade-level start_offset is a GLOBAL offset into the merged
  // stream; per-shard offsets cannot express it, so the merge discards
  // the prefix. Only reopen paths pay this (normal opens pass 0).
  uint64_t discard = request.cursor_start_offset;
  while (discard > 0) {
    const uint64_t chunk = std::min(discard, page_size);
    uint64_t saved_page_size = cursor->page_size;
    cursor->page_size = chunk;
    Result<mindex::CandidateList> skipped = MergeNextPage(cursor.get());
    cursor->page_size = saved_page_size;
    if (!skipped.ok()) {
      CloseCursorLegs(cursor);
      return skipped.status();
    }
    if (skipped->empty()) break;  // offset beyond the result set
    discard -= skipped->size();
  }

  CursorPage page;
  page.total = cursor->total;
  Result<mindex::CandidateList> merged = MergeNextPage(cursor.get());
  if (!merged.ok()) {
    CloseCursorLegs(cursor);
    return merged.status();
  }
  page.candidates = std::move(*merged);
  // The open page carries the summed fan-out stats, candidates pinned to
  // the merged total — exactly what the one-shot merge (FanOutBatch) reports.
  page.stats = cursor->stats;
  page.stats.candidates = cursor->total;

  bool drained = true;
  for (const CursorLeg& leg : cursor->legs) {
    if (!leg.exhausted || !leg.buffer.empty()) {
      drained = false;
      break;
    }
  }
  if (drained) {
    // Exhausted in one page: no facade state, no shard-side state (an
    // exhausted shard cursor already self-closed), cursor id 0.
    return EncodeCursorPage(page);
  }
  SIMCLOUD_ASSIGN_OR_RETURN(
      page.cursor_id,
      cursors_.Open(stream != nullptr ? stream->connection_id() : 0,
                    std::move(cursor)));
  return EncodeCursorPage(page);
}

Result<Bytes> ShardedServer::HandleCursorNext(const Request& request) {
  SIMCLOUD_ASSIGN_OR_RETURN(std::shared_ptr<void> state,
                            cursors_.Acquire(request.cursor_id));
  auto cursor = std::static_pointer_cast<CompositeCursor>(state);
  Result<mindex::CandidateList> merged = MergeNextPage(cursor.get());
  if (!merged.ok()) {
    // A failed merge (shard cursor expired / invalidated / no live
    // replica) ends the composite cursor: release the facade slot and
    // the surviving legs, surface the shard's error untouched.
    cursors_.Close(request.cursor_id);
    CloseCursorLegs(cursor);
    return merged.status();
  }
  CursorPage page;
  page.candidates = std::move(*merged);
  page.total = cursor->total;
  page.stats.candidates = page.candidates.size();
  bool drained = true;
  for (const CursorLeg& leg : cursor->legs) {
    if (!leg.exhausted || !leg.buffer.empty()) {
      drained = false;
      break;
    }
  }
  cursors_.Commit(request.cursor_id, drained);
  page.cursor_id = drained ? 0 : request.cursor_id;
  return EncodeCursorPage(page);
}

void ShardedServer::EnqueueReap(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(reap_mutex_);
    if (!reap_stop_) {
      reap_queue_.push_back(std::move(task));
      task = nullptr;
    }
  }
  if (task != nullptr) {
    // Shutting down: the destructor already joined (or is joining) the
    // reaper — run the teardown on this thread instead of dropping it.
    task();
    return;
  }
  reap_cv_.notify_all();
}

void ShardedServer::ReaperLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(reap_mutex_);
      reap_cv_.wait(lock, [&] { return reap_stop_ || !reap_queue_.empty(); });
      if (reap_queue_.empty()) return;  // stop requested and drained
      task = std::move(reap_queue_.front());
      reap_queue_.pop_front();
    }
    task();
  }
}

void ShardedServer::OnConnectionClosed(uint64_t connection_id) {
  if (connection_id == 0) return;
  // Unlink everything the dropped connection owned NOW (so stats and
  // admission see it gone), but defer the teardown I/O — joining pump
  // threads and closing shard-side cursors must not run on the
  // transport's event loop.
  std::vector<std::shared_ptr<void>> cursors = cursors_.CloseOwned(connection_id);
  std::vector<std::shared_ptr<WatchFanout>> fanouts;
  {
    std::lock_guard<std::mutex> lock(watch_mutex_);
    for (auto it = watches_.begin(); it != watches_.end();) {
      if (it->second->conn_id == connection_id) {
        fanouts.push_back(it->second);
        it = watches_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (cursors.empty() && fanouts.empty()) return;
  for (auto& fanout : fanouts) fanout->stop = true;  // pumps exit promptly
  EnqueueReap([this, cursors = std::move(cursors),
               fanouts = std::move(fanouts)] {
    for (const auto& state : cursors) {
      CloseCursorLegs(std::static_pointer_cast<CompositeCursor>(state));
    }
    for (const auto& fanout : fanouts) StopWatch(fanout);
  });
}

}  // namespace secure
}  // namespace simcloud
