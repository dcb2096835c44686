#include "secure/client.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <thread>

#include "common/clock.h"
#include "common/parallel.h"
#include "mindex/permutation.h"
#include "secure/watch.h"

namespace simcloud {
namespace secure {

using metric::Neighbor;
using metric::NeighborList;
using metric::VectorObject;

namespace {

/// Maps a true-metric distance (a radius, a k-th best distance) into the
/// space the server ranks and filters in: through the key's
/// distribution-hiding transform when one is enabled.
double ToServerSpace(const SecretKey& key, double distance) {
  return key.has_transform() ? key.transform().Apply(distance) : distance;
}

/// Keeps the refined answers within `radius` of the query.
NeighborList WithinRadius(NeighborList refined, double radius) {
  std::erase_if(refined,
                [radius](const Neighbor& n) { return !(n.distance <= radius); });
  return refined;
}

/// Fewer objects per worker than this cost more to hand to a thread than
/// to compute on the caller's. Measured on an idle 4-vCPU guest with one
/// CoPhIR-like object's 100 pivot distances plus its encryption (9-13 us)
/// against a thread's spawn and join (10-27 us) in each of the two passes:
/// two workers only break even at 8 objects and win from 16.
constexpr size_t kMinObjectsPerWorker = 8;

/// Workers for a bulk of `n` objects: one per kMinObjectsPerWorker
/// objects, at most one per core. A bulk of one gets the caller alone.
int BulkWorkers(size_t n) {
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(std::min(
      cores, (n + kMinObjectsPerWorker - 1) / kMinObjectsPerWorker));
}

/// The routing distances of `object`: its distances to every pivot,
/// through the distribution-hiding transform when the key enables it.
std::vector<float> RoutingDistances(const SecretKey& key,
                                    const metric::DistanceFunction& metric,
                                    const VectorObject& object) {
  std::vector<float> distances = key.pivots().ComputeDistances(object, metric);
  if (key.has_transform()) distances = key.transform().ApplyAll(distances);
  return distances;
}

Status CheckKnnArguments(size_t k, size_t cand_size) {
  if (k == 0) return Status::InvalidArgument("k must be > 0");
  if (cand_size < k) {
    return Status::InvalidArgument("candidate set size must be >= k");
  }
  return Status::OK();
}

Status CheckBatchSize(size_t size, const char* unit) {
  if (size <= kMaxBatchQueries) return Status::OK();
  return Status::InvalidArgument(
      "batch exceeds the " + std::to_string(kMaxBatchQueries) + "-" + unit +
      " protocol limit; split it into smaller batches");
}

/// Marks a pipelined batch collected; refuses one that is not in flight.
template <typename Pending>
Status ClaimPending(Pending* pending) {
  if (pending == nullptr || !pending->live) {
    return Status::InvalidArgument(
        "batch was never submitted or is already collected");
  }
  pending->live = false;
  return Status::OK();
}

}  // namespace

/// One accounted operation. On scope exit it charges
///   overhead = op wall - tracked client work - time inside transport calls
/// so server and wire time, which the transport reports, never land in
/// the client's account. The only writer of overhead_nanos.
class EncryptionClient::Op {
 public:
  explicit Op(EncryptionClient* client)
      : client_(client), work_before_(Work()),
        transport_before_(client->transport_nanos_) {}
  ~Op() {
    const int64_t untracked = watch_.ElapsedNanos() - (Work() - work_before_) -
                              (client_->transport_nanos_ - transport_before_);
    client_->costs_.overhead_nanos += std::max<int64_t>(0, untracked);
  }
  Op(const Op&) = delete;
  Op& operator=(const Op&) = delete;

 private:
  int64_t Work() const {
    const ClientCosts& costs = client_->costs_;
    return costs.encryption_nanos + costs.decryption_nanos +
           costs.distance_nanos;
  }

  EncryptionClient* client_;
  Stopwatch watch_;
  const int64_t work_before_;
  const int64_t transport_before_;
};

Result<Bytes> EncryptionClient::Call(const Bytes& request) {
  Stopwatch watch;
  Result<Bytes> response = transport_->Call(request);
  transport_nanos_ += watch.ElapsedNanos();
  return response;
}

Result<Bytes> EncryptionClient::Exchange(const Bytes& request) {
  Stopwatch watch;
  Result<uint64_t> ticket = transport_->Submit(request);
  Result<Bytes> response =
      ticket.ok() ? transport_->Collect(*ticket) : ticket.status();
  transport_nanos_ += watch.ElapsedNanos();
  return response;
}

std::vector<float> EncryptionClient::ComputePivotDistances(
    const VectorObject& object) {
  Stopwatch watch;
  std::vector<float> distances = RoutingDistances(key_, *metric_, object);
  costs_.distance_nanos += watch.ElapsedNanos();
  costs_.distance_computations += key_.num_pivots();
  return distances;
}

Result<std::vector<InsertItem>> EncryptionClient::PrepareObjects(
    std::span<const VectorObject> objects, Routing routing, bool encrypt) {
  const size_t n = objects.size();
  const int workers = BulkWorkers(n);
  std::vector<InsertItem> items(n);

  // Algorithm 1 lines 1-7: distances, then distances or permutation. A
  // strictly monotone transform preserves the permutation, so the
  // permutation is computed from the (possibly transformed) values. Each
  // object writes only its own slot.
  Stopwatch distance_watch;
  SIMCLOUD_RETURN_NOT_OK(ParallelFor(workers, n, [&](size_t i) {
    InsertItem& item = items[i];
    item.id = objects[i].id();
    std::vector<float> distances = RoutingDistances(key_, *metric_, objects[i]);
    if (routing == Routing::kDistances) {
      item.pivot_distances = std::move(distances);
    } else {
      item.permutation = mindex::DistancesToPermutation(distances);
    }
    return Status::OK();
  }));
  costs_.distance_nanos += distance_watch.ElapsedNanos();
  costs_.distance_computations += n * key_.num_pivots();
  if (!encrypt) return items;

  // Algorithm 1 line 8: store encrypted data only.
  Stopwatch encryption_watch;
  SIMCLOUD_RETURN_NOT_OK(ParallelFor(workers, n, [&](size_t i) -> Status {
    SIMCLOUD_ASSIGN_OR_RETURN(items[i].payload, key_.EncryptObject(objects[i]));
    return Status::OK();
  }));
  costs_.encryption_nanos += encryption_watch.ElapsedNanos();
  costs_.objects_encrypted += n;
  return items;
}

Status EncryptionClient::Insert(const VectorObject& object,
                                InsertStrategy strategy) {
  return InsertBulk({object}, strategy, 1);
}

Status EncryptionClient::InsertBulk(const std::vector<VectorObject>& objects,
                                    InsertStrategy strategy,
                                    size_t bulk_size) {
  if (bulk_size == 0) {
    return Status::InvalidArgument("bulk size must be > 0");
  }
  size_t offset = 0;
  while (offset < objects.size()) {
    const size_t batch = std::min(bulk_size, objects.size() - offset);
    Op op(this);
    SIMCLOUD_ASSIGN_OR_RETURN(
        std::vector<InsertItem> items,
        PrepareObjects(std::span(objects).subspan(offset, batch),
                       strategy == InsertStrategy::kPrecise
                           ? Routing::kDistances
                           : Routing::kPermutation,
                       /*encrypt=*/true));
    SIMCLOUD_ASSIGN_OR_RETURN(Bytes response_bytes,
                              Call(EncodeInsertBatchRequest(items)));
    SIMCLOUD_ASSIGN_OR_RETURN(uint64_t inserted,
                              DecodeInsertResponse(response_bytes));
    if (inserted != batch) {
      return Status::Internal("server acknowledged " +
                              std::to_string(inserted) + " of " +
                              std::to_string(batch) + " inserts");
    }
    offset += batch;
  }
  return Status::OK();
}

Status EncryptionClient::Delete(const metric::VectorObject& object) {
  return DeleteBatch({object}, 1);
}

Status EncryptionClient::DeleteBatch(
    const std::vector<VectorObject>& objects, size_t bulk_size) {
  if (bulk_size == 0) {
    return Status::InvalidArgument("bulk size must be > 0");
  }
  bulk_size = std::min<size_t>(bulk_size, kMaxBatchQueries);
  size_t missing = 0;
  size_t offset = 0;
  while (offset < objects.size()) {
    const size_t batch = std::min(bulk_size, objects.size() - offset);
    Op op(this);
    SIMCLOUD_ASSIGN_OR_RETURN(
        Bytes request,
        BuildDeleteBatchRequest(std::span(objects).subspan(offset, batch)));
    SIMCLOUD_ASSIGN_OR_RETURN(Bytes response, Call(request));
    SIMCLOUD_ASSIGN_OR_RETURN(uint64_t deleted,
                              DecodeInsertResponse(response));
    if (deleted > batch) {
      return Status::Internal("server acknowledged more deletes than sent");
    }
    missing += batch - deleted;
    offset += batch;
  }
  if (missing > 0) {
    return Status::NotFound(std::to_string(missing) + " of " +
                            std::to_string(objects.size()) +
                            " objects were not indexed");
  }
  return Status::OK();
}

Result<Bytes> EncryptionClient::BuildDeleteBatchRequest(
    std::span<const VectorObject> objects) {
  // The routing permutation is derived exactly as the insert derived it
  // (both strategies route by the permutation of the transformed
  // distances), so the delete reaches the same cell.
  SIMCLOUD_ASSIGN_OR_RETURN(
      std::vector<InsertItem> prepared,
      PrepareObjects(objects, Routing::kPermutation, /*encrypt=*/false));
  std::vector<DeleteItem> items;
  items.reserve(prepared.size());
  for (InsertItem& item : prepared) {
    items.push_back(DeleteItem{item.id, std::move(item.permutation)});
  }
  return EncodeDeleteBatchRequest(items);
}

Result<mindex::CompactionReport> EncryptionClient::Compact(bool force) {
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes response, Call(EncodeCompactRequest(force)));
  return DecodeCompactResponse(response);
}

Result<VectorObject> EncryptionClient::DecryptCandidate(
    const Bytes& payload) {
  Stopwatch watch;
  SIMCLOUD_ASSIGN_OR_RETURN(VectorObject object, key_.DecryptObject(payload));
  costs_.decryption_nanos += watch.ElapsedNanos();
  costs_.candidates_decrypted++;
  return object;
}

double EncryptionClient::MeasuredDistance(const VectorObject& query,
                                          const VectorObject& object) {
  Stopwatch watch;
  const double d = metric_->Distance(query, object);
  costs_.distance_nanos += watch.ElapsedNanos();
  costs_.distance_computations++;
  return d;
}

Result<NeighborList> EncryptionClient::RefineCandidates(
    const mindex::CandidateList& candidates, const VectorObject& query) {
  std::vector<VectorObject> objects;
  objects.reserve(candidates.size());
  for (const auto& candidate : candidates) {
    SIMCLOUD_ASSIGN_OR_RETURN(VectorObject object,
                              DecryptCandidate(candidate.payload));
    objects.push_back(std::move(object));
  }
  std::vector<double> distances(objects.size());
  Stopwatch watch;
  metric_->DistanceMany(query, objects, distances);
  costs_.distance_nanos += watch.ElapsedNanos();
  costs_.distance_computations += objects.size();

  NeighborList refined;
  refined.reserve(objects.size());
  for (size_t i = 0; i < objects.size(); ++i) {
    refined.push_back(Neighbor{objects[i].id(), distances[i]});
  }
  std::sort(refined.begin(), refined.end());
  return refined;
}

Result<CandidateResponse> EncryptionClient::FetchCandidates(
    const VectorObject& query,
    const std::function<Bytes(std::vector<float>)>& encode) {
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes response,
                            Call(encode(ComputePivotDistances(query))));
  return DecodeCandidateResponse(response);
}

Result<NeighborList> EncryptionClient::RangeSearch(const VectorObject& query,
                                                   double radius) {
  if (radius < 0) {
    return Status::InvalidArgument("radius must be >= 0");
  }
  Op op(this);
  // Algorithm 2 lines 1-6 (precise branch): distances only, no query object.
  const auto encode = [&](std::vector<float> distances) {
    return EncodeRangeSearchRequest(distances, ToServerSpace(key_, radius));
  };
  SIMCLOUD_ASSIGN_OR_RETURN(CandidateResponse response,
                            FetchCandidates(query, encode));
  // Algorithm 2 lines 11-16: decrypt + refine with the true metric.
  SIMCLOUD_ASSIGN_OR_RETURN(NeighborList refined,
                            RefineCandidates(response.candidates, query));
  return WithinRadius(std::move(refined), radius);
}

Result<NeighborList> EncryptionClient::ApproxKnnSingleCell(
    const VectorObject& query, size_t k) {
  if (k == 0) return Status::InvalidArgument("k must be > 0");
  return RankedKnn(query, k, /*cand_size=*/1, /*whole_cells=*/true);
}

Result<NeighborList> EncryptionClient::ApproxKnn(const VectorObject& query,
                                                 size_t k, size_t cand_size) {
  SIMCLOUD_RETURN_NOT_OK(CheckKnnArguments(k, cand_size));
  return RankedKnn(query, k, cand_size, /*whole_cells=*/false);
}

Result<NeighborList> EncryptionClient::RankedKnn(const VectorObject& query,
                                                 size_t k, size_t cand_size,
                                                 bool whole_cells) {
  Op op(this);
  // Algorithm 2 lines 7-10 (approximate branch): permutation only.
  const auto encode = [&](std::vector<float> distances) {
    mindex::QuerySignature signature;
    signature.permutation = mindex::DistancesToPermutation(distances);
    signature.whole_cells = whole_cells;
    return EncodeApproxKnnRequest(signature, cand_size);
  };
  SIMCLOUD_ASSIGN_OR_RETURN(CandidateResponse response,
                            FetchCandidates(query, encode));
  SIMCLOUD_ASSIGN_OR_RETURN(NeighborList refined,
                            RefineCandidates(response.candidates, query));
  if (refined.size() > k) refined.resize(k);
  return refined;
}

Result<std::vector<NeighborList>> EncryptionClient::RefineBatch(
    const Bytes& response_bytes, const std::vector<VectorObject>& queries) {
  SIMCLOUD_ASSIGN_OR_RETURN(BatchCandidateResponse response,
                            DecodeBatchCandidateResponse(response_bytes));
  if (response.query_count() != queries.size()) {
    return Status::Internal("server answered " +
                            std::to_string(response.query_count()) + " of " +
                            std::to_string(queries.size()) +
                            " batched queries");
  }
  std::vector<std::optional<VectorObject>> decoded(
      response.batch.payloads.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    for (const mindex::BatchCandidateRef& ref : response.batch.per_query[q]) {
      if (!decoded[ref.payload_index].has_value()) {
        SIMCLOUD_ASSIGN_OR_RETURN(
            VectorObject object,
            DecryptCandidate(response.batch.payloads[ref.payload_index]));
        decoded[ref.payload_index] = std::move(object);
      }
    }
  }

  std::vector<NeighborList> results(queries.size());
  Stopwatch watch;
  for (size_t q = 0; q < queries.size(); ++q) {
    NeighborList& refined = results[q];
    refined.reserve(response.batch.per_query[q].size());
    for (const mindex::BatchCandidateRef& ref : response.batch.per_query[q]) {
      const VectorObject& object = *decoded[ref.payload_index];
      refined.push_back(
          Neighbor{object.id(), metric_->Distance(queries[q], object)});
    }
    costs_.distance_computations += refined.size();
  }
  costs_.distance_nanos += watch.ElapsedNanos();
  for (NeighborList& refined : results) {
    std::sort(refined.begin(), refined.end());
  }
  return results;
}

Result<Bytes> EncryptionClient::BuildRangeSearchBatchRequest(
    const std::vector<VectorObject>& queries, double radius) {
  if (radius < 0) {
    return Status::InvalidArgument("radius must be >= 0");
  }
  SIMCLOUD_RETURN_NOT_OK(CheckBatchSize(queries.size(), "query"));
  const double sent_radius = ToServerSpace(key_, radius);
  SIMCLOUD_ASSIGN_OR_RETURN(
      std::vector<InsertItem> prepared,
      PrepareObjects(queries, Routing::kDistances, /*encrypt=*/false));
  std::vector<mindex::RangeQuery> batch(prepared.size());
  for (size_t i = 0; i < prepared.size(); ++i) {
    batch[i].pivot_distances = std::move(prepared[i].pivot_distances);
    batch[i].radius = sent_radius;
  }
  return EncodeRangeSearchBatchRequest(batch);
}

Result<std::vector<NeighborList>> EncryptionClient::FinishRangeSearchBatch(
    const Bytes& response_bytes, const std::vector<VectorObject>& queries,
    double radius) {
  SIMCLOUD_ASSIGN_OR_RETURN(std::vector<NeighborList> answers,
                            RefineBatch(response_bytes, queries));
  for (NeighborList& answer : answers) {
    answer = WithinRadius(std::move(answer), radius);
  }
  return answers;
}

Result<std::vector<NeighborList>> EncryptionClient::RangeSearchBatch(
    const std::vector<VectorObject>& queries, double radius) {
  Op op(this);
  // Built (and thereby argument-validated) before the empty shortcut so
  // invalid arguments fail even for an empty batch.
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes request,
                            BuildRangeSearchBatchRequest(queries, radius));
  if (queries.empty()) return std::vector<NeighborList>{};
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes response_bytes, Call(request));
  return FinishRangeSearchBatch(response_bytes, queries, radius);
}

Result<Bytes> EncryptionClient::BuildApproxKnnBatchRequest(
    const std::vector<VectorObject>& queries, size_t k, size_t cand_size) {
  SIMCLOUD_RETURN_NOT_OK(CheckKnnArguments(k, cand_size));
  SIMCLOUD_RETURN_NOT_OK(CheckBatchSize(queries.size(), "query"));
  SIMCLOUD_ASSIGN_OR_RETURN(
      std::vector<InsertItem> prepared,
      PrepareObjects(queries, Routing::kPermutation, /*encrypt=*/false));
  std::vector<mindex::KnnQuery> batch(prepared.size());
  for (size_t i = 0; i < prepared.size(); ++i) {
    batch[i].signature.permutation = std::move(prepared[i].permutation);
    batch[i].cand_size = cand_size;
  }
  return EncodeApproxKnnBatchRequest(batch);
}

Result<std::vector<NeighborList>> EncryptionClient::FinishApproxKnnBatch(
    const Bytes& response_bytes, const std::vector<VectorObject>& queries,
    size_t k) {
  SIMCLOUD_ASSIGN_OR_RETURN(std::vector<NeighborList> answers,
                            RefineBatch(response_bytes, queries));
  for (NeighborList& refined : answers) {
    if (refined.size() > k) refined.resize(k);
  }
  return answers;
}

Result<std::vector<NeighborList>> EncryptionClient::ApproxKnnBatch(
    const std::vector<VectorObject>& queries, size_t k, size_t cand_size) {
  Op op(this);
  SIMCLOUD_ASSIGN_OR_RETURN(
      Bytes request, BuildApproxKnnBatchRequest(queries, k, cand_size));
  if (queries.empty()) return std::vector<NeighborList>{};
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes response_bytes, Call(request));
  return FinishApproxKnnBatch(response_bytes, queries, k);
}

Result<PendingQueryBatch> EncryptionClient::SubmitRangeSearchBatch(
    std::vector<VectorObject> queries, double radius) {
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes request,
                            BuildRangeSearchBatchRequest(queries, radius));
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t ticket, transport_->Submit(request));
  return PendingQueryBatch{.ticket = ticket, .live = true,
                           .queries = std::move(queries), .radius = radius};
}

Result<std::vector<NeighborList>> EncryptionClient::CollectRangeSearchBatch(
    PendingQueryBatch* pending) {
  SIMCLOUD_RETURN_NOT_OK(ClaimPending(pending));
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes response_bytes,
                            transport_->Collect(pending->ticket));
  return FinishRangeSearchBatch(response_bytes, pending->queries,
                                pending->radius);
}

Result<PendingQueryBatch> EncryptionClient::SubmitApproxKnnBatch(
    std::vector<VectorObject> queries, size_t k, size_t cand_size) {
  SIMCLOUD_ASSIGN_OR_RETURN(
      Bytes request, BuildApproxKnnBatchRequest(queries, k, cand_size));
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t ticket, transport_->Submit(request));
  return PendingQueryBatch{.ticket = ticket, .live = true,
                           .queries = std::move(queries), .k = k};
}

Result<std::vector<NeighborList>> EncryptionClient::CollectApproxKnnBatch(
    PendingQueryBatch* pending) {
  SIMCLOUD_RETURN_NOT_OK(ClaimPending(pending));
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes response_bytes,
                            transport_->Collect(pending->ticket));
  return FinishApproxKnnBatch(response_bytes, pending->queries, pending->k);
}

Result<PendingDeleteBatch> EncryptionClient::SubmitDeleteBatch(
    const std::vector<VectorObject>& objects) {
  SIMCLOUD_RETURN_NOT_OK(CheckBatchSize(objects.size(), "item"));
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes request, BuildDeleteBatchRequest(objects));
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t ticket, transport_->Submit(request));
  return PendingDeleteBatch{
      .ticket = ticket, .live = true, .count = objects.size()};
}

Status EncryptionClient::CollectDeleteBatch(PendingDeleteBatch* pending) {
  SIMCLOUD_RETURN_NOT_OK(ClaimPending(pending));
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes response,
                            transport_->Collect(pending->ticket));
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t deleted, DecodeInsertResponse(response));
  if (deleted > pending->count) {
    return Status::Internal("server acknowledged more deletes than sent");
  }
  if (deleted < pending->count) {
    return Status::NotFound(std::to_string(pending->count - deleted) +
                            " of " + std::to_string(pending->count) +
                            " objects were not indexed");
  }
  return Status::OK();
}

Status EncryptionClient::Ping() {
  return Call(EncodePingRequest()).status();  // the response is empty
}

Result<uint64_t> EncryptionClient::SubmitPing() {
  return transport_->Submit(EncodePingRequest());
}

Status EncryptionClient::CollectPing(uint64_t ticket) {
  return transport_->Collect(ticket).status();
}

Result<NeighborList> EncryptionClient::ApproxKnnEarlyStop(
    const VectorObject& query, size_t k, size_t cand_size) {
  SIMCLOUD_RETURN_NOT_OK(CheckKnnArguments(k, cand_size));
  Op op(this);
  // Send the distances, not just the permutation: the server then ranks
  // candidates by their pivot-filtering lower bound on d(q, o) (in the
  // transformed space when a transform is enabled).
  const auto encode = [&](std::vector<float> distances) {
    mindex::QuerySignature signature;
    signature.permutation = mindex::DistancesToPermutation(distances);
    signature.pivot_distances = std::move(distances);
    return EncodeApproxKnnRequest(signature, cand_size);
  };
  SIMCLOUD_ASSIGN_OR_RETURN(CandidateResponse response,
                            FetchCandidates(query, encode));

  // Refine in rank order; stop when the next candidate's lower bound
  // already exceeds the k-th best true distance found so far. Scores are
  // lower bounds in the (possibly transformed) space, so the comparison
  // maps the current k-th distance through the transform first.
  NeighborList best;  // kept sorted ascending, size <= k
  for (const auto& candidate : response.candidates) {
    if (best.size() == k &&
        candidate.score > ToServerSpace(key_, best.back().distance)) {
      break;  // sound stop
    }
    SIMCLOUD_ASSIGN_OR_RETURN(VectorObject object,
                              DecryptCandidate(candidate.payload));
    const Neighbor neighbor{object.id(), MeasuredDistance(query, object)};
    auto pos = std::lower_bound(best.begin(), best.end(), neighbor);
    if (best.size() < k) {
      best.insert(pos, neighbor);
    } else if (pos != best.end()) {
      best.insert(pos, neighbor);
      best.pop_back();
    }
  }
  return best;
}

Result<NeighborList> EncryptionClient::PreciseKnn(const VectorObject& query,
                                                  size_t k) {
  if (k == 0) return Status::InvalidArgument("k must be > 0");

  // Phase 1: approximate k-NN to find an upper bound rho_k on the k-th
  // nearest neighbor distance.
  const size_t cand_size = std::max<size_t>(2 * k, 50);
  SIMCLOUD_ASSIGN_OR_RETURN(NeighborList approx,
                            ApproxKnn(query, k, cand_size));
  if (approx.size() < k) {
    // Collection may simply be smaller than k; a full range scan with an
    // infinite radius would be the fallback. Use the largest distance
    // observed, or fall back to a plain range over everything.
    if (approx.empty()) {
      return RangeSearch(query, std::numeric_limits<double>::max() / 4);
    }
  }
  const double rho_k = approx.back().distance;

  // Phase 2: precise range query with radius rho_k covers every true
  // k-nearest neighbor (their distances are <= true rho_k <= this rho_k).
  SIMCLOUD_ASSIGN_OR_RETURN(NeighborList in_range,
                            RangeSearch(query, rho_k));
  if (in_range.size() > k) in_range.resize(k);
  return in_range;
}

Result<mindex::IndexStats> EncryptionClient::GetServerStats() {
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes response, Call(EncodeGetStatsRequest()));
  return DecodeStatsResponse(response);
}

Result<obs::MetricsSnapshot> EncryptionClient::GetMetrics() {
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes response, Call(EncodeGetMetricsRequest()));
  return DecodeMetricsResponse(response);
}

namespace {

/// Registration handshake: how long to wait for the server's kAck.
constexpr int kWatchAckTimeoutMs = 5000;

}  // namespace

bool EncryptionClient::IsWatchLost(const Status& status) {
  return secure::IsWatchLost(status);
}

Result<std::unique_ptr<WatchStream>> EncryptionClient::OpenWatch(
    const WatchFilter& filter, const std::vector<uint64_t>& resume_token) {
  SIMCLOUD_ASSIGN_OR_RETURN(
      uint64_t ticket,
      transport_->SubmitStream(EncodeWatchRequest(filter, resume_token)));
  // The ack answers the registration, but the delivery thread may win
  // the race and push resumed events onto the id first — stash those for
  // the stream's Next().
  std::deque<WatchFrame> early;
  for (;;) {
    Result<Bytes> frame_bytes =
        transport_->CollectStream(ticket, kWatchAckTimeoutMs);
    if (!frame_bytes.ok()) {
      transport_->CloseStream(ticket);
      return frame_bytes.status();
    }
    Result<WatchFrame> frame = DecodeWatchFrame(*frame_bytes);
    if (!frame.ok()) {
      transport_->CloseStream(ticket);
      return frame.status();
    }
    if (frame->kind == WatchFrame::Kind::kAck) {
      auto stream = std::unique_ptr<WatchStream>(new WatchStream(
          this, transport_, ticket, frame->watch_id, frame->token));
      stream->early_ = std::move(early);
      return stream;
    }
    early.push_back(std::move(*frame));
  }
}

Result<std::unique_ptr<WatchStream>> EncryptionClient::Watch(
    const VectorObject& query, double radius,
    const std::vector<uint64_t>& resume_token) {
  if (radius < 0) {
    return Status::InvalidArgument("radius must be >= 0");
  }
  // Like RangeSearch, the wire carries only transformed pivot distances
  // and the transformed radius — the query object stays client-side.
  WatchFilter filter;
  filter.kind = WatchFilter::Kind::kRange;
  filter.query_distances = ComputePivotDistances(query);
  filter.radius = ToServerSpace(key_, radius);
  return OpenWatch(filter, resume_token);
}

Result<std::unique_ptr<WatchStream>> EncryptionClient::WatchAll(
    const std::vector<uint64_t>& resume_token) {
  return OpenWatch(WatchFilter{}, resume_token);
}

WatchStream::~WatchStream() { transport_->CloseStream(ticket_); }

Result<WatchEvent> WatchStream::ToEvent(const WatchFrame& frame) {
  WatchEvent event;
  event.resume_token = frame.token;
  switch (frame.kind) {
    case WatchFrame::Kind::kInsert: {
      event.kind = WatchEvent::Kind::kInsert;
      event.id = frame.object_id;
      SIMCLOUD_ASSIGN_OR_RETURN(metric::VectorObject object,
                                client_->DecryptCandidate(frame.payload));
      event.object = std::move(object);
      return event;
    }
    case WatchFrame::Kind::kDelete:
      event.kind = WatchEvent::Kind::kDelete;
      event.id = frame.object_id;
      return event;
    case WatchFrame::Kind::kLost:
      event.kind = WatchEvent::Kind::kLost;
      event.message = frame.message;
      return event;
    case WatchFrame::Kind::kAck:
      break;
  }
  return Status::Corruption("unexpected frame kind on a live watch");
}

Result<WatchEvent> WatchStream::Next(int timeout_ms) {
  if (finished_) {
    return Status::FailedPrecondition("watch stream is finished");
  }
  for (;;) {
    WatchFrame frame;
    if (!early_.empty()) {
      frame = std::move(early_.front());
      early_.pop_front();
    } else {
      Result<Bytes> frame_bytes =
          transport_->CollectStream(ticket_, timeout_ms);
      SIMCLOUD_RETURN_NOT_OK(frame_bytes.status());
      Result<WatchFrame> decoded = DecodeWatchFrame(*frame_bytes);
      SIMCLOUD_RETURN_NOT_OK(decoded.status());
      frame = std::move(*decoded);
    }
    if (frame.kind == WatchFrame::Kind::kAck) continue;  // late duplicate
    Result<WatchEvent> event = ToEvent(frame);
    if (event.ok()) {
      token_ = event->resume_token;
      if (event->kind == WatchEvent::Kind::kLost) finished_ = true;
    }
    return event;
  }
}

Status WatchStream::Cancel() {
  if (finished_) return Status::OK();
  finished_ = true;
  Status outcome = Status::OK();
  Result<uint64_t> cancel =
      transport_->Submit(EncodeWatchCancelRequest(watch_id_));
  if (cancel.ok()) {
    outcome = transport_->Collect(*cancel).status();
  } else {
    outcome = cancel.status();
  }
  // Wire FIFO: every push the server enqueued before answering the
  // cancel has been read by now — drain (and drop) them BEFORE closing
  // so no late frame poisons the id. resume_token() stays at the last
  // consumed event; resuming replays the dropped tail (at-least-once).
  for (;;) {
    Result<Bytes> drained = transport_->CollectStream(ticket_, 0);
    if (!drained.ok()) break;
  }
  transport_->CloseStream(ticket_);
  return outcome;
}

Result<std::unique_ptr<CursorStream>> EncryptionClient::OpenRangeCursor(
    const VectorObject& query, double radius, uint64_t page_size) {
  if (radius < 0) {
    return Status::InvalidArgument("radius must be >= 0");
  }
  if (page_size == 0) {
    return Status::InvalidArgument("cursor page size must be > 0");
  }
  Op op(this);
  // Same privacy envelope as RangeSearch: distances only, transformed
  // radius, no query object on the wire. The first page's decryption and
  // refinement happen in the first Next().
  SIMCLOUD_ASSIGN_OR_RETURN(
      Bytes response_bytes,
      Exchange(EncodeRangeSearchCursorRequest(ComputePivotDistances(query),
                                              ToServerSpace(key_, radius),
                                              page_size,
                                              /*start_offset=*/0)));
  SIMCLOUD_ASSIGN_OR_RETURN(CursorPage first, DecodeCursorPage(response_bytes));
  return std::unique_ptr<CursorStream>(
      new CursorStream(this, query, radius, std::move(first)));
}

CursorStream::~CursorStream() {
  // Best effort; a dead connection just leaves the cursor to the
  // server's TTL / disconnect reaper.
  Close().ok();
}

Result<NeighborList> CursorStream::Next() {
  if (closed_) {
    return Status::FailedPrecondition("cursor stream is closed");
  }
  if (exhausted()) return NeighborList{};
  EncryptionClient::Op op(client_);
  CursorPage page;
  if (first_pending_) {
    page = std::move(first_page_);
    first_page_ = CursorPage{};
    first_pending_ = false;
  } else {
    SIMCLOUD_ASSIGN_OR_RETURN(
        Bytes response_bytes,
        client_->Exchange(EncodeCursorNextRequest(cursor_id_)));
    SIMCLOUD_ASSIGN_OR_RETURN(page, DecodeCursorPage(response_bytes));
    cursor_id_ = page.cursor_id;
  }

  // Algorithm 2 lines 11-16, one page at a time: decrypt, evaluate the
  // true metric, keep the real matches.
  SIMCLOUD_ASSIGN_OR_RETURN(
      NeighborList refined,
      client_->RefineCandidates(page.candidates, query_));
  return WithinRadius(std::move(refined), radius_);
}

Status CursorStream::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  if (cursor_id_ == 0) return Status::OK();  // server already dropped it
  const uint64_t id = cursor_id_;
  cursor_id_ = 0;
  return client_->Exchange(EncodeCursorCloseRequest(id)).status();
}

}  // namespace secure
}  // namespace simcloud
