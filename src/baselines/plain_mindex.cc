#include "baselines/plain_mindex.h"

#include <algorithm>

#include "common/serialize.h"

namespace simcloud {
namespace baselines {

using metric::Neighbor;
using metric::NeighborList;
using metric::VectorObject;

namespace {

enum class PlainOp : uint8_t {
  kInsertBatch = 10,
  kApproxKnn = 11,
  kRangeSearch = 12,
};

}  // namespace

/// Decoded request of the plain protocol (objects travel in the clear).
struct PlainRequest {
  PlainOp op;
  std::vector<VectorObject> objects;  // insert
  VectorObject query;                 // search
  uint64_t k = 0;
  uint64_t cand_size = 0;
  double radius = 0;
};

namespace {

Result<PlainRequest> DecodePlainRequest(const Bytes& data) {
  BinaryReader reader(data);
  SIMCLOUD_ASSIGN_OR_RETURN(uint8_t op_byte, reader.ReadU8());
  PlainRequest request;
  request.op = static_cast<PlainOp>(op_byte);
  switch (request.op) {
    case PlainOp::kInsertBatch: {
      SIMCLOUD_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint());
      request.objects.reserve(reader.BoundedCount(count));
      for (uint64_t i = 0; i < count; ++i) {
        SIMCLOUD_ASSIGN_OR_RETURN(VectorObject object,
                                  VectorObject::Deserialize(&reader));
        request.objects.push_back(std::move(object));
      }
      return request;
    }
    case PlainOp::kApproxKnn: {
      SIMCLOUD_ASSIGN_OR_RETURN(request.query,
                                VectorObject::Deserialize(&reader));
      SIMCLOUD_ASSIGN_OR_RETURN(request.k, reader.ReadVarint());
      SIMCLOUD_ASSIGN_OR_RETURN(request.cand_size, reader.ReadVarint());
      return request;
    }
    case PlainOp::kRangeSearch: {
      SIMCLOUD_ASSIGN_OR_RETURN(request.query,
                                VectorObject::Deserialize(&reader));
      SIMCLOUD_ASSIGN_OR_RETURN(request.radius, reader.ReadDouble());
      return request;
    }
  }
  return Status::Corruption("unknown plain opcode " + std::to_string(op_byte));
}

/// Answers carry the full objects, as the paper's plain M-Index returns
/// the refined answer set of k objects (Section 5.3).
Bytes EncodeAnswer(const std::vector<std::pair<Neighbor, Bytes>>& answer) {
  BinaryWriter writer;
  writer.WriteVarint(answer.size());
  for (const auto& [neighbor, payload] : answer) {
    writer.WriteVarint(neighbor.id);
    writer.WriteDouble(neighbor.distance);
    writer.WriteBytes(payload);
  }
  return writer.TakeBuffer();
}

Result<NeighborList> DecodeAnswer(const Bytes& data) {
  BinaryReader reader(data);
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint());
  NeighborList answer;
  answer.reserve(reader.BoundedCount(count));
  for (uint64_t i = 0; i < count; ++i) {
    Neighbor neighbor;
    SIMCLOUD_ASSIGN_OR_RETURN(neighbor.id, reader.ReadVarint());
    SIMCLOUD_ASSIGN_OR_RETURN(neighbor.distance, reader.ReadDouble());
    SIMCLOUD_ASSIGN_OR_RETURN(Bytes payload, reader.ReadBytes());
    (void)payload;  // clients of the benchmark use ids + distances
    answer.push_back(neighbor);
  }
  return answer;
}

}  // namespace

Result<std::unique_ptr<PlainMIndexServer>> PlainMIndexServer::Create(
    const mindex::MIndexOptions& options, mindex::PivotSet pivots,
    std::shared_ptr<metric::DistanceFunction> metric) {
  if (pivots.size() != options.num_pivots) {
    return Status::InvalidArgument("pivot set size does not match options");
  }
  SIMCLOUD_ASSIGN_OR_RETURN(std::unique_ptr<mindex::MIndex> index,
                            mindex::MIndex::Create(options));
  return std::unique_ptr<PlainMIndexServer>(new PlainMIndexServer(
      std::move(index), std::move(pivots), std::move(metric)));
}

Result<Bytes> PlainMIndexServer::Handle(const Bytes& request_bytes) {
  SIMCLOUD_ASSIGN_OR_RETURN(PlainRequest request,
                            DecodePlainRequest(request_bytes));
  switch (request.op) {
    case PlainOp::kInsertBatch:
      return HandleInsert(request);
    case PlainOp::kApproxKnn:
      return HandleKnn(request);
    case PlainOp::kRangeSearch:
      return HandleRange(request);
  }
  return Status::Corruption("unhandled plain opcode");
}

Result<Bytes> PlainMIndexServer::HandleInsert(PlainRequest& request) {
  std::vector<mindex::Insertion> items(request.objects.size());
  for (size_t i = 0; i < items.size(); ++i) {
    const VectorObject& object = request.objects[i];
    // The trusted server computes the object-pivot distances itself.
    Stopwatch watch;
    items[i].pivot_distances = pivots_.ComputeDistances(object, *metric_);
    costs_.distance_nanos += watch.ElapsedNanos();
    costs_.distance_computations += pivots_.size();

    BinaryWriter payload_writer;
    object.Serialize(&payload_writer);
    items[i].id = object.id();
    items[i].payload = payload_writer.TakeBuffer();
  }
  SIMCLOUD_RETURN_NOT_OK(index_->InsertBatch(std::move(items)));
  BinaryWriter writer;
  writer.WriteVarint(request.objects.size());
  return writer.TakeBuffer();
}

Result<Bytes> PlainMIndexServer::HandleKnn(const PlainRequest& request) {
  Stopwatch watch;
  std::vector<float> query_distances =
      pivots_.ComputeDistances(request.query, *metric_);
  costs_.distance_nanos += watch.ElapsedNanos();
  costs_.distance_computations += pivots_.size();

  // Algorithm 4 drives the candidate-set formation by the query pivot
  // permutation; use the same signature as the encrypted client so the
  // plain/encrypted comparison measures only the privacy overhead, not a
  // different cell-ranking heuristic.
  mindex::QuerySignature signature;
  signature.permutation = mindex::DistancesToPermutation(query_distances);
  SIMCLOUD_ASSIGN_OR_RETURN(
      mindex::CandidateList candidates,
      index_->ApproxKnnCandidates(signature, request.cand_size));

  // Server-side refinement: the trusted server evaluates true distances.
  std::vector<std::pair<Neighbor, Bytes>> answer;
  answer.reserve(candidates.size());
  for (const auto& candidate : candidates) {
    BinaryReader reader(candidate.payload);
    SIMCLOUD_ASSIGN_OR_RETURN(VectorObject object,
                              VectorObject::Deserialize(&reader));
    Stopwatch refine_watch;
    const double d = metric_->Distance(request.query, object);
    costs_.distance_nanos += refine_watch.ElapsedNanos();
    costs_.distance_computations++;
    answer.push_back({Neighbor{object.id(), d}, candidate.payload});
  }
  std::sort(answer.begin(), answer.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (answer.size() > request.k) answer.resize(request.k);
  return EncodeAnswer(answer);
}

Result<Bytes> PlainMIndexServer::HandleRange(const PlainRequest& request) {
  Stopwatch watch;
  std::vector<float> query_distances =
      pivots_.ComputeDistances(request.query, *metric_);
  costs_.distance_nanos += watch.ElapsedNanos();
  costs_.distance_computations += pivots_.size();

  SIMCLOUD_ASSIGN_OR_RETURN(
      mindex::CandidateList candidates,
      index_->RangeSearchCandidates(query_distances, request.radius));

  std::vector<std::pair<Neighbor, Bytes>> answer;
  for (const auto& candidate : candidates) {
    BinaryReader reader(candidate.payload);
    SIMCLOUD_ASSIGN_OR_RETURN(VectorObject object,
                              VectorObject::Deserialize(&reader));
    Stopwatch refine_watch;
    const double d = metric_->Distance(request.query, object);
    costs_.distance_nanos += refine_watch.ElapsedNanos();
    costs_.distance_computations++;
    if (d <= request.radius) {
      answer.push_back({Neighbor{object.id(), d}, candidate.payload});
    }
  }
  std::sort(answer.begin(), answer.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return EncodeAnswer(answer);
}

Status PlainClient::InsertBulk(const std::vector<VectorObject>& objects,
                               size_t bulk_size) {
  if (bulk_size == 0) {
    return Status::InvalidArgument("bulk size must be > 0");
  }
  size_t offset = 0;
  while (offset < objects.size()) {
    const size_t batch = std::min(bulk_size, objects.size() - offset);
    BinaryWriter writer;
    writer.WriteU8(static_cast<uint8_t>(PlainOp::kInsertBatch));
    writer.WriteVarint(batch);
    for (size_t i = 0; i < batch; ++i) {
      objects[offset + i].Serialize(&writer);
    }
    SIMCLOUD_ASSIGN_OR_RETURN(Bytes response,
                              transport_->Call(writer.buffer()));
    BinaryReader reader(response);
    SIMCLOUD_ASSIGN_OR_RETURN(uint64_t inserted, reader.ReadVarint());
    if (inserted != batch) {
      return Status::Internal("plain server acknowledged wrong batch size");
    }
    offset += batch;
  }
  return Status::OK();
}

Result<NeighborList> PlainClient::ApproxKnn(const VectorObject& query,
                                            size_t k, size_t cand_size) {
  BinaryWriter writer;
  writer.WriteU8(static_cast<uint8_t>(PlainOp::kApproxKnn));
  query.Serialize(&writer);
  writer.WriteVarint(k);
  writer.WriteVarint(cand_size);
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes response, transport_->Call(writer.buffer()));
  return DecodeAnswer(response);
}

Result<NeighborList> PlainClient::RangeSearch(const VectorObject& query,
                                              double radius) {
  BinaryWriter writer;
  writer.WriteU8(static_cast<uint8_t>(PlainOp::kRangeSearch));
  query.Serialize(&writer);
  writer.WriteDouble(radius);
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes response, transport_->Call(writer.buffer()));
  return DecodeAnswer(response);
}

}  // namespace baselines
}  // namespace simcloud
