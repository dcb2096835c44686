#include "traced_ops.h"

#include <algorithm>
#include <string>

#include "common/clock.h"
#include "mindex/permutation.h"
#include "secure/protocol.h"

namespace simcloud {
namespace bench_report {

using metric::Neighbor;
using metric::NeighborList;
using metric::VectorObject;

void LayerTotals::Add(const LayerTotals& other) {
  pivot_nanos += other.pivot_nanos;
  encrypt_nanos += other.encrypt_nanos;
  encode_nanos += other.encode_nanos;
  comm_nanos += other.comm_nanos;
  handle_nanos += other.handle_nanos;
  decode_nanos += other.decode_nanos;
  decrypt_nanos += other.decrypt_nanos;
  refine_nanos += other.refine_nanos;
  bytes_out += other.bytes_out;
  bytes_in += other.bytes_in;
  bytes_decrypted += other.bytes_decrypted;
  distance_computations += other.distance_computations;
  operations += other.operations;
}

namespace {

std::vector<float> PivotDistances(const TracedClient& client,
                                  const VectorObject& object,
                                  LayerTotals* layers) {
  Stopwatch watch;
  std::vector<float> distances =
      client.key->pivots().ComputeDistances(object, *client.metric);
  layers->pivot_nanos += watch.ElapsedNanos();
  layers->distance_computations += distances.size();
  return distances;
}

/// Transport::Call, split into handler time (what the server reports in
/// every response) and the rest of the wall time (the wire, both TCP
/// stacks, the secure channel and the server's event loop).
Result<Bytes> TimedCall(const TracedClient& client, const Bytes& request,
                        LayerTotals* layers) {
  const net::TransportCosts before = client.transport->costs();
  Stopwatch watch;
  Result<Bytes> response = client.transport->Call(request);
  const int64_t wall = watch.ElapsedNanos();
  const net::TransportCosts& after = client.transport->costs();
  const int64_t server = after.server_nanos - before.server_nanos;
  layers->handle_nanos += server;
  layers->comm_nanos += wall - server;
  layers->bytes_out += after.bytes_sent - before.bytes_sent;
  layers->bytes_in += after.bytes_received - before.bytes_received;
  return response;
}

/// Algorithm 2 lines 11-16: decrypt each candidate and evaluate the true
/// metric on it, then sort; keeps distances <= `radius` (radius < 0 keeps
/// all) and at most `k` neighbors (k = 0 keeps all).
Result<NeighborList> DecryptAndRefine(const TracedClient& client,
                                      const mindex::CandidateList& candidates,
                                      const VectorObject& query, double radius,
                                      size_t k, LayerTotals* layers) {
  NeighborList refined;
  refined.reserve(candidates.size());
  for (const mindex::Candidate& candidate : candidates) {
    Stopwatch watch;
    SIMCLOUD_ASSIGN_OR_RETURN(VectorObject object,
                              client.key->DecryptObject(candidate.payload));
    layers->decrypt_nanos += watch.ElapsedNanos();
    layers->bytes_decrypted += candidate.payload.size();
    watch.Reset();
    refined.push_back(
        Neighbor{object.id(), client.metric->Distance(query, object)});
    layers->refine_nanos += watch.ElapsedNanos();
  }
  Stopwatch watch;
  std::sort(refined.begin(), refined.end());
  if (radius >= 0) {
    refined.erase(std::find_if(refined.begin(), refined.end(),
                               [radius](const Neighbor& n) {
                                 return n.distance > radius;
                               }),
                  refined.end());
  }
  if (k > 0 && refined.size() > k) refined.resize(k);
  layers->refine_nanos += watch.ElapsedNanos();
  layers->distance_computations += candidates.size();
  return refined;
}

Result<NeighborList> TracedSearch(const TracedClient& client,
                                  const Bytes& request,
                                  const VectorObject& query, double radius,
                                  size_t k, LayerTotals* layers) {
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes response, TimedCall(client, request, layers));
  Stopwatch watch;
  SIMCLOUD_ASSIGN_OR_RETURN(secure::CandidateResponse decoded,
                            secure::DecodeCandidateResponse(response));
  layers->decode_nanos += watch.ElapsedNanos();
  layers->operations++;
  return DecryptAndRefine(client, decoded.candidates, query, radius, k,
                          layers);
}

/// Decodes an insert/delete acknowledgement and checks the count.
Status CheckAck(const Bytes& response, size_t expected, const char* what,
                LayerTotals* layers) {
  Stopwatch watch;
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t acknowledged,
                            secure::DecodeInsertResponse(response));
  layers->decode_nanos += watch.ElapsedNanos();
  if (acknowledged != expected) {
    return Status::Internal(std::string(what) + ": server acknowledged " +
                            std::to_string(acknowledged) + " of " +
                            std::to_string(expected));
  }
  return Status::OK();
}

}  // namespace

Result<NeighborList> TracedApproxKnn(const TracedClient& client,
                                     const VectorObject& query, size_t k,
                                     size_t cand_size, LayerTotals* layers) {
  std::vector<float> distances = PivotDistances(client, query, layers);
  Stopwatch watch;
  mindex::QuerySignature signature;
  signature.permutation = mindex::DistancesToPermutation(distances);
  const Bytes request = secure::EncodeApproxKnnRequest(signature, cand_size);
  layers->encode_nanos += watch.ElapsedNanos();
  return TracedSearch(client, request, query, /*radius=*/-1, k, layers);
}

Result<NeighborList> TracedRangeSearch(const TracedClient& client,
                                       const VectorObject& query,
                                       double radius, LayerTotals* layers) {
  std::vector<float> distances = PivotDistances(client, query, layers);
  Stopwatch watch;
  const Bytes request = secure::EncodeRangeSearchRequest(distances, radius);
  layers->encode_nanos += watch.ElapsedNanos();
  return TracedSearch(client, request, query, radius, /*k=*/0, layers);
}

Status TracedInsertBulk(const TracedClient& client,
                        const std::vector<VectorObject>& objects,
                        size_t bulk_size, LayerTotals* layers) {
  for (size_t offset = 0; offset < objects.size(); offset += bulk_size) {
    const size_t batch = std::min(bulk_size, objects.size() - offset);
    std::vector<secure::InsertItem> items(batch);
    for (size_t i = 0; i < batch; ++i) {
      const VectorObject& object = objects[offset + i];
      items[i].id = object.id();
      items[i].pivot_distances = PivotDistances(client, object, layers);
      Stopwatch watch;
      SIMCLOUD_ASSIGN_OR_RETURN(items[i].payload,
                                client.key->EncryptObject(object));
      layers->encrypt_nanos += watch.ElapsedNanos();
    }
    Stopwatch watch;
    const Bytes request = secure::EncodeInsertBatchRequest(items);
    layers->encode_nanos += watch.ElapsedNanos();
    SIMCLOUD_ASSIGN_OR_RETURN(Bytes response,
                              TimedCall(client, request, layers));
    SIMCLOUD_RETURN_NOT_OK(CheckAck(response, batch, "insert", layers));
    layers->operations += batch;
  }
  return Status::OK();
}

Status TracedDeleteBatch(const TracedClient& client,
                         const std::vector<VectorObject>& objects,
                         LayerTotals* layers) {
  std::vector<secure::DeleteItem> items;
  items.reserve(objects.size());
  for (const VectorObject& object : objects) {
    std::vector<float> distances = PivotDistances(client, object, layers);
    Stopwatch watch;
    items.push_back(secure::DeleteItem{
        object.id(), mindex::DistancesToPermutation(distances)});
    layers->pivot_nanos += watch.ElapsedNanos();
  }
  Stopwatch watch;
  const Bytes request = secure::EncodeDeleteBatchRequest(items);
  layers->encode_nanos += watch.ElapsedNanos();
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes response, TimedCall(client, request, layers));
  SIMCLOUD_RETURN_NOT_OK(CheckAck(response, objects.size(), "delete", layers));
  layers->operations += objects.size();
  return Status::OK();
}

}  // namespace bench_report
}  // namespace simcloud
