// Traced rebuilds of the EncryptionClient operations the workloads issue.
//
// Each function performs one operation through the same sequence of
// public calls EncryptionClient makes (pivot distances, request encoder,
// Transport::Call, response decoder, decryption, true-metric refinement)
// and times every call, so the per-layer split of an operation comes from
// the benchmark's own files without instrumenting the library. The
// answers are identical to EncryptionClient's; the benchmark asserts it.

#ifndef SIMCLOUD_BENCH_REPORT_TRACED_OPS_H_
#define SIMCLOUD_BENCH_REPORT_TRACED_OPS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "metric/distance.h"
#include "metric/neighbor.h"
#include "net/transport.h"
#include "secure/secret_key.h"

namespace simcloud {
namespace bench_report {

/// Time spent in each layer by one or more rebuilt operations, plus the
/// work counts measured at the same boundaries.
struct LayerTotals {
  int64_t pivot_nanos = 0;    ///< PivotSet::ComputeDistances (+ permutation)
  int64_t encrypt_nanos = 0;  ///< SecretKey::EncryptObject
  int64_t encode_nanos = 0;   ///< Encode*Request
  int64_t comm_nanos = 0;     ///< Transport::Call wall time minus handler time
  int64_t handle_nanos = 0;   ///< handler time reported in TransportCosts
  int64_t decode_nanos = 0;   ///< Decode*Response
  int64_t decrypt_nanos = 0;  ///< SecretKey::DecryptObject over candidates
  int64_t refine_nanos = 0;   ///< Distance over candidates, sort, trim
  uint64_t bytes_out = 0;     ///< request bytes (TransportCosts)
  uint64_t bytes_in = 0;      ///< response bytes (TransportCosts)
  uint64_t bytes_decrypted = 0;
  uint64_t distance_computations = 0;
  uint64_t operations = 0;

  /// Sum of the layers that partition an operation.
  int64_t SumNanos() const {
    return pivot_nanos + encrypt_nanos + encode_nanos + comm_nanos +
           handle_nanos + decode_nanos + decrypt_nanos + refine_nanos;
  }
  void Add(const LayerTotals& other);
};

/// What every traced operation needs: the client's key and metric and
/// its connection. Not thread-safe (one per client thread).
struct TracedClient {
  const secure::SecretKey* key;
  const metric::DistanceFunction* metric;
  net::Transport* transport;
};

/// EncryptionClient::ApproxKnn, traced.
Result<metric::NeighborList> TracedApproxKnn(const TracedClient& client,
                                             const metric::VectorObject& query,
                                             size_t k, size_t cand_size,
                                             LayerTotals* layers);

/// EncryptionClient::RangeSearch, traced.
Result<metric::NeighborList> TracedRangeSearch(
    const TracedClient& client, const metric::VectorObject& query,
    double radius, LayerTotals* layers);

/// EncryptionClient::InsertBulk with InsertStrategy::kPrecise, traced.
Status TracedInsertBulk(const TracedClient& client,
                        const std::vector<metric::VectorObject>& objects,
                        size_t bulk_size, LayerTotals* layers);

/// EncryptionClient::DeleteBatch (one bulk), traced.
Status TracedDeleteBatch(const TracedClient& client,
                         const std::vector<metric::VectorObject>& objects,
                         LayerTotals* layers);

}  // namespace bench_report
}  // namespace simcloud

#endif  // SIMCLOUD_BENCH_REPORT_TRACED_OPS_H_
