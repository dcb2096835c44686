// Metric distance functions over VectorObject descriptors.
//
// All functions here satisfy the metric postulates (non-negativity,
// identity of indiscernibles, symmetry, triangle inequality); the property
// test suite verifies this on random inputs. Distances are the only
// data-dependent operation the M-Index needs, and in the Encrypted
// M-Index they are computed exclusively by the key-holding client.
//
// Provided metrics (matching the paper's data sets, Table 1):
//  * L1 (Manhattan)            — YEAST / HUMAN gene-expression matrices
//  * L2 (Euclidean), Lp, L∞    — general-purpose
//  * SegmentedLpDistance       — CoPhIR-style weighted combination of Lp
//                                distances over descriptor segments

#ifndef SIMCLOUD_METRIC_DISTANCE_H_
#define SIMCLOUD_METRIC_DISTANCE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "metric/object.h"

namespace simcloud {
namespace metric {

// Floating-point policy.
//
// L1, L2 and the p = 1 / p = 2 segments of SegmentedLpDistance sum their
// per-coordinate terms (|x_i - y_i| for p = 1, (x_i - y_i)^2 for p = 2,
// each computed in double from the float inputs) in one fixed order:
//   * term i goes into lane accumulator i mod 8; whole groups of 8 first,
//     then the n mod 8 tail terms into lanes 0..r-1;
//   * the lanes reduce as ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)).
// The scalar reference (internal::Reference*, distance.cc) and the AVX2
// kernel (internal::Avx2*, distance_avx2.cc) compute exactly this order,
// both without FMA contraction, so they agree bit for bit on every input;
// Distance() and DistanceMany() run the same kernel. This order is the
// reference: every oracle (brute-force ground truth, plain M-Index,
// byte-identity twins) calls the same functions. On integer-valued data
// (the CoPhIR, YEAST and HUMAN sets) every partial sum is exact in double,
// so the results equal those of any summation order, in particular the
// serial loop this order replaced. On non-integer data the last ulp may
// differ from that serial loop.

namespace internal {
/// Observability bridge (distance.cc): adds `n` to the process-global
/// simcloud_distance_computations_total counter and attributes the
/// evaluations to the current request trace span, if any — one update
/// per Distance() or DistanceMany() call. Out of line so this header
/// does not pull in obs/.
void RecordDistanceEvaluations(uint64_t n);

/// The fixed-order kernels of the policy above, over x[0..n) and
/// y[0..n): sum |x_i - y_i| and sum (x_i - y_i)^2. Exposed so tests can
/// cross-check the AVX2 kernel against the reference directly.
double ReferenceSumAbsDiff(const float* x, const float* y, size_t n);
double ReferenceSumSquaredDiff(const float* x, const float* y, size_t n);

/// True when the CPU (and OS) support AVX2.
bool Avx2KernelAvailable();
/// AVX2 twins of the references; call only when Avx2KernelAvailable().
double Avx2SumAbsDiff(const float* x, const float* y, size_t n);
double Avx2SumSquaredDiff(const float* x, const float* y, size_t n);

/// The kernel pair every distance function runs: the AVX2 kernels when
/// Avx2KernelAvailable(), else the references. Chosen once per process.
struct SumKernels {
  double (*abs_diff)(const float* x, const float* y, size_t n);
  double (*squared_diff)(const float* x, const float* y, size_t n);
};
const SumKernels& ActiveSumKernels();
}  // namespace internal

/// Abstract total distance function d : D x D -> R satisfying the metric
/// postulates. Implementations must be thread-safe and stateless.
/// Evaluations are counted in the obs registry
/// (simcloud_distance_computations_total) and the request trace span.
class DistanceFunction {
 public:
  virtual ~DistanceFunction() = default;

  /// Computes d(a, b). Both objects must have the same dimensionality.
  double Distance(const VectorObject& a, const VectorObject& b) const {
    internal::RecordDistanceEvaluations(1);
    return DistanceImpl(a, b);
  }

  /// out[i] = d(query, objects[i]) for every i, bit-identical to
  /// Distance(query, objects[i]), with one accounting update for the
  /// whole batch. out.size() must equal objects.size().
  void DistanceMany(const VectorObject& query,
                    std::span<const VectorObject> objects,
                    std::span<double> out) const {
    assert(out.size() == objects.size());
    internal::RecordDistanceEvaluations(objects.size());
    for (size_t i = 0; i < objects.size(); ++i) {
      out[i] = DistanceImpl(query, objects[i]);
    }
  }

  /// Short identifier ("L1", "L2", "Lp(0.5)", "cophir", ...).
  virtual std::string Name() const = 0;

 protected:
  virtual double DistanceImpl(const VectorObject& a,
                              const VectorObject& b) const = 0;
};

/// Manhattan distance: sum_i |a_i - b_i|.
class L1Distance : public DistanceFunction {
 public:
  std::string Name() const override { return "L1"; }

 protected:
  double DistanceImpl(const VectorObject& a,
                      const VectorObject& b) const override;
};

/// Euclidean distance: sqrt(sum_i (a_i - b_i)^2).
class L2Distance : public DistanceFunction {
 public:
  std::string Name() const override { return "L2"; }

 protected:
  double DistanceImpl(const VectorObject& a,
                      const VectorObject& b) const override;
};

/// Chebyshev distance: max_i |a_i - b_i|.
class LInfDistance : public DistanceFunction {
 public:
  std::string Name() const override { return "Linf"; }

 protected:
  double DistanceImpl(const VectorObject& a,
                      const VectorObject& b) const override;
};

/// Minkowski distance with parameter p >= 1.
class LpDistance : public DistanceFunction {
 public:
  /// p must be >= 1 for the triangle inequality to hold.
  explicit LpDistance(double p) : p_(p) {}

  std::string Name() const override;
  double p() const { return p_; }

 protected:
  double DistanceImpl(const VectorObject& a,
                      const VectorObject& b) const override;

 private:
  double p_;
};

/// Weighted combination of per-segment Lp distances, modelling the CoPhIR
/// aggregate over five MPEG-7 descriptors. The vector is partitioned into
/// contiguous segments; d(a,b) = sum_s w_s * Lp_s(a_s, b_s). A non-negative
/// weighted sum of metrics over projections is itself a metric.
class SegmentedLpDistance : public DistanceFunction {
 public:
  struct Segment {
    size_t length;   ///< number of dimensions in this segment
    double p;        ///< Minkowski parameter (>= 1)
    double weight;   ///< non-negative combination weight
  };

  /// Validates segment parameters (lengths > 0, p >= 1, weights >= 0).
  static Result<SegmentedLpDistance> Create(std::vector<Segment> segments);

  std::string Name() const override { return "segmented-lp"; }
  const std::vector<Segment>& segments() const { return segments_; }
  /// Total dimensionality covered by the segments.
  size_t TotalDimension() const;

 protected:
  double DistanceImpl(const VectorObject& a,
                      const VectorObject& b) const override;

 private:
  explicit SegmentedLpDistance(std::vector<Segment> segments)
      : segments_(std::move(segments)) {}

  std::vector<Segment> segments_;
};

/// Angular distance: the angle arccos(<a,b> / (|a||b|)) in [0, pi].
/// A metric on *directions* (the unit sphere) — the natural choice for
/// normalized embedding descriptors. Note the identity postulate holds up
/// to positive scaling only (d(a, 2a) = 0); use it for collections of
/// normalized vectors. Zero vectors are rejected as NaN-free by mapping
/// to the maximal angle pi.
class AngularDistance : public DistanceFunction {
 public:
  std::string Name() const override { return "angular"; }

 protected:
  double DistanceImpl(const VectorObject& a,
                      const VectorObject& b) const override;
};

/// Creates the standard distance function for a given name:
/// "L1", "L2", "Linf", "angular", or "Lp:<p>". Used by config/CLI
/// plumbing.
Result<std::shared_ptr<DistanceFunction>> MakeDistanceByName(
    const std::string& name);

}  // namespace metric
}  // namespace simcloud

#endif  // SIMCLOUD_METRIC_DISTANCE_H_
