#include "metric/distance.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace simcloud {
namespace metric {

namespace internal {

void RecordDistanceEvaluations(uint64_t n) {
  static obs::Counter* const counter = obs::Registry::Default().GetCounter(
      "simcloud_distance_computations_total");
  counter->Add(n);
  obs::TraceSpan* span = obs::TraceSpan::Current();
  if (span != nullptr) span->AddDistanceComputations(n);
}

namespace {

// The fixed summation order of the floating-point policy (distance.h):
// term i into lane i mod 8, the tail into lanes 0..r-1, then a pairwise
// reduction. distance_avx2.cc computes the same order in two registers.
template <typename Term>
double LaneSum(const float* x, const float* y, size_t n, Term term) {
  double lane[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (size_t l = 0; l < 8; ++l) {
      lane[l] += term(static_cast<double>(x[i + l]) -
                      static_cast<double>(y[i + l]));
    }
  }
  for (size_t l = 0; i + l < n; ++l) {
    lane[l] += term(static_cast<double>(x[i + l]) -
                    static_cast<double>(y[i + l]));
  }
  return ((lane[0] + lane[4]) + (lane[2] + lane[6])) +
         ((lane[1] + lane[5]) + (lane[3] + lane[7]));
}

}  // namespace

double ReferenceSumAbsDiff(const float* x, const float* y, size_t n) {
  return LaneSum(x, y, n, [](double d) { return std::fabs(d); });
}

double ReferenceSumSquaredDiff(const float* x, const float* y, size_t n) {
  return LaneSum(x, y, n, [](double d) { return d * d; });
}

bool Avx2KernelAvailable() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

const SumKernels& ActiveSumKernels() {
  static const SumKernels kernels =
      Avx2KernelAvailable()
          ? SumKernels{&Avx2SumAbsDiff, &Avx2SumSquaredDiff}
          : SumKernels{&ReferenceSumAbsDiff, &ReferenceSumSquaredDiff};
  return kernels;
}

}  // namespace internal

double L1Distance::DistanceImpl(const VectorObject& a,
                                const VectorObject& b) const {
  assert(a.dimension() == b.dimension());
  return internal::ActiveSumKernels().abs_diff(
      a.values().data(), b.values().data(), a.dimension());
}

double L2Distance::DistanceImpl(const VectorObject& a,
                                const VectorObject& b) const {
  assert(a.dimension() == b.dimension());
  return std::sqrt(internal::ActiveSumKernels().squared_diff(
      a.values().data(), b.values().data(), a.dimension()));
}

double LInfDistance::DistanceImpl(const VectorObject& a,
                                  const VectorObject& b) const {
  assert(a.dimension() == b.dimension());
  const auto& x = a.values();
  const auto& y = b.values();
  double best = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double diff =
        std::fabs(static_cast<double>(x[i]) - static_cast<double>(y[i]));
    if (diff > best) best = diff;
  }
  return best;
}

std::string LpDistance::Name() const {
  return "Lp:" + std::to_string(p_);
}

double LpDistance::DistanceImpl(const VectorObject& a,
                                const VectorObject& b) const {
  assert(a.dimension() == b.dimension());
  const auto& x = a.values();
  const auto& y = b.values();
  double sum = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double diff =
        std::fabs(static_cast<double>(x[i]) - static_cast<double>(y[i]));
    sum += std::pow(diff, p_);
  }
  return std::pow(sum, 1.0 / p_);
}

Result<SegmentedLpDistance> SegmentedLpDistance::Create(
    std::vector<Segment> segments) {
  if (segments.empty()) {
    return Status::InvalidArgument("segment list must be non-empty");
  }
  for (const auto& seg : segments) {
    if (seg.length == 0) {
      return Status::InvalidArgument("segment length must be > 0");
    }
    if (seg.p < 1.0) {
      return Status::InvalidArgument("segment p must be >= 1");
    }
    if (seg.weight < 0.0) {
      return Status::InvalidArgument("segment weight must be >= 0");
    }
  }
  return SegmentedLpDistance(std::move(segments));
}

size_t SegmentedLpDistance::TotalDimension() const {
  size_t total = 0;
  for (const auto& seg : segments_) total += seg.length;
  return total;
}

double SegmentedLpDistance::DistanceImpl(const VectorObject& a,
                                         const VectorObject& b) const {
  assert(a.dimension() == b.dimension());
  assert(a.dimension() == TotalDimension());
  const internal::SumKernels& kernels = internal::ActiveSumKernels();
  const float* x = a.values().data();
  const float* y = b.values().data();
  double total = 0.0;
  for (const auto& seg : segments_) {
    double sum = 0.0;
    if (seg.p == 1.0) {
      sum = kernels.abs_diff(x, y, seg.length);
    } else if (seg.p == 2.0) {
      sum = std::sqrt(kernels.squared_diff(x, y, seg.length));
    } else {
      for (size_t i = 0; i < seg.length; ++i) {
        const double diff =
            std::fabs(static_cast<double>(x[i]) - static_cast<double>(y[i]));
        sum += std::pow(diff, seg.p);
      }
      sum = std::pow(sum, 1.0 / seg.p);
    }
    total += seg.weight * sum;
    x += seg.length;
    y += seg.length;
  }
  return total;
}

double AngularDistance::DistanceImpl(const VectorObject& a,
                                     const VectorObject& b) const {
  const auto& va = a.values();
  const auto& vb = b.values();
  double dot = 0;
  double norm_a = 0;
  double norm_b = 0;
  const size_t n = std::min(va.size(), vb.size());
  for (size_t i = 0; i < n; ++i) {
    dot += static_cast<double>(va[i]) * vb[i];
    norm_a += static_cast<double>(va[i]) * va[i];
    norm_b += static_cast<double>(vb[i]) * vb[i];
  }
  if (norm_a <= 0 || norm_b <= 0) return M_PI;  // zero vector: max angle
  const double cosine =
      std::clamp(dot / std::sqrt(norm_a * norm_b), -1.0, 1.0);
  return std::acos(cosine);
}

Result<std::shared_ptr<DistanceFunction>> MakeDistanceByName(
    const std::string& name) {
  if (name == "L1") return std::shared_ptr<DistanceFunction>(new L1Distance());
  if (name == "L2") return std::shared_ptr<DistanceFunction>(new L2Distance());
  if (name == "Linf") {
    return std::shared_ptr<DistanceFunction>(new LInfDistance());
  }
  if (name == "angular") {
    return std::shared_ptr<DistanceFunction>(new AngularDistance());
  }
  if (name.rfind("Lp:", 0) == 0) {
    const double p = std::stod(name.substr(3));
    if (p < 1.0) return Status::InvalidArgument("Lp requires p >= 1");
    return std::shared_ptr<DistanceFunction>(new LpDistance(p));
  }
  return Status::InvalidArgument("unknown distance function: " + name);
}

}  // namespace metric
}  // namespace simcloud
