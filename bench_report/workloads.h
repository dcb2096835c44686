// The four bench_report workloads: set-up, the end-to-end pass, the
// traced pass and the white-box pass, and the metrics they produce.

#ifndef SIMCLOUD_BENCH_REPORT_WORKLOADS_H_
#define SIMCLOUD_BENCH_REPORT_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace simcloud {
namespace bench_report {

/// Names of every workload, in the order the full report runs them.
const std::vector<std::string>& WorkloadNames();

/// How one workload run is configured from the command line.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the end-to-end pass.
  double seconds = 15;
  /// Adds the traced and white-box passes and reports per-layer metrics.
  bool trace = false;
  /// Same code paths at reduced sizes.
  bool smoke = false;
};

struct MetricValue {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  /// False when any output check failed; `problems` says which.
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<MetricValue> end_to_end;
  std::vector<MetricValue> per_layer;
  /// Measured but not part of the benchmark's metric catalog.
  std::vector<MetricValue> extra;
  std::vector<std::string> problems;
  /// obs::RuntimeBanner of the deployment (crypto backend, I/O engine,
  /// metrics on/off).
  std::string banner;
};

/// Runs one workload in this process. Throws std::runtime_error when the
/// deployment cannot be set up; failed operations and failed output
/// checks are reported in the Report instead.
Report RunWorkload(const RunOptions& options);

}  // namespace bench_report
}  // namespace simcloud

#endif  // SIMCLOUD_BENCH_REPORT_WORKLOADS_H_
