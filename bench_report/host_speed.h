// The host's speed over a timed phase, measured with fixed reference work.
//
// The benchmark runs on a few cores of a shared host. Other tenants change
// how fast the same code runs, by up to about 1.8x for spells of seconds to
// minutes, so a plain latency moves between runs of the same commit by
// more than any bound worth enforcing (README.md). HostSpeed runs two
// small reference kernels, owned by the benchmark and untouched by the
// code under test, a few times a second while a timed phase runs: a
// throughput-bound float loop (the shape of a distance computation) and a
// run of pipe write/read system calls (the shape of a request's trip
// through the kernel). Dividing an operation's latency by the speed index
// measured around it gives its latency at the reference speed.

#ifndef SIMCLOUD_BENCH_REPORT_HOST_SPEED_H_
#define SIMCLOUD_BENCH_REPORT_HOST_SPEED_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace simcloud {
namespace bench_report {

class HostSpeed {
 public:
  HostSpeed();
  ~HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Starts sampling; sample times count from `origin` (MonotonicNanos).
  void Start(int64_t origin);
  /// Stops sampling and waits for the sampler thread.
  void Stop();

  /// The speed index around an operation that ran over [begin, end)
  /// (relative to the origin): the mean of the samples taken from
  /// kWindowNanos before it to kWindowNanos after it, or the nearest
  /// sample. 1 is the reference speed; 2 means the reference work took
  /// twice as long. Call after Stop().
  double Index(int64_t begin, int64_t end) const;
  /// The median index over the whole phase.
  double MedianIndex() const;
  /// The share of CPU time the hypervisor took from this guest during
  /// the phase (the steal column of /proc/stat), in percent.
  double StealPercent() const { return steal_pct_; }

 private:
  struct Sample {
    int64_t at = 0;  ///< relative to the origin
    double index = 0;
  };

  void Loop(int64_t origin);
  double Measure();

  int pipe_[2] = {-1, -1};
  std::vector<Sample> samples_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;
  uint64_t steal_start_ = 0;
  uint64_t total_start_ = 0;
  double steal_pct_ = 0;
};

}  // namespace bench_report
}  // namespace simcloud

#endif  // SIMCLOUD_BENCH_REPORT_HOST_SPEED_H_
