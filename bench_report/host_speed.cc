#include "host_speed.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/clock.h"

namespace simcloud {
namespace bench_report {
namespace {

/// How often the reference work runs, and how far around an operation
/// its samples count.
constexpr int64_t kSampleEveryNanos = 200'000'000;
constexpr int64_t kWindowNanos = 200'000'000;

/// The float kernel: kFloatReps squared-L2 sums over kDims floats, in
/// four independent lanes so it is bound by arithmetic throughput.
constexpr int kDims = 280;
constexpr int kFloatReps = 2000;
/// The system-call kernel: kSyscalls one-byte write/read pairs on a pipe.
constexpr int kSyscalls = 150;
/// Each kernel's duration at the reference speed, which makes an index of
/// about 1 on the 4-core guest the benchmark was written on (the kernels
/// took 80-130 us each there).
constexpr double kFloatNanos0 = 100'000;
constexpr double kSyscallNanos0 = 100'000;

volatile float g_float_sink;

float FloatKernel() {
  float x[kDims], y[kDims];
  for (int i = 0; i < kDims; ++i) {
    x[i] = static_cast<float>(i) * 0.5f;
    y[i] = 1.0f / static_cast<float>(i + 1);
  }
  float total = 0;
  for (int r = 0; r < kFloatReps; ++r) {
    float s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (int i = 0; i < kDims; i += 4) {
      const float d0 = x[i] - y[i], d1 = x[i + 1] - y[i + 1];
      const float d2 = x[i + 2] - y[i + 2], d3 = x[i + 3] - y[i + 3];
      s0 += d0 * d0;
      s1 += d1 * d1;
      s2 += d2 * d2;
      s3 += d3 * d3;
    }
    total += s0 + s1 + s2 + s3;
    x[r % kDims] += 1e-6f;
  }
  return total;
}

/// user + nice + system + idle + iowait + irq + softirq + steal, and
/// steal, of the guest's aggregate "cpu" line in /proc/stat.
void ReadCpuTicks(uint64_t* total, uint64_t* steal) {
  std::ifstream stat("/proc/stat");
  std::string line;
  std::getline(stat, line);
  std::istringstream fields(line);
  std::string label;
  fields >> label;
  *total = 0;
  *steal = 0;
  for (int i = 0; i < 8; ++i) {
    uint64_t ticks = 0;
    if (!(fields >> ticks)) return;
    *total += ticks;
    if (i == 7) *steal = ticks;
  }
}

}  // namespace

HostSpeed::HostSpeed() {
  if (pipe(pipe_) != 0) throw std::runtime_error("pipe failed");
}

HostSpeed::~HostSpeed() {
  Stop();
  close(pipe_[0]);
  close(pipe_[1]);
}

void HostSpeed::Start(int64_t origin) {
  ReadCpuTicks(&total_start_, &steal_start_);
  thread_ = std::thread([this, origin] { Loop(origin); });
}

void HostSpeed::Stop() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
  uint64_t total = 0, steal = 0;
  ReadCpuTicks(&total, &steal);
  steal_pct_ = total > total_start_
                   ? 100.0 * static_cast<double>(steal - steal_start_) /
                         static_cast<double>(total - total_start_)
                   : 0;
}

double HostSpeed::Measure() {
  const int64_t start = MonotonicNanos();
  g_float_sink = FloatKernel();
  const int64_t middle = MonotonicNanos();
  char byte = 1;
  for (int i = 0; i < kSyscalls; ++i) {
    if (write(pipe_[1], &byte, 1) != 1 || read(pipe_[0], &byte, 1) != 1) {
      throw std::runtime_error("reference pipe failed");
    }
  }
  const int64_t end = MonotonicNanos();
  return (static_cast<double>(middle - start) / kFloatNanos0 +
          static_cast<double>(end - middle) / kSyscallNanos0) /
         2;
}

void HostSpeed::Loop(int64_t origin) {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    lock.unlock();
    const double index = Measure();
    const int64_t at = MonotonicNanos() - origin;
    lock.lock();
    samples_.push_back(Sample{at, index});
    wake_.wait_for(lock, std::chrono::nanoseconds(kSampleEveryNanos),
                   [this] { return stop_; });
  }
}

double HostSpeed::Index(int64_t begin, int64_t end) const {
  if (samples_.empty()) return 1;
  auto first = std::lower_bound(
      samples_.begin(), samples_.end(), begin - kWindowNanos,
      [](const Sample& s, int64_t at) { return s.at < at; });
  double sum = 0;
  int count = 0;
  for (auto it = first; it != samples_.end() && it->at <= end + kWindowNanos;
       ++it) {
    sum += it->index;
    ++count;
  }
  if (count > 0) return sum / count;
  // No sample that close: the nearest one.
  if (first == samples_.end()) return samples_.back().index;
  if (first == samples_.begin()) return first->index;
  const int64_t middle = begin + (end - begin) / 2;
  return first->at - middle < middle - (first - 1)->at ? first->index
                                                       : (first - 1)->index;
}

double HostSpeed::MedianIndex() const {
  if (samples_.empty()) return 1;
  std::vector<double> indices;
  for (const Sample& s : samples_) indices.push_back(s.index);
  std::sort(indices.begin(), indices.end());
  const size_t n = indices.size();
  return n % 2 == 1 ? indices[n / 2]
                    : (indices[n / 2 - 1] + indices[n / 2]) / 2;
}

}  // namespace bench_report
}  // namespace simcloud
