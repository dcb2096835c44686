// bench_report: the repository's benchmark. Four workloads from the
// paper's evaluation, each over a real TCP deployment started inside the
// workload's process and driven through EncryptionClient (README.md
// describes the workloads and every metric).
//
// Usage:
//   bench_report [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//                [--smoke] [--out DIR]
//
//   --workload  knn_cophir, range_human, knn_yeast_aead or churn_cophir;
//               without it every workload runs, each in a child process.
//   --seed      drives data generation, pivot selection and query
//               sampling (default 1).
//   --seconds   length of the end-to-end pass (default 15; 1 with --smoke).
//   --trace     1 adds the traced and white-box passes and reports the
//               per-layer metrics in place of the end-to-end ones.
//   --smoke     the same code paths at reduced sizes.
//   --out       also writes the result to DIR/<workload>-seed<N>[-trace].json
//               with the runtime banner, nproc and the git revision.
//
// Every metric is printed as "name value unit"; the last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics. Exit code: 0 when every output check passed, 3 when one
// failed (the JSON line says which metrics were measured), 1 when the
// deployment could not be set up, 2 on a usage error.

#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"

namespace simcloud {
namespace bench_report {
namespace {

struct Args {
  RunOptions run;
  bool seconds_given = false;
  std::string out_dir;
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "bench_report: %s\n"
               "usage: bench_report [--workload NAME] [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--out DIR]\n",
               problem.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.run.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage(flag + " needs a value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.run.workload = value;
    } else if (flag == "--seed") {
      args.run.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.run.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.run.seconds > 0)) {
        Usage("bad --seconds " + value);
      }
      args.seconds_given = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.run.trace = value == "1";
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!args.seconds_given && args.run.smoke) args.run.seconds = 1;
  if (!args.run.workload.empty()) {
    bool known = false;
    for (const std::string& name : WorkloadNames()) {
      known = known || name == args.run.workload;
    }
    if (!known) Usage("unknown workload " + args.run.workload);
  }
  return args;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Every digit the double carries; JSON has no NaN or infinity.
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonMetrics(const std::vector<MetricValue>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// The result line the benchmark contract asks for.
std::string ResultLine(const Report& report,
                       const std::vector<MetricValue>& metrics) {
  return "{\"correct\": " + std::string(report.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(report.attempted) +
         ", \"failed\": " + std::to_string(report.failed) +
         ", \"metrics\": " + JsonMetrics(metrics) + "}";
}

std::string GitRevision() {
  FILE* pipe = popen("git rev-parse HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return "";
  char buf[128] = {0};
  std::string revision;
  if (std::fgets(buf, sizeof(buf), pipe) != nullptr) revision = buf;
  pclose(pipe);
  while (!revision.empty() && std::isspace(revision.back())) {
    revision.pop_back();
  }
  return revision;
}

void PrintMetrics(const char* title, const std::vector<MetricValue>& metrics) {
  if (metrics.empty()) return;
  std::printf("%s\n", title);
  for (const MetricValue& m : metrics) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void WriteResultFile(const Args& args, const Report& report,
                     const std::vector<MetricValue>& metrics) {
  std::filesystem::create_directories(args.out_dir);
  const std::string path = args.out_dir + "/" + args.run.workload + "-seed" +
                           std::to_string(args.run.seed) +
                           (args.run.trace ? "-trace" : "") + ".json";
  std::string problems = "[";
  for (size_t i = 0; i < report.problems.size(); ++i) {
    problems += (i > 0 ? ", " : "") + JsonString(report.problems[i]);
  }
  problems += "]";
  std::ofstream out(path);
  out << "{\"workload\": " << JsonString(args.run.workload)
      << ", \"seed\": " << args.run.seed
      << ", \"trace\": " << (args.run.trace ? 1 : 0)
      << ", \"seconds\": " << JsonNumber(args.run.seconds)
      << ", \"smoke\": " << (args.run.smoke ? "true" : "false")
      << ", \"banner\": " << JsonString(report.banner)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"git\": " << JsonString(GitRevision())
      << ", \"correct\": " << (report.correct ? "true" : "false")
      << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed
      << ", \"metrics\": " << JsonMetrics(metrics)
      << ", \"extra\": " << JsonMetrics(report.extra)
      << ", \"problems\": " << problems << "}\n";
  if (!out) std::fprintf(stderr, "bench_report: cannot write %s\n", path.c_str());
}

int RunOne(const Args& args) {
  Report report;
  try {
    report = RunWorkload(args.run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_report: %s: %s\n", args.run.workload.c_str(),
                 e.what());
    return 1;
  }
  const std::vector<MetricValue>& metrics =
      args.run.trace ? report.per_layer : report.end_to_end;
  std::printf("%s\n", report.banner.c_str());
  std::printf("workload %s, seed %llu, %g s, trace %d%s\n",
              args.run.workload.c_str(),
              static_cast<unsigned long long>(args.run.seed), args.run.seconds,
              args.run.trace ? 1 : 0, args.run.smoke ? ", smoke" : "");
  PrintMetrics("end-to-end:", report.end_to_end);
  PrintMetrics("per-layer:", report.per_layer);
  PrintMetrics("extra:", report.extra);
  for (const std::string& problem : report.problems) {
    std::printf("CHECK FAILED: %s\n", problem.c_str());
  }
  if (!args.out_dir.empty()) WriteResultFile(args, report, metrics);
  std::printf("%s\n", ResultLine(report, metrics).c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 3;
}

/// Runs every workload, each in a child process of its own (one process
/// per deployment keeps peak RSS and the process-global metrics registry
/// per workload).
int RunAll(const Args& args) {
  const std::string self = std::filesystem::read_symlink("/proc/self/exe");
  std::vector<std::pair<std::string, int>> outcomes;
  for (const std::string& name : WorkloadNames()) {
    std::vector<std::string> child = {
        self, "--workload", name, "--seed", std::to_string(args.run.seed),
        "--trace", args.run.trace ? "1" : "0"};
    if (args.seconds_given) {
      std::ostringstream seconds;
      seconds << args.run.seconds;
      child.insert(child.end(), {"--seconds", seconds.str()});
    }
    if (args.run.smoke) child.push_back("--smoke");
    if (!args.out_dir.empty()) child.insert(child.end(), {"--out", args.out_dir});
    std::vector<char*> child_argv;
    for (std::string& arg : child) child_argv.push_back(arg.data());
    child_argv.push_back(nullptr);

    std::printf("=== %s ===\n", name.c_str());
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      execv(self.c_str(), child_argv.data());
      std::perror("execv");
      _exit(127);
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    outcomes.emplace_back(name, WIFEXITED(status) ? WEXITSTATUS(status) : -1);
  }
  bool ok = true;
  std::printf("=== summary ===\n");
  for (const auto& [name, code] : outcomes) {
    std::printf("  %-16s %s (exit %d)\n", name.c_str(),
                code == 0 ? "ok" : "FAILED", code);
    ok = ok && code == 0;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench_report
}  // namespace simcloud

int main(int argc, char** argv) {
  using namespace simcloud::bench_report;
  const Args args = ParseArgs(argc, argv);
  return args.run.workload.empty() ? RunAll(args) : RunOne(args);
}
