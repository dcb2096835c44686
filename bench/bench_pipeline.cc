// Pipelined transport throughput: qps and p99 latency of the epoll
// engine at connection counts {1, 64, 512} x in-flight depth {1, 8},
// plus the process thread count with 512 idle connections open.
//
// Two workloads per cell:
//   * ping  — kPing round trips (no server-side work): pure transport
//     cost, the cleanest view of what pipelining buys;
//   * knn   — kApproxKnnBatch with 8 queries against a 2,000-object
//     index: a realistic request with real server time attached.
//
// Acceptance gates (the run aborts when violated):
//   * on a SINGLE connection, ping qps at depth 8 must be >= 1.5x ping
//     qps at depth 1 — pipelining must actually overlap round trips;
//   * with 512 idle connections open the server must be running on its
//     fixed thread pool: process thread count < 32 (the old engine spent
//     one thread per connection, i.e. > 512);
//   * SECURE CHANNEL: the same handler behind a ChannelPolicy::kSecure
//     server must deliver >= 0.8x (0.5x on the scalar crypto reference)
//     the plaintext depth-8 ping qps on one connection — the AES-GCM
//     record layer's overhead must stay bounded. The ratio is paired:
//     plaintext and secure cells run back to back over many rounds,
//     alternating which goes first, and the gate takes the median of
//     the per-round ratios. The secure section also reports handshake
//     latency (mean / p99 over repeated connects) and encrypted
//     knn-batch throughput.
//
// Usage: bench_pipeline [--smoke] [--metrics-overhead]
//   --smoke             fewer connections (1, 16, 128 idle) and ops, for CI.
//   --metrics-overhead  skip the throughput matrix; instead gate the
//                       cost of the obs registry: single-connection
//                       depth-8 ping p99 with metrics on must stay
//                       within 5% (+1 us) of the same cell with
//                       obs::SetMetricsEnabled(false) (median over
//                       interleaved rounds of each round's on/off p99
//                       ratio).

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "crypto/cpu_features.h"
#include "data/synthetic.h"
#include "metric/dataset.h"
#include "mindex/pivot_selection.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "secure/client.h"
#include "secure/secret_key.h"
#include "secure/server.h"
#include "secure/session.h"

namespace simcloud {
namespace bench {
namespace {

int ProcessThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + 8);
    }
  }
  return -1;
}

void RaiseFdLimit() {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) == 0 && limit.rlim_cur < 4096) {
    limit.rlim_cur = std::min<rlim_t>(4096, limit.rlim_max);
    ::setrlimit(RLIMIT_NOFILE, &limit);
  }
}

struct CellResult {
  double qps = 0;
  double p99_us = 0;
};

/// Runs `ops_per_conn` requests on each of `num_conns` connections from
/// `num_threads` client threads, keeping up to `depth` requests in
/// flight per connection. Per-op latency is submit -> collect.
CellResult RunCell(uint16_t port, size_t num_conns, size_t depth,
                   size_t ops_per_conn, const Bytes& request,
                   net::ChannelPolicy policy = net::ChannelPolicy::kPlaintext,
                   const net::SecureChannelOptions& secure =
                       net::SecureChannelOptions()) {
  const size_t num_threads = std::min<size_t>(num_conns, 8);
  std::vector<std::vector<double>> latencies(num_threads);
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  std::atomic<bool> failed{false};

  Stopwatch wall;
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      struct ConnState {
        std::unique_ptr<net::TcpTransport> transport;
        std::deque<std::pair<uint64_t, Stopwatch>> window;
        size_t submitted = 0;
        size_t collected = 0;
      };
      std::vector<ConnState> conns;
      for (size_t c = t; c < num_conns; c += num_threads) {
        auto transport =
            net::TcpTransport::Connect("127.0.0.1", port, policy, secure);
        if (!transport.ok()) {
          failed.store(true);
          return;
        }
        ConnState state;
        state.transport = std::move(*transport);
        conns.push_back(std::move(state));
      }
      latencies[t].reserve(conns.size() * ops_per_conn);
      // Round-robin across this thread's connections: top the window up
      // to `depth`, then collect the oldest ticket.
      bool work_left = true;
      while (work_left && !failed.load()) {
        work_left = false;
        for (ConnState& conn : conns) {
          while (conn.submitted < ops_per_conn &&
                 conn.window.size() < depth) {
            auto ticket = conn.transport->Submit(request);
            if (!ticket.ok()) {
              failed.store(true);
              return;
            }
            conn.window.emplace_back(*ticket, Stopwatch());
            conn.submitted++;
          }
          if (!conn.window.empty()) {
            auto [ticket, watch] = std::move(conn.window.front());
            conn.window.pop_front();
            auto response = conn.transport->Collect(ticket);
            if (!response.ok()) {
              failed.store(true);
              return;
            }
            latencies[t].push_back(watch.ElapsedNanos() / 1e3);
            conn.collected++;
          }
          if (conn.collected < ops_per_conn) work_left = true;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const double seconds = wall.ElapsedSeconds();
  if (failed.load()) {
    std::fprintf(stderr, "benchmark cell failed (transport error)\n");
    std::exit(1);
  }

  std::vector<double> merged;
  for (auto& per_thread : latencies) {
    merged.insert(merged.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(merged.begin(), merged.end());
  CellResult result;
  result.qps = static_cast<double>(merged.size()) / seconds;
  result.p99_us = merged.empty() ? 0 : merged[merged.size() * 99 / 100];
  return result;
}

void Run(bool smoke) {
  RaiseFdLimit();

  // A 2,000-object encrypted index for the knn workload.
  data::MixtureOptions mixture;
  mixture.num_objects = 2000;
  mixture.dimension = 8;
  mixture.num_clusters = 6;
  mixture.seed = 41;
  auto objects = data::MakeGaussianMixture(mixture);
  auto metric = std::make_shared<metric::L2Distance>();
  auto pivots = mindex::PivotSet::SelectRandom(objects, 16, 42);
  if (!pivots.ok()) std::exit(1);
  auto key = secure::SecretKey::Create(std::move(pivots).value(),
                                       Bytes(16, 0x51));
  if (!key.ok()) std::exit(1);

  mindex::MIndexOptions options;
  options.num_pivots = 16;
  options.bucket_capacity = 50;
  options.max_level = 4;
  auto handler = secure::EncryptedMIndexServer::Create(options);
  if (!handler.ok()) std::exit(1);
  net::TcpServer server(handler->get());
  if (!server.Start(0).ok()) std::exit(1);

  {
    auto transport = net::TcpTransport::Connect("127.0.0.1", server.port());
    if (!transport.ok()) std::exit(1);
    secure::EncryptionClient owner(*key, metric, transport->get());
    if (!owner.InsertBulk(objects, secure::InsertStrategy::kPrecise, 500)
             .ok()) {
      std::exit(1);
    }
  }

  // Pre-encode the two request bodies once; the bench drives raw
  // transports so client-side crypto does not blur the transport cost.
  const Bytes ping_request = secure::EncodePingRequest();
  Bytes knn_request;
  {
    auto transport = net::TcpTransport::Connect("127.0.0.1", server.port());
    if (!transport.ok()) std::exit(1);
    secure::EncryptionClient probe(*key, metric, transport->get());
    Rng rng(43);
    std::vector<metric::VectorObject> batch;
    for (int q = 0; q < 8; ++q) {
      batch.push_back(objects[rng.NextBounded(objects.size())]);
    }
    auto pending = probe.SubmitApproxKnnBatch(batch, 3, 40);
    if (!pending.ok()) std::exit(1);
    if (!probe.CollectApproxKnnBatch(&*pending).ok()) std::exit(1);
    // Rebuild the same wire request for the raw-transport cells.
    std::vector<mindex::KnnQuery> wire;
    for (const auto& query : batch) {
      mindex::KnnQuery item;
      item.signature.permutation = mindex::DistancesToPermutation(
          key->pivots().ComputeDistances(query, *metric));
      item.cand_size = 40;
      wire.push_back(std::move(item));
    }
    knn_request = secure::EncodeApproxKnnBatchRequest(wire);
  }

  const std::vector<size_t> conn_counts =
      smoke ? std::vector<size_t>{1, 16} : std::vector<size_t>{1, 64, 512};
  const std::vector<size_t> depths = {1, 8};
  const size_t ping_ops = smoke ? 2000 : 5000;
  const size_t knn_ops = smoke ? 200 : 500;

  std::printf("%s\n",
              obs::RuntimeBanner(
                  "bench_pipeline",
                  std::string("io_engine=") + server.io_engine_name() +
                      " workers=" + std::to_string(server.worker_threads()))
                  .c_str());
  std::printf("%-6s %6s %6s %14s %12s %14s %12s\n", "work", "conns", "depth",
              "qps", "p99_us", "", "");
  double single_conn_ping_qps[2] = {0, 0};  // [depth1, depth8]
  for (size_t conns : conn_counts) {
    for (size_t depth : depths) {
      const size_t per_conn = std::max<size_t>(ping_ops / conns, 20);
      CellResult ping = RunCell(server.port(), conns, depth, per_conn,
                                ping_request);
      std::printf("%-6s %6zu %6zu %14.0f %12.1f\n", "ping", conns, depth,
                  ping.qps, ping.p99_us);
      if (conns == 1) {
        single_conn_ping_qps[depth == 1 ? 0 : 1] =
            std::max(single_conn_ping_qps[depth == 1 ? 0 : 1], ping.qps);
      }
      const size_t knn_per_conn = std::max<size_t>(knn_ops / conns, 5);
      CellResult knn = RunCell(server.port(), conns, depth, knn_per_conn,
                               knn_request);
      std::printf("%-6s %6zu %6zu %14.0f %12.1f\n", "knn8", conns, depth,
                  knn.qps, knn.p99_us);
    }
  }

  // Re-measure the single-connection ping cells once more and keep the
  // best of each: the 1-CPU CI boxes are noisy.
  single_conn_ping_qps[0] = std::max(
      single_conn_ping_qps[0],
      RunCell(server.port(), 1, 1, ping_ops, ping_request).qps);
  single_conn_ping_qps[1] = std::max(
      single_conn_ping_qps[1],
      RunCell(server.port(), 1, 8, ping_ops, ping_request).qps);
  const double speedup = single_conn_ping_qps[1] / single_conn_ping_qps[0];
  std::printf("single-connection ping: depth1 %.0f qps, depth8 %.0f qps "
              "(%.2fx)\n",
              single_conn_ping_qps[0], single_conn_ping_qps[1], speedup);

  // Idle-connection cost: the engine must not spend a thread per
  // connection.
  const size_t idle_count = smoke ? 128 : 512;
  {
    std::vector<std::unique_ptr<net::TcpTransport>> idle;
    idle.reserve(idle_count);
    for (size_t i = 0; i < idle_count; ++i) {
      auto transport = net::TcpTransport::Connect("127.0.0.1", server.port());
      if (!transport.ok()) {
        std::fprintf(stderr, "idle connect %zu failed: %s\n", i,
                     transport.status().ToString().c_str());
        std::exit(1);
      }
      idle.push_back(std::move(*transport));
    }
    Stopwatch settle;
    while (server.active_connections() < idle_count &&
           settle.ElapsedSeconds() < 10) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const int threads = ProcessThreadCount();
    std::printf("%zu idle connections: %zu live on the server, %d process "
                "threads (1 event loop + %zu workers + main)\n",
                idle_count, server.active_connections(), threads,
                server.worker_threads());
    // One request through the crowd still works.
    auto response = idle[idle_count / 2]->Call(ping_request);
    if (!response.ok()) {
      std::fprintf(stderr, "call among idle connections failed\n");
      std::exit(1);
    }
    if (threads < 0 || threads >= 32) {
      std::fprintf(stderr,
                   "FAIL: %d process threads with %zu idle connections — "
                   "expected O(worker pool), not O(connections)\n",
                   threads, idle_count);
      std::exit(1);
    }
  }

  if (speedup < 1.5) {
    std::fprintf(stderr,
                 "FAIL: depth-8 pipelining is %.2fx depth-1 qps on one "
                 "connection (acceptance gate: >= 1.5x)\n",
                 speedup);
    std::exit(1);
  }

  // -------------------------------------------------------------------
  // Secure-channel section: the same handler behind a kSecure listener.
  // -------------------------------------------------------------------
  net::SecureChannelOptions channel_options =
      secure::SecureSessionOptions(*key);
  net::TcpServerOptions secure_options;
  secure_options.channel_policy = net::ChannelPolicy::kSecure;
  secure_options.secure_channel = channel_options;
  net::TcpServer secure_server(handler->get(), secure_options);
  if (!secure_server.Start(0).ok()) std::exit(1);

  // Handshake latency: TCP connect + 1-RTT PSK handshake, repeated.
  {
    const size_t kHandshakes = smoke ? 30 : 100;
    std::vector<double> micros;
    micros.reserve(kHandshakes);
    for (size_t i = 0; i < kHandshakes; ++i) {
      Stopwatch watch;
      auto transport = net::TcpTransport::Connect(
          "127.0.0.1", secure_server.port(), net::ChannelPolicy::kSecure,
          channel_options);
      if (!transport.ok()) {
        std::fprintf(stderr, "secure connect failed: %s\n",
                     transport.status().ToString().c_str());
        std::exit(1);
      }
      micros.push_back(watch.ElapsedNanos() / 1e3);
    }
    std::sort(micros.begin(), micros.end());
    double sum = 0;
    for (double m : micros) sum += m;
    std::printf("secure handshake latency: mean %.1f us, p99 %.1f us "
                "(%zu connects)\n",
                sum / micros.size(), micros[micros.size() * 99 / 100],
                kHandshakes);
  }

  std::printf("secure-channel cells (same handler, AEAD records):\n");
  double secure_ping_depth8 = 0;
  for (size_t depth : depths) {
    CellResult ping =
        RunCell(secure_server.port(), 1, depth, ping_ops, ping_request,
                net::ChannelPolicy::kSecure, channel_options);
    std::printf("%-6s %6d %6zu %14.0f %12.1f\n", "sping", 1, depth, ping.qps,
                ping.p99_us);
    if (depth == 8) secure_ping_depth8 = ping.qps;
    CellResult knn = RunCell(secure_server.port(), 1, depth,
                             std::max<size_t>(knn_ops, 5), knn_request,
                             net::ChannelPolicy::kSecure, channel_options);
    std::printf("%-6s %6d %6zu %14.0f %12.1f\n", "sknn8", 1, depth, knn.qps,
                knn.p99_us);
  }
  // The gate's ratio is paired, like the metrics-overhead gate: each
  // round runs a plaintext and a secure depth-8 ping cell back to back,
  // the leading mode alternating, and yields one secure/plaintext qps
  // ratio; the gate takes the median over the rounds. Dividing two cells
  // measured seconds apart let host drift and one stalled cell decide
  // the verdict (0.77x-1.18x on one unchanged tree).
  const int kRatioRounds = smoke ? 31 : 51;
  const size_t ratio_ops = ping_ops / 2;
  std::vector<double> ratios;
  for (int round = 0; round < kRatioRounds; ++round) {
    const bool secure_first = (round % 2) == 0;
    double plain_qps = 0, secure_qps = 0;
    for (int leg = 0; leg < 2; ++leg) {
      const bool secure_leg = (leg == 0) == secure_first;
      const CellResult cell =
          secure_leg ? RunCell(secure_server.port(), 1, 8, ratio_ops,
                               ping_request, net::ChannelPolicy::kSecure,
                               channel_options)
                     : RunCell(server.port(), 1, 8, ratio_ops, ping_request);
      (secure_leg ? secure_qps : plain_qps) = cell.qps;
    }
    ratios.push_back(secure_qps / plain_qps);
  }
  std::sort(ratios.begin(), ratios.end());
  const double secure_ratio = ratios[ratios.size() / 2];
  std::printf("secure depth-8 ping: %.0f qps; paired secure/plaintext "
              "ratio %.2fx (median of %d rounds, range %.2f-%.2f)\n",
              secure_ping_depth8, secure_ratio, kRatioRounds, ratios.front(),
              ratios.back());
  secure_server.Stop();
  // With the AES-NI + PCLMULQDQ kernels the record layer's per-frame
  // crypto is a rounding error, so the bar rises; the scalar reference
  // keeps the original 0.5x bound (it still caps the wire at a few
  // MB/s).
  const bool crypto_accelerated = crypto::GcmAccelerated();
  const double secure_gate = crypto_accelerated ? 0.8 : 0.5;
  if (secure_ratio < secure_gate) {
    std::fprintf(stderr,
                 "FAIL: secured depth-8 ping is %.2fx the plaintext qps "
                 "(acceptance gate: >= %.1fx with %s crypto)\n",
                 secure_ratio, secure_gate,
                 crypto_accelerated ? "accelerated" : "scalar");
    std::exit(1);
  }

  std::printf("bench_pipeline OK (pipelining %.2fx >= 1.5x, %zu idle conns "
              "on a fixed pool, secure channel %.2fx >= %.1fx)\n",
              speedup, idle_count, secure_ratio, secure_gate);
  server.Stop();
}

/// The ci.sh observability gate: instrumented depth-8 single-connection
/// ping p99 must stay within 5% (+1 us) of the same cell with the
/// registry switched off in-process. Each round runs one short cell per
/// mode back to back and yields one on/off p99 ratio; the gate is the
/// median ratio over many rounds. On a shared host, stalls of a
/// millisecond or more land on a few cells and multiply their p99;
/// short cells keep most rounds free of them, the pairing cancels the
/// slower drift of the host, and the median drops the rounds a stall
/// hit. A min over each mode separately, as before, let one lucky
/// metrics-off cell fail the gate. The 1 us epsilon, scaled by the
/// median metrics-off p99, keeps the 5% from collapsing to noise on
/// sub-20 us pings.
void RunMetricsOverhead(bool smoke) {
  RaiseFdLimit();
  mindex::MIndexOptions options;
  options.num_pivots = 16;
  options.bucket_capacity = 50;
  options.max_level = 4;
  auto handler = secure::EncryptedMIndexServer::Create(options);
  if (!handler.ok()) std::exit(1);
  net::TcpServer server(handler->get());
  if (!server.Start(0).ok()) std::exit(1);

  const Bytes ping_request = secure::EncodePingRequest();
  const size_t ops = smoke ? 2000 : 5000;
  const int kRounds = 151;
  const bool was_enabled = obs::MetricsEnabled();

  // Warm up connections, worker pool, and allocator before measuring.
  RunCell(server.port(), 1, 8, 4 * ops, ping_request);

  // Alternate which mode runs first each round: the second cell of a
  // pair tends to run marginally faster (warmer caches, settled clock),
  // and a fixed order would credit that bias entirely to one mode.
  std::vector<double> ratios, off_p99s;
  for (int round = 0; round < kRounds; ++round) {
    const bool on_first = (round % 2) == 0;
    double on = 0, off = 0;
    for (int leg = 0; leg < 2; ++leg) {
      const bool measure_on = (leg == 0) == on_first;
      obs::SetMetricsEnabled(measure_on);
      const double p99 =
          RunCell(server.port(), 1, 8, ops, ping_request).p99_us;
      (measure_on ? on : off) = p99;
    }
    ratios.push_back(on / off);
    off_p99s.push_back(off);
  }
  obs::SetMetricsEnabled(was_enabled);

  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double ratio = median(ratios);
  const double off_p99 = median(off_p99s);
  const double budget = 1.05 + 1.0 / off_p99;
  std::printf("metrics overhead: depth-8 ping p99 instrumented/off ratio "
              "%.3f (median of %d rounds; median off p99 %.1f us; budget "
              "%.3f = 5%% + 1 us)\n",
              ratio, kRounds, off_p99, budget);
  if (ratio > budget) {
    std::fprintf(stderr,
                 "FAIL: instrumented ping p99 is %.3fx metrics-off "
                 "(budget %.3fx: 5%% + 1 us over %.1f us)\n",
                 ratio, budget, off_p99);
    std::exit(1);
  }
  std::printf("bench_pipeline metrics-overhead OK (%.3f <= %.3f)\n", ratio,
              budget);
  server.Stop();
}

}  // namespace
}  // namespace bench
}  // namespace simcloud

int main(int argc, char** argv) {
  bool smoke = false;
  bool metrics_overhead = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--metrics-overhead") == 0) {
      metrics_overhead = true;
    }
  }
  if (metrics_overhead) {
    simcloud::bench::RunMetricsOverhead(smoke);
  } else {
    simcloud::bench::Run(smoke);
  }
  return 0;
}
