// Workload definitions and the passes that measure them. README.md says
// why each workload exists and what each metric means.
//
// One run of a workload:
//   1. set-up, repeated (setup_s is the median): generate the collection,
//      select pivots, build the key, start the TCP deployment, bulk-load
//      through a client;
//   2. the end-to-end pass: plain EncryptionClient calls for --seconds,
//      with no timers inside an operation, beside the host-speed sampler
//      (churn's writer then finishes its wrap of the pool, untimed, and
//      recall is measured);
//   3. with --trace 1, the traced pass (a fixed prefix of the workload,
//      every operation rebuilt from public calls and timed per layer, next
//      to the same EncryptionClient call) and the white-box pass (the
//      index and in-process handler calls on the same inputs, quiet and
//      single-threaded);
//   4. the output checks.

#include "workloads.h"

#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/clock.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "metric/ground_truth.h"
#include "mindex/mindex.h"
#include "mindex/permutation.h"
#include "mindex/pivot_selection.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "secure/client.h"
#include "secure/protocol.h"
#include "secure/server.h"
#include "secure/session.h"
#include "secure/sharded_server.h"
#include "host_speed.h"
#include "traced_ops.h"

namespace simcloud {
namespace bench_report {
namespace {

using metric::Neighbor;
using metric::NeighborList;
using metric::VectorObject;

/// Load threads and connections of every workload (a closed-loop client
/// pair, or churn's writer and reader).
constexpr size_t kClients = 2;
/// Bulk size of the set-up load (the paper's construction experiments).
constexpr size_t kLoadBulk = 1000;
/// Seed of the random pivot selection (the one bench_common uses).
constexpr uint64_t kPivotSeed = 7;
/// Seed of the query pool sample.
constexpr uint64_t kPoolSeed = 11;
/// An open-loop read sent later than this after its due time is late.
constexpr int64_t kLateNanos = 1'000'000;
/// Set-up repeats per run: at least kMinSetups, and up to kMaxSetups
/// while one set-up takes less than kSetupBudgetSeconds / repeats.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 60;
constexpr double kSetupBudgetSeconds = 1.0;

[[noreturn]] void Fail(const std::string& what, const Status& status) {
  throw std::runtime_error(what + ": " + status.ToString());
}

void Must(const Status& status, const std::string& what) {
  if (!status.ok()) Fail(what, status);
}

template <typename T>
T Must(Result<T> result, const std::string& what) {
  if (!result.ok()) Fail(what, result.status());
  return std::move(result).value();
}

int64_t Now() { return MonotonicNanos(); }

// ---------------------------------------------------------------------------
// Workload parameters
// ---------------------------------------------------------------------------

enum class Kind { kKnn, kRange, kChurn };
enum class Data { kYeast, kHuman, kCophir };

/// Everything that distinguishes one workload from another.
struct Params {
  std::string name;
  Kind kind = Kind::kKnn;
  Data data = Data::kYeast;
  size_t cophir_objects = 0;  ///< CoPhIR collection size (churn: the pool)
  size_t live_objects = 0;    ///< loaded at set-up; 0 = the whole collection
  mindex::MIndexOptions index;
  secure::PayloadScheme scheme = secure::PayloadScheme::kCbc;
  net::ChannelPolicy policy = net::ChannelPolicy::kSecure;
  size_t shards = 1;
  size_t k = 30;
  size_t cand_size = 0;       ///< approximate k-NN |SC|
  size_t query_pool = 0;      ///< distinct queries, issued in pool order
  /// The first this-many pool slots hold the same queries in every run,
  /// and k-NN recall is judged on them (0: the whole pool).
  size_t fixed_queries = 0;
  size_t warmup_ops = 0;      ///< per client, before timing
  size_t traced_ops = 0;      ///< read operations (churn: writer rounds)
  size_t bulk = 0;            ///< churn: objects per InsertBulk/DeleteBatch
  double read_rate = 0;       ///< churn: open-loop reads per second
  size_t recall_queries = 0;  ///< churn: quiet recall pass after the run
};

/// The paper's Table 2 index parameters per data set.
mindex::MIndexOptions Table2(Data data) {
  mindex::MIndexOptions options;
  switch (data) {
    case Data::kYeast:
      options.num_pivots = 30;
      options.bucket_capacity = 200;
      options.max_level = 6;
      options.storage_kind = mindex::StorageKind::kMemory;
      break;
    case Data::kHuman:
      options.num_pivots = 50;
      options.bucket_capacity = 250;
      options.max_level = 6;
      options.storage_kind = mindex::StorageKind::kMemory;
      break;
    case Data::kCophir:
      options.num_pivots = 100;
      options.bucket_capacity = 1000;
      options.max_level = 8;
      options.storage_kind = mindex::StorageKind::kDisk;
      options.stored_prefix_length = 16;
      break;
  }
  return options;
}

Params MakeParams(const std::string& name, bool smoke) {
  Params p;
  p.name = name;
  if (name == "knn_cophir") {
    p.kind = Kind::kKnn;
    p.data = Data::kCophir;
    p.cophir_objects = smoke ? 4000 : 50000;
    p.cand_size = 500;
    p.query_pool = smoke ? 60 : 600;
    p.fixed_queries = smoke ? 10 : 100;
    p.warmup_ops = smoke ? 2 : 10;
    p.traced_ops = smoke ? 20 : 100;
  } else if (name == "range_human") {
    p.kind = Kind::kRange;
    p.data = Data::kHuman;
    p.shards = 3;
    p.query_pool = smoke ? 40 : 100;
    p.warmup_ops = smoke ? 2 : 10;
    p.traced_ops = smoke ? 40 : 200;
  } else if (name == "knn_yeast_aead") {
    p.kind = Kind::kKnn;
    p.data = Data::kYeast;
    p.scheme = secure::PayloadScheme::kAuthenticated;
    p.policy = net::ChannelPolicy::kPlaintext;
    p.cand_size = 150;
    p.query_pool = 2000;
    p.warmup_ops = smoke ? 100 : 500;
    p.traced_ops = smoke ? 500 : 5000;
  } else if (name == "churn_cophir") {
    p.kind = Kind::kChurn;
    p.data = Data::kCophir;
    p.cophir_objects = smoke ? 4000 : 40000;
    p.live_objects = smoke ? 2000 : 20000;
    p.cand_size = 200;
    p.query_pool = 1000;
    p.bulk = smoke ? 100 : 500;
    p.read_rate = 10;
    p.recall_queries = smoke ? 10 : 200;
    p.traced_ops = smoke ? 5 : 20;
  } else {
    throw std::runtime_error("unknown workload '" + name + "'");
  }
  p.index = Table2(p.data);
  if (p.kind == Kind::kChurn) {
    p.index.compaction_trigger = 0.3;
    p.index.compaction_mode = mindex::CompactionMode::kPartial;
  }
  return p;
}

/// The collection: the repository's standard synthetic data set (the
/// generators' default seeds), fixed like the paper's collections.
metric::Dataset MakeData(const Params& p) {
  switch (p.data) {
    case Data::kYeast:
      return data::MakeYeastLike();
    case Data::kHuman:
      return data::MakeHumanLike();
    case Data::kCophir:
      return data::MakeCophirLike(p.cophir_objects);
  }
  throw std::logic_error("unreachable");
}

/// A fresh instance of the data set's metric, so ground-truth threads do
/// not share one evaluation counter.
std::shared_ptr<metric::DistanceFunction> NewDistance(Data data) {
  if (data == Data::kCophir) return data::MakeCophirDistance();
  return std::make_shared<metric::L1Distance>();
}

/// What --seed draws: the order of the query pool (churn: its read
/// sequence) and the payload key. The collection, the secret pivots and
/// the query pool stay fixed, as in the paper's evaluation: a different
/// pivot set alone moves recall by about ten points, and a different
/// sample of range queries moves their mean cost by about five percent,
/// either of which would swamp a comparison between two commits.
struct Seeds {
  uint64_t queries = 0;
  Bytes aes_key;
};

Seeds DeriveSeeds(uint64_t seed) {
  Rng rng(seed);
  Seeds seeds;
  seeds.queries = rng.NextU64();
  seeds.aes_key.resize(16);
  for (uint8_t& byte : seeds.aes_key) byte = static_cast<uint8_t>(rng.NextU64());
  return seeds;
}

// ---------------------------------------------------------------------------
// Deployment
// ---------------------------------------------------------------------------

/// A private directory under the benchmark's build tree (next to the
/// binary), removed with everything in it when the run ends, so
/// concurrent runs never share a payload log.
class ScratchDir {
 public:
  ScratchDir() {
    const std::filesystem::path parent =
        std::filesystem::read_symlink("/proc/self/exe").parent_path() /
        "scratch";
    std::filesystem::create_directories(parent);
    std::string pattern = (parent / "run-XXXXXX").string();
    if (mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("mkdtemp under " + parent.string() +
                               " failed");
    }
    path_ = pattern;
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The servers of one workload. Declaration order makes teardown safe:
/// the client-facing listener stops first, then the facade, then the
/// shard listeners, then the index servers they serve.
struct Deployment {
  std::vector<std::unique_ptr<secure::EncryptedMIndexServer>> servers;
  std::vector<std::unique_ptr<net::TcpServer>> shard_listeners;
  std::unique_ptr<secure::ShardedServer> facade;
  std::unique_ptr<net::TcpServer> listener;
};

Deployment StartDeployment(const Params& p, const secure::SecretKey& key,
                           const std::string& disk_path) {
  net::TcpServerOptions server_options;
  server_options.channel_policy = p.policy;
  if (p.policy == net::ChannelPolicy::kSecure) {
    server_options.secure_channel = secure::SecureSessionOptions(key);
  }
  Deployment d;
  for (size_t s = 0; s < p.shards; ++s) {
    mindex::MIndexOptions options = p.index;
    options.disk_path = disk_path + "." + std::to_string(s);
    d.servers.push_back(Must(secure::EncryptedMIndexServer::Create(options),
                             "server create"));
  }
  net::RequestHandler* front = d.servers[0].get();
  if (p.shards > 1) {
    std::vector<secure::ShardEndpoint> endpoints;
    for (const auto& server : d.servers) {
      d.shard_listeners.push_back(
          std::make_unique<net::TcpServer>(server.get(), server_options));
      Must(d.shard_listeners.back()->Start(0), "shard listener start");
      endpoints.push_back(
          secure::ShardEndpoint{"127.0.0.1", d.shard_listeners.back()->port()});
    }
    d.facade = Must(secure::ShardedServer::Connect(
                        endpoints, p.index.num_pivots, p.policy,
                        server_options.secure_channel),
                    "facade connect");
    front = d.facade.get();
  }
  d.listener = std::make_unique<net::TcpServer>(front, server_options);
  Must(d.listener->Start(0), "listener start");
  return d;
}

/// A deployment plus the data and key its clients use. Members are
/// destroyed bottom-up, so the deployment stops before its key goes.
struct Setup {
  metric::Dataset data;
  std::unique_ptr<secure::SecretKey> key;
  Deployment deployment;
  double seconds = 0;
};

std::unique_ptr<net::TcpTransport> Connect(const Params& p,
                                           const Setup& setup) {
  const uint16_t port = setup.deployment.listener->port();
  if (p.policy == net::ChannelPolicy::kSecure) {
    return Must(secure::ConnectSecure("127.0.0.1", port, *setup.key),
                "secure connect");
  }
  return Must(net::TcpTransport::Connect("127.0.0.1", port), "connect");
}

/// The timed set-up: data generation, pivot selection, server start and
/// the bulk load through a client (the paper's construction cost). With
/// `traced_load` the load is rebuilt from public calls and its write path
/// is timed per layer into it.
std::unique_ptr<Setup> RunSetup(const Params& p, const Seeds& seeds,
                                const std::string& disk_path,
                                LayerTotals* traced_load) {
  Stopwatch watch;
  auto setup = std::make_unique<Setup>();
  setup->data = MakeData(p);
  const auto& objects = setup->data.objects();
  mindex::PivotSelectionOptions pivot_options;
  pivot_options.strategy = mindex::PivotStrategy::kRandom;
  pivot_options.count = p.index.num_pivots;
  pivot_options.seed = kPivotSeed;
  mindex::PivotSet pivots =
      Must(mindex::SelectPivots(objects, *setup->data.distance(),
                                pivot_options),
           "pivot selection");
  setup->key = std::make_unique<secure::SecretKey>(
      Must(secure::SecretKey::Create(std::move(pivots), seeds.aes_key,
                                     p.scheme),
           "key"));
  setup->deployment = StartDeployment(p, *setup->key, disk_path);

  const size_t live = p.live_objects == 0 ? objects.size() : p.live_objects;
  const std::vector<VectorObject> subset =
      live == objects.size()
          ? std::vector<VectorObject>{}
          : std::vector<VectorObject>(objects.begin(), objects.begin() + live);
  const std::vector<VectorObject>& load = subset.empty() ? objects : subset;
  std::unique_ptr<net::TcpTransport> transport = Connect(p, *setup);
  if (traced_load != nullptr) {
    const TracedClient traced{setup->key.get(), setup->data.distance().get(),
                              transport.get()};
    Must(TracedInsertBulk(traced, load, kLoadBulk, traced_load), "load");
  } else {
    secure::EncryptionClient loader(*setup->key, setup->data.distance(),
                                    transport.get());
    Must(loader.InsertBulk(load, secure::InsertStrategy::kPrecise, kLoadBulk),
         "load");
  }
  setup->seconds = watch.ElapsedSeconds();
  return setup;
}

// ---------------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------------

/// Linear interpolation between order statistics.
double Percentile(std::vector<int64_t> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(values[lo]) * (1 - frac) +
         static_cast<double>(values[hi]) * frac;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Mean(const std::vector<int64_t>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (int64_t v : values) sum += static_cast<double>(v);
  return sum / static_cast<double>(values.size());
}

/// The change of one histogram between two registry snapshots.
obs::HistogramSnapshot HistogramDelta(const obs::MetricsSnapshot& after,
                                      const obs::MetricsSnapshot& before,
                                      const std::string& name) {
  obs::HistogramSnapshot delta;
  const obs::HistogramSnapshot* end = after.histogram(name);
  if (end == nullptr) return delta;
  const obs::HistogramSnapshot* start = before.histogram(name);
  std::map<uint32_t, uint64_t> prior;
  if (start != nullptr) prior.insert(start->buckets.begin(), start->buckets.end());
  delta.name = name;
  delta.count = end->count - (start != nullptr ? start->count : 0);
  delta.sum = end->sum - (start != nullptr ? start->sum : 0);
  for (const auto& [index, count] : end->buckets) {
    const uint64_t grown = count - prior[index];
    if (grown > 0) delta.buckets.emplace_back(index, grown);
  }
  return delta;
}

uint64_t CounterDelta(const obs::MetricsSnapshot& after,
                      const obs::MetricsSnapshot& before,
                      const std::string& name) {
  const uint64_t* end = after.counter(name);
  const uint64_t* start = before.counter(name);
  return (end != nullptr ? *end : 0) - (start != nullptr ? *start : 0);
}

/// VmHWM of this process.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

int HardwareThreads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// One client thread's connection.
struct Client {
  std::unique_ptr<net::TcpTransport> transport;
  std::unique_ptr<secure::EncryptionClient> client;
};

/// When one successful operation ran, from the start of its pass.
struct OpTime {
  int64_t begin = 0;
  int64_t nanos = 0;
};

std::vector<int64_t> Latencies(const std::vector<OpTime>& ops) {
  std::vector<int64_t> nanos;
  nanos.reserve(ops.size());
  for (const OpTime& op : ops) nanos.push_back(op.nanos);
  return nanos;
}

/// Each operation's latency divided by the host's speed index around it.
std::vector<int64_t> AtReferenceSpeed(const std::vector<OpTime>& ops,
                                      const HostSpeed& speed) {
  std::vector<int64_t> nanos;
  nanos.reserve(ops.size());
  for (const OpTime& op : ops) {
    nanos.push_back(std::llround(static_cast<double>(op.nanos) /
                                 speed.Index(op.begin, op.begin + op.nanos)));
  }
  return nanos;
}

/// What one client thread of a closed-loop pass recorded.
struct ClientLog {
  std::vector<OpTime> ops;  ///< the successful operations
  /// First answer per distinct query (pool slot).
  std::map<uint32_t, NeighborList> answers;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  int64_t end_nanos = 0;
};

/// Per-operation index and handler timings of the white-box pass.
struct WhiteBox {
  double search_nanos = 0;
  double rank_nanos = 0;
  double fetch_nanos = 0;
  double handle_nanos = 0;
  double candidates = 0;
};

// ---------------------------------------------------------------------------
// One workload run
// ---------------------------------------------------------------------------

class WorkloadRun {
 public:
  explicit WorkloadRun(const RunOptions& options)
      : options_(options),
        p_(MakeParams(options.workload, options.smoke)),
        seeds_(DeriveSeeds(options.seed)) {}

  Report Run();

 private:
  const std::vector<VectorObject>& objects() const {
    return setup_->data.objects();
  }
  const metric::DistanceFunction& distance() const {
    return *setup_->data.distance();
  }
  const VectorObject& PoolQuery(uint32_t slot) const {
    return objects()[pool_[slot]];
  }
  size_t FixedQueries() const {
    return p_.fixed_queries == 0 ? pool_.size()
                                 : std::min(p_.fixed_queries, pool_.size());
  }
  /// Churn keeps a sliding window of `live_objects` consecutive pool
  /// objects; window position v holds pool object v mod pool size.
  std::vector<VectorObject> WindowSlice(uint64_t from, size_t count) const;

  void SetUp();
  void PrepareQueries();
  void ConnectClients();
  void WarmUp();
  void RunClosedLoop();
  void RunChurn();
  /// One writer round: InsertBulk of the next `bulk` pool objects, then
  /// DeleteBatch of the `bulk` oldest, so the live count holds. `calls`
  /// counts the requests made. False when one failed.
  bool ChurnRound(secure::EncryptionClient& client, uint64_t* calls);
  void FinishChurnWrap();
  void CheckChurnEnd();
  void RunChurnRecall();
  void RunTracedReads();
  void RunTracedChurn();
  void WaitForCompactionIdle();
  void RunWhiteBox();
  void ComputeKnnRecall();
  void Compose(const obs::MetricsSnapshot& before,
               const obs::MetricsSnapshot& after);

  /// The workload's read operation through EncryptionClient.
  Result<NeighborList> Query(secure::EncryptionClient& client,
                             uint32_t slot) const;
  /// The same operation rebuilt from public calls, timed per layer.
  Result<NeighborList> TracedQuery(const TracedClient& client, uint32_t slot,
                                   LayerTotals* layers) const;
  /// Checks one answer: range answers equal brute force; k-NN answers are
  /// k neighbors, sorted, each at its true distance from the query.
  bool CheckAnswer(const VectorObject& query, uint32_t slot,
                   const NeighborList& answer) const;
  void Problem(const std::string& what) {
    report_.correct = false;
    report_.problems.push_back(what);
  }
  void AddOps(uint64_t attempted, uint64_t failed) {
    report_.attempted += attempted;
    report_.failed += failed;
  }

  const RunOptions options_;
  const Params p_;
  const Seeds seeds_;
  ScratchDir scratch_;
  std::unique_ptr<Setup> setup_;
  HostSpeed setup_speed_;
  std::vector<OpTime> setup_times_;  ///< every set-up of the run
  std::vector<Client> clients_;
  Report report_;

  /// Query pool: indices into objects(), in issue order.
  std::vector<uint32_t> pool_;
  /// Range workload: radius and brute-force answer per pool slot.
  std::vector<double> radius_;
  std::vector<NeighborList> truth_;

  // End-to-end pass.
  HostSpeed host_speed_;
  std::vector<OpTime> read_times_;  ///< the successful reads
  std::map<uint32_t, NeighborList> answers_;
  uint64_t read_ops_ = 0;
  uint64_t wrong_ = 0;
  double elapsed_s_ = 0;
  uint64_t bytes_ = 0;
  double peak_rss_mb_ = 0;
  double recall_pct_ = 0;

  // Churn.
  uint64_t window_lo_ = 0;
  uint64_t window_hi_ = 0;
  uint64_t written_ = 0;
  uint64_t late_reads_ = 0;
  std::vector<OpTime> round_times_;  ///< the writer's rounds
  std::vector<double> space_amp_samples_;
  mindex::IndexStats end_stats_;

  // Traced and white-box passes.
  LayerTotals write_layers_;
  LayerTotals read_layers_;
  int64_t untraced_nanos_ = 0;
  std::map<uint32_t, NeighborList> traced_answers_;
  std::vector<uint32_t> traced_slots_;
  WhiteBox white_box_;
};

std::vector<VectorObject> WorkloadRun::WindowSlice(uint64_t from,
                                                   size_t count) const {
  std::vector<VectorObject> slice;
  slice.reserve(count);
  for (uint64_t v = from; v < from + count; ++v) {
    slice.push_back(objects()[v % objects().size()]);
  }
  return slice;
}

void WorkloadRun::SetUp() {
  // setup_s is a median over repeats: at least kMinSetups, more when a
  // set-up is short, so the median of a millisecond set-up holds still.
  // Like the pass's latencies, each set-up is taken at the reference host
  // speed (see Compose).
  int repeats = options_.smoke ? 1 : kMinSetups;
  const std::filesystem::path dir = scratch_.path() + "/setup";
  const int64_t origin = Now();
  setup_speed_.Start(origin);
  for (int repeat = 0; repeat < repeats; ++repeat) {
    // The previous deployment is torn down and its payload log deleted
    // before the next set-up starts.
    setup_.reset();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directory(dir);
    const bool traced_load = options_.trace && p_.kind != Kind::kChurn &&
                             repeat + 1 == repeats;
    setup_ = RunSetup(p_, seeds_, (dir / "payloads").string(),
                      traced_load ? &write_layers_ : nullptr);
    const int64_t nanos = std::llround(setup_->seconds * 1e9);
    setup_times_.push_back(OpTime{Now() - origin - nanos, nanos});
    if (repeat == 0 && !options_.smoke) {
      const double wanted = kSetupBudgetSeconds / setup_->seconds + 1;
      repeats = wanted >= kMaxSetups
                    ? kMaxSetups
                    : std::max(kMinSetups, static_cast<int>(wanted));
    }
  }
  setup_speed_.Stop();
  window_hi_ = p_.live_objects;
  report_.banner = obs::RuntimeBanner(
      "bench_report",
      "workload=" + p_.name + ", io_engine=" +
          setup_->deployment.listener->io_engine_name() + ", channel=" +
          (p_.policy == net::ChannelPolicy::kSecure ? "secure" : "plaintext"));
}

void WorkloadRun::PrepareQueries() {
  // The pool is a fixed sample of the collection; the seed orders it.
  // A pool the pass cycles is small enough that every run measures the
  // same query mix whatever its speed. The first `fixed_queries` slots and
  // the rest are ordered apart, so every run answers the same first
  // queries.
  const size_t n = objects().size();
  for (size_t index : Rng(kPoolSeed).SampleWithoutReplacement(
           n, std::min(n, p_.query_pool))) {
    pool_.push_back(static_cast<uint32_t>(index));
  }
  const size_t fixed = FixedQueries();
  std::vector<uint32_t> rest(pool_.begin() + fixed, pool_.end());
  pool_.resize(fixed);
  Rng order(seeds_.queries);
  order.Shuffle(pool_);
  order.Shuffle(rest);
  pool_.insert(pool_.end(), rest.begin(), rest.end());
  if (p_.kind != Kind::kRange) return;
  // Each range query's radius is its exact 10th-NN distance, so every
  // answer holds about ten objects and can be checked exactly.
  radius_.resize(pool_.size());
  truth_.resize(pool_.size());
  Must(ParallelFor(HardwareThreads(), pool_.size(),
                   [&](size_t slot) {
                     const auto metric = NewDistance(p_.data);
                     const VectorObject& query = objects()[pool_[slot]];
                     radius_[slot] =
                         metric::LinearKnnSearch(objects(), *metric, query, 10)
                             .back()
                             .distance;
                     truth_[slot] = metric::LinearRangeSearch(
                         objects(), *metric, query, radius_[slot]);
                     return Status::OK();
                   }),
       "range ground truth");
}

void WorkloadRun::ConnectClients() {
  for (size_t c = 0; c < kClients; ++c) {
    Client client;
    client.transport = Connect(p_, *setup_);
    client.client = std::make_unique<secure::EncryptionClient>(
        *setup_->key, setup_->data.distance(), client.transport.get());
    clients_.push_back(std::move(client));
  }
}

Result<NeighborList> WorkloadRun::Query(secure::EncryptionClient& client,
                                        uint32_t slot) const {
  if (p_.kind == Kind::kRange) {
    return client.RangeSearch(PoolQuery(slot), radius_[slot]);
  }
  return client.ApproxKnn(PoolQuery(slot), p_.k, p_.cand_size);
}

Result<NeighborList> WorkloadRun::TracedQuery(const TracedClient& client,
                                              uint32_t slot,
                                              LayerTotals* layers) const {
  if (p_.kind == Kind::kRange) {
    return TracedRangeSearch(client, PoolQuery(slot), radius_[slot], layers);
  }
  return TracedApproxKnn(client, PoolQuery(slot), p_.k, p_.cand_size, layers);
}

bool WorkloadRun::CheckAnswer(const VectorObject& query, uint32_t slot,
                              const NeighborList& answer) const {
  if (p_.kind == Kind::kRange) return answer == truth_[slot];
  const size_t live =
      p_.live_objects == 0 ? objects().size() : p_.live_objects;
  if (answer.size() != std::min(p_.k, live)) return false;
  if (!std::is_sorted(answer.begin(), answer.end())) return false;
  for (const Neighbor& n : answer) {
    if (n.id >= objects().size() ||
        distance().Distance(query, objects()[n.id]) != n.distance) {
      return false;
    }
  }
  return true;
}

void WorkloadRun::WarmUp() {
  if (p_.kind == Kind::kChurn) return;
  std::vector<std::thread> threads;
  std::atomic<uint64_t> failed{0};
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = 0; i < p_.warmup_ops; ++i) {
        const uint32_t slot = static_cast<uint32_t>(
            (pool_.size() - 1 - (c * p_.warmup_ops + i) % pool_.size()));
        if (!Query(*clients_[c].client, slot).ok()) failed++;
      }
    });
  }
  for (auto& t : threads) t.join();
  AddOps(kClients * p_.warmup_ops, failed.load());
}

void WorkloadRun::RunClosedLoop() {
  std::atomic<uint64_t> next{0};
  std::vector<ClientLog> logs(kClients);
  const int64_t start = Now();
  const int64_t deadline =
      start + static_cast<int64_t>(options_.seconds * 1e9);
  host_speed_.Start(start);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[c];
      secure::EncryptionClient& client = *clients_[c].client;
      while (Now() < deadline) {
        const uint64_t op = next.fetch_add(1);
        const uint32_t slot = static_cast<uint32_t>(op % pool_.size());
        log.attempted++;
        const int64_t begin = Now();
        Result<NeighborList> answer = Query(client, slot);
        const int64_t end = Now();
        if (!answer.ok()) {
          log.failed++;
          continue;
        }
        log.ops.push_back(OpTime{begin - start, end - begin});
        // Repeats of a query must reproduce its first answer; the first
        // answer itself is checked (range: every answer).
        auto [first, inserted] = log.answers.try_emplace(slot, *answer);
        if (inserted || p_.kind == Kind::kRange) {
          if (!CheckAnswer(PoolQuery(slot), slot, *answer)) log.wrong++;
        } else if (first->second != *answer) {
          log.wrong++;
        }
      }
      log.end_nanos = Now();
    });
  }
  for (auto& t : threads) t.join();
  host_speed_.Stop();

  int64_t end = start;
  for (ClientLog& log : logs) {
    AddOps(log.attempted, log.failed);
    wrong_ += log.wrong;
    end = std::max(end, log.end_nanos);
    read_times_.insert(read_times_.end(), log.ops.begin(), log.ops.end());
    for (auto& [slot, answer] : log.answers) {
      auto [first, inserted] = answers_.try_emplace(slot, std::move(answer));
      if (!inserted && first->second != answer) wrong_++;
    }
  }
  read_ops_ = read_times_.size();
  elapsed_s_ = static_cast<double>(end - start) * 1e-9;
  if (wrong_ > 0) {
    Problem(std::to_string(wrong_) + " answers failed their check (" +
            (p_.kind == Kind::kRange ? "differ from brute force"
                                     : "malformed or not reproducible") +
            ")");
  }
}

void WorkloadRun::RunChurn() {
  const int64_t start = Now();
  const int64_t deadline =
      start + static_cast<int64_t>(options_.seconds * 1e9);
  std::atomic<bool> writer_failed{false};
  uint64_t write_attempts = 0;
  int64_t writer_end = start;
  host_speed_.Start(start);

  // One closed-loop writer.
  std::thread writer([&] {
    secure::EncryptionClient& client = *clients_[0].client;
    while (Now() < deadline) {
      const int64_t begin = Now();
      if (!ChurnRound(client, &write_attempts)) {
        writer_failed = true;
        break;
      }
      const int64_t end = Now();
      round_times_.push_back(OpTime{begin - start, end - begin});
      written_ += 2 * p_.bulk;
      Result<mindex::IndexStats> stats = client.GetServerStats();
      if (stats.ok() && stats->live_storage_bytes > 0) {
        space_amp_samples_.push_back(
            static_cast<double>(stats->storage_bytes) /
            static_cast<double>(stats->live_storage_bytes));
      }
    }
    writer_end = Now();
  });

  // One open-loop reader: read i is due at start + i / rate and its
  // latency counts from that due time, so a stall also charges the reads
  // queued behind it.
  uint64_t read_attempts = 0;
  uint64_t read_failed = 0;
  std::thread reader([&] {
    secure::EncryptionClient& client = *clients_[1].client;
    const double period = 1e9 / p_.read_rate;
    for (uint64_t i = 0;; ++i) {
      const int64_t due = start + static_cast<int64_t>(i * period);
      if (due >= deadline) break;
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - Now()));
      if (Now() - due > kLateNanos) late_reads_++;
      const uint32_t slot = static_cast<uint32_t>(i % pool_.size());
      read_attempts++;
      Result<NeighborList> answer =
          client.ApproxKnn(PoolQuery(slot), p_.k, p_.cand_size);
      const int64_t end = Now();
      if (!answer.ok()) {
        read_failed++;
        continue;
      }
      read_times_.push_back(OpTime{due - start, end - due});
      if (!CheckAnswer(PoolQuery(slot), slot, *answer)) wrong_++;
    }
  });
  writer.join();
  reader.join();
  host_speed_.Stop();

  AddOps(write_attempts + read_attempts, read_failed + (writer_failed ? 1 : 0));
  read_ops_ = read_times_.size();
  elapsed_s_ = static_cast<double>(writer_end - start) * 1e-9;
  if (writer_failed) Problem("a churn write failed");
  if (wrong_ > 0) {
    Problem(std::to_string(wrong_) + " churn reads were malformed");
  }
}

bool WorkloadRun::ChurnRound(secure::EncryptionClient& client,
                             uint64_t* calls) {
  const std::vector<VectorObject> inserts = WindowSlice(window_hi_, p_.bulk);
  const std::vector<VectorObject> deletes = WindowSlice(window_lo_, p_.bulk);
  ++*calls;
  if (!client.InsertBulk(inserts, secure::InsertStrategy::kPrecise, p_.bulk)
           .ok()) {
    return false;
  }
  window_hi_ += p_.bulk;
  ++*calls;
  if (!client.DeleteBatch(deletes, p_.bulk).ok()) return false;
  window_lo_ += p_.bulk;
  return true;
}

void WorkloadRun::FinishChurnWrap() {
  // The writer goes on, untimed, until the window has wrapped the pool a
  // whole number of times, so the recall pass judges the same live set
  // with the same queries in every run, whatever the run's speed.
  uint64_t calls = 0;
  bool failed = false;
  while (window_lo_ % objects().size() != 0) {
    if (!ChurnRound(*clients_[0].client, &calls)) {
      failed = true;
      break;
    }
  }
  AddOps(calls, failed ? 1 : 0);
  if (failed) Problem("a churn write failed");
}

void WorkloadRun::CheckChurnEnd() {
  end_stats_ = Must(clients_[0].client->GetServerStats(), "stats");
  if (end_stats_.object_count != p_.live_objects) {
    Problem("churn ended with " + std::to_string(end_stats_.object_count) +
            " objects, expected " + std::to_string(p_.live_objects));
  }
}

void WorkloadRun::RunChurnRecall() {
  // Quiet recall over the final live set: queries evenly spaced through
  // the window, answered by both clients, judged against brute force on
  // the window.
  std::vector<VectorObject> queries;
  const size_t stride = p_.live_objects / p_.recall_queries;
  for (size_t i = 0; i < p_.recall_queries; ++i) {
    queries.push_back(
        objects()[(window_lo_ + i * stride) % objects().size()]);
  }
  std::vector<NeighborList> answers(queries.size());
  std::atomic<uint64_t> failed{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = c; i < queries.size(); i += kClients) {
        Result<NeighborList> answer =
            clients_[c].client->ApproxKnn(queries[i], p_.k, p_.cand_size);
        if (answer.ok()) {
          answers[i] = std::move(*answer);
        } else {
          failed++;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  AddOps(queries.size(), failed.load());

  const std::vector<VectorObject> live =
      WindowSlice(window_lo_, p_.live_objects);
  std::vector<double> recall(queries.size());
  Must(ParallelFor(HardwareThreads(), queries.size(),
                   [&](size_t i) {
                     const auto metric = NewDistance(p_.data);
                     recall[i] = metric::RecallPercent(
                         answers[i], metric::LinearKnnSearch(
                                         live, *metric, queries[i], p_.k));
                     return Status::OK();
                   }),
       "churn ground truth");
  double sum = 0;
  for (double r : recall) sum += r;
  recall_pct_ = queries.empty() ? 0 : sum / static_cast<double>(queries.size());
}

void WorkloadRun::RunTracedReads() {
  std::atomic<uint64_t> next{0};
  std::vector<LayerTotals> layers(kClients);
  std::vector<int64_t> untraced(kClients, 0);
  std::vector<std::map<uint32_t, NeighborList>> answers(kClients);
  std::vector<uint64_t> attempted(kClients, 0), failed(kClients, 0),
      mismatched(kClients, 0);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      const TracedClient traced{setup_->key.get(), &distance(),
                                clients_[c].transport.get()};
      for (;;) {
        const uint64_t op = next.fetch_add(1);
        if (op >= p_.traced_ops) break;
        const uint32_t slot = static_cast<uint32_t>(op % pool_.size());
        LayerTotals op_layers;
        Result<NeighborList> rebuilt = TracedQuery(traced, slot, &op_layers);
        const int64_t begin = Now();
        Result<NeighborList> direct = Query(*clients_[c].client, slot);
        const int64_t nanos = Now() - begin;
        attempted[c] += 2;
        if (!rebuilt.ok() || !direct.ok()) {
          failed[c] += (rebuilt.ok() ? 0 : 1) + (direct.ok() ? 0 : 1);
          continue;
        }
        layers[c].Add(op_layers);
        untraced[c] += nanos;
        // The rebuilt answer must equal the client's, and the answer the
        // end-to-end pass got for the same query.
        auto e2e = answers_.find(slot);
        if (*rebuilt != *direct ||
            (e2e != answers_.end() && e2e->second != *rebuilt) ||
            (p_.kind == Kind::kRange && *rebuilt != truth_[slot])) {
          mismatched[c]++;
        }
        answers[c].try_emplace(slot, std::move(*rebuilt));
      }
    });
  }
  for (auto& t : threads) t.join();

  uint64_t mismatches = 0;
  for (size_t c = 0; c < kClients; ++c) {
    read_layers_.Add(layers[c]);
    untraced_nanos_ += untraced[c];
    AddOps(attempted[c], failed[c]);
    mismatches += mismatched[c];
    traced_answers_.merge(answers[c]);
  }
  for (const auto& [slot, answer] : traced_answers_) {
    traced_slots_.push_back(slot);
  }
  if (mismatches > 0) {
    Problem(std::to_string(mismatches) +
            " traced answers differ from the untraced ones");
  }
}

void WorkloadRun::RunTracedChurn() {
  // The writer and the reader run as in the end-to-end pass, but each
  // write call and each read pair (rebuilt, then EncryptionClient) holds
  // `gate`, so both reads of a pair see one index state and must agree.
  // The reader steps aside while the writer waits: it runs behind its
  // schedule and would otherwise retake the gate at once.
  std::mutex gate;
  std::atomic<bool> writer_waiting{false};
  std::atomic<bool> writer_done{false};
  bool writer_failed = false;
  uint64_t writer_calls = 0;
  std::thread writer([&] {
    const TracedClient traced{setup_->key.get(), &distance(),
                              clients_[0].transport.get()};
    auto locked = [&](auto&& write) {
      writer_waiting = true;
      std::lock_guard<std::mutex> lock(gate);
      writer_waiting = false;
      writer_calls++;
      return write().ok();
    };
    for (size_t round = 0; round < p_.traced_ops; ++round) {
      const std::vector<VectorObject> inserts =
          WindowSlice(window_hi_, p_.bulk);
      if (!locked([&] {
            return TracedInsertBulk(traced, inserts, p_.bulk, &write_layers_);
          })) {
        writer_failed = true;
        break;
      }
      window_hi_ += p_.bulk;
      const std::vector<VectorObject> deletes =
          WindowSlice(window_lo_, p_.bulk);
      if (!locked([&] {
            return TracedDeleteBatch(traced, deletes, &write_layers_);
          })) {
        writer_failed = true;
        break;
      }
      window_lo_ += p_.bulk;
    }
    writer_done = true;
  });

  uint64_t attempted = 0, failed = 0, mismatched = 0;
  std::thread reader([&] {
    const TracedClient traced{setup_->key.get(), &distance(),
                              clients_[1].transport.get()};
    const int64_t start = Now();
    const double period = 1e9 / p_.read_rate;
    constexpr uint64_t kMinReads = 10;
    for (uint64_t i = 0; !writer_done || i < kMinReads; ++i) {
      const int64_t due = start + static_cast<int64_t>(i * period);
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - Now()));
      while (writer_waiting) std::this_thread::yield();
      const uint32_t slot = static_cast<uint32_t>(i % pool_.size());
      std::lock_guard<std::mutex> lock(gate);
      LayerTotals op_layers;
      Result<NeighborList> rebuilt = TracedQuery(traced, slot, &op_layers);
      const int64_t begin = Now();
      Result<NeighborList> direct = Query(*clients_[1].client, slot);
      const int64_t nanos = Now() - begin;
      attempted += 2;
      if (!rebuilt.ok() || !direct.ok()) {
        failed += (rebuilt.ok() ? 0 : 1) + (direct.ok() ? 0 : 1);
        continue;
      }
      read_layers_.Add(op_layers);
      untraced_nanos_ += nanos;
      if (*rebuilt != *direct) mismatched++;
      if (traced_answers_.try_emplace(slot, std::move(*rebuilt)).second) {
        traced_slots_.push_back(slot);
      }
    }
  });
  writer.join();
  reader.join();
  AddOps(attempted + writer_calls, failed + (writer_failed ? 1 : 0));
  if (writer_failed) Problem("a traced churn write failed");
  if (mismatched > 0) {
    Problem(std::to_string(mismatched) +
            " traced churn reads differ from the untraced ones");
  }
}

void WorkloadRun::WaitForCompactionIdle() {
  // The white-box pass calls the index directly, outside the server's
  // lock, so no background compaction pass may be running: wait until
  // none is active and the pass count holds still.
  uint64_t last_passes = UINT64_MAX;
  int stable = 0;
  for (int i = 0; i < 600 && stable < 5; ++i) {
    const mindex::IndexStats stats =
        Must(clients_[0].client->GetServerStats(), "stats");
    stable = stats.compaction_active == 0 &&
                     stats.compaction_passes == last_passes
                 ? stable + 1
                 : 0;
    last_passes = stats.compaction_passes;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (stable < 5) throw std::runtime_error("compaction never went idle");
}

void WorkloadRun::RunWhiteBox() {
  const size_t ops = traced_slots_.size();
  const auto& servers = setup_->deployment.servers;
  std::vector<WhiteBox> per_op(ops);
  std::vector<Bytes> requests(ops);

  // Index calls: the slowest shard's search per operation; range splits
  // it into rank and fetch through the ranked (cursor) entry points.
  const obs::MetricsSnapshot before = obs::Registry::Default().Snapshot();
  for (size_t i = 0; i < ops; ++i) {
    const uint32_t slot = traced_slots_[i];
    const std::vector<float> distances =
        setup_->key->pivots().ComputeDistances(PoolQuery(slot), distance());
    mindex::QuerySignature signature;
    signature.permutation = mindex::DistancesToPermutation(distances);
    requests[i] =
        p_.kind == Kind::kRange
            ? secure::EncodeRangeSearchRequest(distances, radius_[slot])
            : secure::EncodeApproxKnnRequest(signature, p_.cand_size);
    for (const auto& server : servers) {
      const mindex::MIndex& index = server->index();
      mindex::SearchStats stats;
      Stopwatch watch;
      if (p_.kind == Kind::kRange) {
        Must(index.RangeSearchCandidates(distances, radius_[slot], &stats),
             "range candidates");
      } else {
        Must(index.ApproxKnnCandidates(signature, p_.cand_size, &stats),
             "knn candidates");
      }
      const double search = static_cast<double>(watch.ElapsedNanos());
      per_op[i].candidates += static_cast<double>(stats.candidates);
      if (search < per_op[i].search_nanos) continue;
      per_op[i].search_nanos = search;
      if (p_.kind == Kind::kRange) {
        watch.Reset();
        const mindex::RankedCandidates ranked = Must(
            index.RangeSearchRankedCandidates(distances, radius_[slot]),
            "ranked candidates");
        per_op[i].rank_nanos = static_cast<double>(watch.ElapsedNanos());
        watch.Reset();
        size_t next = 0;
        Must(index.MaterializeRankedPage(ranked, &next, SIZE_MAX),
             "materialize");
        per_op[i].fetch_nanos = static_cast<double>(watch.ElapsedNanos());
      }
    }
  }
  const obs::MetricsSnapshot after = obs::Registry::Default().Snapshot();

  // In-process handler calls: what a request costs a server without the
  // network, the worker pool or (range) the facade in front of it.
  for (size_t i = 0; i < ops; ++i) {
    for (const auto& server : servers) {
      Stopwatch watch;
      Must(server->Handle(requests[i]), "in-process handle");
      per_op[i].handle_nanos = std::max(
          per_op[i].handle_nanos, static_cast<double>(watch.ElapsedNanos()));
    }
  }

  for (const WhiteBox& op : per_op) {
    white_box_.search_nanos += op.search_nanos / static_cast<double>(ops);
    white_box_.rank_nanos += op.rank_nanos / static_cast<double>(ops);
    white_box_.fetch_nanos += op.fetch_nanos / static_cast<double>(ops);
    white_box_.handle_nanos += op.handle_nanos / static_cast<double>(ops);
    white_box_.candidates += op.candidates / static_cast<double>(ops);
  }
  if (p_.kind != Kind::kRange && ops > 0) {
    // One server: the payload-fetch histogram over the pass is exactly
    // this pass's fetches; the rest of the search collects and ranks.
    white_box_.fetch_nanos =
        static_cast<double>(
            HistogramDelta(after, before, "simcloud_payload_fetch_nanos").sum) /
        static_cast<double>(ops);
    white_box_.rank_nanos = white_box_.search_nanos - white_box_.fetch_nanos;
  }
}

void WorkloadRun::ComputeKnnRecall() {
  // Recall is judged on the fixed queries, which every run answers.
  std::map<uint32_t, NeighborList> judged;
  for (const auto& [slot, answer] : answers_) {
    if (slot < FixedQueries()) judged.emplace(slot, answer);
  }
  std::set<uint32_t> slots;
  for (const auto& [slot, answer] : judged) slots.insert(slot);
  for (const auto& [slot, answer] : traced_answers_) slots.insert(slot);
  const std::vector<uint32_t> order(slots.begin(), slots.end());
  std::map<uint32_t, NeighborList> exact;
  for (uint32_t slot : order) exact[slot];
  Must(ParallelFor(HardwareThreads(), order.size(),
                   [&](size_t i) {
                     const auto metric = NewDistance(p_.data);
                     exact.at(order[i]) = metric::LinearKnnSearch(
                         objects(), *metric, PoolQuery(order[i]), p_.k);
                     return Status::OK();
                   }),
       "knn ground truth");

  auto mean_recall = [&](const std::map<uint32_t, NeighborList>& answers,
                         const std::map<uint32_t, NeighborList>* only) {
    double sum = 0;
    size_t n = 0;
    for (const auto& [slot, answer] : answers) {
      if (only != nullptr && only->count(slot) == 0) continue;
      sum += metric::RecallPercent(answer, exact.at(slot));
      n++;
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  };
  recall_pct_ = mean_recall(judged, nullptr);
  if (options_.trace) {
    // Recall over the traced queries must be the same in both passes.
    const double traced = mean_recall(traced_answers_, &answers_);
    const double untraced = mean_recall(answers_, &traced_answers_);
    report_.extra.push_back({"recall_traced_pct", traced, "%"});
    if (traced != untraced) {
      Problem("recall differs between the traced (" + std::to_string(traced) +
              "%) and end-to-end (" + std::to_string(untraced) + "%) passes");
    }
  }
}

void WorkloadRun::Compose(const obs::MetricsSnapshot& before,
                          const obs::MetricsSnapshot& after) {
  const bool churn = p_.kind == Kind::kChurn;
  // Churn's operations are its writes: it counts objects written, and
  // its latency is a writer round's. Its reads' latency swings with
  // whether a read meets a held writer lock and with the machine's load
  // (a spread of 25-40% between sets of ten runs on a shared host), so it
  // is reported beside the metrics, not as one.
  const double ops = churn ? static_cast<double>(written_)
                           : static_cast<double>(read_ops_);
  const std::vector<OpTime>& timed = churn ? round_times_ : read_times_;
  const std::vector<int64_t> latencies = Latencies(timed);
  const std::vector<int64_t> at_reference =
      AtReferenceSpeed(timed, host_speed_);
  std::vector<double> setup_seconds;
  for (int64_t nanos : AtReferenceSpeed(setup_times_, setup_speed_)) {
    setup_seconds.push_back(static_cast<double>(nanos) * 1e-9);
  }
  double space_amp =
      end_stats_.live_storage_bytes > 0
          ? static_cast<double>(end_stats_.storage_bytes) /
                static_cast<double>(end_stats_.live_storage_bytes)
          : 0;
  double mean_amp = 0;
  for (double a : space_amp_samples_) mean_amp += a;
  if (!space_amp_samples_.empty()) {
    mean_amp /= static_cast<double>(space_amp_samples_.size());
  }

  // The latency metric is the 90th percentile of latency at the reference
  // speed. Other tenants of a shared host slow this code by up to about
  // 1.8x for spells of seconds to minutes; dividing out the host-speed
  // index measured around each operation removes part of that. On
  // knn_cophir and churn_cophir latency also has two modes inside a run,
  // whose shares change between runs, so a median can fall between them
  // and jump by up to 50%; the slow mode holds at least a fifth of every
  // run's operations, so the 90th percentile stays in it (README.md).
  report_.end_to_end = {
      {"setup_s", Median(setup_seconds), "s"},
      {"p90_ref_ms", Percentile(at_reference, 0.90) * 1e-6, "ms"},
      {"recall_pct", recall_pct_, "%"},
      {"kb_per_op", ops > 0 ? static_cast<double>(bytes_) / 1024.0 / ops : 0,
       "kB"},
      {"peak_rss_mb", peak_rss_mb_, "MB"},
      {"space_amp", churn ? mean_amp : space_amp, "ratio"},
  };

  auto add_percentiles = [&](const std::string& prefix,
                             const std::vector<int64_t>& nanos,
                             std::initializer_list<int> percents) {
    for (int percent : percents) {
      report_.extra.push_back(
          {prefix + "p" + std::to_string(percent) + "_ms",
           Percentile(nanos, percent / 100.0) * 1e-6, "ms"});
    }
  };
  // Throughput and the plain latency distribution are printed, not
  // compared: they move with the host's load.
  report_.extra.push_back(
      {"ops_per_s", elapsed_s_ > 0 ? ops / elapsed_s_ : 0, "ops/s"});
  add_percentiles("ref.", at_reference, {50, 99});
  report_.extra.push_back(
      {"host.speed_index", host_speed_.MedianIndex(), "ratio"});
  report_.extra.push_back({"host.steal_pct", host_speed_.StealPercent(), "%"});
  add_percentiles("all.", latencies, {50, 90, 95, 99});
  report_.extra.push_back({"all.mean_ms", Mean(latencies) * 1e-6, "ms"});
  report_.extra.push_back(
      {"all.count", static_cast<double>(latencies.size()), "count"});
  report_.extra.push_back({"elapsed_s", elapsed_s_, "s"});
  // Each set-up's plain wall time.
  for (size_t i = 0; i < setup_times_.size(); ++i) {
    report_.extra.push_back(
        {"setup_s." + std::to_string(i),
         static_cast<double>(setup_times_[i].nanos) * 1e-9, "s"});
  }
  report_.extra.push_back(
      {"setup.speed_index", setup_speed_.MedianIndex(), "ratio"});
  if (churn) {
    add_percentiles("reads.", Latencies(read_times_), {50, 90, 99});
    report_.extra.push_back(
        {"reads.count", static_cast<double>(read_times_.size()), "count"});
    report_.extra.push_back({"space_amp_end", space_amp, "ratio"});
    report_.extra.push_back(
        {"compaction_pause_ms_max",
         static_cast<double>(end_stats_.compaction_max_pause_nanos) * 1e-6,
         "ms"});
  }
  if (!options_.trace) return;

  const double reads = static_cast<double>(read_layers_.operations);
  const double objects_written = static_cast<double>(write_layers_.operations);
  auto per_read_us = [&](int64_t nanos) {
    return reads > 0 ? static_cast<double>(nanos) * 1e-3 / reads : 0;
  };
  auto per_read = [&](uint64_t count) {
    return reads > 0 ? static_cast<double>(count) / reads : 0;
  };
  auto per_write_us = [&](int64_t nanos) {
    return objects_written > 0
               ? static_cast<double>(nanos) * 1e-3 / objects_written
               : 0;
  };
  const obs::HistogramSnapshot queue =
      HistogramDelta(after, before, "simcloud_request_queue_nanos");
  const obs::HistogramSnapshot fetch =
      HistogramDelta(after, before, "simcloud_payload_fetch_nanos");
  const obs::HistogramSnapshot passes =
      HistogramDelta(after, before, "simcloud_compaction_pass_nanos");
  const double handle_us = per_read_us(read_layers_.handle_nanos);
  const double search_us = white_box_.search_nanos * 1e-3;

  report_.per_layer = {
      {"metric.pivot_us", per_read_us(read_layers_.pivot_nanos), "us"},
      {"metric.refine_us", per_read_us(read_layers_.refine_nanos), "us"},
      {"metric.distance_computations",
       per_read(read_layers_.distance_computations), "count"},
      {"crypto.decrypt_us", per_read_us(read_layers_.decrypt_nanos), "us"},
      {"crypto.bytes_decrypted", per_read(read_layers_.bytes_decrypted),
       "bytes"},
      {"secure.client.encode_us", per_read_us(read_layers_.encode_nanos), "us"},
      {"secure.client.decode_us", per_read_us(read_layers_.decode_nanos), "us"},
      {"net.comm_us", per_read_us(read_layers_.comm_nanos), "us"},
      {"net.bytes_out", per_read(read_layers_.bytes_out), "bytes"},
      {"net.bytes_in", per_read(read_layers_.bytes_in), "bytes"},
      {"net.queue_wait_us_p50", queue.Quantile(0.50) * 1e-3, "us"},
      {"net.queue_wait_us_p99", queue.Quantile(0.99) * 1e-3, "us"},
      {"secure.server.handle_us", handle_us, "us"},
      {"secure.server.protocol_us", handle_us - search_us, "us"},
      {"secure.sharded.fanout_us", handle_us - white_box_.handle_nanos * 1e-3,
       "us"},
      {"mindex.search_us", search_us, "us"},
      {"mindex.rank_us", white_box_.rank_nanos * 1e-3, "us"},
      {"mindex.fetch_us", white_box_.fetch_nanos * 1e-3, "us"},
      {"mindex.candidates", white_box_.candidates, "count"},
      {"mindex.fetch_reads",
       read_ops_ > 0 ? static_cast<double>(fetch.count) /
                           static_cast<double>(read_ops_)
                     : 0,
       "count"},
      {"mindex.fetch_us_p50", fetch.Quantile(0.50) * 1e-3, "us"},
      {"mindex.compaction_passes", static_cast<double>(passes.count), "count"},
      {"mindex.compaction_payloads_moved",
       static_cast<double>(CounterDelta(
           after, before, "simcloud_compaction_payloads_moved_total")),
       "count"},
      {"write.pivot_us", per_write_us(write_layers_.pivot_nanos), "us"},
      {"crypto.encrypt_us", per_write_us(write_layers_.encrypt_nanos), "us"},
      {"write.encode_us", per_write_us(write_layers_.encode_nanos), "us"},
      {"write.comm_us", per_write_us(write_layers_.comm_nanos), "us"},
      {"write.handle_us", per_write_us(write_layers_.handle_nanos), "us"},
      {"loadgen.late_pct",
       read_ops_ > 0 ? 100.0 * static_cast<double>(late_reads_) /
                           static_cast<double>(read_ops_)
                     : 0,
       "%"},
      {"layers.sum_us", per_read_us(read_layers_.SumNanos()), "us"},
      {"layers.coverage",
       untraced_nanos_ > 0 ? static_cast<double>(read_layers_.SumNanos()) /
                                 static_cast<double>(untraced_nanos_)
                           : 0,
       "ratio"},
  };
}

Report WorkloadRun::Run() {
  SetUp();
  PrepareQueries();
  ConnectClients();
  WarmUp();

  const obs::MetricsSnapshot before = obs::Registry::Default().Snapshot();
  std::vector<net::TransportCosts> costs_before;
  for (const Client& c : clients_) costs_before.push_back(c.transport->costs());
  if (p_.kind == Kind::kChurn) {
    RunChurn();
  } else {
    RunClosedLoop();
  }
  const obs::MetricsSnapshot after = obs::Registry::Default().Snapshot();
  peak_rss_mb_ = PeakRssMb();
  // Churn's communication cost is its writes' (the writer's connection).
  for (size_t c = 0; c < (p_.kind == Kind::kChurn ? 1 : kClients); ++c) {
    const net::TransportCosts& now = clients_[c].transport->costs();
    bytes_ += now.TotalBytes() - costs_before[c].TotalBytes();
  }

  if (p_.kind == Kind::kChurn) {
    FinishChurnWrap();
    CheckChurnEnd();
    RunChurnRecall();
  } else {
    end_stats_ = Must(clients_[0].client->GetServerStats(), "stats");
  }
  if (options_.trace) {
    if (p_.kind == Kind::kChurn) {
      RunTracedChurn();
      WaitForCompactionIdle();
    } else {
      RunTracedReads();
    }
    RunWhiteBox();
  }
  if (p_.kind == Kind::kKnn) ComputeKnnRecall();
  if (p_.kind == Kind::kRange && read_ops_ > 0) {
    recall_pct_ = 100.0 * static_cast<double>(read_ops_ - wrong_) /
                  static_cast<double>(read_ops_);
  }
  if (report_.failed > 0) {
    Problem(std::to_string(report_.failed) + " operations failed");
  }
  Compose(before, after);
  return report_;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "knn_cophir", "range_human", "knn_yeast_aead", "churn_cophir"};
  return names;
}

Report RunWorkload(const RunOptions& options) {
  WorkloadRun run(options);
  return run.Run();
}

}  // namespace bench_report
}  // namespace simcloud
