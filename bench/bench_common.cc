#include "bench/bench_common.h"

#include <cinttypes>
#include <cstdio>

#include "common/clock.h"
#include "common/scratch_dir.h"
#include "metric/ground_truth.h"
#include "mindex/pivot_set.h"

namespace simcloud {
namespace bench {

using metric::VectorObject;

std::string ScratchPath(const std::string& name) {
  static const ScratchDir dir("simcloud_bench");
  return dir.File(name);
}

DatasetConfig MakeYeastConfig() {
  DatasetConfig config;
  config.dataset = data::MakeYeastLike();
  config.index_options.num_pivots = 30;
  config.index_options.bucket_capacity = 200;
  config.index_options.max_level = 6;
  config.index_options.storage_kind = mindex::StorageKind::kMemory;
  return config;
}

DatasetConfig MakeHumanConfig() {
  DatasetConfig config;
  config.dataset = data::MakeHumanLike();
  config.index_options.num_pivots = 50;
  config.index_options.bucket_capacity = 250;
  config.index_options.max_level = 6;
  config.index_options.storage_kind = mindex::StorageKind::kMemory;
  return config;
}

DatasetConfig MakeCophirConfig(size_t num_objects) {
  DatasetConfig config;
  config.dataset = data::MakeCophirLike(num_objects);
  config.index_options.num_pivots = 100;
  config.index_options.bucket_capacity = 1000;
  config.index_options.max_level = 8;
  config.index_options.storage_kind = mindex::StorageKind::kDisk;
  config.index_options.disk_path = ScratchPath("cophir_payloads.bin");
  config.index_options.stored_prefix_length = 16;
  return config;
}

namespace {

mindex::PivotSet SelectPivots(const DatasetConfig& config) {
  mindex::PivotSelectionOptions options;
  options.strategy = config.pivot_strategy;
  options.count = config.index_options.num_pivots;
  options.seed = config.pivot_seed;
  auto pivots = mindex::SelectPivots(config.dataset.objects(),
                                     *config.dataset.distance(), options);
  if (!pivots.ok()) {
    std::fprintf(stderr, "pivot selection failed: %s\n",
                 pivots.status().ToString().c_str());
    std::abort();
  }
  return std::move(pivots).value();
}

void Require(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    std::abort();
  }
}

CostRow TransportDeltaToRow(const secure::ClientCosts& client,
                            const net::TransportCosts& transport) {
  CostRow row;
  row.client_s = client.TotalNanos() * 1e-9;
  row.encryption_s = client.encryption_nanos * 1e-9;
  row.decryption_s = client.decryption_nanos * 1e-9;
  row.distance_s = client.distance_nanos * 1e-9;
  row.server_s = transport.server_nanos * 1e-9;
  row.communication_s = transport.communication_nanos * 1e-9;
  row.overall_s = row.client_s + row.server_s + row.communication_s;
  row.communication_kb =
      static_cast<double>(transport.TotalBytes()) / 1024.0;
  return row;
}

}  // namespace

SecureStack BuildSecureStack(const DatasetConfig& config,
                             secure::InsertStrategy strategy,
                             CostRow* construction) {
  mindex::PivotSet pivots = SelectPivots(config);
  auto key = secure::SecretKey::Create(std::move(pivots), Bytes(16, 0x5C));
  if (!key.ok()) std::abort();

  auto server = secure::EncryptedMIndexServer::Create(config.index_options);
  if (!server.ok()) {
    std::fprintf(stderr, "server create failed: %s\n",
                 server.status().ToString().c_str());
    std::abort();
  }

  SecureStack stack{std::move(key).value(), std::move(server).value(),
                    nullptr, nullptr};
  stack.transport =
      std::make_unique<net::LoopbackTransport>(stack.server.get());
  stack.client = std::make_unique<secure::EncryptionClient>(
      stack.key, config.dataset.distance(), stack.transport.get());

  Require(stack.client->InsertBulk(config.dataset.objects(), strategy,
                                   config.bulk_size),
          "encrypted bulk insert");

  if (construction != nullptr) {
    *construction =
        TransportDeltaToRow(stack.client->costs(), stack.transport->costs());
  }
  stack.client->ResetCosts();
  stack.transport->ResetCosts();
  return stack;
}

PlainStack BuildPlainStack(const DatasetConfig& config,
                           CostRow* construction) {
  mindex::PivotSet pivots = SelectPivots(config);
  // The plain deployment keeps pivot distances server-side (it owns them),
  // and must not truncate permutations it derives itself.
  mindex::MIndexOptions options = config.index_options;
  if (options.storage_kind == mindex::StorageKind::kDisk) {
    options.disk_path += ".plain";
  }
  auto server = baselines::PlainMIndexServer::Create(
      options, std::move(pivots), config.dataset.distance());
  if (!server.ok()) {
    std::fprintf(stderr, "plain server create failed: %s\n",
                 server.status().ToString().c_str());
    std::abort();
  }

  PlainStack stack{std::move(server).value(), nullptr, nullptr};
  stack.transport =
      std::make_unique<net::LoopbackTransport>(stack.server.get());
  stack.client = std::make_unique<baselines::PlainClient>(
      stack.transport.get());

  Stopwatch total;
  Require(stack.client->InsertBulk(config.dataset.objects(),
                                   config.bulk_size),
          "plain bulk insert");

  if (construction != nullptr) {
    CostRow row;
    const auto& costs = stack.transport->costs();
    row.server_s = costs.server_nanos * 1e-9;
    row.communication_s = costs.communication_nanos * 1e-9;
    row.distance_s = stack.server->costs().distance_nanos * 1e-9;
    // Client work is serialization only: wall time minus server share
    // (communication is modelled, not wall time on loopback).
    row.client_s =
        std::max(0.0, total.ElapsedSeconds() - row.server_s);
    row.overall_s = row.client_s + row.server_s + row.communication_s;
    row.communication_kb = static_cast<double>(costs.TotalBytes()) / 1024.0;
    *construction = row;
  }
  stack.transport->ResetCosts();
  stack.server->ResetCosts();
  return stack;
}

std::vector<metric::NeighborList> ComputeGroundTruth(
    const metric::Dataset& dataset, const std::vector<VectorObject>& queries,
    size_t k) {
  std::vector<metric::NeighborList> exact;
  exact.reserve(queries.size());
  for (const auto& query : queries) {
    exact.push_back(metric::LinearKnnSearch(dataset, query, k));
  }
  return exact;
}

CostRow RunSecureKnnWorkload(SecureStack& stack,
                             const std::vector<VectorObject>& queries,
                             const std::vector<metric::NeighborList>& exact,
                             size_t k, size_t cand_size) {
  stack.client->ResetCosts();
  stack.transport->ResetCosts();

  double recall_total = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto answer = stack.client->ApproxKnn(queries[i], k, cand_size);
    if (!answer.ok()) {
      std::fprintf(stderr, "secure knn failed: %s\n",
                   answer.status().ToString().c_str());
      std::abort();
    }
    recall_total += metric::RecallPercent(*answer, exact[i]);
  }

  CostRow row =
      TransportDeltaToRow(stack.client->costs(), stack.transport->costs());
  const double n = static_cast<double>(queries.size());
  row.client_s /= n;
  row.encryption_s /= n;
  row.decryption_s /= n;
  row.distance_s /= n;
  row.server_s /= n;
  row.communication_s /= n;
  row.overall_s /= n;
  row.communication_kb /= n;
  row.recall_pct = recall_total / n;
  return row;
}

CostRow RunPlainKnnWorkload(PlainStack& stack,
                            const std::vector<VectorObject>& queries,
                            const std::vector<metric::NeighborList>& exact,
                            size_t k, size_t cand_size) {
  stack.transport->ResetCosts();
  stack.server->ResetCosts();

  double recall_total = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto answer = stack.client->ApproxKnn(queries[i], k, cand_size);
    if (!answer.ok()) {
      std::fprintf(stderr, "plain knn failed: %s\n",
                   answer.status().ToString().c_str());
      std::abort();
    }
    recall_total += metric::RecallPercent(*answer, exact[i]);
  }

  CostRow row;
  const auto& costs = stack.transport->costs();
  const double n = static_cast<double>(queries.size());
  row.server_s = costs.server_nanos * 1e-9 / n;
  row.communication_s = costs.communication_nanos * 1e-9 / n;
  row.distance_s = stack.server->costs().distance_nanos * 1e-9 / n;
  row.overall_s = row.server_s + row.communication_s;
  row.communication_kb = static_cast<double>(costs.TotalBytes()) / 1024.0 / n;
  row.recall_pct = recall_total / n;
  return row;
}

TablePrinter::TablePrinter(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void TablePrinter::AddRow(const std::string& label,
                          const std::vector<double>& values, int precision) {
  std::vector<std::string> row = {label};
  char buf[64];
  for (double v : values) {
    if (v < 0) {
      row.push_back("-");
    } else {
      std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
      row.push_back(buf);
    }
  }
  rows_.push_back(std::move(row));
}

void TablePrinter::AddTextRow(const std::string& label,
                              const std::vector<std::string>& values) {
  std::vector<std::string> row = {label};
  row.insert(row.end(), values.begin(), values.end());
  rows_.push_back(std::move(row));
}

void TablePrinter::Print() const {
  std::printf("\n=== %s ===\n", title_.c_str());
  // Column widths.
  std::vector<size_t> widths;
  widths.push_back(0);
  for (const auto& row : rows_) {
    widths[0] = std::max(widths[0], row[0].size());
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    size_t w = columns_[c].size();
    for (const auto& row : rows_) {
      if (c + 1 < row.size()) w = std::max(w, row[c + 1].size());
    }
    widths.push_back(w);
  }

  std::printf("%-*s", static_cast<int>(widths[0] + 2), "");
  for (size_t c = 0; c < columns_.size(); ++c) {
    std::printf("%*s  ", static_cast<int>(widths[c + 1]),
                columns_[c].c_str());
  }
  std::printf("\n");
  for (const auto& row : rows_) {
    std::printf("%-*s", static_cast<int>(widths[0] + 2), row[0].c_str());
    for (size_t c = 1; c < row.size(); ++c) {
      std::printf("%*s  ", static_cast<int>(widths[c]), row[c].c_str());
    }
    std::printf("\n");
  }
}

void PrintCostTable(const std::string& title,
                    const std::vector<std::string>& columns,
                    const std::vector<CostRow>& rows, bool construction) {
  TablePrinter table(title, columns);
  auto collect = [&](const char* label, auto getter, int precision) {
    std::vector<double> values;
    for (const auto& row : rows) values.push_back(getter(row));
    table.AddRow(label, values, precision);
  };
  collect("Client time [s]", [](const CostRow& r) { return r.client_s; }, 4);
  if (construction) {
    collect("Encryption time [s]",
            [](const CostRow& r) { return r.encryption_s; }, 4);
  } else {
    collect("Decryption time [s]",
            [](const CostRow& r) { return r.decryption_s; }, 4);
  }
  collect("Dist. comp. time [s]",
          [](const CostRow& r) { return r.distance_s; }, 4);
  collect("Server time [s]", [](const CostRow& r) { return r.server_s; }, 4);
  collect("Communication time [s]",
          [](const CostRow& r) { return r.communication_s; }, 4);
  collect("Overall time [s]", [](const CostRow& r) { return r.overall_s; }, 4);
  if (!construction) {
    collect("Recall [%]", [](const CostRow& r) { return r.recall_pct; }, 2);
    collect("Communication cost [kB]",
            [](const CostRow& r) { return r.communication_kb; }, 2);
  }
  table.Print();
}

}  // namespace bench
}  // namespace simcloud
