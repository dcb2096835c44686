// Shared support for the table-reproduction benchmark harnesses: data-set
// configurations (paper Tables 1 and 2), stack builders for the encrypted
// and plain deployments, cost-row collection, and table printing.

#ifndef SIMCLOUD_BENCH_BENCH_COMMON_H_
#define SIMCLOUD_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/plain_mindex.h"
#include "data/synthetic.h"
#include "metric/dataset.h"
#include "mindex/mindex.h"
#include "mindex/pivot_selection.h"
#include "net/transport.h"
#include "secure/client.h"
#include "secure/server.h"

namespace simcloud {
namespace bench {

/// One evaluated data set plus its M-Index parameters (paper Table 2).
struct DatasetConfig {
  metric::Dataset dataset;
  mindex::MIndexOptions index_options;
  size_t bulk_size = 1000;
  uint64_t pivot_seed = 7;
  /// How pivots are chosen (the paper uses random; ablations sweep this).
  mindex::PivotStrategy pivot_strategy = mindex::PivotStrategy::kRandom;
};

/// YEAST: 2,882 x 17, L1; 30 pivots, bucket 200, memory storage.
DatasetConfig MakeYeastConfig();
/// HUMAN: 4,026 x 96, L1; 50 pivots, bucket 250, memory storage.
DatasetConfig MakeHumanConfig();
/// CoPhIR-like: n x 280, segmented Lp; 100 pivots, bucket 1000, disk
/// storage, permutation prefix 16 (memory economy at n up to 1M).
DatasetConfig MakeCophirConfig(size_t num_objects);

/// Path of `name` in this process's private scratch directory (created on
/// first use, removed with its contents at exit), so benches running side
/// by side never share a storage file.
std::string ScratchPath(const std::string& name);

/// One column of the paper's cost tables, all values in seconds except
/// where noted. Negative recall/comm mean "not reported".
struct CostRow {
  double client_s = 0;
  double encryption_s = 0;   ///< construction tables
  double decryption_s = 0;   ///< search tables
  double distance_s = 0;
  double server_s = 0;
  double communication_s = 0;
  double overall_s = 0;
  double recall_pct = -1;
  double communication_kb = -1;
};

/// The full encrypted client-server deployment for one data set.
struct SecureStack {
  secure::SecretKey key;
  std::unique_ptr<secure::EncryptedMIndexServer> server;
  std::unique_ptr<net::LoopbackTransport> transport;
  std::unique_ptr<secure::EncryptionClient> client;
};

/// Builds the encrypted stack and bulk-inserts the collection, filling
/// `construction` with the Table 3 cost breakdown.
SecureStack BuildSecureStack(const DatasetConfig& config,
                             secure::InsertStrategy strategy,
                             CostRow* construction);

/// The plain (non-encrypted) deployment for one data set.
struct PlainStack {
  std::unique_ptr<baselines::PlainMIndexServer> server;
  std::unique_ptr<net::LoopbackTransport> transport;
  std::unique_ptr<baselines::PlainClient> client;
};

/// Builds the plain stack and bulk-inserts the collection, filling
/// `construction` with the Table 4 cost breakdown.
PlainStack BuildPlainStack(const DatasetConfig& config, CostRow* construction);

/// Runs the encrypted approximate k-NN workload (paper Section 5.3): the
/// given queries with candidate-set size `cand_size`; averages per query.
/// `exact` holds the per-query ground truth for recall.
CostRow RunSecureKnnWorkload(SecureStack& stack,
                             const std::vector<metric::VectorObject>& queries,
                             const std::vector<metric::NeighborList>& exact,
                             size_t k, size_t cand_size);

/// Runs the plain approximate k-NN workload (paper Tables 7/8).
CostRow RunPlainKnnWorkload(PlainStack& stack,
                            const std::vector<metric::VectorObject>& queries,
                            const std::vector<metric::NeighborList>& exact,
                            size_t k, size_t cand_size);

/// Computes exact k-NN ground truth for every query (linear scan).
std::vector<metric::NeighborList> ComputeGroundTruth(
    const metric::Dataset& dataset,
    const std::vector<metric::VectorObject>& queries, size_t k);

/// Fixed-width table printer echoing the paper's layout.
class TablePrinter {
 public:
  /// `title` is printed once; `columns` are the column headers.
  TablePrinter(std::string title, std::vector<std::string> columns);

  /// Adds a row: label + one formatted value per column ("-" for absent).
  void AddRow(const std::string& label, const std::vector<double>& values,
              int precision = 3);
  void AddTextRow(const std::string& label,
                  const std::vector<std::string>& values);

  /// Writes the table to stdout.
  void Print() const;

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints the standard cost-table block shared by Tables 3-9: one row per
/// cost component, one column per configuration.
void PrintCostTable(const std::string& title,
                    const std::vector<std::string>& columns,
                    const std::vector<CostRow>& rows, bool construction);

}  // namespace bench
}  // namespace simcloud

#endif  // SIMCLOUD_BENCH_BENCH_COMMON_H_
