// Data-IO tests: CSV and FASTA loaders against hand-written files,
// save/load round trips, and the error paths (malformed rows, ragged
// matrices, missing files, empty inputs).

#include <gtest/gtest.h>

#include <fstream>

#include "common/rng.h"
#include "common/scratch_dir.h"
#include "data/io.h"
#include "data/synthetic.h"

namespace simcloud {
namespace data {
namespace {

// Each test writes its files into a private directory, removed with the
// fixture.
class TempFileTest : public ::testing::Test {
 protected:
  std::string WriteTempFile(const std::string& name,
                            const std::string& contents) {
    const std::string path = dir_.File(name);
    std::ofstream file(path, std::ios::trunc);
    file << contents;
    return path;
  }

  ScratchDir dir_;
};

class CsvTest : public TempFileTest {};
class FastaTest : public TempFileTest {};

// ------------------------------------------------------------------- CSV

TEST_F(CsvTest, LoadsPlainMatrix) {
  const std::string path = WriteTempFile("plain.csv",
                                         "1.5,2.5,3.5\n"
                                         "4,5,6\n"
                                         "-1,0,2e2\n");
  auto objects = LoadVectorsCsv(path);
  ASSERT_TRUE(objects.ok()) << objects.status().ToString();
  ASSERT_EQ(objects->size(), 3u);
  EXPECT_EQ((*objects)[0].id(), 0u);
  EXPECT_EQ((*objects)[2].id(), 2u);
  EXPECT_FLOAT_EQ((*objects)[0].values()[0], 1.5f);
  EXPECT_FLOAT_EQ((*objects)[2].values()[2], 200.0f);
}

TEST_F(CsvTest, HonorsHeaderCommentsAndTabs) {
  const std::string path = WriteTempFile("fancy.tsv",
                                         "gene\tcond1\tcond2\n"
                                         "# a comment line\n"
                                         "g1\t1\t2\n"
                                         "g2\t3\t4\n");
  CsvOptions options;
  options.delimiter = '\t';
  options.skip_lines = 1;
  options.id_column = 0;  // non-numeric gene names -> row-order ids
  auto objects = LoadVectorsCsv(path, options);
  ASSERT_TRUE(objects.ok()) << objects.status().ToString();
  ASSERT_EQ(objects->size(), 2u);
  EXPECT_EQ((*objects)[0].dimension(), 2u);
  EXPECT_FLOAT_EQ((*objects)[1].values()[1], 4.0f);
}

TEST_F(CsvTest, NumericIdColumnIsHonored) {
  const std::string path = WriteTempFile("ids.csv",
                                         "100,1,2\n"
                                         "200,3,4\n");
  CsvOptions options;
  options.id_column = 0;
  auto objects = LoadVectorsCsv(path, options);
  ASSERT_TRUE(objects.ok());
  EXPECT_EQ((*objects)[0].id(), 100u);
  EXPECT_EQ((*objects)[1].id(), 200u);
  EXPECT_EQ((*objects)[0].dimension(), 2u);
}

TEST_F(CsvTest, RejectsMalformedInput) {
  const std::string ragged = WriteTempFile("ragged.csv", "1,2,3\n4,5\n");
  EXPECT_FALSE(LoadVectorsCsv(ragged).ok());

  const std::string text = WriteTempFile("text.csv", "1,2\nfoo,bar\n");
  EXPECT_FALSE(LoadVectorsCsv(text).ok());

  const std::string empty = WriteTempFile("empty.csv", "");
  EXPECT_FALSE(LoadVectorsCsv(empty).ok());

  EXPECT_FALSE(LoadVectorsCsv("/nonexistent/file.csv").ok());
}

TEST_F(CsvTest, SaveLoadRoundTrip) {
  MixtureOptions options;
  options.num_objects = 50;
  options.dimension = 7;
  options.seed = 5;
  const auto original = MakeGaussianMixture(options);

  const std::string path = dir_.File("roundtrip.csv");
  ASSERT_TRUE(SaveVectorsCsv(original, path).ok());
  CsvOptions load_options;
  load_options.id_column = 0;
  auto loaded = LoadVectorsCsv(path, load_options);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ((*loaded)[i].id(), original[i].id());
    ASSERT_EQ((*loaded)[i].dimension(), original[i].dimension());
    for (size_t d = 0; d < original[i].dimension(); ++d) {
      EXPECT_NEAR((*loaded)[i].values()[d], original[i].values()[d], 1e-3)
          << "row " << i << " dim " << d;
    }
  }
}

// ----------------------------------------------------------------- FASTA

TEST_F(FastaTest, LoadsMultiRecordFile) {
  const std::string path = WriteTempFile("genes.fasta",
                                         ">gene one\n"
                                         "ACGT\n"
                                         "TTAA\n"
                                         "\n"
                                         ">gene two | meta\n"
                                         "GGGG\n");
  auto sequences = LoadFasta(path);
  ASSERT_TRUE(sequences.ok()) << sequences.status().ToString();
  ASSERT_EQ(sequences->size(), 2u);
  EXPECT_EQ((*sequences)[0].sequence(), "ACGTTTAA");
  EXPECT_EQ((*sequences)[1].sequence(), "GGGG");
  EXPECT_EQ((*sequences)[0].id(), 0u);
  EXPECT_EQ((*sequences)[1].id(), 1u);
}

TEST_F(FastaTest, HandlesWindowsLineEndings) {
  const std::string path =
      WriteTempFile("crlf.fasta", ">a\r\nAC\r\nGT\r\n");
  auto sequences = LoadFasta(path);
  ASSERT_TRUE(sequences.ok());
  EXPECT_EQ((*sequences)[0].sequence(), "ACGT");
}

TEST_F(FastaTest, RejectsMalformedInput) {
  const std::string headerless =
      WriteTempFile("headerless.fasta", "ACGT\n");
  EXPECT_FALSE(LoadFasta(headerless).ok());

  const std::string empty = WriteTempFile("empty.fasta", "");
  EXPECT_FALSE(LoadFasta(empty).ok());

  EXPECT_FALSE(LoadFasta("/nonexistent/genes.fasta").ok());
}

TEST_F(FastaTest, SaveLoadRoundTripWithLongSequences) {
  Rng rng(9);
  std::vector<metric::SequenceObject> original;
  static const char kBases[] = {'A', 'C', 'G', 'T'};
  for (uint64_t i = 0; i < 10; ++i) {
    std::string s(50 + rng.NextBounded(200), 'A');
    for (auto& c : s) c = kBases[rng.NextBounded(4)];
    original.emplace_back(i, std::move(s));
  }
  const std::string path = dir_.File("roundtrip.fasta");
  ASSERT_TRUE(SaveFasta(original, path).ok());
  auto loaded = LoadFasta(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ((*loaded)[i].sequence(), original[i].sequence()) << i;
  }
}

}  // namespace
}  // namespace data
}  // namespace simcloud
