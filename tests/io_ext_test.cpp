// Tests for the I/O extensions: CSV import/export, shared->local staging,
// and the StagedSource access-pattern contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/mafia.hpp"
#include "datagen/generator.hpp"
#include "io/csv.hpp"
#include "io/record_file.hpp"
#include "io/staging.hpp"

namespace mafia {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() / name).string()) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// --------------------------------------------------------------------- CSV

TEST(Csv, RoundTripWithHeaderAndLabels) {
  TempFile tmp("mafia_csv_roundtrip.csv");
  Dataset data(3);
  data.append(std::vector<Value>{1.5f, -2.25f, 100.0f}, 0);
  data.append(std::vector<Value>{0.0f, 3.5f, -0.125f}, -1);

  CsvOptions o;
  o.last_column_is_label = true;
  write_csv(tmp.path(), data, o, {"alpha", "beta", "gamma"});
  const Dataset loaded = read_csv(tmp.path(), o);
  ASSERT_EQ(loaded.num_records(), 2u);
  ASSERT_EQ(loaded.num_dims(), 3u);
  EXPECT_TRUE(std::ranges::equal(loaded.values(), data.values()));
  EXPECT_TRUE(std::ranges::equal(loaded.labels(), data.labels()));
}

TEST(Csv, ReadsHeaderlessFiles) {
  TempFile tmp("mafia_csv_noheader.csv");
  {
    std::ofstream out(tmp.path());
    out << "1,2,3\n4,5,6\n";
  }
  CsvOptions o;
  o.header = false;
  const Dataset data = read_csv(tmp.path(), o);
  EXPECT_EQ(data.num_records(), 2u);
  EXPECT_EQ(data.at(1, 2), 6.0f);
}

TEST(Csv, CustomDelimiter) {
  TempFile tmp("mafia_csv_semicolon.csv");
  {
    std::ofstream out(tmp.path());
    out << "a;b\n1.5;2.5\n";
  }
  CsvOptions o;
  o.delimiter = ';';
  const Dataset data = read_csv(tmp.path(), o);
  EXPECT_EQ(data.num_records(), 1u);
  EXPECT_EQ(data.at(0, 1), 2.5f);
}

TEST(Csv, SkipsBlankLines) {
  TempFile tmp("mafia_csv_blank.csv");
  {
    std::ofstream out(tmp.path());
    out << "a,b\n1,2\n\n3,4\n";
  }
  const Dataset data = read_csv(tmp.path());
  EXPECT_EQ(data.num_records(), 2u);
}

TEST(Csv, RejectsRaggedRows) {
  TempFile tmp("mafia_csv_ragged.csv");
  {
    std::ofstream out(tmp.path());
    out << "a,b\n1,2\n1,2,3\n";
  }
  EXPECT_THROW((void)read_csv(tmp.path()), InputError);
}

TEST(Csv, RejectsNonNumericField) {
  TempFile tmp("mafia_csv_text.csv");
  {
    std::ofstream out(tmp.path());
    out << "a,b\n1,hello\n";
  }
  EXPECT_THROW((void)read_csv(tmp.path()), InputError);
}

/// read_csv's InputError message for a file `name` holding `body`, or ""
/// when the file reads without one.  ctest runs each test in its own
/// process, concurrently, so every test passes its own name.
std::string csv_input_error(const std::string& name, const std::string& body,
                            const CsvOptions& o = {}) {
  TempFile tmp(name);
  {
    std::ofstream out(tmp.path());
    out << body;
  }
  try {
    (void)read_csv(tmp.path(), o);
  } catch (const InputError& e) {
    return e.what();
  }
  return "";
}

TEST(Csv, RejectsNonFiniteValuesNamingTheLine) {
  // Record files reject non-finite values; CSV must too, including a value
  // that is finite as a double but overflows the float it narrows to.
  for (const std::string bad : {"nan", "inf", "-inf", "1e39"}) {
    const std::string msg =
        csv_input_error("mafia_csv_nonfinite.csv", "a,b\n1,2\n3," + bad + "\n");
    EXPECT_NE(msg.find("non-finite value '" + bad + "'"), std::string::npos)
        << bad << ": " << msg;
    EXPECT_NE(msg.find("mafia_csv_nonfinite.csv:3"), std::string::npos)
        << bad << ": " << msg;
  }
}

TEST(Csv, RejectsLabelsOutsideInt32) {
  CsvOptions o;
  o.last_column_is_label = true;
  const std::string msg = csv_input_error(
      "mafia_csv_bad_label.csv", "a,b,label\n1,2,0\n3,4,1e20\n", o);
  EXPECT_NE(msg.find("label '1e20' is not an int32"), std::string::npos) << msg;
  EXPECT_NE(msg.find("mafia_csv_bad_label.csv:3"), std::string::npos) << msg;
  EXPECT_EQ(csv_input_error("mafia_csv_bad_label.csv",
                            "a,b,label\n1,2,-2147483648\n3,4,2147483647\n", o),
            "");
}

TEST(Csv, RejectsMissingFile) {
  EXPECT_THROW((void)read_csv("/nonexistent/never.csv"), Error);
}

// ----------------------------------------------------------------- staging

TEST(Staging, PartitionsHoldBlockSplitOfSharedFile) {
  GeneratorConfig cfg;
  cfg.num_dims = 4;
  cfg.num_records = 1000;
  cfg.seed = 9;
  const Dataset data = generate(cfg);

  TempFile shared("mafia_stage_shared.bin");
  write_record_file(shared.path(), data, false);
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "mafia_stage_local").string();

  const StagedPartitions staged = stage_partitions(shared.path(), prefix, 3);
  ASSERT_EQ(staged.paths.size(), 3u);
  EXPECT_EQ(staged.num_records, data.num_records());
  EXPECT_GT(staged.staging_seconds, 0.0);

  RecordIndex total = 0;
  for (int r = 0; r < 3; ++r) {
    const Dataset part = read_record_file(staged.paths[static_cast<std::size_t>(r)]);
    const BlockRange range = block_partition(
        static_cast<std::size_t>(data.num_records()), 3, static_cast<std::size_t>(r));
    ASSERT_EQ(part.num_records(), range.size());
    // Spot-check the first row of each partition.
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(part.at(0, j), data.at(range.begin, j));
    }
    total += part.num_records();
  }
  EXPECT_EQ(total, data.num_records());
  remove_staged(staged);
}

TEST(Staging, StagedSourceMatchesOriginalScan) {
  GeneratorConfig cfg;
  cfg.num_dims = 3;
  cfg.num_records = 500;
  cfg.seed = 13;
  const Dataset data = generate(cfg);
  TempFile shared("mafia_stage_match.bin");
  write_record_file(shared.path(), data, false);
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "mafia_stage_match_local").string();
  const StagedPartitions staged = stage_partitions(shared.path(), prefix, 4);
  StagedSource source(staged);

  EXPECT_EQ(source.num_records(), data.num_records());
  std::vector<Value> scanned;
  source.scan(100, 400, 64, [&](const Value* rows, std::size_t n) {
    scanned.insert(scanned.end(), rows, rows + n * 3);
  });
  ASSERT_EQ(scanned.size(), 300u * 3u);
  for (std::size_t i = 0; i < 300; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(scanned[i * 3 + j], data.at(100 + i, j)) << "record " << i;
    }
  }
  remove_staged(staged);
}

TEST(Staging, RankAlignedScansTouchExactlyOnePartition) {
  // The paper's whole point: after staging, a rank's passes hit only its
  // local disk.
  GeneratorConfig cfg;
  cfg.num_dims = 3;
  cfg.num_records = 997;  // deliberately not divisible by p
  cfg.seed = 17;
  const Dataset data = generate(cfg);
  TempFile shared("mafia_stage_aligned.bin");
  write_record_file(shared.path(), data, false);
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "mafia_stage_aligned_local").string();
  constexpr int kRanks = 5;
  const StagedPartitions staged = stage_partitions(shared.path(), prefix, kRanks);
  StagedSource source(staged);

  for (int r = 0; r < kRanks; ++r) {
    const BlockRange range =
        block_partition(static_cast<std::size_t>(source.num_records()), kRanks,
                        static_cast<std::size_t>(r));
    EXPECT_EQ(source.partitions_touched(range.begin, range.end), 1u)
        << "rank " << r << " would read a remote disk";
  }
  remove_staged(staged);
}

TEST(Staging, EndToEndClusteringOverStagedSourceMatchesInMemory) {
  GeneratorConfig cfg;
  cfg.num_dims = 8;
  cfg.num_records = 15000;
  cfg.seed = 19;
  cfg.clusters.push_back(ClusterSpec::box({1, 3, 6}, {20, 20, 20}, {35, 35, 35}));
  const Dataset data = generate(cfg);
  TempFile shared("mafia_stage_e2e.bin");
  write_record_file(shared.path(), data, false);
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "mafia_stage_e2e_local").string();
  constexpr int kRanks = 4;
  const StagedPartitions staged = stage_partitions(shared.path(), prefix, kRanks);
  StagedSource staged_source(staged);

  MafiaOptions options;
  options.fixed_domain = {{0.0f, 100.0f}};
  InMemorySource mem(data);
  const MafiaResult a = run_pmafia(mem, options, kRanks);
  const MafiaResult b = run_pmafia(staged_source, options, kRanks);
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (std::size_t i = 0; i < a.clusters.size(); ++i) {
    EXPECT_EQ(a.clusters[i].dims, b.clusters[i].dims);
    EXPECT_EQ(a.clusters[i].units.size(), b.clusters[i].units.size());
  }
  remove_staged(staged);
}

}  // namespace
}  // namespace mafia
