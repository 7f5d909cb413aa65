// Integration tests for the pmafia CLI binary: the generate -> cluster ->
// save -> assign pipeline, the stage subcommand, and error handling.
// The binary path is injected by CMake as PMAFIA_CLI_PATH.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "mp/backend.hpp"

#ifndef PMAFIA_CLI_PATH
#error "PMAFIA_CLI_PATH must be defined by the build"
#endif

namespace {

std::string temp(const std::string& name) {
  // gtest_discover_tests runs each TEST as its own ctest entry, so several
  // cli_test processes run concurrently under `ctest -j` — the scratch
  // names must be per-process or parallel runs stomp each other's files.
  static const std::string pid = std::to_string(::getpid());
  return (std::filesystem::temp_directory_path() / (pid + "_" + name)).string();
}

/// Runs the CLI with `args`, captures stdout, returns {exit code, output}.
/// The exit code is the process's actual exit status (WEXITSTATUS), so the
/// per-failure-class codes (2 usage, 3 input, 4 resource, 5 fault) are
/// directly comparable; -1 means the process did not exit normally.
std::pair<int, std::string> run_cli(const std::string& args) {
  const std::string out_file = temp("mafia_cli_test_stdout.txt");
  const std::string command =
      std::string(PMAFIA_CLI_PATH) + " " + args + " > " + out_file + " 2>&1";
  const int status = std::system(command.c_str());
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::ifstream in(out_file);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(out_file.c_str());
  return {code, buffer.str()};
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Launches the CLI detached (shell background job) with stdout+stderr in
/// `out_file`; returns the CLI's pid, or -1.  The process is NOT our child
/// (the intermediate shell exits), so poll liveness with kill(pid, 0).
pid_t spawn_cli(const std::string& args, const std::string& out_file) {
  const std::string pid_file = out_file + ".pid";
  const std::string command = std::string(PMAFIA_CLI_PATH) + " " + args +
                              " > " + out_file + " 2>&1 & echo $! > " +
                              pid_file;
  if (std::system(command.c_str()) != 0) return -1;
  std::ifstream in(pid_file);
  pid_t pid = -1;
  in >> pid;
  std::remove(pid_file.c_str());
  return pid;
}

bool process_alive(pid_t pid) { return ::kill(pid, 0) == 0; }

/// Pids of processes whose /proc/<pid>/cmdline contains `marker` (excluding
/// this process) — how the orphan scan finds stray pmafia workers: every
/// process of the test run carries its unique scratch path on the command
/// line.
std::vector<pid_t> processes_matching(const std::string& marker) {
  std::vector<pid_t> found;
  for (const auto& entry : std::filesystem::directory_iterator("/proc")) {
    const std::string name = entry.path().filename().string();
    if (name.find_first_not_of("0123456789") != std::string::npos) continue;
    const pid_t pid = static_cast<pid_t>(std::stol(name));
    if (pid == ::getpid()) continue;
    std::ifstream in(entry.path() / "cmdline", std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    if (buffer.str().find(marker) != std::string::npos) found.push_back(pid);
  }
  return found;
}

class CliPipeline : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = temp("mafia_cli_data.bin");
    model_ = temp("mafia_cli_model.txt");
    labels_ = temp("mafia_cli_labels.csv");
  }
  void TearDown() override {
    std::remove(data_.c_str());
    std::remove(model_.c_str());
    std::remove(labels_.c_str());
  }
  std::string data_;
  std::string model_;
  std::string labels_;
};

TEST_F(CliPipeline, GenerateClusterSaveAssign) {
  auto [gen_status, gen_out] = run_cli(
      "generate --out " + data_ +
      " --dims 8 --records 20000 --seed 7 --cluster 1,4,6:30:45");
  ASSERT_EQ(gen_status, 0) << gen_out;
  EXPECT_NE(gen_out.find("22000 records"), std::string::npos) << gen_out;

  auto [cl_status, cl_out] = run_cli("cluster --data " + data_ +
                                     " --ranks 2 --domain-lo 0 --domain-hi 100"
                                     " --save " + model_);
  ASSERT_EQ(cl_status, 0) << cl_out;
  EXPECT_NE(cl_out.find("subspace {1,4,6}"), std::string::npos) << cl_out;
  EXPECT_NE(cl_out.find("model saved"), std::string::npos);

  auto [as_status, as_out] = run_cli("assign --data " + data_ + " --model " +
                                     model_ + " --out " + labels_);
  ASSERT_EQ(as_status, 0) << as_out;
  EXPECT_NE(as_out.find("1 clusters"), std::string::npos) << as_out;

  // The labels file has a header plus one row per record.
  std::ifstream in(labels_);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 22001u);
}

TEST_F(CliPipeline, StageSplitsIntoRankFiles) {
  ASSERT_EQ(run_cli("generate --out " + data_ +
                    " --dims 4 --records 5000 --seed 3")
                .first,
            0);
  auto [status, out] = run_cli("stage --data " + data_ + " --ranks 3");
  ASSERT_EQ(status, 0) << out;
  EXPECT_NE(out.find("3 local partitions"), std::string::npos);
  for (int r = 0; r < 3; ++r) {
    const std::string part = data_ + ".local.rank" + std::to_string(r);
    EXPECT_TRUE(std::filesystem::exists(part)) << part;
    std::remove(part.c_str());
  }
}

TEST_F(CliPipeline, CsvRoundTripThroughCli) {
  const std::string csv = temp("mafia_cli_data.csv");
  ASSERT_EQ(run_cli("generate --out " + csv +
                    " --dims 5 --records 8000 --seed 9 --cluster 0,2:20:35")
                .first,
            0);
  auto [status, out] =
      run_cli("cluster --data " + csv + " --domain-lo 0 --domain-hi 100");
  EXPECT_EQ(status, 0) << out;
  EXPECT_NE(out.find("subspace {0,2}"), std::string::npos) << out;
  std::remove(csv.c_str());
}

TEST_F(CliPipeline, ReportJsonIsValidAndComplete) {
  const std::string report = temp("mafia_cli_report.json");
  ASSERT_EQ(run_cli("generate --out " + data_ +
                    " --dims 8 --records 20000 --seed 7 --cluster 1,4,6:30:45")
                .first,
            0);
  auto [status, out] = run_cli("cluster --data " + data_ +
                               " --ranks 4 --domain-lo 0 --domain-hi 100"
                               " --report-json " + report);
  ASSERT_EQ(status, 0) << out;
  EXPECT_NE(out.find("report written"), std::string::npos) << out;

  std::ifstream in(report);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(report.c_str());

  // The document must parse and carry every required section.
  const mafia::JsonValue doc = mafia::json_parse(buffer.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("schema").string, "pmafia-report-v1");
  EXPECT_EQ(doc.at("records").number, 22000.0);
  EXPECT_EQ(doc.at("dims").number, 8.0);
  EXPECT_EQ(doc.at("ranks").number, 4.0);
  ASSERT_TRUE(doc.at("levels").is_array());
  EXPECT_FALSE(doc.at("levels").array.empty());
  EXPECT_TRUE(doc.at("levels").array[0].has("dense_units"));
  ASSERT_TRUE(doc.at("phases").is_array());
  EXPECT_FALSE(doc.at("phases").array.empty());
  ASSERT_TRUE(doc.at("comm").is_object());
  ASSERT_EQ(doc.at("per_rank").array.size(), 4u);
  ASSERT_TRUE(doc.at("recovery").is_object());
  EXPECT_FALSE(doc.at("recovery").at("checkpoint_enabled").boolean);
  EXPECT_FALSE(doc.at("recovery").at("resumed").boolean);
  EXPECT_TRUE(doc.at("cost_model").has("predicted_seconds"));
  EXPECT_TRUE(doc.at("cost_model").has("measured_seconds"));

  // Per-phase comm deltas must sum to the job totals, and each phase's
  // max_seconds must equal the max over the per-rank breakdown.
  for (const char* counter :
       {"reduces", "bcasts", "gathers", "scatters", "collective_bytes"}) {
    double phase_sum = 0.0;
    for (const auto& phase : doc.at("phases").array) {
      phase_sum += phase.at("comm").at(counter).number;
    }
    EXPECT_EQ(phase_sum, doc.at("comm").at(counter).number) << counter;
  }
  for (const auto& phase : doc.at("phases").array) {
    const std::string& name = phase.at("name").string;
    double rank_max = 0.0;
    for (const auto& rank : doc.at("per_rank").array) {
      if (rank.at("phases").has(name)) {
        rank_max = std::max(rank_max,
                            rank.at("phases").at(name).at("seconds").number);
      }
    }
    EXPECT_EQ(phase.at("max_seconds").number, rank_max) << name;
  }
}

TEST_F(CliPipeline, BitmapPopulateKernelEndToEnd) {
  // The bitmap run index through the whole pipeline: the planted cluster,
  // and the report records the populate regime per level plus the
  // bitmap-index footprint and the unjoined-DU fields.
  const std::string report = temp("mafia_cli_bitmap_report.json");
  ASSERT_EQ(run_cli("generate --out " + data_ +
                    " --dims 8 --records 20000 --seed 7 --cluster 1,4,6:30:45")
                .first,
            0);
  auto [status, out] = run_cli("cluster --data " + data_ +
                               " --ranks 3 --domain-lo 0 --domain-hi 100"
                               " --report-json " +
                               report);
  ASSERT_EQ(status, 0) << out;
  EXPECT_NE(out.find("subspace {1,4,6}"), std::string::npos) << out;

  const mafia::JsonValue doc = mafia::json_parse(slurp(report));
  std::remove(report.c_str());
  EXPECT_EQ(doc.at("schema").string, "pmafia-report-v1");
  ASSERT_FALSE(doc.at("levels").array.empty());
  for (const auto& level : doc.at("levels").array) {
    EXPECT_EQ(level.at("populate_kernel").string, "index");
    EXPECT_TRUE(level.has("bitmap_bytes"));
    EXPECT_TRUE(level.has("unjoined_dus"));
    ASSERT_TRUE(level.at("unjoined_units").is_array());
    EXPECT_LE(level.at("unjoined_units").array.size(),
              level.at("unjoined_dus").number);
  }
  EXPECT_GT(doc.at("populate_kernel").at("bitmap_subspaces").number, 0.0);
  EXPECT_GT(doc.at("populate_kernel").at("bitmap_bytes").number, 0.0);
  EXPECT_GT(doc.at("populate_kernel").at("bitmap_words_anded").number, 0.0);
  EXPECT_TRUE(doc.has("unjoined_dus"));
}

TEST_F(CliPipeline, BudgetBelowTheRunIndexRescansEveryLevel) {
  // --max-cdu-bytes one byte below the run index the unbudgeted report
  // shows: the run rescans every level in --chunk batches instead of
  // failing, and saves a byte-identical model.
  const std::string report = temp("mafia_cli_index_report.json");
  const std::string rescan_report = temp("mafia_cli_rescan_report.json");
  const std::string model = temp("mafia_cli_index_model.txt");
  const std::string rescan_model = temp("mafia_cli_rescan_model.txt");
  ASSERT_EQ(run_cli("generate --out " + data_ +
                    " --dims 8 --records 20000 --seed 7 --cluster 1,4,6:30:45")
                .first,
            0);
  const std::string common =
      "cluster --data " + data_ + " --ranks 2 --domain-lo 0 --domain-hi 100";
  auto [status, out] =
      run_cli(common + " --report-json " + report + " --save " + model);
  ASSERT_EQ(status, 0) << out;
  const mafia::JsonValue doc = mafia::json_parse(slurp(report));
  const auto budget = static_cast<long long>(
      doc.at("populate_kernel").at("bitmap_bytes").number) - 1;

  auto [rescan_status, rescan_out] = run_cli(
      common + " --chunk 1024 --max-cdu-bytes " + std::to_string(budget) +
      " --report-json " + rescan_report + " --save " + rescan_model);
  ASSERT_EQ(rescan_status, 0) << rescan_out;
  const mafia::JsonValue rescan_doc = mafia::json_parse(slurp(rescan_report));
  const auto& levels = doc.at("levels").array;
  const auto& rescan_levels = rescan_doc.at("levels").array;
  ASSERT_EQ(levels.size(), rescan_levels.size());
  for (std::size_t l = 0; l < levels.size(); ++l) {
    EXPECT_EQ(rescan_levels[l].at("populate_kernel").string, "rescan");
    EXPECT_EQ(rescan_levels[l].at("count_checksum").string,
              levels[l].at("count_checksum").string);
  }
  EXPECT_LE(rescan_doc.at("populate_kernel").at("bitmap_bytes").number,
            static_cast<double>(budget));
  EXPECT_EQ(slurp(rescan_model), slurp(model));
  for (const std::string& f : {report, rescan_report, model, rescan_model}) {
    std::remove(f.c_str());
  }
}

TEST_F(CliPipeline, EmptyRankPartitionsProduceValidReport) {
  // More ranks than records: some ranks own zero rows and scan nothing, so
  // their io stats are all zero.  The run must succeed, the text report
  // must not print garbage, and the JSON must stay parseable (no bare
  // nan/inf tokens).
  const std::string report = temp("mafia_cli_empty_report.json");
  ASSERT_EQ(
      run_cli("generate --out " + data_ + " --dims 4 --records 5 --seed 11")
          .first,
      0);
  auto [status, out] = run_cli("cluster --data " + data_ +
                               " --ranks 8 --domain-lo 0 --domain-hi 100"
                               " --report-json " + report);
  ASSERT_EQ(status, 0) << out;
  EXPECT_EQ(out.find("nan"), std::string::npos) << out;

  const mafia::JsonValue doc = mafia::json_parse(slurp(report));
  std::remove(report.c_str());
  EXPECT_EQ(doc.at("schema").string, "pmafia-report-v1");
  EXPECT_LT(doc.at("records").number, 8.0);  // fewer records than ranks
  ASSERT_EQ(doc.at("per_rank").array.size(), 8u);
}

TEST_F(CliPipeline, CheckpointResumeReproducesBitIdenticalReport) {
  // CLI-level crash recovery: interrupt a checkpointed run at every comm-op
  // index via --inject-fault, resume with --resume, and require the resumed
  // report's clusters and per-level count checksums to match an
  // uninterrupted baseline exactly.
  ASSERT_EQ(run_cli("generate --out " + data_ +
                    " --dims 6 --records 6000 --seed 5 --cluster 1,3,5:25:45")
                .first,
            0);
  const std::string common = "cluster --data " + data_ +
                             " --ranks 2 --domain-lo 0 --domain-hi 100";
  const std::string base_report = temp("mafia_cli_base.json");
  ASSERT_EQ(run_cli(common + " --report-json " + base_report).first, 0);
  const mafia::JsonValue baseline = mafia::json_parse(slurp(base_report));
  std::remove(base_report.c_str());

  const auto levels_of = [](const mafia::JsonValue& doc) {
    std::string flat;
    for (const auto& level : doc.at("levels").array) {
      flat += std::to_string(level.at("level").number) + ":" +
              std::to_string(level.at("cdus").number) + ":" +
              std::to_string(level.at("dense_units").number) + ":" +
              level.at("count_checksum").string + ";";
    }
    return flat;
  };
  const auto clusters_of = [](const mafia::JsonValue& doc) {
    std::vector<std::string> dnf;
    for (const auto& c : doc.at("clusters").array) {
      dnf.push_back(c.at("dnf").string);
    }
    std::sort(dnf.begin(), dnf.end());
    return dnf;
  };

  const std::string dir = temp("mafia_cli_ckpt");
  const std::string resume_report = temp("mafia_cli_resume.json");
  int interrupted = 0;
  bool saw_resume = false;
  for (int op = 0; op < 200; ++op) {
    std::filesystem::remove_all(dir);
    auto [fault_code, fault_out] =
        run_cli(common + " --checkpoint-dir " + dir + " --inject-fault 1:" +
                std::to_string(op));
    if (fault_code == 0) break;  // op index is past the end of the run
    ASSERT_EQ(fault_code, 5) << fault_out;  // injected fault exit class
    ++interrupted;

    auto [resume_code, resume_out] =
        run_cli(common + " --checkpoint-dir " + dir +
                " --resume --report-json " + resume_report);
    ASSERT_EQ(resume_code, 0) << resume_out;
    const mafia::JsonValue resumed = mafia::json_parse(slurp(resume_report));
    EXPECT_EQ(levels_of(resumed), levels_of(baseline)) << "kill op " << op;
    EXPECT_EQ(clusters_of(resumed), clusters_of(baseline)) << "kill op " << op;
    if (resumed.at("recovery").at("resumed").boolean) saw_resume = true;
  }
  std::filesystem::remove_all(dir);
  std::remove(resume_report.c_str());
  EXPECT_GT(interrupted, 0);
  // Some kill points must land after the first checkpoint write, so the
  // sweep exercised a true restore rather than only fresh-run fallback.
  EXPECT_TRUE(saw_resume);
}

TEST_F(CliPipeline, AppendChainOverSegmentsMatchesClusteringTheWholeFile) {
  // `cluster --checkpoint-dir` on a base, then `append` batch A and batch
  // B.  The second append rebuilds the base from a two-segment provenance
  // (base, A) and concatenates B onto it: perfbench's append cycle times
  // this load path.  Its model must be byte-identical to clustering one
  // record file that holds base + A + B with the same options.  The ~1%
  // batches leave the grids unchanged, so the second append reuses levels.
  const std::string batch_a = temp("mafia_cli_batch_a.bin");
  const std::string batch_b = temp("mafia_cli_batch_b.bin");
  const std::string whole = temp("mafia_cli_whole.bin");
  const std::string whole_model = temp("mafia_cli_whole_model.txt");
  const std::string report = temp("mafia_cli_append_report.json");
  const std::string dir = temp("mafia_cli_append_ckpt");
  const std::string planted = " --dims 8 --cluster 1,4:20:35 --cluster 2,5,7:60:72";
  ASSERT_EQ(run_cli("generate --out " + data_ + planted +
                    " --records 40000 --seed 7").first, 0);
  ASSERT_EQ(run_cli("generate --out " + batch_a + planted +
                    " --records 400 --seed 77").first, 0);
  ASSERT_EQ(run_cli("generate --out " + batch_b + planted +
                    " --records 300 --seed 78").first, 0);

  const std::string domain = " --domain-lo 0 --domain-hi 100";
  auto [cl_status, cl_out] =
      run_cli("cluster --data " + data_ + domain + " --checkpoint-dir " + dir +
              " --save " + model_);
  ASSERT_EQ(cl_status, 0) << cl_out;
  for (const std::string& batch : {batch_a, batch_b}) {
    auto [ap_status, ap_out] =
        run_cli("append --model " + model_ + " --checkpoint-dir " + dir +
                " --data " + batch + domain + " --report-json " + report);
    ASSERT_EQ(ap_status, 0) << ap_out;
  }
  const mafia::JsonValue second = mafia::json_parse(slurp(report));
  EXPECT_GE(second.at("append").at("levels_reused").number, 1.0);

  // The same records in one record file: a header for the summed count,
  // the three value blocks, then the three label blocks (the layout of
  // io/record_file.hpp, written byte by byte so the file does not depend
  // on the loader under test).
  constexpr std::size_t kHeaderBytes = 28;
  std::string header;
  std::string values;
  std::string labels;
  std::uint64_t total = 0;
  for (const std::string& part : {data_, batch_a, batch_b}) {
    const std::string bytes = slurp(part);
    ASSERT_GT(bytes.size(), kHeaderBytes) << part;
    std::uint64_t records = 0;
    std::uint32_t dims = 0;
    std::memcpy(&records, bytes.data() + 12, sizeof(records));
    std::memcpy(&dims, bytes.data() + 20, sizeof(dims));
    const std::size_t value_bytes = records * dims * sizeof(float);
    ASSERT_EQ(bytes.size(),
              kHeaderBytes + value_bytes + records * sizeof(std::int32_t))
        << part;
    header = bytes.substr(0, kHeaderBytes);
    values += bytes.substr(kHeaderBytes, value_bytes);
    labels += bytes.substr(kHeaderBytes + value_bytes);
    total += records;
  }
  std::memcpy(header.data() + 12, &total, sizeof(total));
  {
    std::ofstream out(whole, std::ios::binary | std::ios::trunc);
    out << header << values << labels;
  }
  auto [w_status, w_out] =
      run_cli("cluster --data " + whole + domain + " --save " + whole_model);
  ASSERT_EQ(w_status, 0) << w_out;
  const std::string chained = slurp(model_);
  // Equality alone would pass on two empty models; require clusters.
  EXPECT_EQ(chained.rfind("MAFIA-MODEL", 0), 0u);
  EXPECT_EQ(chained.find("clusters 0\n"), std::string::npos) << chained;
  EXPECT_EQ(chained, slurp(whole_model));

  std::filesystem::remove_all(dir);
  for (const std::string& f : {batch_a, batch_b, whole, whole_model, report}) {
    std::remove(f.c_str());
  }
}

TEST(CliErrors, UnknownSubcommandFails) {
  EXPECT_EQ(run_cli("frobnicate").first, 2);
}

TEST(CliErrors, MissingDataFlagFails) {
  auto [status, out] = run_cli("cluster");
  EXPECT_EQ(status, 2);  // usage-class error
  EXPECT_NE(out.find("--data is required"), std::string::npos) << out;
}

TEST(CliErrors, NonexistentFileFails) {
  EXPECT_EQ(run_cli("cluster --data /nonexistent/never.bin").first, 3);
}

TEST(CliErrors, MalformedClusterSpecFails) {
  auto [status, out] =
      run_cli("generate --out /tmp/x.bin --cluster not-a-spec");
  EXPECT_EQ(status, 2);
  EXPECT_NE(out.find("dims:lo:hi"), std::string::npos) << out;
}

TEST(CliErrors, ExitCodesDistinguishFailureClasses) {
  const std::string data = temp("mafia_cli_codes.bin");
  ASSERT_EQ(run_cli("generate --out " + data + " --dims 5 --records 4000"
                    " --seed 2 --cluster 1,3:25:45")
                .first,
            0);
  const std::string common =
      "cluster --data " + data + " --domain-lo 0 --domain-hi 100";

  // Resource class (4): a CDU budget no level-1 candidate set fits.
  auto [resource, resource_out] = run_cli(common + " --max-cdu-bytes 16");
  EXPECT_EQ(resource, 4) << resource_out;
  EXPECT_NE(resource_out.find("CDU budget exceeded at level 1"),
            std::string::npos)
      << resource_out;

  // Fault class (5): an injected rank kill.
  auto [fault, fault_out] =
      run_cli(common + " --ranks 2 --inject-fault 0:0");
  EXPECT_EQ(fault, 5) << fault_out;
  EXPECT_NE(fault_out.find("injected fault"), std::string::npos) << fault_out;

  // Usage class (2): --resume without a checkpoint directory.
  EXPECT_EQ(run_cli(common + " --resume").first, 2);

  std::remove(data.c_str());
}

TEST(CliErrors, UnknownPopulateKernelFails) {
  const std::string data = temp("mafia_cli_kernel.bin");
  ASSERT_EQ(run_cli("generate --out " + data + " --dims 4 --records 2000"
                    " --seed 3")
                .first,
            0);
  // Every flag the CLI does not read is a usage error naming it: a
  // removed option, and a typo that would otherwise run without a budget.
  for (const std::string& flag :
       {std::string("--populate-kernel simd"),
        std::string("--populate-kernel packed"),
        std::string("--max-cdu-byte 16")}) {
    auto [status, out] = run_cli("cluster --data " + data + " " + flag);
    EXPECT_EQ(status, 2) << flag << ": " << out;
    EXPECT_NE(out.find("unknown flag " + flag.substr(0, flag.find(' '))),
              std::string::npos)
        << out;
  }
  std::remove(data.c_str());
}

TEST(CliErrors, CorruptDataFilesExitWithInputCode) {
  // Every corrupt-record-file shape maps to the input class (exit 3) with
  // the reader's diagnostic relayed; the full corruption matrix lives in
  // io_corrupt_test, this pins the CLI mapping end to end.
  const std::string data = temp("mafia_cli_corrupt.bin");
  ASSERT_EQ(run_cli("generate --out " + data + " --dims 4 --records 2000"
                    " --seed 3 --cluster 0,2:20:40")
                .first,
            0);

  // Truncated mid-row.
  const auto full_size = std::filesystem::file_size(data);
  std::filesystem::resize_file(data, full_size - 10);
  auto [truncated, truncated_out] = run_cli("cluster --data " + data);
  EXPECT_EQ(truncated, 3) << truncated_out;
  EXPECT_NE(truncated_out.find("size mismatch"), std::string::npos)
      << truncated_out;

  // Padded tail.
  std::filesystem::resize_file(data, full_size + 17);
  EXPECT_EQ(run_cli("cluster --data " + data).first, 3);

  // Bad magic.
  {
    std::fstream io(data, std::ios::binary | std::ios::in | std::ios::out);
    io.write("GARBAGE!", 8);
  }
  std::filesystem::resize_file(data, full_size);
  auto [magic, magic_out] = run_cli("cluster --data " + data);
  EXPECT_EQ(magic, 3) << magic_out;
  EXPECT_NE(magic_out.find("bad magic"), std::string::npos) << magic_out;

  std::remove(data.c_str());
}

TEST(CliErrors, NonFiniteCsvValueExitsWithInputCode) {
  // A NaN in a CSV is bad input (exit 3), as in a record file, rather than
  // a value the histogram and the index go on to bin.
  const std::string csv = temp("mafia_cli_nan.csv");
  {
    std::ofstream f(csv);
    f << "a,b\n1,2\n3,4\nnan,5\n";
  }
  auto [status, out] = run_cli("cluster --data " + csv);
  EXPECT_EQ(status, 3) << out;
  EXPECT_NE(out.find("non-finite value 'nan'"), std::string::npos) << out;
  std::remove(csv.c_str());
}

TEST(CliErrors, OversizedFineBinsExitWithUsageCode) {
  // Unbounded, d x fine_bins histogram cells wrap (2^62 + 1 bins x 4 dims
  // is 4 cells, which the scan overruns) or fail to allocate; every such
  // value must be a usage error naming the cap.
  const std::string data = temp("mafia_cli_fine_bins.bin");
  ASSERT_EQ(run_cli("generate --out " + data + " --dims 4 --records 2000"
                    " --seed 3")
                .first,
            0);
  for (const std::string value : {"4611686018427387905", "3000000000"}) {
    auto [status, out] =
        run_cli("cluster --data " + data + " --fine-bins " + value);
    EXPECT_EQ(status, 2) << value << ": " << out;
    EXPECT_NE(out.find("fine_bins above 65536"), std::string::npos)
        << value << ": " << out;
  }
  std::remove(data.c_str());
}

TEST(CliErrors, MalformedNumericFlagsExitWithUsageCode) {
  // A numeric flag's whole value must parse: no trailing junk, no sign on
  // a count, a finite number for a real-valued flag, and nothing past the
  // range of the type the flag sets.  Each is a usage error naming the
  // flag and the value.  Only values the parser rejects appear here: an
  // accepted --ranks, --records or --serve-threads value would start that
  // many threads or rows.
  const std::string data = temp("mafia_cli_numeric.bin");
  ASSERT_EQ(run_cli("generate --out " + data + " --dims 4 --records 2000"
                    " --seed 3")
                .first,
            0);
  const std::string cluster = "cluster --data " + data + " ";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"fine-bins", "12abc"},
      {"alpha", "1.5x"},
      {"alpha", "abc"},
      {"alpha", "nan"},
      {"beta", "inf"},
      {"domain-lo", "-inf"},
      {"domain-hi", "1e39"},  // finite, but past float's range
      {"ranks", "2x"},
      {"ranks", "-1"},
      {"ranks", "4294967298"},  // 2^32 + 2: wraps to 2 as an int
      {"chunk", "-1"},
      {"chunk", "+64"},
      {"chunk", "18446744073709551616"},  // 2^64
      {"max-cdu-bytes", "-1"},
      {"min-dims", "-1"},
      {"fine-bins", "-1"},
      {"mp-deadline", "1e999"},
  };
  for (const auto& [flag, value] : cases) {
    auto [status, out] = run_cli(cluster + "--" + flag + " " + value);
    EXPECT_EQ(status, 2) << flag << " " << value << ": " << out;
    EXPECT_NE(out.find("--" + flag + ": invalid value '" + value + "'"),
              std::string::npos)
        << out;
  }
  // Count flags of the other subcommands parse the same way.
  for (const auto& [command, flag] :
       {std::pair<std::string, std::string>{"generate --out " + data +
                                                " --records 10x",
                                            "--records"},
        {"generate --out " + data + " --seed -3", "--seed"},
        {"stage --data " + data + " --ranks 1.5", "--ranks"}}) {
    auto [status, out] = run_cli(command);
    EXPECT_EQ(status, 2) << command << ": " << out;
    EXPECT_NE(out.find(flag + ": invalid value"), std::string::npos)
        << command << ": " << out;
  }
  std::remove(data.c_str());
}

TEST(CliErrors, FailureWritesErrorObjectToReportJson) {
  const std::string data = temp("mafia_cli_errjson.bin");
  const std::string report = temp("mafia_cli_errjson_report.json");
  ASSERT_EQ(run_cli("generate --out " + data + " --dims 5 --records 4000"
                    " --seed 2 --cluster 1,3:25:45")
                .first,
            0);
  auto [status, out] = run_cli("cluster --data " + data +
                               " --ranks 2 --domain-lo 0 --domain-hi 100"
                               " --inject-fault 1:1 --report-json " + report);
  EXPECT_EQ(status, 5) << out;

  const mafia::JsonValue doc = mafia::json_parse(slurp(report));
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("schema").string, "pmafia-error-v1");
  EXPECT_EQ(doc.at("error").at("class").string, "fault");
  EXPECT_NE(doc.at("error").at("message").string.find("injected fault"),
            std::string::npos);
  std::remove(data.c_str());
  std::remove(report.c_str());
}

TEST(CliErrors, BadInjectFaultSpecsExitWithUsageCode) {
  const std::string data = temp("mafia_cli_badfault.bin");
  ASSERT_EQ(run_cli("generate --out " + data + " --dims 4 --records 2000"
                    " --seed 3")
                .first,
            0);
  const std::string common = "cluster --data " + data + " --ranks 2";

  // Unknown op name: rejected at parse time, listing every valid name.
  auto [bad_op, bad_op_out] =
      run_cli(common + " --inject-fault 1:frobnicate");
  EXPECT_EQ(bad_op, 2) << bad_op_out;
  EXPECT_NE(bad_op_out.find("unknown op 'frobnicate'"), std::string::npos)
      << bad_op_out;
  EXPECT_NE(bad_op_out.find("barrier, allreduce, reduce, bcast, gatherv, "
                            "allgatherv, scatterv, send, recv"),
            std::string::npos)
      << bad_op_out;

  // Rank out of range for --ranks.
  auto [bad_rank, bad_rank_out] = run_cli(common + " --inject-fault 5:0");
  EXPECT_EQ(bad_rank, 2) << bad_rank_out;
  EXPECT_NE(bad_rank_out.find("rank 5 out of range"), std::string::npos)
      << bad_rank_out;

  // Malformed shapes: no colon, negative rank, junk occurrence, bad delay.
  EXPECT_EQ(run_cli(common + " --inject-fault nonsense").first, 2);
  EXPECT_EQ(run_cli(common + " --inject-fault -1:0").first, 2);
  EXPECT_EQ(run_cli(common + " --inject-fault 1:barrier@x").first, 2);
  EXPECT_EQ(run_cli(common + " --inject-fault 1:0:fast").first, 2);

  std::remove(data.c_str());
}

TEST(CliErrors, UnknownMpBackendExitsWithUsageCode) {
  const std::string data = temp("mafia_cli_badbackend.bin");
  ASSERT_EQ(run_cli("generate --out " + data + " --dims 4 --records 1000"
                    " --seed 3")
                .first,
            0);
  auto [status, out] =
      run_cli("cluster --data " + data + " --mp-backend fibers");
  EXPECT_EQ(status, 2) << out;
  EXPECT_NE(out.find("unknown mp backend 'fibers'"), std::string::npos)
      << out;
  EXPECT_NE(out.find("threads, process"), std::string::npos) << out;
  std::remove(data.c_str());
}

TEST_F(CliPipeline, ProcessBackendReportMatchesThreadsBitIdentically) {
  if (!mafia::mp::process_backend_supported()) {
    GTEST_SKIP() << "process backend unavailable in this build";
  }
  ASSERT_EQ(run_cli("generate --out " + data_ +
                    " --dims 6 --records 8000 --seed 5 --cluster 1,3,5:25:45")
                .first,
            0);
  const std::string common = "cluster --data " + data_ +
                             " --ranks 3 --domain-lo 0 --domain-hi 100";
  const std::string threads_report = temp("mafia_cli_backend_threads.json");
  const std::string process_report = temp("mafia_cli_backend_process.json");

  auto [t_status, t_out] =
      run_cli(common + " --report-json " + threads_report);
  ASSERT_EQ(t_status, 0) << t_out;
  EXPECT_NE(t_out.find("(threads backend)"), std::string::npos) << t_out;

  auto [p_status, p_out] = run_cli(common + " --mp-backend process"
                                   " --report-json " + process_report);
  ASSERT_EQ(p_status, 0) << p_out;
  EXPECT_NE(p_out.find("(process backend)"), std::string::npos) << p_out;

  const mafia::JsonValue threads_doc =
      mafia::json_parse(slurp(threads_report));
  const mafia::JsonValue process_doc =
      mafia::json_parse(slurp(process_report));
  std::remove(threads_report.c_str());
  std::remove(process_report.c_str());

  EXPECT_EQ(threads_doc.at("mp_backend").string, "threads");
  EXPECT_EQ(process_doc.at("mp_backend").string, "process");
  ASSERT_EQ(process_doc.at("rank_exits").array.size(), 3u);
  for (const auto& e : process_doc.at("rank_exits").array) {
    EXPECT_EQ(e.at("code").number, 0.0);
    EXPECT_EQ(e.at("signal").number, 0.0);
  }

  // The cluster set and every per-level checksum must be bit-identical
  // across transports.
  const auto levels_of = [](const mafia::JsonValue& doc) {
    std::string flat;
    for (const auto& level : doc.at("levels").array) {
      flat += std::to_string(level.at("level").number) + ":" +
              std::to_string(level.at("dense_units").number) + ":" +
              level.at("count_checksum").string + ";";
    }
    return flat;
  };
  EXPECT_EQ(levels_of(process_doc), levels_of(threads_doc));
  ASSERT_EQ(process_doc.at("clusters").array.size(),
            threads_doc.at("clusters").array.size());
  for (std::size_t i = 0; i < process_doc.at("clusters").array.size(); ++i) {
    EXPECT_EQ(process_doc.at("clusters").array[i].at("dnf").string,
              threads_doc.at("clusters").array[i].at("dnf").string);
  }
}

TEST_F(CliPipeline, ProcessBackendFaultReportCarriesRankExits) {
  if (!mafia::mp::process_backend_supported()) {
    GTEST_SKIP() << "process backend unavailable in this build";
  }
  // An injected kill on the process backend is a real SIGKILL; the error
  // object in pmafia-error-v1 must carry the per-rank exit table showing
  // the victim's signal 9.
  const std::string report = temp("mafia_cli_procfault.json");
  ASSERT_EQ(run_cli("generate --out " + data_ + " --dims 5 --records 4000"
                    " --seed 2 --cluster 1,3:25:45")
                .first,
            0);
  auto [status, out] = run_cli("cluster --data " + data_ +
                               " --ranks 2 --domain-lo 0 --domain-hi 100"
                               " --mp-backend process --inject-fault 1:1"
                               " --report-json " + report);
  EXPECT_EQ(status, 5) << out;

  const mafia::JsonValue doc = mafia::json_parse(slurp(report));
  std::remove(report.c_str());
  EXPECT_EQ(doc.at("schema").string, "pmafia-error-v1");
  EXPECT_EQ(doc.at("error").at("class").string, "fault");
  const mafia::JsonValue& detail = doc.at("error").at("detail");
  EXPECT_EQ(detail.at("backend").string, "process");
  ASSERT_EQ(detail.at("rank_exits").array.size(), 2u);
  EXPECT_EQ(detail.at("rank_exits").array[1].at("signal").number, 9.0);
}

TEST_F(CliPipeline, SigkillWholeCliMidRunThenResumeIsBitIdentical) {
  if (!mafia::mp::process_backend_supported()) {
    GTEST_SKIP() << "process backend unavailable in this build";
  }
  // The crash-surviving-restart drill at full scope: SIGKILL the whole CLI
  // process tree mid-run (no cleanup code runs anywhere), assert no worker
  // process survives it (PR_SET_PDEATHSIG), then --resume and require the
  // report to match an uninterrupted baseline bit-identically.
  ASSERT_EQ(run_cli("generate --out " + data_ +
                    " --dims 6 --records 8000 --seed 5 --cluster 1,3,5:25:45")
                .first,
            0);
  // The unique checkpoint dir doubles as the /proc cmdline marker for the
  // orphan scan.
  const std::string dir = temp("mafia_cli_sigkill_ckpt");
  const std::string common = "cluster --data " + data_ +
                             " --ranks 2 --domain-lo 0 --domain-hi 100"
                             " --mp-backend process --checkpoint-dir " + dir;

  const std::string base_report = temp("mafia_cli_sigkill_base.json");
  std::filesystem::remove_all(dir);
  ASSERT_EQ(run_cli(common + " --report-json " + base_report).first, 0);
  const mafia::JsonValue baseline = mafia::json_parse(slurp(base_report));
  std::remove(base_report.c_str());

  // Stall rank 1 for 30 s at a late comm op so the run is reliably alive
  // (and mid-level) when the kill lands.  If the chosen op index is past
  // the end of the run the CLI finishes instead — fall back to earlier
  // indices; op 1 exists in any run, so the loop always produces a kill.
  const std::string out_file = temp("mafia_cli_sigkill_out.txt");
  bool killed = false;
  for (const int op : {40, 20, 10, 5, 2, 1}) {
    std::filesystem::remove_all(dir);
    const pid_t pid = spawn_cli(common + " --inject-fault 1:" +
                                    std::to_string(op) + ":30",
                                out_file);
    ASSERT_GT(pid, 0);
    for (int i = 0; i < 40 && process_alive(pid); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (!process_alive(pid)) continue;  // finished before the stall: retry
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    for (int i = 0; i < 100 && process_alive(pid); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ASSERT_FALSE(process_alive(pid));
    killed = true;
    break;
  }
  std::remove(out_file.c_str());
  ASSERT_TRUE(killed);

  // No orphans: the workers carry the checkpoint dir on their command line
  // (inherited from the parent); give PDEATHSIG delivery a moment, then
  // require zero survivors.
  bool orphan_free = false;
  for (int i = 0; i < 100; ++i) {
    if (processes_matching(dir).empty()) {
      orphan_free = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(orphan_free) << "worker processes survived the parent SIGKILL";

  // Resume must complete and reproduce the baseline exactly.
  const std::string resume_report = temp("mafia_cli_sigkill_resume.json");
  auto [resume_code, resume_out] =
      run_cli(common + " --resume --report-json " + resume_report);
  ASSERT_EQ(resume_code, 0) << resume_out;
  const mafia::JsonValue resumed = mafia::json_parse(slurp(resume_report));
  std::remove(resume_report.c_str());
  std::filesystem::remove_all(dir);

  const auto levels_of = [](const mafia::JsonValue& doc) {
    std::string flat;
    for (const auto& level : doc.at("levels").array) {
      flat += std::to_string(level.at("level").number) + ":" +
              std::to_string(level.at("cdus").number) + ":" +
              std::to_string(level.at("dense_units").number) + ":" +
              level.at("count_checksum").string + ";";
    }
    return flat;
  };
  EXPECT_EQ(levels_of(resumed), levels_of(baseline));
  ASSERT_EQ(resumed.at("clusters").array.size(),
            baseline.at("clusters").array.size());
  for (std::size_t i = 0; i < resumed.at("clusters").array.size(); ++i) {
    EXPECT_EQ(resumed.at("clusters").array[i].at("dnf").string,
              baseline.at("clusters").array[i].at("dnf").string);
  }
  EXPECT_EQ(resumed.at("mp_backend").string, "process");
}

// ------------------------------------------------ scoreboard subcommand

TEST(CliScoreboard, EmitsValidScoreboardJson) {
  // Small synthetic matrix: one workload, two algorithms.  The document
  // must parse, carry the v1 schema tag, and contain one row per
  // requested algorithm.
  auto [status, out] = run_cli(
      "scoreboard --workloads tab3-boundary --algorithms pmafia,clique"
      " --records 600 --seed 7");
  ASSERT_EQ(status, 0) << out;
  const mafia::JsonValue doc = mafia::json_parse(out);
  EXPECT_EQ(doc.at("schema").string, "pmafia-scoreboard-v1");
  const mafia::JsonValue& workload = doc.at("workloads").array.at(0);
  EXPECT_EQ(workload.at("name").string, "tab3-boundary");
  ASSERT_EQ(workload.at("algorithms").array.size(), 2u);
  EXPECT_EQ(workload.at("algorithms").array.at(0).at("name").string, "pmafia");
  EXPECT_EQ(workload.at("algorithms").array.at(1).at("name").string, "clique");
}

TEST(CliScoreboard, WritesOutFileAtomically) {
  const std::string out_path = temp("mafia_cli_scoreboard.json");
  auto [status, out] = run_cli(
      "scoreboard --workloads lshape-boundary --algorithms pmafia"
      " --records 400 --out " + out_path);
  ASSERT_EQ(status, 0) << out;
  const mafia::JsonValue doc = mafia::json_parse(slurp(out_path));
  EXPECT_EQ(doc.at("schema").string, "pmafia-scoreboard-v1");
  std::remove(out_path.c_str());
}

TEST(CliScoreboard, UnknownNamesExitWithUsageCode) {
  auto [bad_algo, algo_out] = run_cli(
      "scoreboard --workloads tab3-boundary --algorithms pmafia,frobnicate"
      " --records 200");
  EXPECT_EQ(bad_algo, 2) << algo_out;
  EXPECT_NE(algo_out.find("unknown algorithm"), std::string::npos) << algo_out;

  auto [bad_workload, workload_out] =
      run_cli("scoreboard --workloads tab9-nonsense --records 200");
  EXPECT_EQ(bad_workload, 2) << workload_out;
  EXPECT_NE(workload_out.find("unknown workload"), std::string::npos)
      << workload_out;

  // A trailing comma is a usage error, not a silently shorter matrix.
  EXPECT_EQ(run_cli("scoreboard --algorithms pmafia, --records 200").first, 2);
}

TEST(CliScoreboard, TruncatedGroundTruthFileExitsWithInputCode) {
  const std::string data = temp("mafia_cli_scoreboard_trunc.bin");
  ASSERT_EQ(run_cli("generate --out " + data + " --dims 5 --records 2000"
                    " --seed 4 --cluster 1,3:25:45")
                .first,
            0);
  std::filesystem::resize_file(data,
                               std::filesystem::file_size(data) - 12);
  auto [status, out] =
      run_cli("scoreboard --data " + data + " --algorithms pmafia");
  EXPECT_EQ(status, 3) << out;
  EXPECT_NE(out.find("size mismatch"), std::string::npos) << out;
  std::remove(data.c_str());
}

TEST(CliScoreboard, UnlabeledDataFileExitsWithInputCode) {
  // External mode needs ground truth: a record file written without labels
  // cannot be scored and must fail as bad input, not crash or emit zeros.
  const std::string csv = temp("mafia_cli_scoreboard_nolabel.csv");
  {
    std::ofstream f(csv);
    f << "a,b\n1,2\n3,4\n5,6\n";
  }
  auto [status, out] =
      run_cli("scoreboard --data " + csv + " --algorithms kmeans");
  EXPECT_EQ(status, 3) << out;
  EXPECT_NE(out.find("no ground-truth labels"), std::string::npos) << out;
  std::remove(csv.c_str());
}

TEST(CliScoreboard, ScoresLabeledExternalData) {
  const std::string data = temp("mafia_cli_scoreboard_ext.bin");
  ASSERT_EQ(run_cli("generate --out " + data + " --dims 6 --records 3000"
                    " --seed 5 --cluster 1,3:20:40 --cluster 2,4:60:80")
                .first,
            0);
  auto [status, out] = run_cli("scoreboard --data " + data +
                               " --algorithms pmafia --true-clusters 2");
  ASSERT_EQ(status, 0) << out;
  const mafia::JsonValue doc = mafia::json_parse(out);
  const mafia::JsonValue& row =
      doc.at("workloads").array.at(0).at("algorithms").array.at(0);
  ASSERT_EQ(row.at("status").string, "ok") << out;
  EXPECT_GT(row.at("metrics").at("f1").number, 0.9) << out;
  std::remove(data.c_str());
}

// --------------------------------------------------------------- serving

/// The serve daemon end-to-end at process level: generate -> cluster
/// --save -> serve -> query, plus the two lifecycle properties the daemon
/// promises — SIGTERM drains and reports, SIGKILL leaves nothing behind
/// and the same socket path is immediately reusable.
class CliServe : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = temp("mafia_cli_serve_data.bin");
    model_ = temp("mafia_cli_serve_model.txt");
    sock_ = temp("mafia_cli_serve.sock");
    report_ = temp("mafia_cli_serve_report.json");
    daemon_out_ = temp("mafia_cli_serve_daemon.txt");
    ASSERT_EQ(run_cli("generate --out " + data_ +
                      " --dims 8 --records 8000 --seed 23"
                      " --cluster 1,4:20:35 --cluster 2,5,7:60:72")
                  .first,
              0);
    // Fixed domain so the planted boxes land on bin edges and the model
    // actually holds clusters — an all-noise model would make the
    // served-vs-offline parity check below vacuously true.
    auto [cl_status, cl_out] =
        run_cli("cluster --data " + data_ + " --domain-lo 0 --domain-hi 100" +
                " --save " + model_);
    ASSERT_EQ(cl_status, 0) << cl_out;
    ASSERT_NE(cl_out.find("clusters (2"), std::string::npos) << cl_out;
  }

  void TearDown() override {
    // Belt and braces: no test should leave a daemon running.
    for (const pid_t pid : processes_matching(sock_)) ::kill(pid, SIGKILL);
    std::remove(data_.c_str());
    std::remove(model_.c_str());
    std::remove(sock_.c_str());
    std::remove(report_.c_str());
    std::remove(daemon_out_.c_str());
  }

  /// Spawns the daemon and waits until it accepts queries.
  pid_t spawn_daemon(const std::string& extra = "") {
    const pid_t pid = spawn_cli("serve --model " + model_ + " --listen unix:" +
                                    sock_ + " --serve-threads 2 " + extra,
                                daemon_out_);
    if (pid < 0) return -1;
    for (int i = 0; i < 500; ++i) {
      if (run_cli("query --listen unix:" + sock_ + " --stats").first == 0) {
        return pid;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;
  }

  static void wait_until_dead(pid_t pid) {
    for (int i = 0; i < 500 && process_alive(pid); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  std::string data_;
  std::string model_;
  std::string sock_;
  std::string report_;
  std::string daemon_out_;
};

TEST_F(CliServe, ServedLabelsMatchOfflineAssignAndSigtermReports) {
  const pid_t pid = spawn_daemon("--report-json " + report_);
  ASSERT_GT(pid, 0) << slurp(daemon_out_);

  const std::string served = temp("mafia_cli_serve_labels.csv");
  const std::string offline = temp("mafia_cli_serve_offline.csv");
  auto [q_status, q_out] = run_cli("query --listen unix:" + sock_ +
                                   " --data " + data_ + " --out " + served);
  ASSERT_EQ(q_status, 0) << q_out;
  auto [a_status, a_out] = run_cli("assign --data " + data_ + " --model " +
                                   model_ + " --out " + offline);
  ASSERT_EQ(a_status, 0) << a_out;
  // Identical files, not just similar labels: both paths write the same
  // record,cluster CSV and the daemon promises bit-identical assignment.
  const std::string served_csv = slurp(served);
  EXPECT_EQ(served_csv, slurp(offline));
  // Parity alone would pass on an all-noise model; require real members.
  EXPECT_NE(served_csv.find(",0\n"), std::string::npos);
  EXPECT_NE(served_csv.find(",1\n"), std::string::npos);

  auto [s_status, s_out] =
      run_cli("query --listen unix:" + sock_ + " --stats");
  ASSERT_EQ(s_status, 0) << s_out;
  const mafia::JsonValue stats = mafia::json_parse(s_out);
  EXPECT_EQ(stats.at("schema").string, "pmafia-serve-v1");
  EXPECT_GT(stats.at("traffic").at("rows").number, 0.0);

  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  wait_until_dead(pid);
  EXPECT_FALSE(process_alive(pid));
  const mafia::JsonValue final_report = mafia::json_parse(slurp(report_));
  EXPECT_EQ(final_report.at("schema").string, "pmafia-serve-v1");
  EXPECT_GE(final_report.at("traffic").at("rows").number, 8000.0);
  EXPECT_NE(slurp(daemon_out_).find("pmafia serve @"), std::string::npos);

  std::remove(served.c_str());
  std::remove(offline.c_str());
}

TEST_F(CliServe, SigkillLeavesNoOrphanAndSocketPathIsReusable) {
  const pid_t pid = spawn_daemon();
  ASSERT_GT(pid, 0) << slurp(daemon_out_);

  // A query in flight when the SIGKILL lands: fire it in the background,
  // then kill the daemon without giving it a chance to drain.
  const std::string client_out = temp("mafia_cli_serve_client.txt");
  const pid_t client = spawn_cli(
      "query --listen unix:" + sock_ + " --data " + data_, client_out);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  wait_until_dead(pid);
  ASSERT_FALSE(process_alive(pid));
  if (client > 0) wait_until_dead(client);

  // No orphans: nothing with our socket path on its command line survives
  // (the daemon's workers are threads, but this also catches any future
  // helper-process regression).
  EXPECT_TRUE(processes_matching(sock_).empty());

  // SIGKILL skipped the destructor, so the socket file is still there —
  // restart on the same path must succeed anyway and serve queries.
  EXPECT_TRUE(std::filesystem::exists(sock_));
  const pid_t pid2 = spawn_daemon();
  ASSERT_GT(pid2, 0) << slurp(daemon_out_);
  auto [q_status, q_out] =
      run_cli("query --listen unix:" + sock_ + " --data " + data_);
  EXPECT_EQ(q_status, 0) << q_out;
  ASSERT_EQ(::kill(pid2, SIGTERM), 0);
  wait_until_dead(pid2);
  EXPECT_FALSE(process_alive(pid2));

  std::remove(client_out.c_str());
}

TEST_F(CliServe, AppendThenSighupServesUpdatedModelAndBadReloadKeepsOld) {
  // Re-cluster the base with a checkpoint directory so `pmafia append` has
  // a base state, overwriting the model SetUp saved (same options).
  const std::string ckpt = temp("mafia_cli_serve_ckpt");
  auto [cl_status, cl_out] =
      run_cli("cluster --data " + data_ + " --domain-lo 0 --domain-hi 100" +
              " --checkpoint-dir " + ckpt + " --save " + model_);
  ASSERT_EQ(cl_status, 0) << cl_out;

  const pid_t pid = spawn_daemon();
  ASSERT_GT(pid, 0) << slurp(daemon_out_);

  // A new batch from the same planted distribution.
  const std::string batch = temp("mafia_cli_serve_batch.bin");
  ASSERT_EQ(run_cli("generate --out " + batch +
                    " --dims 8 --records 1500 --seed 77"
                    " --cluster 1,4:20:35 --cluster 2,5,7:60:72")
                .first,
            0);

  // Incremental append rewrites the model file (atomically) while the
  // daemon keeps serving; the grid flags must match the base run so the
  // checkpoint fingerprint validates.
  auto [ap_status, ap_out] =
      run_cli("append --model " + model_ + " --checkpoint-dir " + ckpt +
              " --data " + batch + " --domain-lo 0 --domain-hi 100");
  ASSERT_EQ(ap_status, 0) << ap_out;
  EXPECT_NE(ap_out.find("\nappend: "), std::string::npos) << ap_out;
  EXPECT_NE(ap_out.find("model updated at "), std::string::npos) << ap_out;

  // Polls `query --stats` until the traffic counter `key` reaches `want`.
  const auto wait_for_counter = [&](const char* key, double want) {
    for (int i = 0; i < 500; ++i) {
      auto [s_status, s_out] =
          run_cli("query --listen unix:" + sock_ + " --stats");
      if (s_status == 0 &&
          mafia::json_parse(s_out).at("traffic").at(key).number >= want) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  };

  // SIGHUP swaps in the updated model.
  ASSERT_EQ(::kill(pid, SIGHUP), 0);
  ASSERT_TRUE(wait_for_counter("model_reloads", 1.0));

  // Served labels on both segments must be byte-identical to offline
  // assignment with the post-append model — together these cover every
  // record of the concatenated data set.
  const std::string served = temp("mafia_cli_serve_hot_served.csv");
  const std::string offline = temp("mafia_cli_serve_hot_offline.csv");
  for (const std::string& segment : {data_, batch}) {
    auto [q_status, q_out] = run_cli("query --listen unix:" + sock_ +
                                     " --data " + segment + " --out " + served);
    ASSERT_EQ(q_status, 0) << q_out;
    auto [a_status, a_out] = run_cli("assign --data " + segment + " --model " +
                                     model_ + " --out " + offline);
    ASSERT_EQ(a_status, 0) << a_out;
    EXPECT_EQ(slurp(served), slurp(offline)) << "segment " << segment;
  }

  // A truncated model file must fail the reload and keep the old (updated)
  // model serving.
  const std::string batch_served = slurp(served);
  {
    std::ofstream trunc(model_, std::ios::trunc);
    trunc << "pmafia-model";
  }
  ASSERT_EQ(::kill(pid, SIGHUP), 0);
  ASSERT_TRUE(wait_for_counter("reload_failures", 1.0));
  auto [q2_status, q2_out] = run_cli("query --listen unix:" + sock_ +
                                     " --data " + batch + " --out " + served);
  ASSERT_EQ(q2_status, 0) << q2_out;
  EXPECT_EQ(slurp(served), batch_served);

  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  wait_until_dead(pid);
  EXPECT_FALSE(process_alive(pid));

  std::filesystem::remove_all(ckpt);
  std::remove(batch.c_str());
  std::remove(served.c_str());
  std::remove(offline.c_str());
}

}  // namespace
