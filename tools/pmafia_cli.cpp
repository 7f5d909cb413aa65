// pmafia — command-line driver for the library.
//
// Subcommands:
//   generate   build a synthetic data set (Section 5.1 generator)
//   cluster    run pMAFIA (or CLIQUE) on a record/CSV file and report
//   append     incrementally fold a new batch into a checkpointed model
//   assign     label every record with its discovered cluster
//   stage      split a shared record file into per-rank local partitions
//   scoreboard run the planted-truth quality scoreboard over the zoo
//
// Examples:
//   pmafia generate --out data.bin --dims 10 --records 100000 \
//          --cluster "1,4,7:30:45" --cluster "2,5:70:82" --seed 42
//   pmafia generate --workload drift --out base.bin --append-out batch.bin
//   pmafia cluster --data data.bin --ranks 4
//   pmafia cluster --data base.bin --checkpoint-dir ckpt --save model.txt
//   pmafia append --model model.txt --checkpoint-dir ckpt --data batch.bin
//   pmafia cluster --data table.csv --algorithm clique --xi 10 --tau 0.01
//   pmafia assign --data data.bin --out labels.csv
//   pmafia stage --data data.bin --ranks 8 --prefix /scratch/local
//   pmafia scoreboard --records 2000 --out SCOREBOARD.json
//   pmafia scoreboard --workloads tab3-boundary --algorithms pmafia,clique
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "clique/clique.hpp"
#include "cluster/membership.hpp"
#include "common/json.hpp"
#include "core/checkpoint.hpp"
#include "core/mafia.hpp"
#include "core/model_io.hpp"
#include "core/report.hpp"
#include "datagen/generator.hpp"
#include "datagen/workloads.hpp"
#include "eval/scoreboard.hpp"
#include "io/csv.hpp"
#include "io/record_file.hpp"
#include "io/staging.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace {

using namespace mafia;

/// Every flag the CLI reads, mapped to whether it takes a value (the
/// others' presence is the value).  Any other flag is a Usage error, so a
/// typo cannot silently fall back to a default.
const std::map<std::string, bool> kFlags = {
    {"algorithm", true},     {"algorithms", true},     {"alpha", true},
    {"append-out", true},    {"append-records", true}, {"beta", true},
    {"checkpoint-dir", true}, {"chunk", true},         {"cluster", true},
    {"data", true},          {"dims", true},           {"domain-hi", true},
    {"domain-lo", true},     {"fine-bins", true},      {"inject-fault", true},
    {"listen", true},        {"max-batch", true},      {"max-cdu-bytes", true},
    {"min-dims", true},      {"model", true},          {"mp-backend", true},
    {"mp-deadline", true},   {"mp-shm-slot", true},    {"noise", true},
    {"noise-sigmas", true},  {"out", true},            {"prefix", true},
    {"ranks", true},         {"records", true},        {"report-json", true},
    {"resume", false},       {"save", true},           {"seed", true},
    {"serve-threads", true}, {"stats", false},         {"tau", true},
    {"true-clusters", true}, {"window-cells", true},   {"workload", true},
    {"workloads", true},     {"xi", true},
};

/// Strict non-negative integer parse: the whole token must be digits (no
/// sign, no blanks) and fit 64 bits.  "abc" must be a loud Usage error,
/// not a silent 0 (what a bare strtol would yield — and a fault spec that
/// silently targets rank 0 at op 0 is a test that tests nothing).
bool parse_nonneg(const std::string& tok, std::uint64_t* out) {
  if (tok.empty() || tok[0] < '0' || tok[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
  if (errno != 0 || end != tok.c_str() + tok.size()) return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

/// Strict double parse: the whole token must be one finite number.
bool parse_finite(const std::string& tok, double* out) {
  if (tok.empty() || std::isspace(static_cast<unsigned char>(tok[0]))) {
    return false;
  }
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end != tok.c_str() + tok.size() || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

/// Minimal --flag value parser: flags() holds every "--name value" pair;
/// repeated flags accumulate.  Valueless flags (see kFlags) consume none.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      require(key.rfind("--", 0) == 0, "expected --flag, got '" + key + "'");
      key = key.substr(2);
      const auto flag = kFlags.find(key);
      require(flag != kFlags.end(), "unknown flag --" + key);
      if (!flag->second) {
        values_[key].push_back("true");
        continue;
      }
      require(i + 1 < argc, "flag --" + key + " needs a value");
      values_[key].push_back(argv[++i]);
    }
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.count(key) > 0;
  }
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second.back();
  }
  /// A count flag as the type T it sets: digits only, within T's range.
  template <typename T>
  [[nodiscard]] T get_count(const std::string& key, T fallback) const {
    if (!has(key)) return fallback;
    const std::string text = get(key);
    std::uint64_t v = 0;
    require(parse_nonneg(text, &v) &&
                v <= static_cast<std::uint64_t>(std::numeric_limits<T>::max()),
            "--" + key + ": invalid value '" + text +
                "' (expected an integer from 0 to " +
                std::to_string(std::numeric_limits<T>::max()) + ")");
    return static_cast<T>(v);
  }
  [[nodiscard]] double get_double(const std::string& key, double fallback) const {
    if (!has(key)) return fallback;
    const std::string text = get(key);
    double v = 0.0;
    require(parse_finite(text, &v), "--" + key + ": invalid value '" + text +
                                        "' (expected a finite number)");
    return v;
  }
  /// A data-value flag: a finite number within the range of Value (float).
  [[nodiscard]] Value get_value(const std::string& key, Value fallback) const {
    const double v = get_double(key, fallback);
    require(std::fabs(v) <= std::numeric_limits<Value>::max(),
            "--" + key + ": invalid value '" + get(key) +
                "' (expected a number within float range)");
    return static_cast<Value>(v);
  }
  [[nodiscard]] std::vector<std::string> all(const std::string& key) const {
    const auto it = values_.find(key);
    return it == values_.end() ? std::vector<std::string>{} : it->second;
  }

 private:
  std::map<std::string, std::vector<std::string>> values_;
};

/// Parses "1,4,7:30:45" (dims:lo:hi) into a ClusterSpec cube.
ClusterSpec parse_cluster(const std::string& text) {
  const auto colon1 = text.find(':');
  const auto colon2 = text.find(':', colon1 + 1);
  require(colon1 != std::string::npos && colon2 != std::string::npos,
          "cluster spec must be dims:lo:hi, e.g. 1,4,7:30:45");
  std::vector<DimId> dims;
  std::string dims_text = text.substr(0, colon1);
  std::size_t at = 0;
  while (at < dims_text.size()) {
    const auto comma = dims_text.find(',', at);
    const std::string tok = dims_text.substr(
        at, comma == std::string::npos ? std::string::npos : comma - at);
    dims.push_back(static_cast<DimId>(std::strtoul(tok.c_str(), nullptr, 10)));
    if (comma == std::string::npos) break;
    at = comma + 1;
  }
  const auto lo = static_cast<Value>(
      std::strtod(text.substr(colon1 + 1, colon2 - colon1 - 1).c_str(), nullptr));
  const auto hi = static_cast<Value>(
      std::strtod(text.substr(colon2 + 1).c_str(), nullptr));
  const std::size_t k = dims.size();
  return ClusterSpec::box(std::move(dims), std::vector<Value>(k, lo),
                          std::vector<Value>(k, hi));
}

/// Parses one --inject-fault spec "rank:op" (kill) or "rank:op:seconds"
/// (delay) into the plan.  `op` addresses the fault point either by the
/// rank's global op index (a non-negative integer) or by op name with an
/// optional 0-based per-kind occurrence ("allreduce", "allreduce@2").
/// Every field is validated here, at parse time: an unknown op name, a
/// non-numeric rank, or a rank outside [0, ranks) is a Usage error (exit
/// 2) before any work starts, not a fault plan that silently never fires.
void parse_fault_spec(const std::string& text, int ranks,
                      mp::FaultPlan& plan) {
  const std::string syntax =
      "--inject-fault must be rank:op[:delay_seconds] where op is a "
      "non-negative op index or an op name[@occurrence] (valid names: " +
      mp::comm_op_names_joined() + ")";
  const auto c1 = text.find(':');
  require(c1 != std::string::npos, syntax);
  const auto c2 = text.find(':', c1 + 1);

  std::uint64_t rank_value = 0;
  require(parse_nonneg(text.substr(0, c1), &rank_value),
          "--inject-fault: invalid rank '" + text.substr(0, c1) + "' (" +
              syntax + ")");
  require(rank_value < static_cast<std::uint64_t>(ranks),
          "--inject-fault: rank " + std::to_string(rank_value) +
              " out of range for --ranks " + std::to_string(ranks));
  const int rank = static_cast<int>(rank_value);

  const std::string op_text = text.substr(
      c1 + 1, c2 == std::string::npos ? std::string::npos : c2 - c1 - 1);
  double delay = 0.0;
  const bool is_delay = c2 != std::string::npos;
  if (is_delay) {
    require(parse_finite(text.substr(c2 + 1), &delay) && delay >= 0.0,
            "--inject-fault: invalid delay '" + text.substr(c2 + 1) +
                "' (must be non-negative seconds)");
  }

  std::uint64_t op_index = 0;
  if (parse_nonneg(op_text, &op_index)) {
    if (is_delay) {
      plan.delay(rank, op_index, delay);
    } else {
      plan.kill(rank, op_index);
    }
    return;
  }

  // Name mode: "name" or "name@occurrence".
  const auto at = op_text.find('@');
  const std::string name = op_text.substr(0, at);
  std::uint64_t occurrence = 0;
  if (at != std::string::npos) {
    require(parse_nonneg(op_text.substr(at + 1), &occurrence),
            "--inject-fault: invalid occurrence '" + op_text.substr(at + 1) +
                "' (must be a non-negative integer)");
  }
  mp::CommOp op;
  require(mp::parse_comm_op(name, &op),
          "--inject-fault: unknown op '" + name +
              "' (valid names: " + mp::comm_op_names_joined() +
              ", or a non-negative op index)");
  if (is_delay) {
    plan.delay_op(rank, op, occurrence, delay);
  } else {
    plan.kill_op(rank, op, occurrence);
  }
}

/// Writes `content` via a temp file + rename so readers never observe a
/// half-written report.
void write_text_file_atomic(const std::string& path,
                            const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc);
    require(f.good(), "cannot open " + tmp);
    f << content;
    require(f.good(), "failed writing " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  require(!ec, "cannot rename " + tmp + " to " + path);
}

/// Loads a data set by extension (.csv or record file).  A CSV whose header
/// ends in a "label" column (as `pmafia generate` writes) has that column
/// read as the ground-truth label, not as a data dimension.
Dataset load_data(const std::string& path) {
  if (path.size() > 4 && path.compare(path.size() - 4, 4, ".csv") == 0) {
    CsvOptions options;
    std::ifstream probe(path);
    std::string header;
    if (std::getline(probe, header)) {
      while (!header.empty() && (header.back() == '\r' || header.back() == '\n')) {
        header.pop_back();
      }
      const std::string suffix = ",label";
      options.last_column_is_label =
          header.size() > suffix.size() &&
          header.compare(header.size() - suffix.size(), suffix.size(), suffix) == 0;
    }
    return read_csv(path, options);
  }
  return read_record_file(path);
}

MafiaOptions options_from_args(const Args& args) {
  MafiaOptions o;
  o.grid.alpha = args.get_double("alpha", o.grid.alpha);
  o.grid.beta = args.get_double("beta", o.grid.beta);
  o.grid.fine_bins = args.get_count("fine-bins", o.grid.fine_bins);
  o.grid.window_cells = args.get_count("window-cells", o.grid.window_cells);
  o.grid.merge_noise_sigmas =
      args.get_double("noise-sigmas", o.grid.merge_noise_sigmas);
  o.chunk_records = args.get_count("chunk", o.chunk_records);
  o.min_cluster_dims = args.get_count("min-dims", o.min_cluster_dims);
  if (args.has("domain-lo") || args.has("domain-hi")) {
    o.fixed_domain = {{args.get_value("domain-lo", 0.0f),
                       args.get_value("domain-hi", 100.0f)}};
  }
  o.checkpoint.directory = args.get("checkpoint-dir");
  o.checkpoint.resume = args.has("resume");
  o.max_cdu_bytes = args.get_count<std::size_t>("max-cdu-bytes", 0);
  if (args.has("mp-backend")) {
    o.mp.backend = mp::parse_mp_backend(args.get("mp-backend"));
  }
  o.mp.deadline_seconds = args.get_double("mp-deadline", o.mp.deadline_seconds);
  o.mp.shm_slot_bytes = args.get_count("mp-shm-slot", o.mp.shm_slot_bytes);
  const int ranks = args.get_count("ranks", 1);
  for (const std::string& spec : args.all("inject-fault")) {
    parse_fault_spec(spec, ranks, o.fault_plan);
  }
  return o;
}

/// Writes a generated data set by extension (.csv with label column, or
/// record file), mirroring load_data's sniffing.
void write_dataset(const std::string& out, const Dataset& data,
                   std::size_t planted_clusters) {
  if (out.size() > 4 && out.compare(out.size() - 4, 4, ".csv") == 0) {
    CsvOptions co;
    co.last_column_is_label = true;
    write_csv(out, data, co);
  } else {
    write_record_file(out, data, /*with_labels=*/true);
  }
  std::printf("wrote %llu records x %zu dims to %s (%zu planted clusters)\n",
              static_cast<unsigned long long>(data.num_records()),
              data.num_dims(), out.c_str(), planted_clusters);
}

int cmd_generate(const Args& args) {
  if (args.has("workload")) {
    const std::string name = args.get("workload");
    require(name == "drift",
            "generate: --workload only supports 'drift' (base + append batch)");
    const auto records = args.get_count<RecordIndex>("records", 100000);
    const auto batch_records =
        args.get_count<RecordIndex>("append-records", records / 4);
    const auto seed = args.get_count<std::uint64_t>("seed", 81);
    const GeneratorConfig base_cfg = workloads::drift_base(records, seed);
    // Distinct stream for the batch so base + batch never share records.
    const GeneratorConfig batch_cfg =
        workloads::drift_batch(batch_records, seed + 2);
    write_dataset(args.get("out", "drift-base.bin"), generate(base_cfg),
                  base_cfg.clusters.size());
    write_dataset(args.get("append-out", "drift-batch.bin"),
                  generate(batch_cfg), batch_cfg.clusters.size());
    return 0;
  }
  GeneratorConfig cfg;
  cfg.num_dims = args.get_count<std::size_t>("dims", 10);
  cfg.num_records = args.get_count<RecordIndex>("records", 100000);
  cfg.seed = args.get_count<std::uint64_t>("seed", 1);
  cfg.noise_fraction = args.get_double("noise", 0.10);
  for (const std::string& spec : args.all("cluster")) {
    cfg.clusters.push_back(parse_cluster(spec));
  }
  const Dataset data = generate(cfg);
  write_dataset(args.get("out", "data.bin"), data, cfg.clusters.size());
  return 0;
}

int cmd_cluster(const Args& args) {
  const std::string path = args.get("data");
  require(!path.empty(), "cluster: --data is required");
  const Dataset data = load_data(path);
  InMemorySource source(data);
  const int ranks = args.get_count("ranks", 1);

  MafiaResult result;
  if (args.get("algorithm", "mafia") == "clique") {
    CliqueOptions co;
    co.xi = args.get_count<std::size_t>("xi", 10);
    co.tau_fraction = args.get_double("tau", 0.01);
    if (args.has("domain-lo") || args.has("domain-hi")) {
      co.fixed_domain = {{args.get_value("domain-lo", 0.0f),
                          args.get_value("domain-hi", 100.0f)}};
    }
    result = run_clique(source, co, ranks);
  } else {
    MafiaOptions o = options_from_args(args);
    if (o.checkpoint.enabled()) {
      // Record where the data came from so `pmafia append` can rebuild the
      // base data set from the final checkpoint alone.
      o.checkpoint.provenance = {
          {path, static_cast<std::uint64_t>(data.num_records())}};
    }
    result = run_pmafia(source, o, ranks);
  }
  std::fputs(render_report(result).c_str(), stdout);
  if (args.has("report-json")) {
    const std::string out = args.get("report-json");
    write_text_file_atomic(out, render_report_json(result) + "\n");
    std::printf("report written to %s\n", out.c_str());
  }
  if (args.has("save")) {
    save_model(args.get("save"), result.grids, result.clusters);
    std::printf("model saved to %s\n", args.get("save").c_str());
  }
  return 0;
}

int cmd_append(const Args& args) {
  const std::string batch_path = args.get("data");
  require(!batch_path.empty(), "append: --data is required");
  const std::string model_path = args.get("model");
  require(!model_path.empty(), "append: --model is required");
  MafiaOptions o = options_from_args(args);
  require(o.checkpoint.enabled(), "append: --checkpoint-dir is required");
  require(!o.checkpoint.resume, "append: --resume does not combine with append");

  // The final checkpoint's provenance is the authoritative record of what
  // the base model was built from.  Fingerprint 0 accepts any options here;
  // the append run itself re-validates against the exact fingerprint.
  const CheckpointScan scan =
      load_final_checkpoint(o.checkpoint.directory, /*fingerprint=*/0);
  require_input(scan.state.has_value(),
                "append: no complete final checkpoint under " +
                    o.checkpoint.directory +
                    " (run `pmafia cluster --checkpoint-dir` first)");
  const CheckpointState& state = *scan.state;
  require_input(!state.provenance.empty(),
                "append: final checkpoint carries no data provenance");

  // Sanity-check the model we are about to replace before doing any work.
  const Model model = load_model(model_path);
  require_input(model.grids.num_dims() == state.num_dims,
                "append: model dimensionality does not match the checkpoint");

  // Rebuild the base data from the recorded segments, then concatenate the
  // new batch.  Any drift between a segment file and its recorded record
  // count means the base data changed out from under the checkpoint.
  Dataset data = load_data(state.provenance[0].path);
  for (std::size_t s = 1; s < state.provenance.size(); ++s) {
    data.append_rows(load_data(state.provenance[s].path));
  }
  require_input(
      static_cast<std::uint64_t>(data.num_records()) == state.num_records,
      "append: base data segments no longer hold the checkpointed record "
      "count");
  const Dataset batch = load_data(batch_path);
  require_input(batch.num_dims() == data.num_dims(),
                "append: batch dimensionality does not match the base data");
  data.append_rows(batch);

  o.append = AppendConfig{state.num_records};
  o.checkpoint.provenance.clear();
  for (const DataSegment& seg : state.provenance) {
    o.checkpoint.provenance.emplace_back(seg.path, seg.records);
  }
  o.checkpoint.provenance.emplace_back(
      batch_path, static_cast<std::uint64_t>(batch.num_records()));

  InMemorySource source(data);
  const int ranks = args.get_count("ranks", 1);
  const MafiaResult result = run_pmafia(source, o, ranks);
  std::fputs(render_report(result).c_str(), stdout);
  if (args.has("report-json")) {
    const std::string out = args.get("report-json");
    write_text_file_atomic(out, render_report_json(result) + "\n");
    std::printf("report written to %s\n", out.c_str());
  }
  // Atomic rewrite (temp + rename inside save_model): a running
  // `pmafia serve --model` sees either the old or the new model on SIGHUP,
  // never a torn file.
  save_model(model_path, result.grids, result.clusters);
  std::printf("model updated at %s\n", model_path.c_str());
  return 0;
}

int cmd_assign(const Args& args) {
  const std::string path = args.get("data");
  require(!path.empty(), "assign: --data is required");
  const Dataset data = load_data(path);
  InMemorySource source(data);

  // Either reuse a saved model (no re-clustering) or cluster now.
  GridSet grids;
  std::vector<Cluster> clusters;
  if (args.has("model")) {
    Model model = load_model(args.get("model"));
    grids = std::move(model.grids);
    clusters = std::move(model.clusters);
    require(grids.num_dims() == data.num_dims(),
            "assign: model dimensionality does not match the data");
  } else {
    MafiaResult result = run_pmafia(source, options_from_args(args),
                                    args.get_count("ranks", 1));
    grids = std::move(result.grids);
    clusters = std::move(result.clusters);
  }

  const auto labels = assign_members(source, clusters, grids);
  const std::string out = args.get("out", "labels.csv");
  std::FILE* f = std::fopen(out.c_str(), "w");
  require(f != nullptr, "assign: cannot open " + out);
  std::fprintf(f, "record,cluster\n");
  for (std::size_t i = 0; i < labels.size(); ++i) {
    std::fprintf(f, "%zu,%d\n", i, labels[i]);
  }
  std::fclose(f);

  const MembershipCounts counts = count_members(source, clusters, grids);
  std::printf("%zu clusters; wrote %zu labels to %s\n", clusters.size(),
              labels.size(), out.c_str());
  for (std::size_t c = 0; c < counts.per_cluster.size(); ++c) {
    std::printf("  cluster %zu: %llu records  %s\n", c,
                static_cast<unsigned long long>(counts.per_cluster[c]),
                clusters[c].to_string(grids).c_str());
  }
  std::printf("  noise: %llu records\n",
              static_cast<unsigned long long>(counts.noise));
  return 0;
}

/// Splits "a,b,c" into tokens; empty tokens are usage errors so a stray
/// trailing comma fails loudly instead of silently shrinking the matrix.
std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::size_t at = 0;
  while (at <= text.size()) {
    const auto comma = text.find(',', at);
    const std::string tok = text.substr(
        at, comma == std::string::npos ? std::string::npos : comma - at);
    require(!tok.empty(), "empty entry in list '" + text + "'");
    out.push_back(tok);
    if (comma == std::string::npos) break;
    at = comma + 1;
  }
  return out;
}

int cmd_scoreboard(const Args& args) {
  const std::vector<std::string> workloads =
      args.has("workloads") ? split_list(args.get("workloads"))
                            : eval::workload_names();
  const std::vector<std::string> algorithms =
      args.has("algorithms") ? split_list(args.get("algorithms"))
                             : eval::algorithm_names();
  const int ranks = args.get_count("ranks", 1);

  eval::ScoreboardResult result;
  if (args.has("data")) {
    // External mode: the file's embedded labels are the planted truth.
    const Dataset data = load_data(args.get("data"));
    bool labeled = false;
    for (RecordIndex i = 0; i < data.num_records() && !labeled; ++i) {
      labeled = (data.label(i) != kUnlabeledLabel);
    }
    if (!labeled) {
      throw Error("scoreboard: " + args.get("data") +
                      " carries no ground-truth labels",
                  ErrorClass::Input);
    }
    eval::AdapterHints hints;
    hints.true_clusters = args.get_count("true-clusters", hints.true_clusters);
    hints.min_cluster_dims = args.get_count("min-dims", hints.min_cluster_dims);
    hints.seed = args.get_count<std::uint64_t>("seed", 1);
    result.records = data.num_records();
    result.seed = hints.seed;
    result.ranks = ranks;
    result.workloads.push_back(eval::score_dataset(
        args.get("data"), data, algorithms, hints, ranks));
  } else {
    const auto records = args.get_count<RecordIndex>("records", 2000);
    const auto seed = args.get_count<std::uint64_t>("seed", 7);
    result = eval::run_scoreboard(workloads, algorithms, records, seed, ranks);
  }

  const std::string json = eval::scoreboard_json(result) + "\n";
  if (args.has("out")) {
    write_text_file_atomic(args.get("out"), json);
    std::fprintf(stderr, "scoreboard written to %s\n", args.get("out").c_str());
  } else {
    std::fputs(json.c_str(), stdout);
  }
  return 0;
}

/// Control-pipe fd of the running serve daemon, for the signal handlers.
/// write() is the only async-signal-safe thing the handlers do.
std::atomic<int> g_serve_wake_fd{-1};

extern "C" void serve_signal_handler(int sig) {
  const int fd = g_serve_wake_fd.load(std::memory_order_relaxed);
  if (fd < 0) return;
  const char byte = sig == SIGHUP ? 'r' : 'q';
  [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
}

int cmd_serve(const Args& args) {
  ServeOptions o;
  o.model_path = args.get("model");
  require(!o.model_path.empty(), "serve: --model is required");
  o.listen = args.get("listen");
  require(!o.listen.empty(), "serve: --listen is required");
  o.serve_threads = args.get_count("serve-threads", o.serve_threads);
  o.max_batch = args.get_count("max-batch", o.max_batch);
  o.validate();

  serve::ServeServer server(o);
  g_serve_wake_fd.store(server.wake_fd());
  std::signal(SIGTERM, serve_signal_handler);  // graceful shutdown
  std::signal(SIGINT, serve_signal_handler);   // graceful shutdown
  std::signal(SIGHUP, serve_signal_handler);   // model reload

  std::printf("pmafia serve: listening on %s (model %s, %zu threads, "
              "max batch %zu)\n",
              server.endpoint().c_str(), o.model_path.c_str(),
              o.serve_threads, o.max_batch);
  std::fflush(stdout);
  server.serve();
  g_serve_wake_fd.store(-1);

  const ServeReport report = server.snapshot();
  std::fputs(render_serve_report(report).c_str(), stdout);
  if (args.has("report-json")) {
    const std::string out = args.get("report-json");
    write_text_file_atomic(out, render_serve_report_json(report) + "\n");
    std::printf("report written to %s\n", out.c_str());
  }
  return 0;
}

int cmd_query(const Args& args) {
  const std::string endpoint = args.get("listen");
  require(!endpoint.empty(), "query: --listen is required");
  serve::ServeClient client(endpoint);

  if (args.has("stats")) {
    std::fputs((client.stats_json() + "\n").c_str(), stdout);
    return 0;
  }

  const std::string path = args.get("data");
  require(!path.empty(), "query: --data or --stats is required");
  const Dataset data = load_data(path);
  const auto max_batch = args.get_count<std::size_t>("max-batch", 4096);
  require(max_batch >= 1, "query: --max-batch must be positive");

  std::vector<std::int32_t> labels;
  labels.reserve(static_cast<std::size_t>(data.num_records()));
  std::uint64_t batches = 0;
  const std::size_t d = data.num_dims();
  for (RecordIndex at = 0; at < data.num_records();) {
    const auto take = static_cast<std::size_t>(
        std::min<RecordIndex>(max_batch, data.num_records() - at));
    serve::QueryBatch batch;
    batch.num_dims = static_cast<std::uint32_t>(d);
    batch.values.assign(
        data.values().begin() + static_cast<std::size_t>(at) * d,
        data.values().begin() + (static_cast<std::size_t>(at) + take) * d);
    const std::vector<serve::RowAnswer> answers = client.query(batch);
    for (const serve::RowAnswer& a : answers) labels.push_back(a.label);
    at += take;
    ++batches;
  }

  if (args.has("out")) {
    const std::string out = args.get("out");
    std::FILE* f = std::fopen(out.c_str(), "w");
    require(f != nullptr, "query: cannot open " + out);
    std::fprintf(f, "record,cluster\n");
    for (std::size_t i = 0; i < labels.size(); ++i) {
      std::fprintf(f, "%zu,%d\n", i, labels[i]);
    }
    std::fclose(f);
  }

  // Summarize with the shared tally (noise and unlabeled stay distinct —
  // served labels are never kUnlabeledLabel, so unlabeled must come out 0).
  std::size_t max_label = 0;
  for (const std::int32_t l : labels) {
    if (l >= 0) max_label = std::max(max_label, static_cast<std::size_t>(l) + 1);
  }
  const MembershipCounts counts = tally_labels(labels, max_label);
  std::printf("queried %zu rows in %llu batches via %s\n", labels.size(),
              static_cast<unsigned long long>(batches), endpoint.c_str());
  for (std::size_t c = 0; c < counts.per_cluster.size(); ++c) {
    std::printf("  cluster %zu: %llu records\n", c,
                static_cast<unsigned long long>(counts.per_cluster[c]));
  }
  std::printf("  noise: %llu records\n",
              static_cast<unsigned long long>(counts.noise));
  return 0;
}

int cmd_stage(const Args& args) {
  const std::string path = args.get("data");
  require(!path.empty(), "stage: --data is required");
  const int ranks = args.get_count("ranks", 4);
  const std::string prefix = args.get("prefix", path + ".local");
  const StagedPartitions staged = stage_partitions(path, prefix, ranks);
  std::printf("staged %llu records into %d local partitions (%.3f s):\n",
              static_cast<unsigned long long>(staged.num_records), ranks,
              staged.staging_seconds);
  for (const std::string& p : staged.paths) std::printf("  %s\n", p.c_str());
  return 0;
}

void usage() {
  std::fputs(
      "usage: pmafia <generate|cluster|append|assign|serve|query|stage|"
      "scoreboard> [--flag value]...\n"
      "  generate --out F [--dims D] [--records N] [--seed S] [--noise F]\n"
      "           [--cluster dims:lo:hi]...          (repeatable)\n"
      "           [--workload drift --append-out F2 [--append-records N2]]\n"
      "           (drift: base file to --out, shifted/grown append batch\n"
      "            to --append-out, for the streaming-append pipeline)\n"
      "  cluster  --data F [--ranks P] [--algorithm mafia|clique]\n"
      "           [--alpha A] [--beta B] [--fine-bins N] [--window-cells W]\n"
      "           [--noise-sigmas S] [--min-dims K] [--chunk B]\n"
      "           [--domain-lo L --domain-hi H] [--xi N --tau F]\n"
      "           [--save model.txt] [--report-json report.json]\n"
      "           [--checkpoint-dir DIR] [--resume] [--max-cdu-bytes N]\n"
      "           (a budget below the run index rescans every level in\n"
      "            --chunk batches instead of failing)\n"
      "           [--mp-backend threads|process] [--mp-deadline SECONDS]\n"
      "           [--mp-shm-slot BYTES]\n"
      "           [--inject-fault rank:op[:delay_s]]...   (repeatable;\n"
      "            op = index, or name[@occurrence] from: barrier,\n"
      "            allreduce, reduce, bcast, gatherv, allgatherv,\n"
      "            scatterv, send, recv)\n"
      "exit codes: 0 ok, 2 usage, 3 bad input, 4 resource limit,\n"
      "            5 injected fault, 1 internal error\n"
      "  append   --model model.txt --checkpoint-dir DIR --data BATCH\n"
      "           [--ranks P] [cluster flags] [--report-json report.json]\n"
      "           (folds BATCH into the checkpointed model incrementally,\n"
      "            rewrites model.txt atomically, refreshes the final\n"
      "            checkpoint; bit-identical to a full rebuild)\n"
      "  assign   --data F [--out labels.csv] [--model model.txt |\n"
      "           --ranks P + grid flags]\n"
      "  serve    --model model.txt --listen unix:/path|tcp:HOST:PORT\n"
      "           [--serve-threads N] [--max-batch N]\n"
      "           [--report-json report.json]\n"
      "           (SIGTERM/SIGINT drain + stats report; SIGHUP reloads\n"
      "            the model file in place)\n"
      "  query    --listen unix:/path|tcp:HOST:PORT (--data F [--out F] |\n"
      "           --stats) [--max-batch N]\n"
      "  stage    --data F [--ranks P] [--prefix PFX]\n"
      "  scoreboard [--workloads a,b] [--algorithms x,y] [--records N]\n"
      "           [--seed S] [--ranks P] [--out F.json]\n"
      "           [--data F --true-clusters K --min-dims D]\n",
      stderr);
}

/// Exit code per failure class: scripts can tell a usage mistake (2) from
/// bad input data (3), a resource budget hit (4), an injected fault (5),
/// and everything else (1).
int exit_code_for(ErrorClass cls) {
  switch (cls) {
    case ErrorClass::Usage: return 2;
    case ErrorClass::Input: return 3;
    case ErrorClass::Resource: return 4;
    case ErrorClass::Fault: return 5;
    case ErrorClass::Internal: return 1;
  }
  return 1;
}

/// On failure, --report-json gets a machine-readable error object instead
/// of a run report (schema pmafia-error-v1).
void write_error_report(const std::string& path, const char* cls,
                        const std::string& message,
                        const std::string& detail_json = "") {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("pmafia-error-v1");
  w.key("error").begin_object();
  w.key("class").value(cls);
  w.key("message").value(message);
  if (!detail_json.empty()) {
    // Machine-readable context attached by the runtime (e.g. the process
    // backend's per-rank exit statuses); already a complete JSON value.
    w.key("detail").raw(detail_json);
  }
  w.end_object();
  w.end_object();
  try {
    write_text_file_atomic(path, w.str() + "\n");
  } catch (const std::exception&) {
    // The original failure is what the caller needs to see; a report path
    // that cannot be written must not mask it.
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  std::string report_path;
  try {
    const Args args(argc, argv, 2);
    report_path = args.get("report-json");
    const std::string cmd = argv[1];
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "cluster") return cmd_cluster(args);
    if (cmd == "append") return cmd_append(args);
    if (cmd == "assign") return cmd_assign(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "query") return cmd_query(args);
    if (cmd == "stage") return cmd_stage(args);
    if (cmd == "scoreboard") return cmd_scoreboard(args);
    usage();
    return 2;
  } catch (const Error& e) {
    std::fprintf(stderr, "pmafia: %s error: %s\n", e.class_name(), e.what());
    if (!report_path.empty()) {
      write_error_report(report_path, e.class_name(), e.what(),
                         e.detail_json());
    }
    return exit_code_for(e.error_class());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pmafia: %s\n", e.what());
    if (!report_path.empty()) {
      write_error_report(report_path, "internal", e.what());
    }
    return 1;
  }
}
