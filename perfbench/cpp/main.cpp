// pMAFIA end-to-end benchmark.
//
//   perfbench --workload build-wide|build-deep|stream --seed N --seconds S
//             --trace 0|1
//
// Every workload runs the whole user path through the library's public
// calls, on inputs generated from the seed (the program sees only the
// record files):
//
//   record file -> model   read the input, build at p = 2 and p = 1 (threads
//                          backend, see build_options), save, assign;
//   model -> served label  checkpointed base build, in-process daemon with 2
//                          workers, open-loop query stream at a fixed rate
//                          for S seconds over 2 connections (traced runs
//                          then search a fixed rate ladder for capacity);
//   batch -> reloaded model  during the stream, ~1% batches arrive on a fixed
//                          schedule and go through the `pmafia append` path,
//                          an atomic save and a daemon reload.
//
// Correctness is checked outside the timed regions and fails the run:
// planted subspaces recovered at full dimensionality, equal p = 1 / p = 2
// checksums, served labels byte-identical to offline assign_members, and
// every append equal to a full rebuild with at least one level reused.
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 the same run records spans around every layer call and adds a
// serial replay of the build, and the line carries the per-layer metrics.
// Spans are written to .bench_build/perfbench-spans/.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/membership.hpp"
#include "core/checkpoint.hpp"
#include "core/mafia.hpp"
#include "core/model_io.hpp"
#include "datagen/generator.hpp"
#include "datagen/workloads.hpp"
#include "io/data_source.hpp"
#include "io/record_file.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "stream.hpp"

namespace fs = std::filesystem;
using namespace mafia;
using namespace perfbench;

namespace {

// ------------------------------------------------------------- settings

constexpr std::size_t kBatchRows = 512;     ///< rows per query batch
constexpr std::size_t kPoolBatches = 32;    ///< distinct query batches
constexpr std::size_t kServeWorkers = 2;    ///< daemon worker threads
constexpr std::size_t kConnections = 2;     ///< generator connections
constexpr double kLatencyLimit = 20e-3;     ///< p99 limit of the capacity search
/// Batches per second of the fixed-rate stream: under the capacity of two
/// connections on every workload even when the host is slow.
constexpr double kStreamRate = 1000.0;
constexpr int kBuildRanks = 2;              ///< p of build_s and the stream's base
constexpr int kHelperRanks = 4;             ///< p of builds no metric times

/// Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
struct Workload {
  std::string name;
  /// Planted structure; the record count and generator seed vary.
  GeneratorConfig (*config)(RecordIndex records, std::uint64_t seed);
  RecordIndex base_records;  ///< before the generator's 10% noise
  std::size_t append_cycles;
  bool setup_is_serving;     ///< setup_s times base build + daemon start
};

GeneratorConfig stream_config(RecordIndex records, std::uint64_t seed) {
  // 24 dims, 12 clusters in 3-d subspaces {2c, 2c+1, (2c+7) mod 24}: every
  // odd dim is shared by two clusters at disjoint ranges.  Extent 4 units
  // with a 1/12 share keeps each cluster ~1.3x above its density threshold.
  GeneratorConfig cfg;
  cfg.num_dims = 24;
  cfg.num_records = records;
  cfg.seed = seed;
  for (int c = 0; c < 12; ++c) {
    std::vector<DimId> dims{static_cast<DimId>(2 * c), static_cast<DimId>(2 * c + 1),
                            static_cast<DimId>((2 * c + 7) % 24)};
    std::sort(dims.begin(), dims.end());
    const auto lo = static_cast<Value>(5 + 7 * c);
    cfg.clusters.push_back(ClusterSpec::box(dims, std::vector<Value>(3, lo),
                                            std::vector<Value>(3, lo + 4)));
  }
  return cfg;
}

/// Options of every build of a workload whose build input holds `records`
/// rows: the defaults, with the grid sized for the sample as the quality
/// scoreboard sizes it (AdaptiveGridOptions::for_sample_size; the defaults
/// above 200k rows), and the generator's known domain [0, 100]
/// (`--domain-lo 0 --domain-hi 100`).  A learned domain moves whenever a
/// batch holds a new extreme value, and an over-fine grid for a small
/// sample moves with every batch; either re-bins everything, and appends
/// fall back to full rebuilds at random.
MafiaOptions build_options(RecordIndex records) {
  MafiaOptions o;
  o.grid = AdaptiveGridOptions::for_sample_size(static_cast<Count>(records));
  o.fixed_domain = {{0.0f, 100.0f}};
  return o;
}

GeneratorConfig wide_config(RecordIndex records, std::uint64_t seed) {
  return workloads::fig3_parallel(records, seed);
}

GeneratorConfig deep_config(RecordIndex records, std::uint64_t seed) {
  return workloads::highdim(records, seed);
}

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> w = {
      {"build-wide", wide_config, 910000, 3, false},
      {"build-deep", deep_config, 10000, 3, false},
      {"stream", stream_config, 200000, 6, true},
  };
  return w;
}

// ------------------------------------------------------------- plumbing

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 5.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds >= 1.0 && a.seconds <= 60.0)) {
    throw std::invalid_argument("--seconds must be in [1, 60]");
  }
  return a;
}

/// splitmix64 of (seed, stream): independent generator seeds per input.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct Paths {
  std::string dir, base, input, pool, ckpt, serve_model, model_p2, model_p1, sock;
  std::vector<std::string> batches;

  Paths(const std::string& workload, std::size_t cycles) {
    dir = ".bench_build/perfbench-work/" + workload + "-" + std::to_string(::getpid());
    base = dir + "/base.rec";
    input = dir + "/input.rec";
    pool = dir + "/pool.rec";
    ckpt = dir + "/ckpt";
    serve_model = dir + "/serve.model";
    model_p2 = dir + "/build-p2.model";
    model_p1 = dir + "/build-p1.model";
    sock = dir + "/s.sock";
    for (std::size_t i = 0; i < cycles; ++i) {
      batches.push_back(dir + "/batch-" + std::to_string(i) + ".rec");
    }
  }
};

/// Removes the run's work directory on every exit path.
struct WorkDir {
  std::string path;
  explicit WorkDir(std::string p) : path(std::move(p)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~WorkDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
};

/// Writes every input record file.  The build input is the base followed by
/// every batch, in arrival order: exactly the rows the last append sees.
void generate_inputs(const Workload& w, const Paths& p, std::uint64_t seed) {
  const Dataset base = generate(w.config(w.base_records, derive_seed(seed, 1)));
  write_record_file(p.base, base, true);
  Dataset input = base;
  for (std::size_t i = 0; i < p.batches.size(); ++i) {
    const Dataset batch =
        generate(w.config(std::max<RecordIndex>(1, w.base_records / 100),
                          derive_seed(seed, 10 + i)));
    write_record_file(p.batches[i], batch, true);
    input.append_rows(batch);
  }
  write_record_file(p.input, input, true);
  const auto pool_records =
      static_cast<RecordIndex>(kPoolBatches * kBatchRows * 10 / 11 + 1);
  write_record_file(p.pool, generate(w.config(pool_records, derive_seed(seed, 99))),
                    true);
}

/// Generates the inputs in a child process, so the benchmark's own peak
/// memory covers the pipeline and not the generator.
void generate_in_child(const Workload& w, const Paths& p, std::uint64_t seed) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    int code = 0;
    try {
      generate_inputs(w, p, seed);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: input generation failed: %s\n", e.what());
      code = 1;
    }
    std::fflush(nullptr);
    ::_exit(code);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("input generation failed");
  }
}

/// Read-only view of the first `n` records of another source.
class PrefixSource final : public DataSource {
 public:
  PrefixSource(const DataSource& inner, RecordIndex n) : inner_(inner), n_(n) {}
  [[nodiscard]] RecordIndex num_records() const override { return n_; }
  [[nodiscard]] std::size_t num_dims() const override { return inner_.num_dims(); }
  void scan(RecordIndex begin, RecordIndex end, std::size_t chunk_records,
            const ChunkFn& fn) const override {
    if (end > n_) throw std::out_of_range("PrefixSource: scan past the prefix");
    inner_.scan(begin, end, chunk_records, fn);
  }

 private:
  const DataSource& inner_;
  RecordIndex n_;
};

std::vector<serve::QueryBatch> make_pool(const Dataset& rows) {
  std::vector<serve::QueryBatch> pool;
  const std::size_t d = rows.num_dims();
  for (std::size_t b = 0; (b + 1) * kBatchRows <= rows.num_records() && b < kPoolBatches;
       ++b) {
    serve::QueryBatch q;
    q.num_dims = static_cast<std::uint32_t>(d);
    const Value* at = rows.values().data() + b * kBatchRows * d;
    q.values.assign(at, at + kBatchRows * d);
    pool.push_back(std::move(q));
  }
  if (pool.size() != kPoolBatches) throw std::runtime_error("query pool too small");
  return pool;
}

double peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(n);
}

/// Times `op` at least `min_reps` times and until `min_seconds` have gone
/// by (50 runs at most), calling `after` untimed after each run; returns the
/// median run time.
template <typename Op, typename After>
double median_of_runs(std::size_t min_reps, double min_seconds, Op op, After after) {
  std::vector<double> runs;
  const double start = now();
  while (runs.size() < min_reps || (now() - start < min_seconds && runs.size() < 50)) {
    const double t0 = now();
    op();
    runs.push_back(now() - t0);
    after();
  }
  return median(runs);
}

struct Checks {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Checks& checks, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-24s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& f : checks.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              checks.failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ------------------------------------------------------------- machine

/// Size of the largest unified/data cache of cpu0, from sysfs.
double llc_bytes() {
  double best = 0.0;
  int best_level = -1;
  for (int i = 0; i < 16; ++i) {
    const std::string d = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
    std::ifstream level_f(d + "/level"), type_f(d + "/type"), size_f(d + "/size");
    int level = 0;
    std::string type, size;
    if (!(level_f >> level) || !(type_f >> type) || !(size_f >> size)) continue;
    if (type == "Instruction" || level < best_level) continue;
    double bytes = std::strtod(size.c_str(), nullptr);
    const char unit = size.empty() ? ' ' : size.back();
    if (unit == 'K') bytes *= 1024.0;
    if (unit == 'M') bytes *= 1024.0 * 1024.0;
    best = bytes;
    best_level = level;
  }
  return best;
}

struct BandwidthProbe {
  double llc_mib = 0.0;
  double array_mib = 0.0;
  double gbs = 0.0;  ///< single-thread streaming read bandwidth, 1e9 B/s
};

/// STREAM-style read probe on one thread over an array four times the LLC
/// (at least 256 MiB when sysfs reports no cache): the median of five
/// passes.
BandwidthProbe probe_bandwidth() {
  BandwidthProbe p;
  const double llc = llc_bytes();
  p.llc_mib = llc / (1024.0 * 1024.0);
  const double bytes = std::max(4.0 * llc, 256.0 * 1024.0 * 1024.0);
  std::vector<std::uint64_t> a(static_cast<std::size_t>(bytes / 8.0));
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = i;
  p.array_mib = static_cast<double>(a.size() * 8) / (1024.0 * 1024.0);
  std::vector<double> rates;
  volatile std::uint64_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now();
    std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (std::size_t i = 0; i + 3 < a.size(); i += 4) {
      s0 += a[i];
      s1 += a[i + 1];
      s2 += a[i + 2];
      s3 += a[i + 3];
    }
    sink = sink + s0 + s1 + s2 + s3;
    rates.push_back(static_cast<double>(a.size() * 8) / (now() - t0) / 1e9);
  }
  p.gbs = median(rates);
  return p;
}

// ------------------------------------------------------------- the run

int run(const Args& args) {
  const auto& table = all_workloads();
  const auto wit = std::find_if(table.begin(), table.end(),
                                [&](const Workload& w) { return w.name == args.workload; });
  if (wit == table.end()) throw std::invalid_argument("unknown workload " + args.workload);
  const Workload& w = *wit;
  const GeneratorConfig shape = w.config(1, 0);

  const Paths p(w.name, w.append_cycles);
  WorkDir work(p.dir);
  double phase_start = now();
  const auto phase_done = [&phase_start](const char* phase) {
    std::printf("phase-time %-12s %8.3f s\n", phase, now() - phase_start);
    phase_start = now();
  };
  generate_in_child(w, p, args.seed);
  phase_done("generate");

  const bool tr = args.trace;
  SpanLog log(tr);         // main thread
  SpanLog append_log(tr);  // appender thread
  std::vector<SpanLog> gen_logs(kConnections, SpanLog(tr));
  Checks checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;

  // ---- record file -> model
  MafiaResult r2;
  MafiaResult r1;
  double read_s = 0.0;
  std::vector<double> save_s;
  double input_records = 0.0;
  const double input_mb = file_bytes(p.input) / 1e6;
  {
    Dataset data;
    read_s = median_of_runs(
        3, 0.5,
        [&] {
          SpanLog::Scope span(log, "io.read");
          data = read_record_file(p.input);
        },
        [&] { data = Dataset{}; });
    data = read_record_file(p.input);
    input_records = static_cast<double>(data.num_records());
    const InMemorySource src(data);
    const MafiaOptions opt = build_options(data.num_records());
    const auto build_and_save = [&](int ranks, MafiaResult& out, const std::string& path) {
      ++attempted;
      {
        SpanLog::Scope span(log, ranks == 1 ? "build.p1" : "build.p2");
        out = run_pmafia(src, opt, ranks);
      }
      const double ts = now();
      save_model(path, out.grids, out.clusters);
      save_s.push_back(now() - ts);
    };
    const auto nothing = [] {};
    e2e["build_s"] =
        median_of_runs(2, 3.0, [&] { build_and_save(kBuildRanks, r2, p.model_p2); }, nothing);
    e2e["build_serial_s"] =
        median_of_runs(1, 3.0, [&] { build_and_save(1, r1, p.model_p1); }, nothing);

    checks.expect(compare_levels(r2.levels, r1.levels).empty(),
                  "p=1 and p=2 count_checksums differ: " +
                      compare_levels(r2.levels, r1.levels));
    checks.expect(clusters_equal(r2.clusters, r1.clusters), "p=1 and p=2 clusters differ");
    for (const ClusterSpec& planted : shape.clusters) {
      const bool found = std::any_of(r2.clusters.begin(), r2.clusters.end(),
                                     [&](const Cluster& c) { return c.dims == planted.dims; });
      checks.expect(found, "planted subspace of dimensionality " +
                               std::to_string(planted.dims.size()) + " not recovered");
    }

    std::vector<std::int32_t> first_labels;
    std::vector<std::int32_t> labels;
    e2e["assign_s"] = median_of_runs(
        3, 1.0,
        [&] {
          SpanLog::Scope span(log, "assign");
          labels = assign_members(src, r2.clusters, r2.grids);
        },
        [&] {
          if (first_labels.empty()) first_labels = labels;
          checks.expect(labels == first_labels, "assign_members is not repeatable");
        });

    if (tr) {
      // Serial replay through the layer calls; it must be run_pmafia(p=1).
      ReplayResult replay;
      double replay_s = 0.0;
      {
        SpanLog::Scope span(log, "build.replay");
        const double t0 = now();
        replay = replay_build(src, opt, log);
        replay_s = now() - t0;
      }
      checks.expect(compare_levels(r1.levels, replay.levels).empty(),
                    "build replay differs from run_pmafia: " +
                        compare_levels(r1.levels, replay.levels));
      checks.expect(clusters_equal(r1.clusters, replay.clusters),
                    "build replay clusters differ from run_pmafia");
      const ReplayCounters& c = replay.counters;
      layer["grid.scan_s"] = log.total("grid.scan");
      layer["grid.build_s"] = log.total("grid.build");
      layer["grid.bins"] = static_cast<double>(replay.grids.total_bins());
      layer["populate.s"] = log.total("populate");
      layer["populate.record_passes"] = static_cast<double>(c.record_passes);
      layer["populate.subspaces"] = static_cast<double>(c.subspaces);
      layer["populate.cdus"] = static_cast<double>(c.cdus);
      layer["populate.bytes_computed"] = static_cast<double>(c.record_passes) *
                                         input_records * static_cast<double>(data.num_dims()) *
                                         sizeof(Value);
      layer["identify.s"] = log.total("identify");
      layer["join.s"] = log.total("join");
      layer["join.probes"] = static_cast<double>(c.join_probes);
      layer["join.emitted"] = static_cast<double>(c.join_emitted);
      layer["join.useful_frac"] =
          c.join_probes == 0 ? 0.0
                             : static_cast<double>(c.join_emitted) / static_cast<double>(c.join_probes);
      layer["dedup.s"] = log.total("dedup");
      layer["dedup.unique_frac"] =
          c.dedup_raw == 0 ? 1.0
                           : static_cast<double>(c.dedup_unique) / static_cast<double>(c.dedup_raw);
      layer["assemble.s"] = log.total("assemble");
      layer["trace.overhead_frac"] = replay_s / r1.total_seconds - 1.0;
    }
    layer["assign.s"] = e2e["assign_s"];
    layer["assign.rows_s"] = input_records / e2e["assign_s"];
  }
  layer["io.read_s"] = read_s;
  layer["io.read_mb_s"] = input_mb / read_s;
  layer["comm.bytes"] = static_cast<double>(r2.comm.total_bytes());
  layer["comm.collectives"] = static_cast<double>(r2.comm.collective_ops() + r2.comm.barriers);
  layer["comm.wait_s"] = r2.comm.comm_seconds;

  phase_done("build");

  // ---- model -> served label, batch -> reloaded model
  Dataset pool_rows = read_record_file(p.pool);
  const std::vector<serve::QueryBatch> pool = make_pool(pool_rows);
  const RecordIndex base_records = read_record_file_header(p.base).num_records;
  const RecordIndex input_records_n = read_record_file_header(p.input).num_records;
  const int setup_repeats = w.setup_is_serving ? 3 : 1;
  std::vector<double> serving_setup_s;
  std::unique_ptr<Daemon> daemon;
  MafiaResult rb;
  for (int i = 0; i < setup_repeats; ++i) {
    daemon.reset();
    fs::remove_all(p.ckpt);
    fs::create_directories(p.ckpt);
    ++attempted;
    SpanLog::Scope span(log, "serve.setup", i);
    const double t0 = now();
    {
      const Dataset base = read_record_file(p.base);
      const InMemorySource src(base);
      MafiaOptions o = build_options(input_records_n);
      o.checkpoint.directory = p.ckpt;
      o.checkpoint.provenance = {{p.base, static_cast<std::uint64_t>(base_records)}};
      rb = run_pmafia(src, o, w.setup_is_serving ? kBuildRanks : kHelperRanks);
    }
    const double ts = now();
    save_model(p.serve_model, rb.grids, rb.clusters);
    save_s.push_back(now() - ts);
    daemon = std::make_unique<Daemon>(p.serve_model, p.sock, kServeWorkers);
    {
      ++attempted;
      serve::ServeClient first(daemon->endpoint());
      (void)first.query(pool[0]);
    }
    serving_setup_s.push_back(now() - t0);
  }
  {
    std::size_t rects = 0;
    for (const Cluster& c : rb.clusters) rects += c.dnf.size();
    std::printf("served model: %zu clusters, %zu DNF rectangles\n", rb.clusters.size(), rects);
  }
  layer["checkpoint.write_s"] = rb.phases.get("checkpoint");
  layer["checkpoint.bytes"] = file_bytes(final_checkpoint_path(p.ckpt));
  layer["model.bytes"] = file_bytes(p.serve_model);
  e2e["setup_s"] = w.setup_is_serving ? median(serving_setup_s) : read_s;

  phase_done("serve-setup");
  std::vector<std::unique_ptr<serve::ServeClient>> clients;
  for (std::size_t c = 0; c < kConnections; ++c) {
    clients.push_back(std::make_unique<serve::ServeClient>(daemon->endpoint()));
  }
  const double rate = kStreamRate;
  const Schedule sched{now() + 0.01, rate};
  const std::size_t stream_count = sched.count_within(args.seconds);
  std::vector<AppendCycle> cycles;
  std::vector<Sent> stream;
  {
    // Batch i arrives at (i + 1) / (cycles + 1) of the stream; cycles run
    // one after another, so a slow one delays the next (and shows in its
    // freshness).
    std::atomic<bool> appends_done{false};
    std::jthread appender([&] {
      for (std::size_t i = 0; i < w.append_cycles; ++i) {
        const double ready = sched.start + args.seconds * static_cast<double>(i + 1) /
                                               static_cast<double>(w.append_cycles + 1);
        std::this_thread::sleep_for(std::chrono::duration<double>(std::max(0.0, ready - now())));
        const AppendJob job{build_options(input_records_n), p.ckpt, p.serve_model, p.batches[i]};
        cycles.push_back(run_append_cycle(job, *daemon, ready, static_cast<int>(i), append_log));
        if (!cycles.back().ok) break;
      }
      appends_done.store(true);
    });
    stream = run_open_loop(daemon->endpoint(), clients, pool, 0, sched, stream_count,
                           tr ? &gen_logs : nullptr);
    // Appends that outlast the stream (a slow host, or a slow append path)
    // keep the same schedule going until the last reload has been answered,
    // so freshness is still measured.  `cycles` is read only once the
    // appender has finished writing it.
    const auto last_reload_answered = [&] {
      if (!appends_done.load()) return false;
      if (cycles.empty() || !cycles.back().ok) return true;
      return std::any_of(stream.begin(), stream.end(), [&](const Sent& s) {
        return s.ok && s.send >= cycles.back().reload_observed;
      });
    };
    while (!last_reload_answered()) {
      const Schedule more{sched.due(stream.size()), rate};
      std::vector<Sent> sent = run_open_loop(daemon->endpoint(), clients, pool, stream.size(),
                                             more, 100, tr ? &gen_logs : nullptr);
      std::move(sent.begin(), sent.end(), std::back_inserter(stream));
    }
  }
  phase_done("stream");
  // The capacity search is not gated (see NOTES.md), so only the traced run
  // spends the seconds on it.
  const CapacityResult capacity =
      tr ? find_capacity(daemon->endpoint(), clients, pool, kLatencyLimit) : CapacityResult{};
  clients.clear();
  daemon.reset();

  phase_done("capacity");

  // Stream figures.
  const std::vector<double> lat = latencies_of(stream);
  const PhaseVerdict fixed = judge_phase(lat, lateness_of(stream), kLatencyLimit);
  std::printf("phase fixed-rate %.0f/s: sent %zu succeeded %zu failed %zu within-limit %.4f\n",
              rate, fixed.sent, fixed.succeeded, fixed.failed,
              fixed.within_limit_frac);
  for (const CapacityResult::Probe& pr : capacity.probes) {
    std::printf("phase capacity %.1f/s: sent %zu succeeded %zu failed %zu within-limit %.4f %s\n",
                pr.rate, pr.verdict.sent, pr.verdict.succeeded, pr.verdict.failed,
                pr.verdict.within_limit_frac, pr.verdict.meets ? "met" : "missed");
    attempted += pr.verdict.sent;
    failed += pr.verdict.failed;
  }
  attempted += fixed.sent;
  failed += fixed.failed;
  // Per-slice percentiles, median over slices: a host stall moves one
  // slice.  Slices hold at least 1000 requests, so each p99 has ten beyond.
  constexpr std::size_t kSliceRequests = 1000;
  static_assert(kSliceRequests >= 100 * kMinTailSamples);
  std::vector<double> at;
  for (const Sent& s : stream) at.push_back(s.due - sched.start);
  const double slice = std::max(1.0, static_cast<double>(kSliceRequests) / rate);
  checks.expect(lat.size() >= kSliceRequests, "too few stream samples for a p99");
  layer["query_p50_ms"] = windowed_quantile(at, lat, slice, 0.50, kSliceRequests) * 1e3;
  layer["query_p99_ms"] = windowed_quantile(at, lat, slice, 0.99, kSliceRequests) * 1e3;
  std::printf("stream p50 %.4f ms, p99 %.4f ms over all %zu requests\n",
              quantile(lat, 0.50) * 1e3, quantile(lat, 0.99) * 1e3, lat.size());
  if (tr) layer["serve_capacity_rps"] = capacity.rps;
  std::printf("stream samples %zu, capacity probes %zu\n", lat.size(), capacity.probes.size());

  // Freshness: batch ready -> first answer from a request sent after the
  // daemon had swapped the model in.
  std::vector<double> freshness;
  attempted += 2 * w.append_cycles;  // appends and reloads
  for (std::size_t i = 0; i < w.append_cycles; ++i) {
    if (i >= cycles.size() || !cycles[i].ok) {
      failed += 2;
      checks.expect(false, "append cycle " + std::to_string(i) + " failed: " +
                               (i < cycles.size() ? cycles[i].error : "not run"));
      continue;
    }
    double first = -1.0;
    for (const Sent& s : stream) {
      if (s.ok && s.send >= cycles[i].reload_observed && (first < 0.0 || s.done < first)) {
        first = s.done;
      }
    }
    checks.expect(first > 0.0, "no query answered after reload " + std::to_string(i));
    if (first > 0.0) freshness.push_back(first - cycles[i].ready);
  }
  e2e["freshness_s"] = freshness.empty() ? 0.0 : median(freshness);

  // Served labels must be byte-identical to offline assign_members under
  // the model generation that answered them.  Generation g is the base model
  // for g = 0 and append cycle g - 1's model after; a request that overlaps
  // a reload may see either side of it.
  {
    const InMemorySource pool_src(pool_rows);
    std::vector<std::vector<std::uint64_t>> expected;  // [generation][batch]
    const auto expect_model = [&](const GridSet& grids, const std::vector<Cluster>& clusters) {
      const std::vector<std::int32_t> labels = assign_members(pool_src, clusters, grids);
      std::vector<std::uint64_t> hashes(pool.size());
      for (std::size_t b = 0; b < pool.size(); ++b) {
        LabelsHash h;
        for (std::size_t r = 0; r < kBatchRows; ++r) h.add(labels[b * kBatchRows + r]);
        hashes[b] = h.value;
      }
      expected.push_back(std::move(hashes));
    };
    expect_model(rb.grids, rb.clusters);
    for (const AppendCycle& c : cycles) {
      if (c.ok) expect_model(c.result.grids, c.result.clusters);
    }
    const auto matches = [&](const Sent& s, std::size_t g) {
      return expected[g][s.batch] == s.labels_hash;
    };
    std::size_t mismatched = 0;
    for (const Sent& s : stream) {
      if (!s.ok) continue;
      std::size_t g_lo = 0;
      std::size_t g_hi = 0;
      for (std::size_t i = 0; i + 1 < expected.size(); ++i) {
        g_lo += cycles[i].reload_observed <= s.send;
        g_hi += cycles[i].reload_requested <= s.done;
      }
      bool ok = false;
      for (std::size_t g = g_lo; g <= g_hi && !ok; ++g) ok = matches(s, g);
      mismatched += !ok;
    }
    for (const Sent& s : capacity.sent) {
      if (s.ok && !matches(s, expected.size() - 1)) ++mismatched;
    }
    checks.expect(mismatched == 0, std::to_string(mismatched) +
                                       " served batches differ from offline assign_members");

    if (tr) {
      // Replay every pool batch through the daemon's per-batch steps on the
      // final model: decode_query -> contains_record walk -> encode_response.
      const Model model = load_model(p.serve_model);
      for (int rep = 0; rep < 5; ++rep) {
        for (std::size_t b = 0; b < pool.size(); ++b) {
          const std::vector<std::uint8_t> wire = serve::encode_query(pool[b]);
          const auto id = static_cast<std::int64_t>(b);
          serve::QueryBatch q;
          {
            SpanLog::Scope span(log, "serve.decode", id);
            q = serve::decode_query(wire.data(), wire.size(), 4096, pool[b].num_dims);
          }
          std::vector<serve::RowAnswer> answers(q.num_rows());
          {
            SpanLog::Scope span(log, "serve.lookup", id);
            for (std::size_t r = 0; r < answers.size(); ++r) {
              const Value* row = q.values.data() + r * q.num_dims;
              for (std::size_t c = 0; c < model.clusters.size(); ++c) {
                if (contains_record(model.clusters[c], model.grids, row)) {
                  if (answers[r].match_count == 0) answers[r].label = static_cast<std::int32_t>(c);
                  ++answers[r].match_count;
                }
              }
            }
          }
          {
            SpanLog::Scope span(log, "serve.encode", id);
            (void)serve::encode_response(answers);
          }
          Sent replayed;
          replayed.batch = static_cast<std::uint32_t>(b);
          LabelsHash h;
          for (const serve::RowAnswer& a : answers) h.add(a.label);
          replayed.labels_hash = h.value;
          checks.expect(matches(replayed, expected.size() - 1),
                        "serve replay labels differ from assign_members");
        }
      }
      const double dec = median(log.durations("serve.decode"));
      const double look = median(log.durations("serve.lookup"));
      const double enc = median(log.durations("serve.encode"));
      std::vector<double> rtt;
      for (const Sent& s : stream) {
        if (s.ok) rtt.push_back(s.done - s.send);
      }
      layer["serve.decode_s"] = dec;
      layer["serve.lookup_s"] = look;
      layer["serve.encode_s"] = enc;
      layer["serve.transport_ms"] = (median(rtt) - dec - look - enc) * 1e3;
      layer["serve.gen_lateness_ms"] = quantile(lateness_of(stream), 0.99) * 1e3;
    }
  }

  phase_done("verify-serve");

  // Each append must equal a full rebuild on base + batches so far, with
  // at least one level reused.  The build phase's p = 2 run is the rebuild
  // for the last batch; earlier ones are rebuilt here.
  {
    const Dataset input = read_record_file(p.input);
    const InMemorySource input_src(input);
    RecordIndex rows = base_records;
    for (std::size_t i = 0; i < cycles.size(); ++i) {
      if (!cycles[i].ok) continue;
      rows += read_record_file_header(p.batches[i]).num_records;
      const MafiaResult* oracle = &r2;
      MafiaResult rebuilt;
      if (i + 1 < w.append_cycles) {
        ++attempted;
        const PrefixSource prefix(input_src, rows);
        rebuilt = run_pmafia(prefix, build_options(input_records_n), kHelperRanks);
        oracle = &rebuilt;
      } else {
        checks.expect(rows == input.num_records(), "build input is not base + all batches");
      }
      const AppendStats& st = cycles[i].result.append;
      const std::string diff = compare_levels(oracle->levels, cycles[i].result.levels);
      checks.expect(diff.empty(), "append " + std::to_string(i) + " differs from a rebuild: " + diff);
      checks.expect(clusters_equal(oracle->clusters, cycles[i].result.clusters),
                    "append " + std::to_string(i) + " clusters differ from a rebuild");
      checks.expect(st.performed && st.levels_reused >= 1,
                    "append " + std::to_string(i) + " reused no level");
      std::printf("append %zu: levels reused %llu rerun %llu, freshness %.4f s\n", i,
                  static_cast<unsigned long long>(st.levels_reused),
                  static_cast<unsigned long long>(st.levels_rerun),
                  i < freshness.size() ? freshness[i] : -1.0);
    }
  }
  phase_done("verify-append");
  e2e["peak_rss_mib"] = peak_rss_mib();
  checks.expect(Daemon::hung_shutdowns() == 0,
                "a daemon shutdown hung (lost wakeup in ServeServer::serve)");

  if (tr) {
    double reused = 0.0;
    double rerun = 0.0;
    for (const AppendCycle& c : cycles) {
      reused += static_cast<double>(c.result.append.levels_reused);
      rerun += static_cast<double>(c.result.append.levels_rerun);
    }
    const double n = std::max<double>(1.0, static_cast<double>(cycles.size()));
    layer["append.levels_reused"] = reused / n;
    layer["append.levels_rerun"] = rerun / n;
    layer["append.run_s"] = median(append_log.durations("append.run"));
    layer["checkpoint.load_s"] = median(append_log.durations("checkpoint.load"));
    layer["model.load_s"] = median(append_log.durations("model.load"));
    layer["serve.reload_s"] = median(append_log.durations("serve.reload"));
    std::vector<double> saves = save_s;
    for (const double s : append_log.durations("model.save")) saves.push_back(s);
    layer["model.save_s"] = median(saves);

    const BandwidthProbe bw = probe_bandwidth();
    std::printf("bandwidth probe: %.1f MiB array, %.1f MiB LLC, %.3f GB/s (1 thread)\n",
                bw.array_mib, bw.llc_mib, bw.gbs);
    layer["mem.bw_gbs"] = bw.gbs;
    layer["mem.probe_mib"] = bw.array_mib;
    layer["mem.llc_mib"] = bw.llc_mib;
    // Computed bytes: every populate pass reads every float of every record.
    layer["populate.bw_frac"] =
        layer["populate.bytes_computed"] / layer["populate.s"] / (bw.gbs * 1e9);

    fs::create_directories(".bench_build/perfbench-spans");
    const std::string out = ".bench_build/perfbench-spans/" + w.name + "-seed" +
                            std::to_string(args.seed) + ".jsonl";
    if (std::FILE* f = std::fopen(out.c_str(), "w")) {
      log.write_jsonl(f, "main");
      append_log.write_jsonl(f, "append");
      for (std::size_t t = 0; t < gen_logs.size(); ++t) {
        gen_logs[t].write_jsonl(f, "gen" + std::to_string(t));
      }
      std::fclose(f);
      std::printf("spans written to %s\n", out.c_str());
    }
  }

  // The gated end-to-end set.  assign_s and the serving figures are printed
  // on every run, but move with host scheduling and cache state far beyond
  // any bound a gate could hold on a shared machine, so the traced run
  // carries them with the per-layer figures instead (see NOTES.md).
  static const std::vector<std::pair<const char*, const char*>> kE2e = {
      {"setup_s", "s"},     {"build_s", "s"},       {"build_serial_s", "s"},
      {"freshness_s", "s"}, {"peak_rss_mib", "MiB"}};
  static const std::vector<std::pair<const char*, const char*>> kLayer = {
      {"query_p50_ms", "ms"}, {"query_p99_ms", "ms"}, {"serve_capacity_rps", "1/s"},
      {"io.read_s", "s"}, {"io.read_mb_s", "MB/s"},
      {"grid.scan_s", "s"}, {"grid.build_s", "s"}, {"grid.bins", "count"},
      {"populate.s", "s"}, {"populate.record_passes", "count"},
      {"populate.subspaces", "count"}, {"populate.cdus", "count"},
      {"populate.bytes_computed", "B"}, {"populate.bw_frac", "frac"},
      {"identify.s", "s"}, {"join.s", "s"}, {"join.probes", "count"},
      {"join.emitted", "count"}, {"join.useful_frac", "frac"}, {"dedup.s", "s"},
      {"dedup.unique_frac", "frac"},
      {"comm.bytes", "B"}, {"comm.collectives", "count"}, {"comm.wait_s", "s"},
      {"assemble.s", "s"}, {"assign.s", "s"}, {"assign.rows_s", "1/s"},
      {"model.save_s", "s"}, {"model.load_s", "s"}, {"model.bytes", "B"},
      {"checkpoint.write_s", "s"}, {"checkpoint.load_s", "s"}, {"checkpoint.bytes", "B"},
      {"append.run_s", "s"}, {"append.levels_reused", "count"},
      {"append.levels_rerun", "count"},
      {"serve.decode_s", "s"}, {"serve.lookup_s", "s"}, {"serve.encode_s", "s"},
      {"serve.transport_ms", "ms"}, {"serve.reload_s", "s"},
      {"serve.gen_lateness_ms", "ms"},
      {"mem.bw_gbs", "GB/s"}, {"mem.probe_mib", "MiB"}, {"mem.llc_mib", "MiB"},
      {"trace.overhead_frac", "frac"}};
  if (!tr) {
    for (const auto& [name, unit] : kLayer) {
      const auto it = layer.find(name);
      if (it != layer.end() && std::strchr(name, '.') != nullptr) {
        std::printf("layer  %-24s %14.6g %s\n", name, it->second, unit);
      }
    }
  }
  const auto ungated = [](const char* name, double value, const char* unit) {
    std::printf("metric %-24s %14.6g %s (not gated)\n", name, value, unit);
  };
  ungated("assign_s", e2e["assign_s"], "s");
  ungated("query_p50_ms", layer["query_p50_ms"], "ms");
  ungated("query_p99_ms", layer["query_p99_ms"], "ms");
  if (tr) ungated("serve_capacity_rps", layer["serve_capacity_rps"], "1/s");
  ungated("failed_frac",
          static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(1, attempted)),
          "frac");
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : tr ? kLayer : kE2e) {
    const double v = (tr ? layer : e2e)[name];
    checks.expect(std::isfinite(v), std::string("metric ") + name + " is not finite");
    metrics.push_back({name, std::isfinite(v) ? v : 0.0, unit});
  }
  print_result(checks, attempted, failed, metrics);
  return checks.failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
