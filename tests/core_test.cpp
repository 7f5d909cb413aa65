// Integration tests for the pMAFIA driver: planted-cluster recovery,
// serial/parallel equivalence, the Table 2 binomial CDU trace, out-of-core
// equivalence, registration of maximal units, option handling, and how
// often each start state (fresh, resumed, append) reads the records.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/math_util.hpp"
#include "core/checkpoint.hpp"
#include "core/mafia.hpp"
#include "datagen/generator.hpp"
#include "datagen/workloads.hpp"
#include "io/data_source.hpp"
#include "io/record_file.hpp"
#include "units/bitmap_index.hpp"

namespace mafia {
namespace {

MafiaOptions default_options() {
  MafiaOptions o;
  o.fixed_domain = {{0.0f, 100.0f}};
  return o;
}

/// Canonical signature of a cluster set for equality comparisons.
std::multiset<std::string> cluster_signature(const MafiaResult& r) {
  std::multiset<std::string> sig;
  for (const Cluster& c : r.clusters) {
    std::string s;
    for (const DimId d : c.dims) s += "d" + std::to_string(d);
    // Units sorted for canonical form.
    std::multiset<std::string> units;
    for (std::size_t u = 0; u < c.units.size(); ++u) {
      units.insert(c.units.to_string(u));
    }
    for (const auto& u : units) s += u;
    sig.insert(std::move(s));
  }
  return sig;
}

// ----------------------------------------------------------- basic runs

TEST(Core, SingleClusterRecoveredWithBoundaries) {
  GeneratorConfig cfg;
  cfg.num_dims = 10;
  cfg.num_records = 30000;
  cfg.seed = 11;
  cfg.clusters.push_back(
      ClusterSpec::box({2, 5, 7}, {25, 25, 25}, {45, 45, 45}));
  const Dataset data = generate(cfg);
  InMemorySource source(data);

  const MafiaResult result = run_mafia(source, default_options());
  ASSERT_EQ(result.clusters.size(), 1u);
  const Cluster& c = result.clusters[0];
  EXPECT_EQ(c.dims, (std::vector<DimId>{2, 5, 7}));

  // Adaptive boundaries should land within one window (0.5 units) of truth.
  const auto box = c.bounding_box(result.grids);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(box[i].first, 25.0, 0.75) << "dim " << i;
    EXPECT_NEAR(box[i].second, 45.0, 0.75) << "dim " << i;
  }
}

TEST(Core, MultipleClustersInDistinctSubspaces) {
  GeneratorConfig cfg = workloads::tab3_quality(40000, 17);
  const Dataset data = generate(cfg);
  InMemorySource source(data);
  const MafiaResult result = run_mafia(source, default_options());

  std::set<std::vector<DimId>> found;
  for (const Cluster& c : result.clusters) found.insert(c.dims);
  EXPECT_TRUE(found.count({1, 7, 8, 9})) << "cluster A missing";
  EXPECT_TRUE(found.count({2, 3, 4, 5})) << "cluster B missing";
}

TEST(Core, Tab2TraceIsBinomialInClusterDims) {
  // One 7-d cluster: every level's unique CDU and dense-unit counts must
  // equal C(7,k) — the paper's Table 2 row for pMAFIA.
  const GeneratorConfig cfg = workloads::tab2_cdu_counts(40000);
  const Dataset data = generate(cfg);
  InMemorySource source(data);
  const MafiaResult result = run_mafia(source, default_options());

  const std::size_t binom[] = {0, 7, 21, 35, 35, 21, 7, 1};
  ASSERT_GE(result.levels.size(), 7u);
  // Level 1's candidates are ALL bins of all dimensions; only its dense
  // count is constrained (one bin per cluster dimension).  Table 2 starts
  // at dimension 2, where Ncdu == Ndu == C(7,k) for pMAFIA.
  EXPECT_EQ(result.levels[0].ndu, 7u);
  for (std::size_t k = 2; k <= 7; ++k) {
    EXPECT_EQ(result.levels[k - 1].ncdu, binom[k]) << "level " << k;
    EXPECT_EQ(result.levels[k - 1].ndu, binom[k]) << "level " << k;
  }
  EXPECT_EQ(result.max_dense_level(), 7u);
  ASSERT_EQ(result.clusters.size(), 1u);
  EXPECT_EQ(result.clusters[0].dims.size(), 7u);
}

TEST(Core, EachMovieShapeSevenTwoDimensionalClusters) {
  const GeneratorConfig cfg = workloads::eachmovie_like(40000);
  const Dataset data = generate(cfg);
  InMemorySource source(data);
  const MafiaResult result = run_mafia(source, default_options());
  EXPECT_EQ(result.clusters.size(), 7u);
  for (const Cluster& c : result.clusters) {
    EXPECT_EQ(c.dims, (std::vector<DimId>{0, 1}));
  }
}

TEST(Core, LShapedClusterReportedAsMultiRectangleDnf) {
  const GeneratorConfig cfg = workloads::l_shape_demo(30000);
  const Dataset data = generate(cfg);
  InMemorySource source(data);
  const MafiaResult result = run_mafia(source, default_options());
  ASSERT_EQ(result.clusters.size(), 1u);
  const Cluster& c = result.clusters[0];
  EXPECT_EQ(c.dims, (std::vector<DimId>{1, 4}));
  // An L cannot be covered exactly by one rectangle.
  EXPECT_GE(c.dnf.size(), 2u);
}

TEST(Core, PureNoiseYieldsNoClusters) {
  GeneratorConfig cfg;
  cfg.num_dims = 6;
  cfg.num_records = 20000;
  cfg.seed = 13;  // no clusters: everything uniform
  const Dataset data = generate(cfg);
  InMemorySource source(data);
  const MafiaResult result = run_mafia(source, default_options());
  EXPECT_TRUE(result.clusters.empty())
      << result.clusters.size() << " spurious clusters";
}

// ------------------------------------------------- serial/parallel equality

class ParallelEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ParallelEquivalence, ClustersIdenticalToSerialRun) {
  const int p = GetParam();
  GeneratorConfig cfg;
  cfg.num_dims = 12;
  cfg.num_records = 25000;
  cfg.seed = 21;
  cfg.clusters.push_back(ClusterSpec::box({1, 4, 8}, {10, 10, 10}, {20, 20, 20}, 1.0));
  cfg.clusters.push_back(ClusterSpec::box({2, 6, 9, 11}, {70, 70, 70, 70},
                                          {80, 80, 80, 80}, 1.0));
  const Dataset data = generate(cfg);
  InMemorySource source(data);

  MafiaOptions options = default_options();
  options.tau = 4;  // force the task-parallel paths to engage
  const MafiaResult serial = run_pmafia(source, options, 1);
  const MafiaResult parallel = run_pmafia(source, options, p);

  EXPECT_EQ(cluster_signature(serial), cluster_signature(parallel));
  ASSERT_EQ(serial.levels.size(), parallel.levels.size());
  for (std::size_t i = 0; i < serial.levels.size(); ++i) {
    EXPECT_EQ(serial.levels[i].ncdu, parallel.levels[i].ncdu) << "level " << i;
    EXPECT_EQ(serial.levels[i].ndu, parallel.levels[i].ndu) << "level " << i;
  }
}

TEST_P(ParallelEquivalence, PairwiseDedupAlsoIdentical) {
  const int p = GetParam();
  GeneratorConfig cfg;
  cfg.num_dims = 9;
  cfg.num_records = 15000;
  cfg.seed = 23;
  cfg.clusters.push_back(
      ClusterSpec::box({0, 3, 5, 7}, {50, 50, 50, 50}, {60, 60, 60, 60}));
  const Dataset data = generate(cfg);
  InMemorySource source(data);

  MafiaOptions options = default_options();
  options.tau = 4;
  options.dedup = DedupPolicy::Pairwise;
  const MafiaResult serial = run_pmafia(source, options, 1);
  const MafiaResult parallel = run_pmafia(source, options, p);
  EXPECT_EQ(cluster_signature(serial), cluster_signature(parallel));
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ParallelEquivalence,
                         ::testing::Values(2, 3, 4, 8));

TEST(Core, BlockTaskPartitionGivesSameAnswer) {
  // The Eq. 1 ablation must change performance, never results.
  GeneratorConfig cfg;
  cfg.num_dims = 8;
  cfg.num_records = 15000;
  cfg.seed = 29;
  cfg.clusters.push_back(
      ClusterSpec::box({0, 2, 4, 6}, {30, 30, 30, 30}, {40, 40, 40, 40}));
  const Dataset data = generate(cfg);
  InMemorySource source(data);

  MafiaOptions optimal = default_options();
  optimal.tau = 4;
  MafiaOptions block = optimal;
  block.optimal_task_partition = false;
  EXPECT_EQ(cluster_signature(run_pmafia(source, optimal, 4)),
            cluster_signature(run_pmafia(source, block, 4)));
}

// ------------------------------------------------------------ out of core

TEST(Core, FileSourceMatchesInMemory) {
  GeneratorConfig cfg;
  cfg.num_dims = 7;
  cfg.num_records = 12000;
  cfg.seed = 31;
  cfg.clusters.push_back(ClusterSpec::box({1, 3, 5}, {60, 60, 60}, {75, 75, 75}));
  const Dataset data = generate(cfg);

  const std::string path =
      (std::filesystem::temp_directory_path() / "mafia_core_ooc.bin").string();
  write_record_file(path, data, false);

  InMemorySource mem(data);
  FileSource file(path);
  MafiaOptions options = default_options();
  options.chunk_records = 1000;  // force many chunked reads

  const MafiaResult a = run_mafia(mem, options);
  const MafiaResult b = run_mafia(file, options);
  EXPECT_EQ(cluster_signature(a), cluster_signature(b));

  // Parallel out-of-core too (concurrent FileSource scans).
  const MafiaResult c = run_pmafia(file, options, 3);
  EXPECT_EQ(cluster_signature(a), cluster_signature(c));
  std::remove(path.c_str());
}

// ----------------------------------------------------------- option paths

TEST(Core, LearnedDomainMatchesFixedDomain) {
  GeneratorConfig cfg;
  cfg.num_dims = 6;
  cfg.num_records = 20000;
  cfg.seed = 37;
  cfg.clusters.push_back(ClusterSpec::box({0, 2}, {40, 40}, {55, 55}));
  const Dataset data = generate(cfg);
  InMemorySource source(data);

  MafiaOptions fixed = default_options();
  MafiaOptions learned;
  // (learned domain differs slightly from [0,100] — min/max of the sample —
  // so clusters can differ at the margin; subspaces must still agree.)
  const MafiaResult rf = run_mafia(source, fixed);
  const MafiaResult rl = run_mafia(source, learned);
  ASSERT_FALSE(rf.clusters.empty());
  ASSERT_FALSE(rl.clusters.empty());
  EXPECT_EQ(rf.clusters[0].dims, rl.clusters[0].dims);
}

TEST(Core, MaxLevelCapRegistersCurrentDense) {
  const GeneratorConfig cfg = workloads::tab2_cdu_counts(30000);
  const Dataset data = generate(cfg);
  InMemorySource source(data);
  MafiaOptions options = default_options();
  options.max_level = 3;  // stop before the 7-d cluster fully forms
  const MafiaResult result = run_mafia(source, options);
  EXPECT_EQ(result.max_dense_level(), 3u);
  ASSERT_FALSE(result.clusters.empty());
  for (const Cluster& c : result.clusters) EXPECT_LE(c.dims.size(), 3u);
}

TEST(Core, ScaledProductPolicyAdmitsMoreUnits) {
  GeneratorConfig cfg;
  cfg.num_dims = 8;
  cfg.num_records = 20000;
  cfg.seed = 41;
  cfg.clusters.push_back(ClusterSpec::box({1, 4, 6}, {20, 20, 20}, {30, 30, 30}));
  const Dataset data = generate(cfg);
  InMemorySource source(data);

  MafiaOptions all_bins = default_options();
  MafiaOptions product = default_options();
  product.density = DensityPolicy::ScaledProduct;
  const MafiaResult ra = run_mafia(source, all_bins);
  const MafiaResult rp = run_mafia(source, product);
  // The independence expectation shrinks geometrically with k, so the
  // product policy can only admit more dense units at high levels.
  std::size_t all_total = 0;
  std::size_t prod_total = 0;
  for (const auto& l : ra.levels) all_total += l.ndu;
  for (const auto& l : rp.levels) prod_total += l.ndu;
  EXPECT_GE(prod_total, all_total);
}

TEST(Core, RejectsInvalidInputs) {
  Dataset empty(3);
  InMemorySource source(empty);
  EXPECT_THROW((void)run_mafia(source, MafiaOptions{}), Error);

  GeneratorConfig cfg;
  cfg.num_dims = 3;
  cfg.num_records = 100;
  const Dataset data = generate(cfg);
  InMemorySource ok(data);
  EXPECT_THROW((void)run_pmafia(ok, MafiaOptions{}, 0), Error);

  MafiaOptions bad;
  bad.grid.beta = 2.0;
  EXPECT_THROW((void)run_mafia(ok, bad), Error);
}

TEST(Core, ResultMetadataFilled) {
  GeneratorConfig cfg;
  cfg.num_dims = 5;
  cfg.num_records = 5000;
  cfg.seed = 43;
  cfg.clusters.push_back(ClusterSpec::box({0, 1}, {10, 10}, {20, 20}));
  const Dataset data = generate(cfg);
  InMemorySource source(data);
  const MafiaResult r = run_pmafia(source, default_options(), 2);
  EXPECT_EQ(r.num_records, data.num_records());
  EXPECT_EQ(r.num_dims, 5u);
  EXPECT_EQ(r.num_ranks, 2);
  EXPECT_GT(r.total_seconds, 0.0);
  EXPECT_GT(r.phases.get("populate"), 0.0);
  EXPECT_GT(r.comm.reduces, 0u);
  EXPECT_EQ(r.grids.num_dims(), 5u);
  EXPECT_FALSE(r.levels.empty());
}

TEST(Core, SimulatedNetworkChangesTimingNotResults) {
  GeneratorConfig cfg;
  cfg.num_dims = 6;
  cfg.num_records = 8000;
  cfg.seed = 53;
  cfg.clusters.push_back(ClusterSpec::box({1, 3}, {40, 40}, {55, 55}));
  const Dataset data = generate(cfg);
  InMemorySource source(data);

  MafiaOptions plain = default_options();
  MafiaOptions simulated = plain;
  simulated.simulate_network = mp::NetworkSimulation{0.002, 1e9};
  const MafiaResult a = run_pmafia(source, plain, 2);
  const MafiaResult b = run_pmafia(source, simulated, 2);
  EXPECT_EQ(cluster_signature(a), cluster_signature(b));
  // The delay must actually have been applied (several collectives x 2ms).
  EXPECT_GT(b.total_seconds, a.total_seconds);
}

TEST(Core, MinClusterDimsFilter) {
  // A 1-d-only structure: one dense bin that never combines upward.
  GeneratorConfig cfg;
  cfg.num_dims = 5;
  cfg.num_records = 10000;
  cfg.seed = 59;
  cfg.clusters.push_back(ClusterSpec::box({2}, {30}, {40}));
  const Dataset data = generate(cfg);
  InMemorySource source(data);

  MafiaOptions hide = default_options();  // min_cluster_dims = 2 default
  EXPECT_TRUE(run_mafia(source, hide).clusters.empty());

  MafiaOptions show = hide;
  show.min_cluster_dims = 1;
  const MafiaResult r = run_mafia(source, show);
  ASSERT_EQ(r.clusters.size(), 1u);
  EXPECT_EQ(r.clusters[0].dims, (std::vector<DimId>{2}));
}

TEST(Core, RunTraceGlobalizesPhasesAndComm) {
  GeneratorConfig cfg;
  cfg.num_dims = 8;
  cfg.num_records = 20000;
  cfg.seed = 7;
  cfg.clusters.push_back(ClusterSpec::box({1, 4, 6}, {30, 30, 30}, {45, 45, 45}));
  const Dataset data = generate(cfg);
  InMemorySource source(data);

  const int p = 4;
  const MafiaResult r = run_pmafia(source, default_options(), p);
  ASSERT_FALSE(r.trace.empty());
  ASSERT_EQ(r.trace.num_ranks(), p);
  ASSERT_EQ(r.trace.rank_totals.size(), static_cast<std::size_t>(p));

  // Reported phase seconds are the true cross-rank max: they dominate every
  // rank's local timer and are attained by at least one rank.
  for (const std::string& name : r.trace.phase_names()) {
    const double reported = r.phases.get(name);
    double rank_max = 0.0;
    for (int rk = 0; rk < p; ++rk) {
      const double local = r.trace.rank_phase(rk, name).seconds;
      EXPECT_LE(local, reported) << "phase " << name << " rank " << rk;
      rank_max = std::max(rank_max, local);
    }
    EXPECT_EQ(reported, rank_max) << "phase " << name;
    EXPECT_GE(r.trace.mean_seconds(name), r.trace.min_seconds(name));
    EXPECT_GE(r.trace.max_seconds(name), r.trace.mean_seconds(name));
  }

  // The per-phase comm deltas sum exactly to the job totals — every
  // collective the driver issues sits inside some phase scope, and the
  // trace exchange's own traffic is excluded from both sides.
  mp::CommStats phase_sum;
  for (const std::string& name : r.trace.phase_names()) {
    phase_sum.merge(r.trace.phase_comm(name));
  }
  EXPECT_EQ(phase_sum.reduces, r.comm.reduces);
  EXPECT_EQ(phase_sum.bcasts, r.comm.bcasts);
  EXPECT_EQ(phase_sum.gathers, r.comm.gathers);
  EXPECT_EQ(phase_sum.scatters, r.comm.scatters);
  EXPECT_EQ(phase_sum.p2p_messages, r.comm.p2p_messages);
  EXPECT_EQ(phase_sum.p2p_bytes, r.comm.p2p_bytes);
  EXPECT_EQ(phase_sum.collective_bytes, r.comm.collective_bytes);
  EXPECT_DOUBLE_EQ(phase_sum.comm_seconds, r.comm.comm_seconds);

  // A parallel run on this workload really communicates, and the wall time
  // spent inside comm calls is visible.
  EXPECT_GT(r.comm.reduces, 0u);
  EXPECT_GT(r.comm.comm_seconds, 0.0);
}

TEST(Core, JoinCommunicatesOnlyUniqueCandidates) {
  // One 7-d cluster: a k-dim candidate has k dense faces, so the pairwise
  // join emits it k(k−1)/2 times.  The default join still moves only the
  // unique candidates: at p = 2 each of the dim and bin arrays (T = k bytes
  // per candidate) is gathered (T plus rank 1's share) and broadcast (2T),
  // and every join adds the fixed allreduce payloads — four work counters
  // and one combined flag per dense unit, from each rank.  No dedup phase
  // runs.
  const GeneratorConfig cfg = workloads::tab2_cdu_counts(40000);
  const Dataset data = generate(cfg);
  InMemorySource source(data);
  MafiaOptions options = default_options();
  options.tau = 0;  // every join runs task-parallel
  const MafiaResult r = run_pmafia(source, options, 2);

  const std::vector<std::string> phases = r.trace.phase_names();
  EXPECT_EQ(std::count(phases.begin(), phases.end(), "dedup"), 0);
  EXPECT_EQ(r.phases.get("dedup"), 0.0);

  std::uint64_t raw = 0;
  std::uint64_t unique = 0;
  std::uint64_t unique_bytes = 0;  // T summed over the joins
  std::uint64_t fixed = 0;
  for (const LevelTrace& t : r.levels) {
    if (t.level > 1) {
      raw += t.ncdu_raw;
      unique += t.ncdu;
      unique_bytes += t.level * t.ncdu;
    }
    // A join follows every level that found dense units.
    if (t.ndu > 0) fixed += 2 * (4 * sizeof(std::uint64_t) + t.ndu);
  }
  ASSERT_GT(raw, 2 * unique) << "the instance must be repeat-heavy";
  const std::uint64_t join = r.trace.phase_comm("join").collective_bytes;
  EXPECT_GE(join, fixed + 2 * 3 * unique_bytes);
  EXPECT_LE(join, fixed + 2 * 4 * unique_bytes);
}

TEST(Core, SerialRunHasOnlyDegenerateCommunication) {
  GeneratorConfig cfg;
  cfg.num_dims = 5;
  cfg.num_records = 5000;
  cfg.seed = 47;
  cfg.clusters.push_back(ClusterSpec::box({0, 1}, {10, 10}, {20, 20}));
  const Dataset data = generate(cfg);
  InMemorySource source(data);
  const MafiaResult r = run_mafia(source, default_options());
  // p = 1: no point-to-point traffic at all.
  EXPECT_EQ(r.comm.p2p_messages, 0u);
}

// ------------------------------------------------------ record passes

/// DataSource decorator counting how often each record is scanned.
class CountingSource final : public DataSource {
 public:
  explicit CountingSource(const DataSource& inner)
      : inner_(inner), hits_(static_cast<std::size_t>(inner.num_records()), 0) {}

  [[nodiscard]] RecordIndex num_records() const override {
    return inner_.num_records();
  }
  [[nodiscard]] std::size_t num_dims() const override { return inner_.num_dims(); }

  void scan(RecordIndex begin, RecordIndex end, std::size_t chunk_records,
            const ChunkFn& fn) const override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (RecordIndex r = begin; r < end; ++r) ++hits_[static_cast<std::size_t>(r)];
    }
    inner_.scan(begin, end, chunk_records, fn);
  }

  /// Scans per record over [begin, end), as {scans: records}.
  [[nodiscard]] std::map<int, std::size_t> profile(RecordIndex begin,
                                                   RecordIndex end) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<int, std::size_t> out;
    for (RecordIndex r = begin; r < end; ++r) ++out[hits_[static_cast<std::size_t>(r)]];
    return out;
  }

  void reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::fill(hits_.begin(), hits_.end(), 0);
  }

 private:
  const DataSource& inner_;
  mutable std::mutex mutex_;
  mutable std::vector<int> hits_;
};

GeneratorConfig record_pass_config(RecordIndex records, std::uint64_t seed) {
  GeneratorConfig cfg;
  cfg.num_dims = 8;
  cfg.num_records = records;
  cfg.seed = seed;
  cfg.clusters.push_back(ClusterSpec::box({1, 4, 6}, {30, 30, 30}, {45, 45, 45}));
  return cfg;
}

/// A scratch checkpoint directory, removed on destruction.
class CheckpointDir {
 public:
  explicit CheckpointDir(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               (name + "_" + std::to_string(::getpid())))
                  .string()) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~CheckpointDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

using Profile = std::map<int, std::size_t>;

TEST(RecordPasses, FreshRunScansForTheHistogramAndTheIndexOnly) {
  // The default kernel counts every level from the run index: one pass
  // builds the histogram, one builds the index, and no level rescans.
  const Dataset data = generate(record_pass_config(6000, 3));
  InMemorySource inner(data);
  CountingSource source(inner);
  const RecordIndex n = data.num_records();
  for (const int p : {1, 2, 3}) {
    const MafiaResult r = run_pmafia(source, default_options(), p);
    ASSERT_GE(r.levels.size(), 3u) << "p=" << p;
    EXPECT_EQ(source.profile(0, n), (Profile{{2, n}})) << "p=" << p;
    source.reset();
  }
}

TEST(RecordPasses, BudgetBelowTheRunIndexRescansOncePerLevel) {
  // A budget one byte below the run index picks Algorithm 2's out-of-core
  // regime instead of failing: one pass builds the histogram, then every
  // level rescans the rows in chunks through an index of one chunk — and
  // the result equals the unbudgeted run bit for bit.
  const Dataset data = generate(record_pass_config(6000, 3));
  InMemorySource inner(data);
  CountingSource source(inner);
  const RecordIndex n = data.num_records();
  for (const int p : {1, 2, 3}) {
    const MafiaResult indexed = run_pmafia(inner, default_options(), p);
    MafiaOptions opts = default_options();
    opts.max_cdu_bytes =
        BitmapIndex::bytes_for(indexed.grids.total_bins(),
                               ceil_div(static_cast<std::size_t>(n),
                                        static_cast<std::size_t>(p))) -
        1;
    opts.chunk_records = 256;
    const MafiaResult r = run_pmafia(source, opts, p);
    ASSERT_GE(r.levels.size(), 3u) << "p=" << p;
    const int passes = 1 + static_cast<int>(r.levels.size());
    EXPECT_EQ(source.profile(0, n), (Profile{{passes, n}})) << "p=" << p;
    EXPECT_EQ(cluster_signature(r), cluster_signature(indexed)) << "p=" << p;
    ASSERT_EQ(r.levels.size(), indexed.levels.size()) << "p=" << p;
    for (std::size_t l = 0; l < r.levels.size(); ++l) {
      EXPECT_TRUE(r.levels[l].populate_rescan) << "p=" << p;
      EXPECT_EQ(r.levels[l].ncdu, indexed.levels[l].ncdu) << "p=" << p;
      EXPECT_EQ(r.levels[l].ndu, indexed.levels[l].ndu) << "p=" << p;
      EXPECT_EQ(r.levels[l].count_checksum, indexed.levels[l].count_checksum)
          << "p=" << p << " level=" << r.levels[l].level;
    }
    source.reset();
  }
}

TEST(RecordPasses, ResumedRunScansOnce) {
  // The grids come from the checkpoint, so only the index reads records.
  const Dataset data = generate(record_pass_config(6000, 3));
  InMemorySource inner(data);
  CheckpointDir dir("mafia_core_resume_passes");
  MafiaOptions opts = default_options();
  opts.checkpoint.directory = dir.path();
  const MafiaResult full = run_pmafia(inner, opts, 2);
  ASSERT_GE(full.levels.size(), 3u);
  // Keep only the boundary after level 1, so the resume runs every later
  // level.
  for (std::size_t level = 3; level <= full.levels.size() + 1; ++level) {
    std::filesystem::remove(checkpoint_file_path(dir.path(), level));
  }

  CountingSource source(inner);
  opts.checkpoint.resume = true;
  const MafiaResult resumed = run_pmafia(source, opts, 2);
  EXPECT_TRUE(resumed.recovery.resumed);
  EXPECT_EQ(resumed.recovery.resume_level, 2u);
  EXPECT_EQ(source.profile(0, data.num_records()),
            (Profile{{1, data.num_records()}}));
  ASSERT_EQ(resumed.levels.size(), full.levels.size());
  for (std::size_t l = 0; l < full.levels.size(); ++l) {
    EXPECT_EQ(resumed.levels[l].count_checksum, full.levels[l].count_checksum);
  }
}

/// Base run checkpointed on `base` under `opts`, then an append at p = 2
/// through `all`, the base followed by the batch.
MafiaResult append_through(const Dataset& base, const DataSource& all,
                           const std::string& dir, MafiaOptions opts) {
  InMemorySource base_source(base);
  opts.checkpoint.directory = dir;
  (void)run_pmafia(base_source, opts, 2);
  opts.append = AppendConfig{static_cast<std::uint64_t>(base.num_records())};
  return run_pmafia(all, opts, 2);
}

Dataset concat(const Dataset& a, const Dataset& b) {
  Dataset all(a.num_dims());
  all.append_rows(a);
  all.append_rows(b);
  return all;
}

TEST(RecordPasses, AppendWhoseChainHoldsScansOnlyTheBatch) {
  const Dataset base = generate(record_pass_config(6000, 3));
  const Dataset all = concat(base, generate(record_pass_config(7, 4)));
  InMemorySource inner(all);
  CountingSource source(inner);
  CheckpointDir dir("mafia_core_append_reuse_passes");
  const MafiaResult r =
      append_through(base, source, dir.path(), default_options());
  ASSERT_EQ(r.append.levels_rerun, 0u);
  ASSERT_GE(r.append.levels_reused, 3u);
  // The batch is read for the histogram and for its index; the base never.
  const RecordIndex b = base.num_records();
  EXPECT_EQ(source.profile(0, b), (Profile{{0, b}}));
  EXPECT_EQ(source.profile(b, all.num_records()),
            (Profile{{2, all.num_records() - b}}));
}

TEST(RecordPasses, AppendOnAResumedBaseScansOnlyTheBatch) {
  // A base build that crashed after its first level file and resumed
  // still leaves every level's record in its final checkpoint, so an
  // append on it reads the batch for the histogram and its index, and
  // never the base.
  const Dataset base = generate(record_pass_config(6000, 3));
  CheckpointDir dir("mafia_core_append_resumed_passes");
  MafiaOptions opts = default_options();
  opts.checkpoint.directory = dir.path();
  {
    InMemorySource base_source(base);
    const MafiaResult full = run_pmafia(base_source, opts, 2);
    ASSERT_GE(full.levels.size(), 3u);
    // The crash: only the first level file survives.
    std::filesystem::remove(final_checkpoint_path(dir.path()));
    for (std::size_t level = 3; level <= full.levels.size() + 1; ++level) {
      std::filesystem::remove(checkpoint_file_path(dir.path(), level));
    }
    MafiaOptions resume = opts;
    resume.checkpoint.resume = true;
    ASSERT_TRUE(run_pmafia(base_source, resume, 2).recovery.resumed);
  }
  const Dataset all = concat(base, generate(record_pass_config(7, 4)));
  InMemorySource inner(all);
  CountingSource source(inner);
  opts.append = AppendConfig{static_cast<std::uint64_t>(base.num_records())};
  const MafiaResult r = run_pmafia(source, opts, 2);
  ASSERT_EQ(r.append.levels_rerun, 0u);
  ASSERT_GE(r.append.levels_reused, 3u);
  const RecordIndex b = base.num_records();
  EXPECT_EQ(source.profile(0, b), (Profile{{0, b}}));
  EXPECT_EQ(source.profile(b, all.num_records()),
            (Profile{{2, all.num_records() - b}}));
}

TEST(RecordPasses, AppendWhoseChainBreaksBuildsTheFullIndexOnce) {
  // Every base record is read exactly once, by the full-partition index,
  // whether the chain never arms or breaks after reusing a level.
  GeneratorConfig noise = record_pass_config(0, 5);
  noise.clusters.clear();
  {
    // Noise outweighing the base moves the adaptive edges: level 1 reruns.
    // The batch is read for the histogram and by the full index.
    const Dataset base = generate(record_pass_config(1000, 3));
    noise.num_records = 4000;
    const Dataset all = concat(base, generate(noise));
    InMemorySource inner(all);
    CountingSource source(inner);
    CheckpointDir dir("mafia_core_append_rerun_passes");
    const MafiaResult r =
        append_through(base, source, dir.path(), default_options());
    ASSERT_EQ(r.append.levels_reused, 0u);
    const RecordIndex b = base.num_records();
    EXPECT_EQ(source.profile(0, b), (Profile{{1, b}}));
    EXPECT_EQ(source.profile(b, all.num_records()),
              (Profile{{2, all.num_records() - b}}));
  }
  {
    // A uniform grid cannot move, so level 1 reuses its stored counts; the
    // noise then changes a later level's dense set.  The batch is read by
    // the batch index and by the full index; no histogram pass.
    const Dataset base = generate(record_pass_config(3000, 3));
    noise.num_records = 200;
    const Dataset all = concat(base, generate(noise));
    InMemorySource inner(all);
    CountingSource source(inner);
    CheckpointDir dir("mafia_core_append_break_passes");
    MafiaOptions opts = default_options();
    opts.uniform_grid = MafiaOptions::UniformGridOverride{};
    const MafiaResult r = append_through(base, source, dir.path(), opts);
    ASSERT_GE(r.append.levels_reused, 1u);
    ASSERT_GE(r.append.levels_rerun, 1u);
    const RecordIndex b = base.num_records();
    EXPECT_EQ(source.profile(0, b), (Profile{{1, b}}));
    EXPECT_EQ(source.profile(b, all.num_records()),
              (Profile{{2, all.num_records() - b}}));
  }
}

}  // namespace
}  // namespace mafia
