// Property-style end-to-end suites for the pMAFIA driver:
//   * planted-structure recovery across a grid of (cluster count, cluster
//     dimensionality, data dimensionality) configurations;
//   * invariance properties: chunk size B must not affect results; rank
//     count must not affect results; record order must not affect results
//     (the generator permutes, but we also re-permute explicitly);
//   * structural invariants on every result: DNF covers exactly the dense
//     units, subspaces ascending, trace monotone in the right places.
#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <string>
#include <tuple>

#include "common/math_util.hpp"
#include "core/mafia.hpp"
#include "datagen/generator.hpp"
#include "io/data_source.hpp"
#include "rng/distributions.hpp"
#include "rng/icg.hpp"
#include "units/bitmap_index.hpp"

namespace mafia {
namespace {

std::multiset<std::string> signature(const MafiaResult& r) {
  std::multiset<std::string> sig;
  for (const Cluster& c : r.clusters) {
    std::string s;
    for (const DimId d : c.dims) s += "d" + std::to_string(d);
    std::multiset<std::string> units;
    for (std::size_t u = 0; u < c.units.size(); ++u) {
      units.insert(c.units.to_string(u));
    }
    for (const auto& u : units) s += u;
    sig.insert(std::move(s));
  }
  return sig;
}

void check_structural_invariants(const MafiaResult& r) {
  for (const Cluster& c : r.clusters) {
    // Subspace dims strictly ascending.
    for (std::size_t i = 0; i + 1 < c.dims.size(); ++i) {
      ASSERT_LT(c.dims[i], c.dims[i + 1]);
    }
    // DNF rectangles cover exactly the dense-unit cells.
    std::set<std::string> unit_cells;
    for (std::size_t u = 0; u < c.units.size(); ++u) {
      const auto bins = c.units.bins(u);
      unit_cells.insert(std::string(bins.begin(), bins.end()));
    }
    std::set<std::string> rect_cells;
    for (const BinRect& rect : c.dnf) {
      std::vector<BinId> cursor = rect.lo;
      while (true) {
        rect_cells.insert(std::string(cursor.begin(), cursor.end()));
        std::size_t d = 0;
        for (; d < cursor.size(); ++d) {
          if (cursor[d] < rect.hi[d]) {
            ++cursor[d];
            break;
          }
          cursor[d] = rect.lo[d];
        }
        if (d == cursor.size()) break;
      }
    }
    ASSERT_EQ(unit_cells, rect_cells) << "DNF does not cover the units exactly";
  }
  // Trace: level indices 1..n contiguous; unique <= raw.
  for (std::size_t i = 0; i < r.levels.size(); ++i) {
    ASSERT_EQ(r.levels[i].level, i + 1);
    ASSERT_LE(r.levels[i].ncdu, r.levels[i].ncdu_raw);
    ASSERT_LE(r.levels[i].ndu, r.levels[i].ncdu);
  }
}

// ------------------------------------------------- recovery configuration

struct Shape {
  std::size_t data_dims;
  std::size_t cluster_dims;
  std::size_t num_clusters;
};

class RecoverySweep : public ::testing::TestWithParam<Shape> {};

TEST_P(RecoverySweep, PlantedSubspacesAreExactlyRecovered) {
  const Shape shape = GetParam();
  GeneratorConfig cfg;
  cfg.num_dims = shape.data_dims;
  cfg.num_records = 25000;
  cfg.seed = 1000 + shape.data_dims * 13 + shape.cluster_dims * 7 +
             shape.num_clusters;
  // Plant clusters in disjoint subspaces at staggered extents.
  std::size_t dim_cursor = 0;
  for (std::size_t c = 0; c < shape.num_clusters; ++c) {
    std::vector<DimId> dims(shape.cluster_dims);
    for (std::size_t i = 0; i < shape.cluster_dims; ++i) {
      dims[i] = static_cast<DimId>((dim_cursor + i) % shape.data_dims);
    }
    std::sort(dims.begin(), dims.end());
    dim_cursor += shape.cluster_dims;
    const Value lo = static_cast<Value>(10 + 20 * c);
    cfg.clusters.push_back(ClusterSpec::box(
        std::move(dims), std::vector<Value>(shape.cluster_dims, lo),
        std::vector<Value>(shape.cluster_dims, lo + 8), 1.0));
  }
  const Dataset data = generate(cfg);
  InMemorySource source(data);
  MafiaOptions options;
  options.fixed_domain = {{0.0f, 100.0f}};
  const MafiaResult r = run_mafia(source, options);
  check_structural_invariants(r);

  std::set<std::vector<DimId>> found;
  for (const Cluster& c : r.clusters) found.insert(c.dims);
  for (const ClusterSpec& spec : cfg.clusters) {
    EXPECT_TRUE(found.count(spec.dims))
        << "missing planted subspace of cluster";
  }
  EXPECT_EQ(r.clusters.size(), cfg.clusters.size())
      << "spurious clusters discovered";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RecoverySweep,
    ::testing::Values(Shape{6, 2, 1}, Shape{6, 3, 2}, Shape{10, 4, 2},
                      Shape{12, 2, 4}, Shape{16, 5, 3}, Shape{20, 6, 1},
                      Shape{24, 3, 3}, Shape{32, 4, 4}));

// ------------------------------------------------------------- invariances

Dataset invariance_data(std::uint64_t seed = 77) {
  GeneratorConfig cfg;
  cfg.num_dims = 10;
  cfg.num_records = 20000;
  cfg.seed = seed;
  cfg.clusters.push_back(ClusterSpec::box({1, 5, 8}, {30, 30, 30}, {42, 42, 42}, 1.0));
  cfg.clusters.push_back(ClusterSpec::box({0, 3}, {60, 60}, {75, 75}, 1.0));
  return generate(cfg);
}

class ChunkSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChunkSizeSweep, ChunkSizeDoesNotChangeResults) {
  const Dataset data = invariance_data();
  InMemorySource source(data);
  MafiaOptions reference;
  reference.fixed_domain = {{0.0f, 100.0f}};
  const MafiaResult expect = run_mafia(source, reference);

  MafiaOptions options = reference;
  options.chunk_records = GetParam();
  const MafiaResult got = run_mafia(source, options);
  EXPECT_EQ(signature(expect), signature(got));
}

INSTANTIATE_TEST_SUITE_P(Chunks, ChunkSizeSweep,
                         ::testing::Values(1, 7, 100, 4096, 1 << 20));

TEST(Invariance, RecordOrderDoesNotChangeResults) {
  Dataset data = invariance_data();
  InMemorySource source(data);
  MafiaOptions options;
  options.fixed_domain = {{0.0f, 100.0f}};
  const auto before = signature(run_mafia(source, options));

  // Re-permute the records with an unrelated permutation.
  std::vector<RecordIndex> perm(data.num_records());
  std::iota(perm.begin(), perm.end(), RecordIndex{0});
  IcgRandom rng(999);
  shuffle(rng, perm.begin(), perm.end());
  data.permute(perm);
  InMemorySource shuffled(data);
  EXPECT_EQ(before, signature(run_mafia(shuffled, options)));
}

TEST(Invariance, RankCountDoesNotChangeResultsUnderAllOptionCombos) {
  const Dataset data = invariance_data();
  InMemorySource source(data);
  for (const DedupPolicy dedup : {DedupPolicy::Hash, DedupPolicy::Pairwise}) {
    for (const bool optimal : {true, false}) {
      MafiaOptions options;
      options.fixed_domain = {{0.0f, 100.0f}};
      options.dedup = dedup;
      options.optimal_task_partition = optimal;
      options.tau = 2;  // engage every parallel path
      const auto serial = signature(run_pmafia(source, options, 1));
      for (const int p : {2, 5}) {
        EXPECT_EQ(serial, signature(run_pmafia(source, options, p)))
            << "dedup=" << static_cast<int>(dedup) << " optimal=" << optimal
            << " p=" << p;
      }
    }
  }
}

TEST(Invariance, SpmdDeterminismSweepAcrossRankCounts) {
  // Serial vs p in {2, 3, 5, 8} on randomized workloads: the dense-unit
  // sets (cluster signatures) AND the populate counts must be bit-identical
  // — the per-level count_checksum hashes the full globalized count vector,
  // so any rank-dependent drift in the packed-key populate kernel (block
  // boundaries at partition edges, partial-block sweeps on the last chunk
  // of a rank's N/p records) fails here even when the dense flags happen to
  // agree.  tau = 2 engages every task-parallel phase.
  IcgRandom rng(20260806);
  for (int instance = 0; instance < 3; ++instance) {
    GeneratorConfig cfg;
    cfg.num_dims = 8 + uniform_index(rng, 6);
    cfg.num_records = 12000 + uniform_index(rng, 8000);
    cfg.seed = 555 + static_cast<std::uint64_t>(instance);
    const std::size_t nclusters = 1 + uniform_index(rng, 3);
    std::size_t dim_cursor = 0;
    for (std::size_t c = 0; c < nclusters; ++c) {
      const std::size_t cdims = 2 + uniform_index(rng, 2);
      std::vector<DimId> dims(cdims);
      for (std::size_t i = 0; i < cdims; ++i) {
        dims[i] = static_cast<DimId>((dim_cursor + i) % cfg.num_dims);
      }
      std::sort(dims.begin(), dims.end());
      dim_cursor += cdims;
      const Value lo = static_cast<Value>(10 + 22 * c);
      cfg.clusters.push_back(
          ClusterSpec::box(std::move(dims), std::vector<Value>(cdims, lo),
                           std::vector<Value>(cdims, lo + 9), 1.0));
    }
    const Dataset data = generate(cfg);
    InMemorySource source(data);
    MafiaOptions options;
    options.fixed_domain = {{0.0f, 100.0f}};
    options.tau = 2;

    const MafiaResult serial = run_pmafia(source, options, 1);
    const auto serial_sig = signature(serial);
    for (const int p : {2, 3, 5, 8}) {
      const MafiaResult par = run_pmafia(source, options, p);
      EXPECT_EQ(serial_sig, signature(par)) << "instance " << instance
                                            << " p=" << p;
      ASSERT_EQ(serial.levels.size(), par.levels.size())
          << "instance " << instance << " p=" << p;
      for (std::size_t l = 0; l < serial.levels.size(); ++l) {
        EXPECT_EQ(serial.levels[l].ncdu_raw, par.levels[l].ncdu_raw);
        EXPECT_EQ(serial.levels[l].ncdu, par.levels[l].ncdu);
        EXPECT_EQ(serial.levels[l].ndu, par.levels[l].ndu);
        EXPECT_EQ(serial.levels[l].count_checksum, par.levels[l].count_checksum)
            << "populate counts diverged at level " << serial.levels[l].level
            << " (instance " << instance << ", p=" << p << ")";
      }
    }
  }
}

/// `options` with a budget one byte below the run index of `grids` over a
/// worst-case partition of `records` at `p` ranks, so the run rescans
/// every level in chunk_records batches instead.
MafiaOptions rescan_options(MafiaOptions options, const GridSet& grids,
                            RecordIndex records, int p) {
  options.max_cdu_bytes =
      BitmapIndex::bytes_for(grids.total_bins(),
                             ceil_div(static_cast<std::size_t>(records),
                                      static_cast<std::size_t>(p))) -
      1;
  return options;
}

TEST(Invariance, PopulateKernelSelectionDoesNotChangeResults) {
  // Counting from the run index and the budget-forced per-level rescan,
  // at odd chunk sizes, must all reproduce the run-index results exactly,
  // through run_pmafia.
  const Dataset data = invariance_data();
  InMemorySource source(data);
  MafiaOptions reference;
  reference.fixed_domain = {{0.0f, 100.0f}};
  const MafiaResult expect = run_mafia(source, reference);

  for (const bool rescan : {false, true}) {
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{37},
                                    std::size_t{4096}}) {
      MafiaOptions options = reference;
      if (rescan) {
        options = rescan_options(options, expect.grids, data.num_records(), 1);
      }
      options.chunk_records = chunk;
      const MafiaResult got = run_mafia(source, options);
      EXPECT_EQ(signature(expect), signature(got))
          << "rescan=" << rescan << " chunk=" << chunk;
      ASSERT_EQ(expect.levels.size(), got.levels.size());
      for (std::size_t l = 0; l < expect.levels.size(); ++l) {
        EXPECT_EQ(expect.levels[l].count_checksum,
                  got.levels[l].count_checksum)
            << "rescan=" << rescan << " chunk=" << chunk
            << " level=" << expect.levels[l].level;
        EXPECT_EQ(got.levels[l].populate_rescan, rescan);
      }
    }
  }
}

TEST(Invariance, BitmapKernelIsRankInvariant) {
  // The index's per-rank bit ranges follow the SPMD record partition, so
  // its AND-reduction runs over different local row counts at every p —
  // and under the rescan, over different chunk sequences.  Counts, cluster
  // signatures, and the unjoined-DU report must still be bit-identical to
  // the serial run-index reference across the rank sweep.
  const Dataset data = invariance_data();
  InMemorySource source(data);
  MafiaOptions reference;
  reference.fixed_domain = {{0.0f, 100.0f}};
  reference.tau = 2;
  const MafiaResult expect = run_pmafia(source, reference, 1);

  for (const bool rescan : {false, true}) {
    for (const int p : {1, 2, 3, 5, 8}) {
      MafiaOptions options = reference;
      if (rescan) {
        options = rescan_options(options, expect.grids, data.num_records(), p);
      }
      options.chunk_records = 512;
      const MafiaResult got = run_pmafia(source, options, p);
      EXPECT_EQ(signature(expect), signature(got))
          << "rescan=" << rescan << " p=" << p;
      ASSERT_EQ(expect.levels.size(), got.levels.size()) << "p=" << p;
      for (std::size_t l = 0; l < expect.levels.size(); ++l) {
        EXPECT_EQ(expect.levels[l].count_checksum, got.levels[l].count_checksum)
            << "rescan=" << rescan << " p=" << p
            << " level=" << expect.levels[l].level;
        EXPECT_EQ(expect.levels[l].unjoined_dus, got.levels[l].unjoined_dus)
            << "rescan=" << rescan << " p=" << p
            << " level=" << expect.levels[l].level;
        EXPECT_EQ(expect.levels[l].unjoined_units, got.levels[l].unjoined_units)
            << "rescan=" << rescan << " p=" << p
            << " level=" << expect.levels[l].level;
        EXPECT_EQ(got.levels[l].populate_rescan, rescan);
      }
      EXPECT_EQ(expect.total_unjoined_dus(), got.total_unjoined_dus())
          << "rescan=" << rescan << " p=" << p;
    }
  }
}

TEST(Invariance, SeedChangesDataButNotDiscoveredStructure) {
  // Different generator seeds give different records but identical planted
  // structure; discovered subspaces must be stable across seeds.
  std::set<std::vector<DimId>> expected{{1, 5, 8}, {0, 3}};
  for (const std::uint64_t seed : {11ull, 22ull, 33ull, 44ull}) {
    const Dataset data = invariance_data(seed);
    InMemorySource source(data);
    MafiaOptions options;
    options.fixed_domain = {{0.0f, 100.0f}};
    const MafiaResult r = run_mafia(source, options);
    std::set<std::vector<DimId>> found;
    for (const Cluster& c : r.clusters) found.insert(c.dims);
    EXPECT_EQ(found, expected) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mafia
