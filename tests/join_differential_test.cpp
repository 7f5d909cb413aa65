// Oracle-differential suite for the bucketed join kernel: the paper's
// pairwise triangular scan (plus dedup_hash, Algorithm 4's engineering
// path) is the oracle.  The signature index's raw walk must reproduce the
// pairwise raw CDU sequence bit for bit — parents and combined flags
// included — and its canonical walk must reproduce pairwise join + dedup:
// the unique candidates in their order, the joining-pair count and the
// combined flags, serially and as the rank-order concatenation of unit
// ranges.  Instances are adversarial stores (single-bucket degenerate
// k−1 = 1, short and wide signatures, boundary bin values, duplicate units,
// repeat-heavy joins); end to end, run_pmafia under both kernels must
// yield identical clusters, level traces, and populate-count checksums at
// every rank count.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "clique/clique.hpp"
#include "cluster/assembly.hpp"
#include "core/mafia.hpp"
#include "datagen/generator.hpp"
#include "io/data_source.hpp"
#include "rng/distributions.hpp"
#include "rng/icg.hpp"
#include "taskpart/taskpart.hpp"
#include "units/dedup.hpp"
#include "units/identify.hpp"
#include "units/join.hpp"
#include "units/populate.hpp"
#include "units/unit_store.hpp"

namespace mafia {
namespace {

UnitStore make_store(std::size_t k,
                     const std::vector<std::pair<std::vector<DimId>,
                                                 std::vector<BinId>>>& units) {
  UnitStore s(k);
  for (const auto& [dims, bins] : units) {
    s.push_unchecked(dims.data(), bins.data());
  }
  return s;
}

/// Rank-order concatenation of a walk over the unit ranges of a weight-
/// balanced partition of `index` at `p` ranks: the merged CDUs, parents,
/// OR of the combined flags, and summed counters.
template <typename Walk>
JoinResult concat_ranges(const JoinBucketIndex& index, std::size_t n,
                         std::size_t k, std::size_t p, Walk walk) {
  JoinResult merged;
  merged.cdus = UnitStore(k);
  merged.combined.assign(n, 0);
  const auto bounds = weight_balanced_partition(index.unit_work(), p);
  for (std::size_t r = 0; r < p; ++r) {
    const JoinResult part = walk(bounds[r], bounds[r + 1]);
    merged.cdus.append(part.cdus);
    merged.parents.insert(merged.parents.end(), part.parents.begin(),
                          part.parents.end());
    for (std::size_t u = 0; u < n; ++u) merged.combined[u] |= part.combined[u];
    merged.stats.buckets += part.stats.buckets;
    merged.stats.probes += part.stats.probes;
    merged.stats.emitted += part.stats.emitted;
    merged.stats.repeats_fused += part.stats.repeats_fused;
  }
  return merged;
}

/// The core differential check, for both join rules: the raw walk against
/// the pairwise oracle (raw CDU byte sequence, parents, combined flags,
/// emission count), then the canonical walk against pairwise + dedup_hash
/// (unique bytes in order, joining-pair count, repeats, combined flags) —
/// each serially and as the rank-order concatenation of unit ranges at p
/// in {2, 3, 5, 8}.  Raw-walk probes never exceed pairwise probes — except
/// when the store holds duplicate units: a duplicated unit pair shares all
/// k−1 signatures, so the raw walk probes it once per bucket it meets in
/// (each probe fails to merge, so output is unaffected), while pairwise
/// probes every pair exactly once.  Callers with duplicate-heavy stores
/// pass expect_fewer_probes = false.  The canonical walk assumes what the
/// driver guarantees, a store without duplicate units, so it runs on the
/// instance with its duplicates removed.
void expect_kernels_identical(const UnitStore& dense,
                              bool expect_fewer_probes = true) {
  const std::size_t k = dense.k() + 1;
  for (const JoinRule rule :
       {JoinRule::MafiaAnyShared, JoinRule::CliquePrefix}) {
    const JoinResult pw = join_dense_units(dense, rule);
    const JoinResult bk = bucket_join_dense_units(dense, rule);
    const char* rname = rule == JoinRule::MafiaAnyShared ? "mafia" : "clique";

    ASSERT_EQ(bk.cdus.size(), pw.cdus.size()) << rname;
    ASSERT_EQ(bk.cdus.dim_bytes(), pw.cdus.dim_bytes()) << rname;
    ASSERT_EQ(bk.cdus.bin_bytes(), pw.cdus.bin_bytes()) << rname;
    EXPECT_EQ(bk.parents, pw.parents) << rname;
    EXPECT_EQ(bk.combined, pw.combined) << rname;
    EXPECT_EQ(bk.stats.emitted, pw.stats.emitted) << rname;
    if (expect_fewer_probes) {
      EXPECT_LE(bk.stats.probes, pw.stats.probes) << rname;
    }

    const DedupResult dpw = dedup_hash(pw.cdus);
    const DedupResult dbk = dedup_hash(bk.cdus);
    ASSERT_EQ(dbk.unique.dim_bytes(), dpw.unique.dim_bytes()) << rname;
    ASSERT_EQ(dbk.unique.bin_bytes(), dpw.unique.bin_bytes()) << rname;
    EXPECT_EQ(dbk.raw_to_unique, dpw.raw_to_unique) << rname;
    EXPECT_EQ(dbk.num_repeats, dpw.num_repeats) << rname;

    // Rank-partitioned raw walk: unit ranges concatenated in rank order,
    // with no sort, must equal the oracle at every rank count.
    const JoinBucketIndex index(dense, rule);
    for (const std::size_t p : {2u, 3u, 5u, 8u}) {
      const JoinResult merged = concat_ranges(
          index, dense.size(), k, p, [&index](std::size_t b, std::size_t e) {
            return index.join_raw(b, e);
          });
      EXPECT_EQ(merged.stats.buckets, index.num_buckets())
          << rname << " p=" << p;
      ASSERT_EQ(merged.cdus.dim_bytes(), pw.cdus.dim_bytes())
          << rname << " p=" << p;
      ASSERT_EQ(merged.cdus.bin_bytes(), pw.cdus.bin_bytes())
          << rname << " p=" << p;
      EXPECT_EQ(merged.parents, pw.parents) << rname << " p=" << p;
      EXPECT_EQ(merged.combined, pw.combined) << rname << " p=" << p;
    }

    // The canonical walk against pairwise join + dedup on the instance
    // without duplicate units.
    const UnitStore distinct = dedup_hash(dense).unique;
    const JoinResult opw = join_dense_units(distinct, rule);
    const DedupResult oracle = dedup_hash(opw.cdus);
    const JoinBucketIndex dindex(distinct, rule);
    std::vector<std::pair<std::size_t, JoinResult>> walks;
    walks.emplace_back(1, dindex.join_unique(0, distinct.size()));
    for (const std::size_t p : {2u, 3u, 5u, 8u}) {
      walks.emplace_back(
          p, concat_ranges(dindex, distinct.size(), k, p,
                           [&dindex](std::size_t b, std::size_t e) {
                             return dindex.join_unique(b, e);
                           }));
    }
    for (const auto& [p, cw] : walks) {
      ASSERT_EQ(cw.cdus.k(), k) << rname << " p=" << p;
      ASSERT_EQ(cw.cdus.dim_bytes(), oracle.unique.dim_bytes())
          << rname << " p=" << p;
      ASSERT_EQ(cw.cdus.bin_bytes(), oracle.unique.bin_bytes())
          << rname << " p=" << p;
      EXPECT_TRUE(cw.parents.empty()) << rname << " p=" << p;
      EXPECT_EQ(cw.stats.emitted, opw.stats.emitted) << rname << " p=" << p;
      EXPECT_EQ(cw.stats.repeats_fused, oracle.num_repeats)
          << rname << " p=" << p;
      EXPECT_EQ(cw.combined, opw.combined) << rname << " p=" << p;
      EXPECT_EQ(cw.stats.buckets, dindex.num_buckets()) << rname << " p=" << p;
      EXPECT_LE(cw.stats.probes, opw.stats.probes) << rname << " p=" << p;
    }
  }
}

// -------------------------------------------------- adversarial unit stores

TEST(JoinDifferential, SingleBucketDegenerateOneDimUnits) {
  // k−1 == 1: empty sub-signature, one global bucket.
  std::vector<std::pair<std::vector<DimId>, std::vector<BinId>>> defs;
  for (DimId d = 0; d < 6; ++d) {
    for (BinId b = 0; b < 4; ++b) defs.push_back({{d}, {b}});
  }
  expect_kernels_identical(make_store(1, defs));
}

TEST(JoinDifferential, PackedSignaturePathTwoDims) {
  // k−1 == 2: one (dim, bin) pair per signature — smallest packed path.
  std::vector<std::pair<std::vector<DimId>, std::vector<BinId>>> defs;
  for (DimId a = 0; a < 6; ++a) {
    for (DimId b = static_cast<DimId>(a + 1); b < 7; ++b) {
      defs.push_back({{a, b}, {static_cast<BinId>(a % 3),
                               static_cast<BinId>(b % 3)}});
    }
  }
  expect_kernels_identical(make_store(2, defs));
}

TEST(JoinDifferential, PackedSignaturePathAtEightByteBoundary) {
  // k−1 == 5: signatures are 4 (dim, bin) pairs = exactly 8 bytes, the
  // last store shape the packed-u64 path accepts.
  std::vector<std::pair<std::vector<DimId>, std::vector<BinId>>> defs;
  IcgRandom rng(42);
  for (int u = 0; u < 120; ++u) {
    std::vector<DimId> dims;
    DimId d = static_cast<DimId>(uniform_index(rng, 3));
    while (dims.size() < 5) {
      dims.push_back(d);
      d = static_cast<DimId>(d + 1 + uniform_index(rng, 2));
    }
    std::vector<BinId> bins(5);
    for (auto& b : bins) b = static_cast<BinId>(uniform_index(rng, 3));
    defs.push_back({std::move(dims), std::move(bins)});
  }
  expect_kernels_identical(make_store(5, defs));
}

TEST(JoinDifferential, WideSignatureMemcmpPath) {
  // k−1 == 6: signatures are 5 pairs = 10 bytes > 8, so the index must
  // take the flat-byte memcmp sort path.
  std::vector<std::pair<std::vector<DimId>, std::vector<BinId>>> defs;
  IcgRandom rng(43);
  for (int u = 0; u < 100; ++u) {
    std::vector<DimId> dims;
    DimId d = static_cast<DimId>(uniform_index(rng, 2));
    while (dims.size() < 6) {
      dims.push_back(d);
      d = static_cast<DimId>(d + 1 + uniform_index(rng, 2));
    }
    std::vector<BinId> bins(6);
    for (auto& b : bins) b = static_cast<BinId>(uniform_index(rng, 2));
    defs.push_back({std::move(dims), std::move(bins)});
  }
  expect_kernels_identical(make_store(6, defs));
}

TEST(JoinDifferential, BoundaryDimAndBinValues) {
  // Extreme byte values (bin 255, high dim ids) must not collide in the
  // packed signature or confuse the byte-wise sort.
  expect_kernels_identical(make_store(
      2, {{{0, 255}, {255, 255}},
          {{0, 254}, {255, 0}},
          {{254, 255}, {0, 255}},
          {{0, 255}, {255, 0}},
          {{1, 255}, {255, 255}},
          {{0, 1}, {255, 255}},
          {{1, 254}, {0, 0}}}));
}

TEST(JoinDifferential, DuplicateUnitsInDenseStore) {
  // The driver never feeds duplicate dense units, but the kernel contract
  // shouldn't depend on that: a duplicated unit meets its twin in every
  // shared bucket and the merge verifier rejects the pair each time, so
  // bucketed probes can exceed pairwise here — output must still match.
  expect_kernels_identical(make_store(
                               2, {{{0, 1}, {3, 4}},
                                   {{0, 1}, {3, 4}},
                                   {{1, 2}, {4, 5}},
                                   {{0, 1}, {3, 4}},
                                   {{0, 2}, {3, 5}}}),
                           /*expect_fewer_probes=*/false);
}

TEST(JoinDifferential, RepeatHeavyJoinOutput) {
  // A clique of units over one dense cell: every pair joins and nearly
  // every emission repeats — stresses the fused dedup comparison.
  std::vector<std::pair<std::vector<DimId>, std::vector<BinId>>> defs;
  for (DimId a = 0; a < 5; ++a) {
    for (DimId b = static_cast<DimId>(a + 1); b < 6; ++b) {
      defs.push_back({{a, b}, {7, 7}});
    }
  }
  expect_kernels_identical(make_store(2, defs));
}

TEST(JoinDifferential, SharedSubspaceManyBins) {
  // All units in the same 3-dim subspace with varying bins: buckets carry
  // many colliding entries whose merges mostly fail.
  std::vector<std::pair<std::vector<DimId>, std::vector<BinId>>> defs;
  for (BinId x = 0; x < 4; ++x) {
    for (BinId y = 0; y < 4; ++y) {
      for (BinId z = 0; z < 3; ++z) defs.push_back({{2, 5, 9}, {x, y, z}});
    }
  }
  expect_kernels_identical(make_store(3, defs));
}

TEST(JoinDifferential, RandomizedStoresSweep) {
  IcgRandom rng(20260806);
  for (int instance = 0; instance < 6; ++instance) {
    const std::size_t k = 2 + uniform_index(rng, 3);  // 2..4 dims
    const std::size_t nbins = 2 + uniform_index(rng, 4);
    std::vector<std::pair<std::vector<DimId>, std::vector<BinId>>> defs;
    const std::size_t n = 60 + uniform_index(rng, 120);
    for (std::size_t u = 0; u < n; ++u) {
      std::vector<DimId> dims;
      DimId d = static_cast<DimId>(uniform_index(rng, 2));
      while (dims.size() < k) {
        dims.push_back(d);
        d = static_cast<DimId>(d + 1 + uniform_index(rng, 2));
      }
      std::vector<BinId> bins(k);
      for (auto& b : bins) b = static_cast<BinId>(uniform_index(rng, nbins));
      defs.push_back({std::move(dims), std::move(bins)});
    }
    SCOPED_TRACE("instance " + std::to_string(instance));
    expect_kernels_identical(make_store(k, defs));
  }
}

// -------------------------------------------------------------- end-to-end

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

Dataset differential_data() {
  GeneratorConfig cfg;
  cfg.num_dims = 10;
  cfg.num_records = 20000;
  cfg.seed = 77;
  cfg.clusters.push_back(
      ClusterSpec::box({1, 5, 8}, {30, 30, 30}, {42, 42, 42}, 1.0));
  cfg.clusters.push_back(ClusterSpec::box({0, 3}, {60, 60}, {75, 75}, 1.0));
  return generate(cfg);
}

TEST(JoinDifferential, EndToEndKernelsAgreeAcrossRankCounts) {
  // run_pmafia under JoinKernel::Pairwise is the oracle; the bucketed
  // default must match it — clusters, per-level raw/unique/dense counts,
  // emissions, and the populate-count checksum (which hashes the full
  // globalized count vector, so any reordering or divergence in the unique
  // CDU sets fails here) — at every rank count, under both join rules.
  const Dataset data = differential_data();
  InMemorySource source(data);

  for (const JoinRule rule :
       {JoinRule::MafiaAnyShared, JoinRule::CliquePrefix}) {
    SCOPED_TRACE(rule == JoinRule::MafiaAnyShared ? "mafia" : "clique");
    MafiaOptions pairwise;
    pairwise.fixed_domain = {{0.0f, 100.0f}};
    pairwise.tau = 2;  // engage every task-parallel phase
    pairwise.join_rule = rule;
    pairwise.join.kernel = JoinKernel::Pairwise;
    MafiaOptions bucketed = pairwise;
    bucketed.join.kernel = JoinKernel::Bucketed;

    const MafiaResult oracle = run_pmafia(source, pairwise, 1);
    const auto oracle_sig = signature(oracle);
    ASSERT_GT(oracle.levels.size(), 2u);

    for (const int p : {1, 2, 3, 5, 8}) {
      const MafiaResult pw = run_pmafia(source, pairwise, p);
      const MafiaResult bk = run_pmafia(source, bucketed, p);
      EXPECT_EQ(oracle_sig, signature(pw)) << "pairwise p=" << p;
      EXPECT_EQ(oracle_sig, signature(bk)) << "bucketed p=" << p;
      ASSERT_EQ(bk.levels.size(), oracle.levels.size()) << "p=" << p;
      for (std::size_t l = 0; l < oracle.levels.size(); ++l) {
        EXPECT_EQ(bk.levels[l].ncdu_raw, oracle.levels[l].ncdu_raw);
        EXPECT_EQ(bk.levels[l].ncdu, oracle.levels[l].ncdu);
        EXPECT_EQ(bk.levels[l].ndu, oracle.levels[l].ndu);
        EXPECT_EQ(bk.levels[l].count_checksum, oracle.levels[l].count_checksum)
            << "level " << oracle.levels[l].level << " p=" << p;
        EXPECT_EQ(bk.levels[l].join_emitted, oracle.levels[l].join_emitted)
            << "level " << oracle.levels[l].level << " p=" << p;
        EXPECT_LE(bk.levels[l].join_probes, oracle.levels[l].join_probes)
            << "level " << oracle.levels[l].level << " p=" << p;
        // Emissions from a level-k join, minus fused repeats, are level k's
        // unique CDU count (levels[l] covers k = l+1; the join that produced
        // it is recorded on the same row).
        if (l > 0) {
          EXPECT_EQ(bk.levels[l].join_emitted - bk.levels[l].join_repeats_fused,
                    bk.levels[l].ncdu)
              << "level " << bk.levels[l].level << " p=" << p;
        }
      }
      // The trace fields are rank-count invariant within each kernel too.
      for (std::size_t l = 0; l < oracle.levels.size(); ++l) {
        EXPECT_EQ(pw.levels[l].join_probes, oracle.levels[l].join_probes)
            << "pairwise stats drifted with p at level " << l + 1;
      }
      // Kernel accounting: every joined level used the selected kernel
      // (level 2's k−1 = 1 parents join through the one empty-signature
      // bucket).
      EXPECT_EQ(pw.join_kernel.bucketed_levels, 0u);
      EXPECT_GT(bk.join_kernel.bucketed_levels, 0u);
      EXPECT_EQ(bk.join_kernel.pairwise_levels, 0u) << "p=" << p;
      EXPECT_EQ(bk.join_kernel.emitted, pw.join_kernel.emitted) << "p=" << p;
      EXPECT_LE(bk.join_kernel.probes, pw.join_kernel.probes) << "p=" << p;
    }
  }
}

TEST(JoinDifferential, DedupPolicyStillInvariantUnderPairwiseKernel) {
  // Repeat elimination runs only under the pairwise kernel, where the
  // DedupPolicy knob keeps its meaning, and both policies still agree with
  // the bucketed default, which emits no repeats.
  const Dataset data = differential_data();
  InMemorySource source(data);
  MafiaOptions base;
  base.fixed_domain = {{0.0f, 100.0f}};
  base.tau = 2;
  const auto ref = signature(run_pmafia(source, base, 2));  // bucketed+hash

  MafiaOptions pw = base;
  pw.join.kernel = JoinKernel::Pairwise;
  pw.dedup = DedupPolicy::Pairwise;
  EXPECT_EQ(ref, signature(run_pmafia(source, pw, 2)));
  pw.dedup = DedupPolicy::Hash;
  EXPECT_EQ(ref, signature(run_pmafia(source, pw, 2)));
}

// ------------------------------------------------- registration oracle

/// What a serial replay of the level loop produces.
struct ReplayedRun {
  std::vector<LevelTrace> levels;  ///< level, ncdu_raw, ncdu, ndu, checksum
  std::vector<Cluster> clusters;
};

/// Serial replay of the level loop over public calls, in the form that
/// marks parents from the raw parent pairs: join_dense_units with its
/// parents, dedup_hash with its raw→unique map, identify_dense_units,
/// build_dense_store, and assemble_clusters.  A dense unit is registered
/// as maximal when no raw pair that produced a dense candidate names it.
/// The grid phase is taken from `grids` (the run's own), so the replay
/// checks the level loop only.  No MDL pruning, checkpoint or append.
ReplayedRun replay_raw_pair_marking(const Dataset& data,
                                    const MafiaOptions& opt,
                                    const GridSet& grids) {
  ReplayedRun out;
  const auto n = static_cast<Count>(data.num_records());
  const DensityContext dctx{opt.grid.alpha, n};
  UnitStore cdus(1);
  for (std::size_t j = 0; j < grids.num_dims(); ++j) {
    for (std::size_t b = 0; b < grids[j].num_bins(); ++b) {
      const auto dj = static_cast<DimId>(j);
      const auto bb = static_cast<BinId>(b);
      cdus.push_unchecked(&dj, &bb);
    }
  }
  UnitStore prev_dense(1);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> parents;
  std::vector<std::uint32_t> raw_to_unique;
  std::vector<UnitStore> registered;
  const auto register_units = [&registered](const UnitStore& dense,
                                            const std::vector<std::uint8_t>* marked) {
    UnitStore reg(dense.k());
    for (std::size_t u = 0; u < dense.size(); ++u) {
      if (marked == nullptr || !(*marked)[u]) {
        reg.push_unchecked(dense.dims(u).data(), dense.bins(u).data());
      }
    }
    if (!reg.empty()) registered.push_back(std::move(reg));
  };
  std::size_t raw_count = cdus.size();
  for (std::size_t level = 1;; ++level) {
    UnitPopulator populator(grids, cdus);
    populator.accumulate(data.values().data(), static_cast<std::size_t>(n));
    const std::vector<Count> counts = populator.counts();
    std::vector<std::uint8_t> flags(cdus.size(), 0);
    identify_dense_units(cdus, counts, grids, opt.density, dctx, 0,
                         cdus.size(), flags);
    LevelTrace t;
    t.level = level;
    t.ncdu_raw = raw_count;
    t.ncdu = cdus.size();
    for (const std::uint8_t f : flags) t.ndu += (f != 0);
    t.count_checksum = count_vector_checksum(counts);
    out.levels.push_back(t);

    if (level > 1) {
      std::vector<std::uint8_t> marked(prev_dense.size(), 0);
      for (std::size_t r = 0; r < parents.size(); ++r) {
        if (flags[raw_to_unique[r]]) {
          marked[parents[r].first] = 1;
          marked[parents[r].second] = 1;
        }
      }
      register_units(prev_dense, &marked);
    }
    if (t.ndu == 0) break;
    UnitStore dense = build_dense_store(cdus, flags);
    if (level >= opt.max_level) {
      register_units(dense, nullptr);
      break;
    }
    prev_dense = std::move(dense);
    JoinResult jr = join_dense_units(prev_dense, opt.join_rule);
    if (jr.cdus.empty()) {
      register_units(prev_dense, nullptr);
      break;
    }
    raw_count = jr.cdus.size();
    parents = std::move(jr.parents);
    DedupResult dd = dedup_hash(jr.cdus);
    cdus = std::move(dd.unique);
    raw_to_unique = std::move(dd.raw_to_unique);
  }
  out.clusters = assemble_clusters(registered);
  std::erase_if(out.clusters, [&opt](const Cluster& c) {
    return c.dims.size() < opt.min_cluster_dims;
  });
  return out;
}

/// run_pmafia's levels and clusters against the replay: per-level
/// ncdu_raw, ncdu, ndu and count_checksum, and the clusters exactly
/// (order, subspaces, units and DNF).
void expect_matches_replay(const MafiaResult& r, const ReplayedRun& want,
                           const std::string& what) {
  ASSERT_EQ(r.levels.size(), want.levels.size()) << what;
  for (std::size_t l = 0; l < want.levels.size(); ++l) {
    const LevelTrace& a = r.levels[l];
    const LevelTrace& b = want.levels[l];
    EXPECT_EQ(a.ncdu_raw, b.ncdu_raw) << what << " level " << b.level;
    EXPECT_EQ(a.ncdu, b.ncdu) << what << " level " << b.level;
    EXPECT_EQ(a.ndu, b.ndu) << what << " level " << b.level;
    EXPECT_EQ(a.count_checksum, b.count_checksum)
        << what << " level " << b.level;
  }
  ASSERT_EQ(r.clusters.size(), want.clusters.size()) << what;
  for (std::size_t c = 0; c < want.clusters.size(); ++c) {
    const Cluster& x = r.clusters[c];
    const Cluster& y = want.clusters[c];
    EXPECT_EQ(x.dims, y.dims) << what << " cluster " << c;
    EXPECT_EQ(x.units.dim_bytes(), y.units.dim_bytes()) << what << " cluster " << c;
    EXPECT_EQ(x.units.bin_bytes(), y.units.bin_bytes()) << what << " cluster " << c;
    ASSERT_EQ(x.dnf.size(), y.dnf.size()) << what << " cluster " << c;
    for (std::size_t i = 0; i < y.dnf.size(); ++i) {
      EXPECT_EQ(x.dnf[i].lo, y.dnf[i].lo) << what << " cluster " << c;
      EXPECT_EQ(x.dnf[i].hi, y.dnf[i].hi) << what << " cluster " << c;
    }
  }
}

/// Planted boxes in 4- and 3-dim subspaces sharing dims, over a uniform
/// background: their candidates have many dense faces, so the MAFIA join
/// repeats heavily, and under CLIQUE's rule dense faces that are no
/// candidate's parent pair stay registered.
Dataset registration_data(std::uint64_t seed) {
  GeneratorConfig cfg;
  cfg.num_dims = 9;
  cfg.num_records = 12000;
  cfg.seed = seed;
  cfg.clusters.push_back(ClusterSpec::box({0, 2, 5, 7}, {20, 20, 20, 20},
                                          {32, 32, 32, 32}, 1.0));
  cfg.clusters.push_back(
      ClusterSpec::box({1, 5, 8}, {55, 60, 55}, {70, 72, 70}, 1.0));
  cfg.clusters.push_back(ClusterSpec::box({2, 3}, {70, 10}, {85, 25}, 0.6));
  return generate(cfg);
}

TEST(JoinDifferential, RegistrationMatchesRawPairReplay) {
  // Parent marking by unit content (every dense face under the MAFIA rule,
  // the last-two-dims pair under CLIQUE's) must register exactly the units
  // that marking from the raw parent pairs registers, under both join
  // kernels and every rank count.
  for (const std::uint64_t seed : {11u, 12u}) {
    const Dataset data = registration_data(seed);
    InMemorySource source(data);

    MafiaOptions mafia;
    mafia.fixed_domain = {{0.0f, 100.0f}};
    mafia.tau = 2;  // engage every task-parallel phase
    CliqueOptions clique;
    clique.xi = 8;
    clique.tau_fraction = 0.004;
    clique.fixed_domain = {{0.0f, 100.0f}};
    CliqueOptions modified = clique;
    modified.modified_join = true;

    std::size_t repeats = 0;
    for (const int p : {1, 2, 3}) {
      const std::string tag =
          "seed " + std::to_string(seed) + " p=" + std::to_string(p);
      for (const JoinKernel kernel :
           {JoinKernel::Bucketed, JoinKernel::Pairwise}) {
        MafiaOptions o = mafia;
        o.join.kernel = kernel;
        const MafiaResult r = run_pmafia(source, o, p);
        expect_matches_replay(r, replay_raw_pair_marking(data, o, r.grids),
                              "mafia " + tag);
        for (const LevelTrace& t : r.levels) repeats += t.ncdu_raw - t.ncdu;
      }
      for (const CliqueOptions* c : {&clique, &modified}) {
        const MafiaResult r = run_clique(source, *c, p);
        expect_matches_replay(
            r, replay_raw_pair_marking(data, to_mafia_options(*c), r.grids),
            (c->modified_join ? "modified clique " : "clique ") + tag);
        EXPECT_GT(r.clusters.size(), 0u) << tag;
      }
    }
    EXPECT_GT(repeats, 0u) << "seed " << seed << ": the shape has no repeats";
  }
}

}  // namespace
}  // namespace mafia
