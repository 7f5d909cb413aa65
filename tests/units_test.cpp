// Tests for the unit machinery: byte-array stores, the MAFIA/CLIQUE join
// kernels (including the paper's missed-candidate example), repeat
// elimination, population counting, and density identification.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "grid/uniform_grid.hpp"
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
  for (const auto& [dims, bins] : units) s.push(dims, bins);
  return s;
}

// -------------------------------------------------------------- UnitStore

TEST(UnitStore, SizeAndAccessors) {
  UnitStore s(2);
  EXPECT_TRUE(s.empty());
  s.push(std::vector<DimId>{1, 4}, std::vector<BinId>{7, 2});
  s.push(std::vector<DimId>{0, 9}, std::vector<BinId>{3, 3});
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.dims(0)[1], 4);
  EXPECT_EQ(s.bins(1)[0], 3);
}

TEST(UnitStore, PushRejectsUnsortedDims) {
  UnitStore s(2);
  EXPECT_THROW(s.push(std::vector<DimId>{4, 1}, std::vector<BinId>{0, 0}), Error);
  EXPECT_THROW(s.push(std::vector<DimId>{4, 4}, std::vector<BinId>{0, 0}), Error);
}

TEST(UnitStore, EqualityAndHash) {
  auto s = make_store(2, {{{1, 4}, {7, 2}}, {{1, 4}, {7, 2}}, {{1, 4}, {7, 3}}});
  EXPECT_TRUE(s.equal(0, 1));
  EXPECT_FALSE(s.equal(0, 2));
  EXPECT_EQ(s.hash(0), s.hash(1));
  EXPECT_NE(s.hash(0), s.hash(2));  // FNV-1a: different content, different hash here
}

TEST(UnitStore, ByteRoundTrip) {
  auto s = make_store(3, {{{0, 2, 5}, {1, 1, 1}}, {{1, 3, 4}, {9, 8, 7}}});
  UnitStore copy = UnitStore::from_bytes(3, s.dim_bytes(), s.bin_bytes());
  ASSERT_EQ(copy.size(), 2u);
  EXPECT_TRUE(copy.equal(0, s, 0));
  EXPECT_TRUE(copy.equal(1, s, 1));
}

TEST(UnitStore, FromBytesRejectsMisalignedArrays) {
  EXPECT_THROW((void)UnitStore::from_bytes(3, std::vector<DimId>(4),
                                           std::vector<BinId>(4)),
               Error);
  EXPECT_THROW((void)UnitStore::from_bytes(2, std::vector<DimId>(4),
                                           std::vector<BinId>(6)),
               Error);
}

TEST(UnitStore, AppendConcatenates) {
  auto a = make_store(1, {{{0}, {1}}});
  auto b = make_store(1, {{{2}, {3}}});
  a.append(b);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.dims(1)[0], 2);
}

TEST(UnitStore, ToStringRendersUnit) {
  auto s = make_store(2, {{{1, 7}, {3, 8}}});
  EXPECT_EQ(s.to_string(0), "{d1:b3, d7:b8}");
}

// ------------------------------------------------------------------- join

TEST(Join, PaperExampleMafiaFindsWhatCliqueMisses) {
  // Section 3: dense units {a1,b7,c8} and {b7,c8,d9} over dims (a,b,c,d) =
  // (1,7,8,9 by subscript... here dims 0,1,2,3 with bins 1,7,8,9):
  // MAFIA's any-(k-2) join yields the 4-d candidate {a1,b7,c8,d9};
  // CLIQUE's first-(k-2) prefix join yields nothing.
  auto dense = make_store(3, {{{0, 1, 2}, {1, 7, 8}}, {{1, 2, 3}, {7, 8, 9}}});

  const JoinResult mafia_join = join_dense_units(dense, JoinRule::MafiaAnyShared);
  ASSERT_EQ(mafia_join.cdus.size(), 1u);
  EXPECT_EQ(mafia_join.cdus.to_string(0), "{d0:b1, d1:b7, d2:b8, d3:b9}");
  EXPECT_EQ(mafia_join.parents.at(0), (std::pair<std::uint32_t, std::uint32_t>{0, 1}));
  EXPECT_EQ(mafia_join.combined, (std::vector<std::uint8_t>{1, 1}));

  const JoinResult clique_join = join_dense_units(dense, JoinRule::CliquePrefix);
  EXPECT_EQ(clique_join.cdus.size(), 0u);
  EXPECT_EQ(clique_join.combined, (std::vector<std::uint8_t>{0, 0}));
}

TEST(Join, SharedDimsRequireEqualBins) {
  auto dense = make_store(2, {{{0, 1}, {5, 5}}, {{1, 2}, {6, 5}}});
  // Shared dim 1 has bins 5 vs 6: incompatible.
  EXPECT_EQ(join_dense_units(dense, JoinRule::MafiaAnyShared).cdus.size(), 0u);
}

TEST(Join, OneDimensionalUnitsPairUp) {
  // k=2 join: any two dense 1-d units in different dims combine.
  auto dense = make_store(1, {{{0}, {3}}, {{1}, {5}}, {{1}, {6}}, {{2}, {0}}});
  const JoinResult r = join_dense_units(dense, JoinRule::MafiaAnyShared);
  // Pairs: (0,1),(0,2),(0,3),(1,3),(2,3) — (1,2) share dim 1 and differ in
  // bins, so they do not join.
  EXPECT_EQ(r.cdus.size(), 5u);
  // CLIQUE's rule coincides at k=2 (empty prefix).
  EXPECT_EQ(join_dense_units(dense, JoinRule::CliquePrefix).cdus.size(), 5u);
}

TEST(Join, ResultDimsAreSorted) {
  auto dense = make_store(2, {{{2, 7}, {1, 1}}, {{0, 7}, {4, 1}}});
  const JoinResult r = join_dense_units(dense, JoinRule::MafiaAnyShared);
  ASSERT_EQ(r.cdus.size(), 1u);
  const auto dims = r.cdus.dims(0);
  EXPECT_TRUE(std::is_sorted(dims.begin(), dims.end()));
  EXPECT_EQ(r.cdus.to_string(0), "{d0:b4, d2:b1, d7:b1}");
}

TEST(Join, RangePartitionUnionEqualsFullJoin) {
  // Split the i-range across 3 "ranks": the concatenation of their raw CDU
  // outputs must equal the full serial join (in pair order).
  auto dense = make_store(1, {{{0}, {1}},
                              {{1}, {1}},
                              {{2}, {1}},
                              {{3}, {1}},
                              {{4}, {1}},
                              {{5}, {1}}});
  const JoinResult full = join_dense_units(dense, JoinRule::MafiaAnyShared);

  UnitStore merged(2);
  std::vector<std::uint8_t> combined(dense.size(), 0);
  const std::size_t bounds[] = {0, 2, 4, 6};
  for (int r = 0; r < 3; ++r) {
    const JoinResult part = join_dense_units(dense, JoinRule::MafiaAnyShared,
                                             bounds[r], bounds[r + 1]);
    merged.append(part.cdus);
    for (std::size_t i = 0; i < combined.size(); ++i) {
      combined[i] |= part.combined[i];
    }
  }
  ASSERT_EQ(merged.size(), full.cdus.size());
  for (std::size_t u = 0; u < merged.size(); ++u) {
    EXPECT_TRUE(merged.equal(u, full.cdus, u)) << "unit " << u;
  }
  EXPECT_EQ(combined, full.combined);
}

TEST(Join, MafiaJoinMatchesBruteForceDefinition) {
  // Property test: for a batch of random-ish 3-d dense units, every pair
  // sharing exactly 2 (dim,bin) coordinates with a 4-dim union must appear
  // in the join output, and nothing else.
  std::vector<std::pair<std::vector<DimId>, std::vector<BinId>>> defs;
  for (DimId a = 0; a < 4; ++a) {
    for (DimId b = static_cast<DimId>(a + 1); b < 5; ++b) {
      for (DimId c = static_cast<DimId>(b + 1); c < 6; ++c) {
        defs.push_back({{a, b, c}, {static_cast<BinId>(a + b),
                                    static_cast<BinId>(b + c),
                                    static_cast<BinId>(a + c)}});
      }
    }
  }
  UnitStore dense = make_store(3, defs);
  const JoinResult r = join_dense_units(dense, JoinRule::MafiaAnyShared);

  // Brute force over pairs.
  std::size_t expected = 0;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    for (std::size_t j = i + 1; j < dense.size(); ++j) {
      std::map<DimId, BinId> merged;
      bool compatible = true;
      for (std::size_t t = 0; t < 3 && compatible; ++t) {
        merged[dense.dims(i)[t]] = dense.bins(i)[t];
      }
      for (std::size_t t = 0; t < 3 && compatible; ++t) {
        const DimId d = dense.dims(j)[t];
        const auto it = merged.find(d);
        if (it == merged.end()) {
          merged[d] = dense.bins(j)[t];
        } else if (it->second != dense.bins(j)[t]) {
          compatible = false;
        }
      }
      if (compatible && merged.size() == 4) ++expected;
    }
  }
  EXPECT_EQ(r.cdus.size(), expected);
}

// --------------------------------------------------------- bucketed kernel

TEST(Join, PaperExampleHoldsUnderBucketedKernel) {
  // The Section 3 example again, through the bucket-indexed kernel: MAFIA's
  // rule produces {a1,b7,c8,d9}, CLIQUE's prefix rule misses it — the
  // kernels must agree with the pairwise scan rule for rule.
  auto dense = make_store(3, {{{0, 1, 2}, {1, 7, 8}}, {{1, 2, 3}, {7, 8, 9}}});

  const JoinResult mafia_join =
      bucket_join_dense_units(dense, JoinRule::MafiaAnyShared);
  ASSERT_EQ(mafia_join.cdus.size(), 1u);
  EXPECT_EQ(mafia_join.cdus.to_string(0), "{d0:b1, d1:b7, d2:b8, d3:b9}");
  EXPECT_EQ(mafia_join.parents.at(0),
            (std::pair<std::uint32_t, std::uint32_t>{0, 1}));
  EXPECT_EQ(mafia_join.combined, (std::vector<std::uint8_t>{1, 1}));
  EXPECT_EQ(mafia_join.stats.emitted, 1u);

  const JoinResult clique_join =
      bucket_join_dense_units(dense, JoinRule::CliquePrefix);
  EXPECT_EQ(clique_join.cdus.size(), 0u);
  EXPECT_EQ(clique_join.combined, (std::vector<std::uint8_t>{0, 0}));
}

TEST(Join, BucketedMatchesPairwiseOnBruteForceStore) {
  // Same store as MafiaJoinMatchesBruteForceDefinition: the bucketed kernel
  // must reproduce the pairwise raw sequence bit for bit, parents included,
  // in strictly fewer probes (the point of the index).
  std::vector<std::pair<std::vector<DimId>, std::vector<BinId>>> defs;
  for (DimId a = 0; a < 4; ++a) {
    for (DimId b = static_cast<DimId>(a + 1); b < 5; ++b) {
      for (DimId c = static_cast<DimId>(b + 1); c < 6; ++c) {
        defs.push_back({{a, b, c}, {static_cast<BinId>(a + b),
                                    static_cast<BinId>(b + c),
                                    static_cast<BinId>(a + c)}});
      }
    }
  }
  UnitStore dense = make_store(3, defs);
  for (const JoinRule rule :
       {JoinRule::MafiaAnyShared, JoinRule::CliquePrefix}) {
    const JoinResult pw = join_dense_units(dense, rule);
    const JoinResult bk = bucket_join_dense_units(dense, rule);
    ASSERT_EQ(bk.cdus.size(), pw.cdus.size());
    for (std::size_t u = 0; u < pw.cdus.size(); ++u) {
      EXPECT_TRUE(bk.cdus.equal(u, pw.cdus, u)) << "unit " << u;
    }
    EXPECT_EQ(bk.parents, pw.parents);
    EXPECT_EQ(bk.combined, pw.combined);
    EXPECT_EQ(bk.stats.emitted, pw.stats.emitted);
    EXPECT_LT(bk.stats.probes, pw.stats.probes);
    EXPECT_GT(bk.stats.buckets, 0u);
  }
}

TEST(Join, BucketRangeUnionEqualsFullBucketedJoin) {
  // Split the index's unit ranges with the weight-balanced partitioner
  // ("rank" pieces concatenated in order, no sort): must equal both the
  // full bucketed join and the pairwise scan.
  std::vector<std::pair<std::vector<DimId>, std::vector<BinId>>> defs;
  for (DimId a = 0; a < 5; ++a) {
    for (DimId b = static_cast<DimId>(a + 1); b < 6; ++b) {
      defs.push_back({{a, b}, {static_cast<BinId>(a % 2), static_cast<BinId>(b % 2)}});
    }
  }
  UnitStore dense = make_store(2, defs);
  const JoinResult pw = join_dense_units(dense, JoinRule::MafiaAnyShared);

  const JoinBucketIndex index(dense, JoinRule::MafiaAnyShared);
  const auto bounds = weight_balanced_partition(index.unit_work(), 3);
  UnitStore merged(3);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> parents;
  std::uint64_t buckets = 0;
  for (std::size_t r = 0; r < 3; ++r) {
    const JoinResult part = index.join_raw(bounds[r], bounds[r + 1]);
    merged.append(part.cdus);
    parents.insert(parents.end(), part.parents.begin(), part.parents.end());
    buckets += part.stats.buckets;
  }
  EXPECT_EQ(buckets, index.num_buckets());
  ASSERT_EQ(merged.size(), pw.cdus.size());
  for (std::size_t u = 0; u < merged.size(); ++u) {
    EXPECT_TRUE(merged.equal(u, pw.cdus, u)) << "unit " << u;
  }
  EXPECT_EQ(parents, pw.parents);
}

TEST(Join, BucketedHandlesOneDimensionalUnits) {
  // k−1 == 1: the sub-signature is empty, so the index degenerates to one
  // global bucket and must still reproduce the pairwise output (the driver
  // joins level 2 through it).
  auto dense = make_store(1, {{{0}, {3}}, {{1}, {5}}, {{1}, {6}}, {{2}, {0}}});
  const JoinResult pw = join_dense_units(dense, JoinRule::MafiaAnyShared);
  const JoinResult bk = bucket_join_dense_units(dense, JoinRule::MafiaAnyShared);
  EXPECT_EQ(bk.stats.buckets, 1u);
  ASSERT_EQ(bk.cdus.size(), pw.cdus.size());
  for (std::size_t u = 0; u < pw.cdus.size(); ++u) {
    EXPECT_TRUE(bk.cdus.equal(u, pw.cdus, u)) << "unit " << u;
  }
  EXPECT_EQ(bk.parents, pw.parents);
}

TEST(Join, BucketedEmptyStore) {
  UnitStore dense(2);
  const JoinResult bk = bucket_join_dense_units(dense, JoinRule::MafiaAnyShared);
  EXPECT_EQ(bk.cdus.size(), 0u);
  EXPECT_EQ(bk.stats.probes, 0u);
}

// ------------------------------------------------------------------ dedup

UnitStore repeated_store() {
  return make_store(2, {{{0, 1}, {1, 1}},
                        {{0, 2}, {3, 3}},
                        {{0, 1}, {1, 1}},    // repeat of 0
                        {{1, 2}, {5, 5}},
                        {{0, 2}, {3, 3}},    // repeat of 1
                        {{0, 1}, {1, 1}}});  // repeat of 0
}

TEST(Dedup, HashRemovesRepeatsPreservingFirstOccurrenceOrder) {
  const UnitStore raw = repeated_store();
  const DedupResult dd = dedup_hash(raw);
  ASSERT_EQ(dd.unique.size(), 3u);
  EXPECT_EQ(dd.num_repeats, 3u);
  EXPECT_EQ(dd.unique.to_string(0), "{d0:b1, d1:b1}");
  EXPECT_EQ(dd.unique.to_string(1), "{d0:b3, d2:b3}");
  EXPECT_EQ(dd.unique.to_string(2), "{d1:b5, d2:b5}");
  EXPECT_EQ(dd.raw_to_unique,
            (std::vector<std::uint32_t>{0, 1, 0, 2, 1, 0}));
}

TEST(Dedup, PairwiseFlagsMatchDefinition) {
  const UnitStore raw = repeated_store();
  const auto flags = pairwise_repeat_flags(raw, 0, raw.size());
  EXPECT_EQ(flags, (std::vector<std::uint8_t>{0, 0, 1, 0, 1, 1}));
}

TEST(Dedup, PairwisePartitionedOrEqualsSerial) {
  const UnitStore raw = repeated_store();
  const auto serial = pairwise_repeat_flags(raw, 0, raw.size());
  std::vector<std::uint8_t> combined(raw.size(), 0);
  const std::size_t bounds[] = {0, 2, 4, 6};
  for (int r = 0; r < 3; ++r) {
    const auto part = pairwise_repeat_flags(raw, bounds[r], bounds[r + 1]);
    for (std::size_t i = 0; i < combined.size(); ++i) combined[i] |= part[i];
  }
  EXPECT_EQ(combined, serial);
}

TEST(Dedup, FlagsPathEqualsHashPath) {
  const UnitStore raw = repeated_store();
  const DedupResult a = dedup_hash(raw);
  const DedupResult b =
      dedup_from_flags(raw, pairwise_repeat_flags(raw, 0, raw.size()));
  ASSERT_EQ(a.unique.size(), b.unique.size());
  for (std::size_t u = 0; u < a.unique.size(); ++u) {
    EXPECT_TRUE(a.unique.equal(u, b.unique, u));
  }
  EXPECT_EQ(a.raw_to_unique, b.raw_to_unique);
  EXPECT_EQ(a.num_repeats, b.num_repeats);
}

class DedupEquivalenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(DedupEquivalenceSweep, HashAndPairwiseAgreeOnSyntheticBatches) {
  // Deterministic pseudo-random batch with heavy repetition.
  const int n = GetParam();
  UnitStore raw(2);
  std::uint64_t state = static_cast<std::uint64_t>(n) * 2654435761u + 1;
  for (int i = 0; i < n; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const DimId d0 = static_cast<DimId>((state >> 10) % 3);
    const DimId d1 = static_cast<DimId>(3 + (state >> 20) % 3);
    const BinId b0 = static_cast<BinId>((state >> 30) % 4);
    const BinId b1 = static_cast<BinId>((state >> 40) % 4);
    const DimId dims[2] = {d0, d1};
    const BinId bins[2] = {b0, b1};
    raw.push_unchecked(dims, bins);
  }
  const DedupResult a = dedup_hash(raw);
  const DedupResult b =
      dedup_from_flags(raw, pairwise_repeat_flags(raw, 0, raw.size()));
  ASSERT_EQ(a.unique.size(), b.unique.size());
  EXPECT_EQ(a.raw_to_unique, b.raw_to_unique);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DedupEquivalenceSweep,
                         ::testing::Values(0, 1, 2, 17, 64, 257, 1000));

// --------------------------------------------------------------- populate

GridSet tiny_grids() {
  // 3 dims over [0,10) with 5 uniform bins each (width 2).
  std::vector<Value> lo(3, 0.0f);
  std::vector<Value> hi(3, 10.0f);
  return compute_uniform_grids(lo, hi, 5, 0.2, 100);
}

TEST(Populate, CountsMatchBruteForce) {
  const GridSet grids = tiny_grids();
  // CDUs: two 2-d units in different subspaces.
  auto cdus = make_store(2, {{{0, 1}, {1, 2}}, {{1, 2}, {2, 0}}});

  // Records: (row values) -> bins are value/2.
  const std::vector<std::vector<Value>> rows{
      {2.5f, 4.1f, 0.5f},  // bins 1,2,0: in CDU0 and CDU1
      {2.0f, 5.9f, 1.9f},  // bins 1,2,0: in both
      {3.0f, 6.0f, 0.0f},  // bins 1,3,0: in neither
      {9.9f, 4.0f, 1.0f},  // bins 4,2,0: in CDU1 only
  };
  std::vector<Value> flat;
  for (const auto& r : rows) flat.insert(flat.end(), r.begin(), r.end());

  UnitPopulator pop(grids, cdus);
  pop.accumulate(flat.data(), rows.size());
  EXPECT_EQ(pop.counts(), (std::vector<Count>{2, 3}));
  EXPECT_EQ(pop.num_subspaces(), 2u);
}

TEST(Populate, ChunkedAccumulationEqualsOneShot) {
  const GridSet grids = tiny_grids();
  auto cdus = make_store(1, {{{0}, {0}}, {{0}, {4}}, {{2}, {2}}});

  std::vector<Value> flat;
  std::uint64_t state = 99;
  for (int i = 0; i < 300; ++i) {
    for (int j = 0; j < 3; ++j) {
      state = state * 6364136223846793005ull + 1;
      flat.push_back(static_cast<Value>((state >> 33) % 1000) / 100.0f);
    }
  }
  UnitPopulator whole(grids, cdus);
  whole.accumulate(flat.data(), 300);

  UnitPopulator chunked(grids, cdus);
  for (std::size_t at = 0; at < 300; at += 37) {
    const std::size_t take = std::min<std::size_t>(37, 300 - at);
    chunked.accumulate(flat.data() + at * 3, take);
  }
  EXPECT_EQ(whole.counts(), chunked.counts());
}

TEST(Populate, ValuesOutsideDomainClampToEdgeBins) {
  const GridSet grids = tiny_grids();
  auto cdus = make_store(1, {{{0}, {0}}, {{0}, {4}}});
  const std::vector<Value> flat{-5.0f, 0.0f, 0.0f, 15.0f, 0.0f, 0.0f};
  UnitPopulator pop(grids, cdus);
  pop.accumulate(flat.data(), 2);
  EXPECT_EQ(pop.counts(), (std::vector<Count>{1, 1}));
}

// --------------------------------------------------------------- identify

TEST(Identify, AllBinsPolicyRequiresMaxThreshold) {
  // Two dims with different per-bin thresholds.
  DimensionGrid g0;
  g0.dim = 0;
  g0.domain_lo = 0;
  g0.domain_hi = 10;
  g0.edges = {0, 5, 10};
  g0.thresholds = {10.0, 20.0};
  GridSet gs;
  gs.dims = {g0};
  DimensionGrid g1 = g0;
  g1.dim = 1;
  g1.thresholds = {30.0, 5.0};
  gs.dims.push_back(g1);

  auto cdus = make_store(2, {{{0, 1}, {0, 0}}, {{0, 1}, {1, 1}}});
  const DensityContext ctx{1.5, 100};
  // Unit 0 needs max(10, 30) = 30; unit 1 needs max(20, 5) = 20.
  EXPECT_DOUBLE_EQ(unit_threshold(cdus, 0, gs, DensityPolicy::AllBins, ctx), 30.0);
  EXPECT_DOUBLE_EQ(unit_threshold(cdus, 1, gs, DensityPolicy::AllBins, ctx), 20.0);
  EXPECT_DOUBLE_EQ(unit_threshold(cdus, 0, gs, DensityPolicy::AnyBin, ctx), 10.0);

  std::vector<Count> counts{25, 19};
  std::vector<std::uint8_t> flags(2, 0);
  const std::size_t found = identify_dense_units(
      cdus, counts, gs, DensityPolicy::AllBins, ctx, 0, 2, flags);
  EXPECT_EQ(found, 0u);
  counts = {30, 20};
  std::fill(flags.begin(), flags.end(), 0);
  EXPECT_EQ(identify_dense_units(cdus, counts, gs, DensityPolicy::AllBins, ctx,
                                 0, 2, flags),
            2u);
}

TEST(Identify, ScaledProductUsesIndependenceExpectation) {
  const GridSet grids = tiny_grids();  // bins of width 2 over [0,10]
  auto cdus = make_store(2, {{{0, 1}, {0, 0}}});
  const DensityContext ctx{2.0, 1000};
  // alpha * N * (2/10)*(2/10) = 2 * 1000 * 0.04 = 80.
  EXPECT_NEAR(unit_threshold(cdus, 0, grids, DensityPolicy::ScaledProduct, ctx),
              80.0, 1e-6);
}

TEST(Identify, RangeRestrictionLeavesOtherFlagsUntouched) {
  const GridSet grids = tiny_grids();
  auto cdus = make_store(1, {{{0}, {0}}, {{0}, {1}}, {{0}, {2}}});
  const std::vector<Count> counts{1000, 1000, 1000};
  std::vector<std::uint8_t> flags(3, 0);
  const DensityContext ctx{1.5, 100};
  identify_dense_units(cdus, counts, grids, DensityPolicy::AllBins, ctx, 1, 2, flags);
  EXPECT_EQ(flags, (std::vector<std::uint8_t>{0, 1, 0}));
}

TEST(Identify, BuildDenseStoreSelectsFlaggedRange) {
  auto cdus = make_store(1, {{{0}, {0}}, {{0}, {1}}, {{1}, {2}}, {{2}, {3}}});
  const std::vector<std::uint8_t> flags{1, 0, 1, 1};
  const UnitStore all = build_dense_store(cdus, flags);
  ASSERT_EQ(all.size(), 3u);
  const UnitStore tail = build_dense_store(cdus, flags, 2, 4);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail.to_string(0), "{d1:b2}");
}

}  // namespace
}  // namespace mafia
