// Oracle-differential proof of the populate kernel.
//
// The populator is driven in both of its modes — counting from a prebuilt
// bitmap index, and indexing, counting and clearing each accumulate()
// batch on its own — over the same instances as the naive reference
// oracle (tests/populate_oracle.hpp), at several batch splits, and must
// produce identical counts.  The instances cover the adversarial surface
// explicitly — k = 1, wide units (k = 8/9), a 256-bin dimension (full
// BinId range), duplicate bin rows across and within subspaces, records
// outside every CDU — plus randomized differential sweeps over datagen
// workloads with planted subspace clusters.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "datagen/generator.hpp"
#include "grid/uniform_grid.hpp"
#include "populate_oracle.hpp"
#include "rng/distributions.hpp"
#include "rng/icg.hpp"
#include "units/populate.hpp"

namespace mafia {
namespace {

/// Checks the instance in both populator modes, with accumulate() fed one
/// record at a time, odd batches, exactly one 64-bit word, one row past
/// it, and one batch larger than any instance.
void expect_oracle_counts(const GridSet& grids, const UnitStore& cdus,
                          const std::vector<Value>& rows) {
  expect_both_modes_match_oracle(grids, cdus, rows,
                                 {1, 3, 37, 64, 65, std::size_t{1} << 20});
}

/// Uniform grids over [0, 100] with the given bins per dimension.
GridSet uniform_grids(std::size_t d, std::size_t bins) {
  GridSet grids;
  for (std::size_t j = 0; j < d; ++j) {
    grids.dims.push_back(compute_uniform_grid(static_cast<DimId>(j), 0.0f,
                                              100.0f, bins, 0.01, 1000));
  }
  return grids;
}

std::vector<Value> random_rows(IcgRandom& rng, std::size_t nrows,
                               std::size_t d, double lo = -10.0,
                               double hi = 110.0) {
  std::vector<Value> rows(nrows * d);
  for (auto& v : rows) v = static_cast<Value>(uniform_real(rng, lo, hi));
  return rows;
}

TEST(PopulateOracle, SingleDimensionCandidates) {
  IcgRandom rng(101);
  const GridSet grids = uniform_grids(6, 10);
  const UnitStore cdus = random_cdus(rng, grids, 1, 40);
  expect_oracle_counts(grids, cdus, random_rows(rng, 700, 6));
}

TEST(PopulateOracle, PackedKeyBoundaryKEight) {
  // k = 8: eight bitsets ANDed per unit.
  IcgRandom rng(102);
  const GridSet grids = uniform_grids(12, 8);
  const UnitStore cdus = random_cdus(rng, grids, 8, 120);
  expect_oracle_counts(grids, cdus, random_rows(rng, 600, 12));
}

TEST(PopulateOracle, PackedKeyBoundaryKNine) {
  // k = 9: nine bitsets ANDed per unit; the index handles any k.
  IcgRandom rng(103);
  const GridSet grids = uniform_grids(12, 8);
  const UnitStore cdus = random_cdus(rng, grids, 9, 120);
  expect_oracle_counts(grids, cdus, random_rows(rng, 600, 12));
}

TEST(PopulateOracle, FullBinIdRangeIn256BinDimension) {
  // One dimension at the BinId limit (256 bins): bin indices occupy the
  // full byte range, so any bitset addressing that loses high bits or
  // sign-extends 0x80.. bytes shows up as count drift.
  IcgRandom rng(104);
  GridSet grids;
  grids.dims.push_back(compute_uniform_grid(0, 0.0f, 100.0f, 256, 0.01, 1000));
  grids.dims.push_back(compute_uniform_grid(1, 0.0f, 100.0f, 256, 0.01, 1000));
  grids.dims.push_back(compute_uniform_grid(2, 0.0f, 100.0f, 5, 0.01, 1000));

  UnitStore cdus(2);
  // Deliberately include the extreme bins 0 and 255 alongside random rows.
  for (const BinId hot : {BinId{0}, BinId{127}, BinId{128}, BinId{255}}) {
    const DimId dims01[2] = {0, 1};
    const BinId bins[2] = {hot, hot};
    cdus.push_unchecked(dims01, bins);
    const DimId dims02[2] = {0, 2};
    const BinId bins2[2] = {hot, 3};
    cdus.push_unchecked(dims02, bins2);
  }
  const UnitStore extra = random_cdus(rng, grids, 2, 90);
  UnitStore all(2);
  all.append(cdus);
  all.append(extra);
  expect_oracle_counts(grids, all, random_rows(rng, 2000, 3));
}

TEST(PopulateOracle, DuplicateBinRowsAcrossSubspaces) {
  // The same bin tuple planted in several distinct dimension sets: each
  // must AND its own dimensions' bitsets, so any state shared between
  // subspaces would miscount.
  IcgRandom rng(105);
  const GridSet grids = uniform_grids(8, 10);
  UnitStore cdus(3);
  const BinId bins[3] = {4, 4, 4};
  for (const auto& dims : std::vector<std::vector<DimId>>{
           {0, 1, 2}, {0, 1, 3}, {2, 3, 4}, {5, 6, 7}, {0, 6, 7}}) {
    cdus.push_unchecked(dims.data(), bins);
  }
  const UnitStore extra = random_cdus(rng, grids, 3, 50);
  UnitStore all(3);
  all.append(cdus);
  all.append(extra);
  expect_oracle_counts(grids, all, random_rows(rng, 1500, 8));
}

TEST(PopulateOracle, DuplicateCandidatesWithinASubspace) {
  // Identical CDUs repeated in one subspace (dedup normally removes these;
  // the counting contract must hold regardless): every duplicate row gets
  // the full count, in both modes.
  IcgRandom rng(106);
  const GridSet grids = uniform_grids(5, 10);
  UnitStore cdus(2);
  const DimId dims[2] = {1, 3};
  for (int rep = 0; rep < 3; ++rep) {
    const BinId bins[2] = {2, 7};
    cdus.push_unchecked(dims, bins);
  }
  const BinId other[2] = {2, 8};
  cdus.push_unchecked(dims, other);
  const UnitStore extra = random_cdus(rng, grids, 2, 60);
  UnitStore all(2);
  all.append(cdus);
  all.append(extra);
  expect_oracle_counts(grids, all, random_rows(rng, 1200, 5));

  // Spot-check the contract directly: the three duplicates carry equal
  // counts in the production configuration.
  UnitPopulator pop(grids, all);
  pop.accumulate(random_rows(rng, 500, 5).data(), 500);
  EXPECT_EQ(pop.counts()[0], pop.counts()[1]);
  EXPECT_EQ(pop.counts()[1], pop.counts()[2]);
}

TEST(PopulateOracle, RecordsOutsideEveryCandidate) {
  // All CDUs sit in bins the records never touch: both modes must report
  // all-zero counts (every AND is empty).
  const GridSet grids = uniform_grids(4, 10);
  UnitStore cdus(2);
  for (DimId a = 0; a < 3; ++a) {
    const DimId dims[2] = {a, static_cast<DimId>(a + 1)};
    const BinId bins[2] = {9, 9};  // top bin: records below never reach it
    cdus.push_unchecked(dims, bins);
  }
  IcgRandom rng(107);
  // Records confined to [0, 50) -> bins 0..4 only.
  const std::vector<Value> rows = random_rows(rng, 800, 4, 0.0, 50.0);
  expect_oracle_counts(grids, cdus, rows);
  UnitPopulator pop(grids, cdus);
  pop.accumulate(rows.data(), 800);
  for (const Count c : pop.counts()) EXPECT_EQ(c, 0u);
}

TEST(PopulateOracle, SixtyFourCandidatesInOneSubspace) {
  // 64 CDUs in one subspace: a power-of-two member count, at which a
  // lookup structure sized to the members would run out of headroom.  The
  // index needs none, and both modes must agree with the oracle.
  IcgRandom rng(108);
  const GridSet grids = uniform_grids(6, 12);
  UnitStore cdus(3);
  const DimId dims[3] = {1, 2, 4};
  std::size_t pushed = 0;
  while (pushed < 64) {  // 64 distinct bin rows in the one subspace
    const BinId bins[3] = {static_cast<BinId>(uniform_index(rng, 12)),
                           static_cast<BinId>(uniform_index(rng, 12)),
                           static_cast<BinId>(pushed % 12)};
    cdus.push_unchecked(dims, bins);
    ++pushed;
  }
  expect_oracle_counts(grids, cdus, random_rows(rng, 1500, 6));
}

TEST(PopulateOracle, BitmapKernelSupportsInterleavedCountsAndAccumulate) {
  // Every accumulate() counts its batch before returning, so reads
  // interleaved with further accumulation — growing and shrinking batches,
  // at row totals off the 64-row word grid — must see exact prefix counts
  // at every step.
  IcgRandom rng(109);
  const GridSet grids = uniform_grids(7, 9);
  const UnitStore cdus = random_cdus(rng, grids, 3, 70);
  const std::vector<Value> rows = random_rows(rng, 1000, 7);

  UnitPopulator pop(grids, cdus);
  std::size_t done = 0;
  for (const std::size_t chunk : {37u, 1u, 64u, 200u, 500u, 198u}) {
    pop.accumulate(rows.data() + done * 7, chunk);
    done += chunk;
    const std::vector<Count> expected =
        oracle_counts(grids, cdus, rows.data(), done);
    ASSERT_EQ(pop.counts().size(), expected.size());
    for (std::size_t u = 0; u < expected.size(); ++u) {
      ASSERT_EQ(pop.counts()[u], expected[u])
          << "cdu " << cdus.to_string(u) << " after " << done << " rows";
    }
  }
  ASSERT_EQ(done, 1000u);
  // A read with no new rows is a no-op.
  const std::vector<Count> again(pop.counts().begin(), pop.counts().end());
  EXPECT_EQ(again, oracle_counts(grids, cdus, rows.data(), 1000));
}

// ------------------------------------------- randomized datagen workloads

class PopulateOracleDatagen : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PopulateOracleDatagen, KernelsMatchOracleOnPlantedWorkloads) {
  IcgRandom rng(GetParam() * 7919);
  GeneratorConfig cfg;
  cfg.num_dims = 8 + uniform_index(rng, 8);  // 8..15 dims
  cfg.num_records = 1500;
  cfg.seed = GetParam();
  const std::size_t nclusters = 1 + uniform_index(rng, 3);
  for (std::size_t c = 0; c < nclusters; ++c) {
    const std::size_t cdims = 2 + uniform_index(rng, 3);
    std::vector<DimId> dims(cfg.num_dims);
    std::iota(dims.begin(), dims.end(), DimId{0});
    shuffle(rng, dims.begin(), dims.end());
    dims.resize(cdims);
    std::sort(dims.begin(), dims.end());
    const Value lo = static_cast<Value>(10 + 20 * c);
    cfg.clusters.push_back(
        ClusterSpec::box(std::move(dims), std::vector<Value>(cdims, lo),
                         std::vector<Value>(cdims, lo + 10), 1.0));
  }
  const Dataset data = generate(cfg);

  const GridSet grids = uniform_grids(cfg.num_dims, 3 + uniform_index(rng, 17));
  const std::size_t k =
      1 + uniform_index(rng, std::min<std::size_t>(cfg.num_dims, 10));
  const UnitStore cdus = random_cdus(rng, grids, k, 1 + uniform_index(rng, 120));
  expect_oracle_counts(grids, cdus, data.values());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PopulateOracleDatagen,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace mafia
