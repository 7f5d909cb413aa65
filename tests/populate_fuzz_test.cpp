// Fuzz tests for CDU population: the populator in both of its modes
// (prebuilt index, per-batch index) against the naive reference oracle
// (tests/populate_oracle.hpp), over randomized grids, candidates, records
// and batch splits.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "grid/adaptive_grid.hpp"
#include "grid/histogram.hpp"
#include "grid/uniform_grid.hpp"
#include "populate_oracle.hpp"
#include "rng/distributions.hpp"
#include "rng/icg.hpp"
#include "units/populate.hpp"

namespace mafia {
namespace {

/// Randomized grid per dimension: either uniform (random xi) or adaptive
/// from a random histogram.
GridSet random_grids(IcgRandom& rng, std::size_t d) {
  GridSet grids;
  for (std::size_t j = 0; j < d; ++j) {
    if (rng() % 2 == 0) {
      const std::size_t xi = 2 + uniform_index(rng, 18);
      grids.dims.push_back(compute_uniform_grid(static_cast<DimId>(j), 0.0f,
                                                100.0f, xi, 0.01, 1000));
    } else {
      AdaptiveGridOptions o;
      o.fine_bins = 50;
      o.window_cells = 2;
      std::vector<Count> counts(50);
      for (auto& c : counts) c = uniform_index(rng, 100);
      // Plant a step so there is usually more than one bin.
      const std::size_t lo = uniform_index(rng, 30);
      for (std::size_t c = lo; c < lo + 10; ++c) counts[c] += 5000;
      grids.dims.push_back(compute_adaptive_grid(static_cast<DimId>(j), 0.0f,
                                                 100.0f, counts, 100000, o));
    }
  }
  return grids;
}

class PopulateFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PopulateFuzz, MatchesOracleOnRandomInstances) {
  IcgRandom rng(GetParam());
  const std::size_t d = 3 + uniform_index(rng, 8);       // 3..10 dims
  const std::size_t k = 1 + uniform_index(rng, std::min<std::size_t>(d, 4));
  const std::size_t ncdu = 1 + uniform_index(rng, 60);
  const std::size_t nrows = 200 + uniform_index(rng, 800);

  const GridSet grids = random_grids(rng, d);
  const UnitStore cdus = random_cdus(rng, grids, k, ncdu);

  std::vector<Value> rows(nrows * d);
  for (auto& v : rows) {
    // Mostly in-domain, some outside to exercise clamping.
    v = static_cast<Value>(uniform_real(rng, -10.0, 110.0));
  }

  expect_both_modes_match_oracle(grids, cdus, rows,
                                 {nrows, 1 + uniform_index(rng, nrows)});
}

INSTANTIATE_TEST_SUITE_P(Seeds, PopulateFuzz,
                         ::testing::Range<std::uint64_t>(1, 25));

// Wide-unit fuzz: arities 6..10 (ANDing up to ten bitsets per unit), each
// instance counted in both modes at random batch splits and compared
// count-for-count against the oracle.
class PackedKeyFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PackedKeyFuzz, StraddlesPackedBoundaryAgainstOracle) {
  IcgRandom rng(GetParam() * 6364136223846793005ull + 1);
  const std::size_t d = 10 + uniform_index(rng, 6);  // 10..15 dims
  const std::size_t k = 6 + uniform_index(rng, 5);   // 6..10: spans k = 8/9
  const std::size_t ncdu = 1 + uniform_index(rng, 150);
  const std::size_t nrows = 300 + uniform_index(rng, 700);

  const GridSet grids = random_grids(rng, d);
  const UnitStore cdus = random_cdus(rng, grids, k, ncdu);
  std::vector<Value> rows(nrows * d);
  for (auto& v : rows) {
    v = static_cast<Value>(uniform_real(rng, -10.0, 110.0));
  }
  expect_both_modes_match_oracle(
      grids, cdus, rows,
      {1 + uniform_index(rng, 512), 1 + uniform_index(rng, 64)});
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackedKeyFuzz,
                         ::testing::Range<std::uint64_t>(1, 17));

TEST(PopulateInvariant, LevelOneCountsPartitionTheRecords) {
  // The level-1 candidate set is every bin of every dimension; since bins
  // tile each dimension, the counts of one dimension's bins must sum to N.
  IcgRandom rng(4242);
  const std::size_t d = 5;
  const GridSet grids = random_grids(rng, d);
  UnitStore cdus(1);
  for (std::size_t j = 0; j < d; ++j) {
    for (std::size_t b = 0; b < grids[j].num_bins(); ++b) {
      const auto dj = static_cast<DimId>(j);
      const auto bb = static_cast<BinId>(b);
      cdus.push_unchecked(&dj, &bb);
    }
  }
  constexpr std::size_t kRows = 5000;
  std::vector<Value> rows(kRows * d);
  for (auto& v : rows) v = static_cast<Value>(uniform_real(rng, 0.0, 100.0));

  UnitPopulator pop(grids, cdus);
  pop.accumulate(rows.data(), kRows);
  std::size_t at = 0;
  for (std::size_t j = 0; j < d; ++j) {
    Count sum = 0;
    for (std::size_t b = 0; b < grids[j].num_bins(); ++b) sum += pop.counts()[at++];
    EXPECT_EQ(sum, kRows) << "dimension " << j << " bins do not tile";
  }
}

}  // namespace
}  // namespace mafia
