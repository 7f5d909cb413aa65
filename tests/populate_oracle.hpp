// Reference oracle for CDU population, shared by the populate test suites.
//
// oracle_counts is the ground truth the populate kernel is proven
// against: a deliberately naive O(Ncdu * k)-per-record counter that tests
// bin membership straight from the definition (the record's bin index in
// every CDU dimension equals the CDU's bin index), with no index, no
// bitsets, no search structure — nothing shared with the code under test
// beyond DimensionGrid::bin_of.  The differential suites
// (populate_oracle_test, populate_fuzz_test) drive the populator in both
// of its modes and the oracle over the same instances and assert
// identical counts.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "grid/grid_types.hpp"
#include "rng/distributions.hpp"
#include "rng/icg.hpp"
#include "units/bitmap_index.hpp"
#include "units/populate.hpp"
#include "units/unit_store.hpp"

namespace mafia {

/// Ground-truth counts: for every record and CDU, membership by definition.
inline std::vector<Count> oracle_counts(const GridSet& grids,
                                        const UnitStore& cdus,
                                        const Value* rows, std::size_t nrows) {
  const std::size_t d = grids.num_dims();
  std::vector<Count> counts(cdus.size(), 0);
  for (std::size_t r = 0; r < nrows; ++r) {
    const Value* row = rows + r * d;
    for (std::size_t u = 0; u < cdus.size(); ++u) {
      const auto dims = cdus.dims(u);
      const auto bins = cdus.bins(u);
      bool inside = true;
      for (std::size_t i = 0; i < dims.size() && inside; ++i) {
        inside = grids[dims[i]].bin_of(row[dims[i]]) == bins[i];
      }
      counts[u] += inside ? 1 : 0;
    }
  }
  return counts;
}

/// Random CDU store of dimensionality k over the grid's dims (valid bins).
inline UnitStore random_cdus(IcgRandom& rng, const GridSet& grids,
                             std::size_t k, std::size_t count) {
  UnitStore cdus(k);
  const std::size_t d = grids.num_dims();
  std::vector<DimId> all_dims(d);
  std::iota(all_dims.begin(), all_dims.end(), DimId{0});
  std::vector<DimId> dims(k);
  std::vector<BinId> bins(k);
  for (std::size_t u = 0; u < count; ++u) {
    shuffle(rng, all_dims.begin(), all_dims.end());
    std::copy(all_dims.begin(),
              all_dims.begin() + static_cast<std::ptrdiff_t>(k), dims.begin());
    std::sort(dims.begin(), dims.end());
    for (std::size_t i = 0; i < k; ++i) {
      bins[i] =
          static_cast<BinId>(uniform_index(rng, grids[dims[i]].num_bins()));
    }
    cdus.push_unchecked(dims.data(), bins.data());
  }
  return cdus;
}

/// Counts `rows` in both populator modes — from a prebuilt index over
/// every row (filled in two add() calls), and through accumulate() in
/// batches of each size in `batches` — and asserts count-exact agreement
/// with the oracle.
inline void expect_both_modes_match_oracle(
    const GridSet& grids, const UnitStore& cdus, const std::vector<Value>& rows,
    const std::vector<std::size_t>& batches) {
  const std::size_t d = grids.num_dims();
  const std::size_t nrows = rows.size() / d;
  const std::vector<Count> expected =
      oracle_counts(grids, cdus, rows.data(), nrows);
  const auto expect_oracle = [&](const UnitPopulator& pop,
                                 const std::string& mode) {
    ASSERT_EQ(pop.counts().size(), expected.size());
    for (std::size_t u = 0; u < expected.size(); ++u) {
      ASSERT_EQ(pop.counts()[u], expected[u])
          << "cdu " << cdus.to_string(u) << " k=" << cdus.k() << " " << mode;
    }
  };

  BitmapIndex index(grids, nrows);
  const std::size_t split = nrows / 3;
  index.add(rows.data(), split);
  index.add(rows.data() + split * d, nrows - split);
  expect_oracle(UnitPopulator(grids, cdus, {}, &index), "prebuilt index");

  for (const std::size_t batch : batches) {
    UnitPopulator pop(grids, cdus);
    for (std::size_t at = 0; at < nrows; at += batch) {
      pop.accumulate(rows.data() + at * d, std::min(batch, nrows - at));
    }
    expect_oracle(pop, "batch=" + std::to_string(batch));
  }
}

}  // namespace mafia
