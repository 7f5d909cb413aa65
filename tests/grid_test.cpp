// Tests for histograms and grid construction — above all Algorithm 1's
// adaptive grids: structural invariants, rectangular-wave merging, the
// uniform-dimension fallback, and the threshold formula alpha*N*a/D.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "grid/adaptive_grid.hpp"
#include "grid/histogram.hpp"
#include "grid/uniform_grid.hpp"

namespace mafia {
namespace {

// -------------------------------------------------------------- histogram

TEST(MinMax, TracksExtremaAcrossChunks) {
  MinMaxAccumulator mm(2);
  const std::vector<Value> chunk1{1, 100, 5, -3};   // rows (1,100), (5,-3)
  const std::vector<Value> chunk2{-7, 50, 2, 200};  // rows (-7,50), (2,200)
  mm.accumulate(chunk1.data(), 2);
  mm.accumulate(chunk2.data(), 2);
  EXPECT_EQ(mm.mins(), (std::vector<Value>{-7, -3}));
  EXPECT_EQ(mm.maxs(), (std::vector<Value>{5, 200}));
}

TEST(Histogram, CountsLandInCorrectCells) {
  const std::vector<Value> lo{0.0f};
  const std::vector<Value> hi{10.0f};
  HistogramBuilder hb(lo, hi, 10);
  const std::vector<Value> rows{0.5f, 3.7f, 9.99f, 10.0f, -1.0f};
  hb.accumulate(rows.data(), 5);
  const auto counts = hb.dim_counts(0);
  EXPECT_EQ(counts[0], 2u);  // 0.5 and the clamped -1.0
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(counts[9], 2u);  // 9.99 and the clamped 10.0
}

TEST(Histogram, FarOutsideAFixedDomainClampsLikeBinOf) {
  // Finite values far outside the domain clamp to the first or last cell,
  // as bin_of clamps them to the first or last bin, instead of
  // overflowing the integer cast (1e30 scales to a cell of 1e31).
  const std::vector<Value> lo{0.0f};
  const std::vector<Value> hi{100.0f};
  const std::size_t cells = 1000;
  const Value big = std::numeric_limits<Value>::max();
  const std::vector<std::pair<Value, std::size_t>> cases{
      {1e30f, cells - 1}, {-1e30f, 0},    {big, cells - 1}, {-big, 0},
      {1e17f, cells - 1}, {150.0f, cells - 1}, {-0.5f, 0},
      {0.0f, 0},          {100.0f, cells - 1}};
  for (const auto& [v, cell] : cases) {
    HistogramBuilder hb(lo, hi, cells);
    hb.accumulate(&v, 1);
    EXPECT_EQ(hb.dim_counts(0)[cell], 1u) << "value " << v;
  }
}

TEST(Histogram, FlattenedLayoutIsDimMajor) {
  const std::vector<Value> lo{0.0f, 0.0f};
  const std::vector<Value> hi{10.0f, 10.0f};
  HistogramBuilder hb(lo, hi, 5);
  const std::vector<Value> rows{1.0f, 9.0f};
  hb.accumulate(rows.data(), 1);
  EXPECT_EQ(hb.counts()[0], 1u);          // dim 0, cell 0
  EXPECT_EQ(hb.counts()[5 + 4], 1u);      // dim 1, cell 4
  EXPECT_EQ(std::accumulate(hb.counts().begin(), hb.counts().end(), Count{0}),
            2u);
}

TEST(Histogram, DegenerateDimensionMapsToCellZero) {
  const std::vector<Value> lo{5.0f};
  const std::vector<Value> hi{5.0f};
  HistogramBuilder hb(lo, hi, 8);
  const std::vector<Value> rows{5.0f, 5.0f, 5.0f};
  hb.accumulate(rows.data(), 3);
  EXPECT_EQ(hb.dim_counts(0)[0], 3u);
}

TEST(Histogram, CountsMatchAPerValueReference) {
  // The two-loop accumulate (every dimension's cell, then the increments)
  // must count exactly what a per-value loop counts, at every width the
  // cell loop vectorizes differently: values inside and far outside the
  // domain, values on exact cell edges, and a degenerate dimension.
  std::mt19937_64 rng(22);
  for (const std::size_t d : {1u, 3u, 7u, 30u, 200u}) {
    const std::size_t cells = 40;
    std::vector<Value> lo(d);
    std::vector<Value> hi(d);
    for (std::size_t j = 0; j < d; ++j) {
      lo[j] = static_cast<Value>(j) - 10.0f;
      hi[j] = lo[j] + 20.0f;
    }
    hi[d / 2] = lo[d / 2];  // degenerate: every value lands in cell 0
    std::uniform_real_distribution<float> inside(-10.0f, 30.0f);
    std::uniform_int_distribution<int> pick(0, 5);
    std::uniform_int_distribution<std::size_t> edge(0, cells);
    const std::size_t nrows = 257;
    std::vector<Value> rows(nrows * d);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::size_t j = i % d;
      switch (pick(rng)) {
        case 0:  // an exact cell edge: lo + k * width / cells
          rows[i] = lo[j] + static_cast<Value>(edge(rng)) * 0.5f;
          break;
        case 1:
          rows[i] = -1e30f;
          break;
        case 2:
          rows[i] = 1e30f;
          break;
        default:
          rows[i] = lo[j] + inside(rng);
      }
    }
    HistogramBuilder hb(lo, hi, cells);
    hb.accumulate(rows.data(), 100);
    hb.accumulate(rows.data() + 100 * d, nrows - 100);

    std::vector<Count> expected(d * cells, 0);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::size_t j = i % d;
      const double width = static_cast<double>(hi[j]) - lo[j];
      const double scale = width > 0 ? static_cast<double>(cells) / width : 0.0;
      const double cell = (static_cast<double>(rows[i]) - lo[j]) * scale;
      const double clamped =
          std::min(std::max(cell, 0.0), static_cast<double>(cells - 1));
      ++expected[j * cells + static_cast<std::size_t>(clamped)];
    }
    EXPECT_EQ(hb.counts(), expected) << "d=" << d;
    EXPECT_EQ(hb.dim_counts(d / 2)[0], nrows) << "d=" << d;
  }
}

TEST(Histogram, RejectsACellCountPastTheCellIndex) {
  // 4 dims x (2^62 + 1) cells wraps to 4 in 64-bit arithmetic; the
  // builder must refuse it before sizing its counts.
  const std::vector<Value> lo(4, 0.0f);
  const std::vector<Value> hi(4, 1.0f);
  EXPECT_THROW(HistogramBuilder(lo, hi, (std::size_t{1} << 62) + 1), Error);
  EXPECT_THROW(HistogramBuilder(lo, hi, std::numeric_limits<std::size_t>::max()),
               Error);
  EXPECT_THROW(HistogramBuilder(lo, hi, std::size_t{1} << 30), Error);
  EXPECT_THROW(HistogramBuilder(lo, hi, 0), Error);
  const HistogramBuilder largest(lo, hi, AdaptiveGridOptions::kMaxFineBins);
  EXPECT_EQ(largest.counts().size(), 4 * AdaptiveGridOptions::kMaxFineBins);
}

// ---------------------------------------------------------- adaptive grid

AdaptiveGridOptions small_grid_options() {
  AdaptiveGridOptions o;
  o.fine_bins = 100;
  o.window_cells = 5;
  o.beta = 0.35;
  o.uniform_dim_partitions = 5;
  o.alpha = 1.5;
  return o;
}

/// Fine counts for a step distribution: `level_hi` inside [cell_lo,
/// cell_hi), `level_lo` elsewhere.
std::vector<Count> step_counts(std::size_t cells, std::size_t cell_lo,
                               std::size_t cell_hi, Count level_lo,
                               Count level_hi) {
  std::vector<Count> counts(cells, level_lo);
  for (std::size_t c = cell_lo; c < cell_hi; ++c) counts[c] = level_hi;
  return counts;
}

TEST(AdaptiveGrid, StepDistributionYieldsThreeBins) {
  const auto o = small_grid_options();
  // Step at cells [40, 60): three rectangular-wave segments.
  const auto counts = step_counts(100, 40, 60, 10, 1000);
  const DimensionGrid g =
      compute_adaptive_grid(0, 0.0f, 100.0f, counts, 100000, o);
  ASSERT_EQ(g.num_bins(), 3u);
  EXPECT_FALSE(g.uniform_fallback);
  EXPECT_FLOAT_EQ(g.edges[1], 40.0f);
  EXPECT_FLOAT_EQ(g.edges[2], 60.0f);
}

TEST(AdaptiveGrid, ThresholdIsAlphaNTimesBinFraction) {
  const auto o = small_grid_options();
  const auto counts = step_counts(100, 40, 60, 10, 1000);
  const Count n = 100000;
  const DimensionGrid g = compute_adaptive_grid(0, 0.0f, 100.0f, counts, n, o);
  // Middle bin covers 20% of the domain: threshold = 1.5 * N * 0.2.
  EXPECT_NEAR(g.threshold(1), 1.5 * 100000 * 0.2, 1e-6);
  EXPECT_NEAR(g.threshold(0), 1.5 * 100000 * 0.4, 1e-6);
}

TEST(AdaptiveGrid, UniformDataFallsBackToFixedPartitions) {
  const auto o = small_grid_options();
  const std::vector<Count> counts(100, 500);  // perfectly flat
  const Count n = 50000;
  const DimensionGrid g = compute_adaptive_grid(3, 0.0f, 100.0f, counts, n, o);
  EXPECT_TRUE(g.uniform_fallback);
  ASSERT_EQ(g.num_bins(), o.uniform_dim_partitions);
  // "set a high threshold": boosted by uniform_dim_alpha_boost.
  const double expected =
      o.alpha * o.uniform_dim_alpha_boost * static_cast<double>(n) / 5.0;
  EXPECT_NEAR(g.threshold(0), expected, 1e-6);
}

TEST(AdaptiveGrid, NoisyFlatDataStillMergesWithinBeta) {
  auto o = small_grid_options();
  o.beta = 0.35;
  // Values wiggling within 20% never cross the 35% merge threshold.
  std::vector<Count> counts(100);
  for (std::size_t c = 0; c < 100; ++c) counts[c] = 100 + (c % 7) * 3;
  const DimensionGrid g = compute_adaptive_grid(0, 0.0f, 100.0f, counts, 10000, o);
  EXPECT_TRUE(g.uniform_fallback);
}

TEST(AdaptiveGrid, BinsPartitionTheDomain) {
  const auto o = small_grid_options();
  const auto counts = step_counts(100, 10, 30, 5, 800);
  const DimensionGrid g = compute_adaptive_grid(0, -20.0f, 80.0f, counts, 9999, o);
  g.validate();
  EXPECT_FLOAT_EQ(g.edges.front(), -20.0f);
  EXPECT_FLOAT_EQ(g.edges.back(), 80.0f);
  for (std::size_t b = 0; b + 1 < g.edges.size(); ++b) {
    EXPECT_LT(g.edges[b], g.edges[b + 1]);
  }
}

TEST(AdaptiveGrid, HigherBetaProducesNoMoreBins) {
  // Monotonicity: raising beta can only merge more aggressively.
  std::vector<Count> counts(100);
  for (std::size_t c = 0; c < 100; ++c) {
    counts[c] = 50 + static_cast<Count>(40.0 * ((c / 10) % 2));
  }
  std::size_t prev_bins = kMaxBinsPerDim + 1;
  for (const double beta : {0.05, 0.25, 0.5, 0.75, 1.0}) {
    auto o = small_grid_options();
    o.beta = beta;
    const DimensionGrid g = compute_adaptive_grid(0, 0.0f, 100.0f, counts, 1000, o);
    EXPECT_LE(g.num_bins(), prev_bins) << "beta=" << beta;
    prev_bins = g.num_bins();
  }
}

TEST(AdaptiveGrid, SparseBackgroundDoesNotShatterIntoNoiseBins) {
  // Small-sample regression: background windows with tiny Poisson counts
  // (e.g. 9 vs 5) exceed beta relatively but are statistically equal; the
  // merge's noise slack must keep them in one bin while preserving the
  // genuine step at the cluster boundary.
  auto o = small_grid_options();
  std::vector<Count> counts(100);
  std::uint64_t state = 42;
  for (std::size_t c = 0; c < 100; ++c) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    counts[c] = 4 + (state >> 40) % 8;  // sparse noisy background: 4..11
  }
  for (std::size_t c = 40; c < 60; ++c) counts[c] = 180 + (c % 5);  // cluster
  const DimensionGrid g = compute_adaptive_grid(0, 0.0f, 100.0f, counts, 5000, o);
  ASSERT_EQ(g.num_bins(), 3u) << "noise fragmented the background";
  EXPECT_FLOAT_EQ(g.edges[1], 40.0f);
  EXPECT_FLOAT_EQ(g.edges[2], 60.0f);

  // With the slack disabled, the same histogram shatters.
  auto o0 = o;
  o0.merge_noise_sigmas = 0.0;
  const DimensionGrid g0 =
      compute_adaptive_grid(0, 0.0f, 100.0f, counts, 5000, o0);
  EXPECT_GT(g0.num_bins(), 3u);
}

TEST(AdaptiveGrid, NoiseSlackPreservesModestDensitySteps) {
  // A ~2.7x density step (cluster over background) must still split even
  // though the slack is active.
  const auto o = small_grid_options();
  const auto counts = step_counts(100, 30, 60, 35, 95);
  const DimensionGrid g = compute_adaptive_grid(0, 0.0f, 100.0f, counts, 4000, o);
  ASSERT_EQ(g.num_bins(), 3u);
  EXPECT_FLOAT_EQ(g.edges[1], 30.0f);
  EXPECT_FLOAT_EQ(g.edges[2], 60.0f);
}

TEST(AdaptiveGrid, MaxBinsCapIsEnforced) {
  auto o = small_grid_options();
  o.fine_bins = 200;
  o.window_cells = 1;
  o.beta = 0.0;  // merge nothing: every window is its own bin
  o.max_bins = 16;
  // Strictly alternating counts so no beta-merge happens.
  std::vector<Count> counts(200);
  for (std::size_t c = 0; c < 200; ++c) counts[c] = (c % 2) ? 1000 : 10;
  const DimensionGrid g = compute_adaptive_grid(0, 0.0f, 100.0f, counts, 10000, o);
  EXPECT_LE(g.num_bins(), 16u);
  g.validate();
}

TEST(AdaptiveGrid, DegenerateDomainYieldsSingleBin) {
  const auto o = small_grid_options();
  const std::vector<Count> counts(100, 0);
  const DimensionGrid g = compute_adaptive_grid(0, 42.0f, 42.0f, counts, 100, o);
  EXPECT_EQ(g.num_bins(), 1u);
  EXPECT_TRUE(g.uniform_fallback);
}

TEST(AdaptiveGrid, BinOfMapsValuesAndClamps) {
  const auto o = small_grid_options();
  const auto counts = step_counts(100, 40, 60, 10, 1000);
  const DimensionGrid g = compute_adaptive_grid(0, 0.0f, 100.0f, counts, 1000, o);
  ASSERT_EQ(g.num_bins(), 3u);
  EXPECT_EQ(g.bin_of(0.0f), 0);
  EXPECT_EQ(g.bin_of(39.9f), 0);
  EXPECT_EQ(g.bin_of(40.0f), 1);
  EXPECT_EQ(g.bin_of(59.9f), 1);
  EXPECT_EQ(g.bin_of(60.0f), 2);
  EXPECT_EQ(g.bin_of(100.0f), 2);
  EXPECT_EQ(g.bin_of(-5.0f), 0);    // clamp below
  EXPECT_EQ(g.bin_of(500.0f), 2);   // clamp above
}

TEST(DimensionGrid, BinOfMatchesUpperBoundAtEveryBinCount) {
  // bin_of's branch-free search must agree with upper_bound - 1 (clamped to
  // the domain) for every bin count a grid can have: on each edge, one ulp
  // either side of it, and outside the domain.
  std::uint32_t state = 12345;
  for (std::size_t nbins = 1; nbins <= kMaxBinsPerDim; ++nbins) {
    DimensionGrid g;
    g.edges.push_back(-3.0f);
    for (std::size_t b = 0; b < nbins; ++b) {
      state = state * 1664525u + 1013904223u;
      g.edges.push_back(g.edges.back() + 0.25f + static_cast<Value>(state >> 24) / 64.0f);
    }
    std::vector<Value> probes{g.edges.front() - 1.0f, g.edges.back() + 1.0f};
    for (const Value e : g.edges) {
      probes.push_back(e);
      probes.push_back(std::nextafter(e, -std::numeric_limits<Value>::infinity()));
      probes.push_back(std::nextafter(e, std::numeric_limits<Value>::infinity()));
    }
    for (const Value v : probes) {
      std::size_t expected = 0;
      if (v >= g.edges.back()) {
        expected = nbins - 1;
      } else if (v > g.edges.front()) {
        expected = static_cast<std::size_t>(
            std::upper_bound(g.edges.begin(), g.edges.end(), v) -
            g.edges.begin() - 1);
      }
      ASSERT_EQ(g.bin_of(v), expected) << "nbins=" << nbins << " v=" << v;
    }
  }
}

TEST(AdaptiveGrid, FullPipelineFromHistogramBuilder) {
  // Two dims: dim 0 has a concentration, dim 1 is uniform.
  const std::vector<Value> lo{0.0f, 0.0f};
  const std::vector<Value> hi{100.0f, 100.0f};
  auto o = small_grid_options();
  HistogramBuilder hb(lo, hi, o.fine_bins);
  std::vector<Value> rows;
  std::uint64_t state = 12345;
  const auto next01 = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  for (int i = 0; i < 20000; ++i) {
    const bool in_cluster = i % 2 == 0;
    rows.push_back(static_cast<Value>(in_cluster ? 30.0 + 10.0 * next01()
                                                 : 100.0 * next01()));
    rows.push_back(static_cast<Value>(100.0 * next01()));
  }
  hb.accumulate(rows.data(), 20000);
  const GridSet grids = compute_adaptive_grids(lo, hi, hb, 20000, o);
  ASSERT_EQ(grids.num_dims(), 2u);
  EXPECT_FALSE(grids[0].uniform_fallback);
  EXPECT_GE(grids[0].num_bins(), 3u);
  EXPECT_TRUE(grids[1].uniform_fallback);
  EXPECT_GT(grids.total_bins(), 0u);
}

TEST(AdaptiveGrid, SampleSizePresetsAreValidAndMonotone) {
  // Finer resolution for bigger samples; every preset validates.
  std::size_t prev_bins = 0;
  for (const Count n : {Count{200}, Count{5000}, Count{100000}, Count{1000000}}) {
    const AdaptiveGridOptions o = AdaptiveGridOptions::for_sample_size(n);
    o.validate();
    EXPECT_GE(o.fine_bins, prev_bins) << "n=" << n;
    prev_bins = o.fine_bins;
  }
  // Large samples get the paper-scale defaults.
  const AdaptiveGridOptions big = AdaptiveGridOptions::for_sample_size(1000000);
  const AdaptiveGridOptions def;
  EXPECT_EQ(big.fine_bins, def.fine_bins);
  EXPECT_EQ(big.window_cells, def.window_cells);
}

TEST(AdaptiveGrid, OptionValidation) {
  AdaptiveGridOptions o;
  o.beta = 1.5;
  EXPECT_THROW(o.validate(), Error);
  o = AdaptiveGridOptions{};
  o.window_cells = 0;
  EXPECT_THROW(o.validate(), Error);
  o = AdaptiveGridOptions{};
  o.fine_bins = 1;
  EXPECT_THROW(o.validate(), Error);
  // fine_bins is capped, so d x fine_bins cells can neither wrap nor
  // outgrow the histogram's int32 cell index.
  o.fine_bins = AdaptiveGridOptions::kMaxFineBins;
  EXPECT_NO_THROW(o.validate());
  for (const std::size_t bad :
       {AdaptiveGridOptions::kMaxFineBins + 1, std::size_t{3000000000},
        (std::size_t{1} << 62) + 1, std::numeric_limits<std::size_t>::max()}) {
    o.fine_bins = bad;
    try {
      o.validate();
      ADD_FAILURE() << "fine_bins " << bad << " accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.error_class(), ErrorClass::Usage);
      EXPECT_NE(std::string(e.what()).find("fine_bins above 65536"),
                std::string::npos)
          << e.what();
    }
  }
}

// ----------------------------------------------------------- uniform grid

TEST(UniformGrid, EqualBinsWithGlobalThreshold) {
  const DimensionGrid g = compute_uniform_grid(2, 0.0f, 100.0f, 10, 0.01, 5000);
  ASSERT_EQ(g.num_bins(), 10u);
  for (std::size_t b = 0; b < 10; ++b) {
    EXPECT_NEAR(g.bin_width(static_cast<BinId>(b)), 10.0f, 1e-4);
    EXPECT_NEAR(g.threshold(static_cast<BinId>(b)), 50.0, 1e-9);
  }
}

TEST(UniformGrid, PerDimBinCounts) {
  const std::vector<Value> lo{0.0f, 0.0f, 0.0f};
  const std::vector<Value> hi{100.0f, 100.0f, 100.0f};
  const std::vector<std::size_t> xi{5, 10, 20};
  const GridSet grids = compute_uniform_grids(lo, hi, xi, 0.02, 1000);
  EXPECT_EQ(grids[0].num_bins(), 5u);
  EXPECT_EQ(grids[1].num_bins(), 10u);
  EXPECT_EQ(grids[2].num_bins(), 20u);
}

TEST(UniformGrid, RejectsBadParameters) {
  EXPECT_THROW((void)compute_uniform_grid(0, 0.0f, 1.0f, 0, 0.01, 10), Error);
  EXPECT_THROW((void)compute_uniform_grid(0, 0.0f, 1.0f, 10, 0.0, 10), Error);
  EXPECT_THROW((void)compute_uniform_grid(0, 0.0f, 1.0f, 10, 1.5, 10), Error);
}

}  // namespace
}  // namespace mafia
