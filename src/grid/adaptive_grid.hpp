// Algorithm 1: adaptive grid computation.
//
// From the paper (Section 3.1):
//   "The domain of each dimension is divided into fine intervals ... The
//    maximum of the histogram value within a window is taken to reflect the
//    window value.  Adjacent windows whose values differ by less than a
//    threshold percentage are merged together to form larger windows ...
//    In essence, we fit the best rectangular wave which matches the data
//    distribution.  However, in dimensions where data is uniformly
//    distributed this results in a single bin ... we split the domain into
//    a small fixed number of partitions ... This also allows us to set a
//    high threshold as this dimension is less likely to be part of a
//    cluster.  ... for a bin of size a in a dimension of size Dᵢ we set its
//    threshold to be α·N·a/Dᵢ."
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "grid/grid_types.hpp"
#include "grid/histogram.hpp"

namespace mafia {

/// Tuning knobs for Algorithm 1.  Defaults follow the paper where it gives
/// numbers (α = 1.5, β in [0.25, 0.75]) and sensible engineering choices
/// where it says "some small size" / "a small fixed number".
struct AdaptiveGridOptions {
  /// Fine histogram cells per dimension ("fine intervals ... of some small
  /// size": 1000 cells resolve 0.1% of the domain).
  std::size_t fine_bins = 1000;
  /// Fine cells per window; the window value is the max cell count inside.
  std::size_t window_cells = 5;
  /// Merge threshold percentage β: adjacent windows merge when their values
  /// differ by no more than beta * max(value_a, value_b).
  double beta = 0.35;
  /// Poisson slack added to the β merge test, in standard deviations of the
  /// larger window count: windows whose difference is statistically
  /// indistinguishable merge even when the relative difference exceeds β.
  /// Irrelevant at the paper's data sizes; prevents sparse background
  /// regions from shattering into noise bins on small samples.  0 disables.
  double merge_noise_sigmas = 3.0;
  /// "small fixed number of partitions" for equi-distributed dimensions.
  std::size_t uniform_dim_partitions = 5;
  /// Cluster-dominance factor α; > 1.5 is "significant deviation" (Sec. 3).
  double alpha = 1.5;
  /// Extra threshold factor for uniform-fallback dimensions ("set a high
  /// threshold as this dimension is less likely to be part of a cluster").
  double uniform_dim_alpha_boost = 2.0;
  /// Hard cap on bins per dimension (BinId is one byte).
  std::size_t max_bins = kMaxBinsPerDim;

  /// Preset tuned to the sample size: the rectangular-wave fit needs a few
  /// records per fine cell to be statistically meaningful, so small samples
  /// take coarser cells/windows (trading boundary precision, which is
  /// limited by sqrt-N noise anyway).  The defaults above are the
  /// large-sample (paper-scale) configuration.
  static AdaptiveGridOptions for_sample_size(Count n) {
    AdaptiveGridOptions o;
    if (n <= 2000) {
      o.fine_bins = 50;
      o.window_cells = 2;
      o.merge_noise_sigmas = 0.5;
    } else if (n <= 20000) {
      o.fine_bins = 100;
      o.window_cells = 2;
    } else if (n <= 200000) {
      o.fine_bins = 500;
      o.window_cells = 5;
    }
    return o;
  }

  /// Largest fine_bins accepted: 256 dims of it make a 128 MiB histogram,
  /// far below what the int32 cell index addresses.  The presets use 1000.
  static constexpr std::size_t kMaxFineBins = 65536;

  void validate() const {
    require(fine_bins >= 2, "AdaptiveGridOptions: fine_bins too small");
    require(fine_bins <= kMaxFineBins,
            "AdaptiveGridOptions: fine_bins above " +
                std::to_string(kMaxFineBins));
    require(window_cells >= 1 && window_cells <= fine_bins,
            "AdaptiveGridOptions: bad window_cells");
    require(beta >= 0.0 && beta <= 1.0, "AdaptiveGridOptions: beta outside [0,1]");
    require(merge_noise_sigmas >= 0.0,
            "AdaptiveGridOptions: merge_noise_sigmas must be non-negative");
    require(uniform_dim_partitions >= 1,
            "AdaptiveGridOptions: uniform_dim_partitions must be positive");
    require(alpha > 0.0, "AdaptiveGridOptions: alpha must be positive");
    require(uniform_dim_alpha_boost >= 1.0,
            "AdaptiveGridOptions: boost must be >= 1");
    require(max_bins >= 1 && max_bins <= kMaxBinsPerDim,
            "AdaptiveGridOptions: bad max_bins");
  }
};

/// Runs Algorithm 1 for one dimension given its global fine histogram.
/// `total_records` is N (the global record count) used for thresholds.
[[nodiscard]] DimensionGrid compute_adaptive_grid(
    DimId dim, Value domain_lo, Value domain_hi,
    std::span<const Count> fine_counts, Count total_records,
    const AdaptiveGridOptions& options);

/// Runs Algorithm 1 for every dimension of a reduced HistogramBuilder.
[[nodiscard]] GridSet compute_adaptive_grids(
    std::span<const Value> domain_lo, std::span<const Value> domain_hi,
    const HistogramBuilder& histogram, Count total_records,
    const AdaptiveGridOptions& options);

}  // namespace mafia
