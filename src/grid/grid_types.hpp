// Grid model: per-dimension bins with individual density thresholds.
//
// Both MAFIA's adaptive grids (variable-width bins, per-bin thresholds
// α·N·a/Dᵢ — Section 3.1) and CLIQUE's uniform grids (ξ equal bins, one
// global threshold — Section 3) produce a DimensionGrid, so the level-wise
// dense-unit machinery is grid-agnostic.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace mafia {

/// The bin structure of one dimension: `edges` has num_bins()+1 ascending
/// entries partitioning [domain_lo, domain_hi]; bin b covers
/// [edges[b], edges[b+1]) (last bin closed above).
struct DimensionGrid {
  DimId dim = 0;
  Value domain_lo = 0;
  Value domain_hi = 0;
  std::vector<Value> edges;
  /// Per-bin density threshold in absolute record counts: a bin (or any
  /// candidate unit containing it) must hold at least this many records to
  /// count as dense with respect to this bin.
  std::vector<double> thresholds;
  /// True when Algorithm 1 found the dimension equi-distributed and fell
  /// back to a fixed number of equal partitions with a boosted threshold.
  bool uniform_fallback = false;

  [[nodiscard]] std::size_t num_bins() const {
    return edges.empty() ? 0 : edges.size() - 1;
  }

  [[nodiscard]] Value bin_lo(BinId b) const { return edges[b]; }
  [[nodiscard]] Value bin_hi(BinId b) const { return edges[b + 1u]; }
  [[nodiscard]] Value bin_width(BinId b) const { return bin_hi(b) - bin_lo(b); }
  [[nodiscard]] double threshold(BinId b) const { return thresholds[b]; }

  /// Maps a value to its bin index.  Values outside the domain clamp to the
  /// first/last bin (records slightly out of the observed min/max range can
  /// occur when the grid was built on a different partition's extremes).
  [[nodiscard]] BinId bin_of(Value v) const {
    if (v <= edges.front()) return 0;
    if (v >= edges.back()) return static_cast<BinId>(num_bins() - 1);
    // upper_bound - 1, branch-free: the last edge e with !(v < e).  The
    // comparison feeds a conditional move, so binning every value of a
    // record pass does not stall on data-dependent branches.
    const Value* e = edges.data();
    std::size_t base = 0;
    std::size_t n = edges.size();
    while (n > 1) {
      const std::size_t half = n / 2;
      base = !(v < e[base + half]) ? base + half : base;
      n -= half;
    }
    return static_cast<BinId>(base);
  }

  /// Validates structural invariants; throws mafia::Error on violation.
  void validate() const {
    require(edges.size() >= 2, "DimensionGrid: need at least one bin");
    require(num_bins() <= kMaxBinsPerDim, "DimensionGrid: too many bins");
    require(thresholds.size() == num_bins(),
            "DimensionGrid: thresholds/bins mismatch");
    for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
      require(edges[i] < edges[i + 1], "DimensionGrid: edges not ascending");
    }
  }
};

/// The full grid: one DimensionGrid per attribute, indexed by DimId.
struct GridSet {
  std::vector<DimensionGrid> dims;

  [[nodiscard]] std::size_t num_dims() const { return dims.size(); }
  [[nodiscard]] const DimensionGrid& operator[](std::size_t d) const { return dims[d]; }

  /// Total bins across all dimensions (the size of the level-1 candidate set).
  [[nodiscard]] std::size_t total_bins() const {
    std::size_t n = 0;
    for (const auto& g : dims) n += g.num_bins();
    return n;
  }
};

}  // namespace mafia
