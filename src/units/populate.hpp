// CDU population: counting how many records fall inside each candidate.
//
// This is the I/O-bound, data-parallel phase the paper says dominates run
// time ("bulk of the time is taken in populating the candidate dense units
// which is completely data parallel", Section 5.3).  Each rank counts its
// N/p records, and the driver Reduce-sums the local counts.
//
// A record lies in CDU {(d₁,b₁)..(d_k,b_k)} iff its bin index in dimension
// dᵢ equals bᵢ for all i (adaptive bins tile each dimension, so each value
// maps to exactly one bin).  One kernel counts that: the per-(dim, bin)
// bitmap index (units/bitmap_index.hpp), where a unit's count is the
// popcount of the AND of its k bitsets.  UnitPopulator is its front end and
// counts in one of two ways:
//   * from a prebuilt index — run_pmafia's run index, built once per run
//     over the rank's partition, so no level reads a record;
//   * from an index of its own over the dimensions its CDUs use: each
//     accumulate() batch is indexed, counted and cleared, so memory is
//     O(batch) whatever the record count.  Fed B-record chunks, this is
//     Algorithm 2's per-level pass over the data — run_pmafia's regime
//     when the run index does not fit --max-cdu-bytes.
// The index counts each CDU on its own, so duplicate CDU rows each get the
// full count, with or without a prior dedup pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "grid/grid_types.hpp"
#include "units/bitmap_index.hpp"
#include "units/unit_store.hpp"

namespace mafia {

/// Both values count with the bitmap index; the memory budget, not this
/// selection, picks between the run index and the per-level rescan.  The
/// enum and PopulateConfig stay only because the end-to-end benchmark
/// (perfbench/) names them; nothing in the library reads them.
enum class PopulateKernel { Auto, Bitmap };

/// See PopulateKernel.
struct PopulateConfig {
  PopulateKernel kernel = PopulateKernel::Auto;
};

/// Populate-phase counters, surfaced through MafiaResult and the JSON
/// report so a recorded populate time is attributable to the index work.
struct PopulateKernelStats {
  std::size_t bitmap_subspaces = 0;
  /// Peak bitmap-index footprint over the run's levels (bytes mapped for
  /// the bitsets): the run index, or the largest batch index.
  std::size_t bitmap_bytes = 0;
  /// Total 64-bit words ANDed by the counting, summed over all levels —
  /// the work metric of the AND+popcount reduction.
  std::size_t bitmap_words_anded = 0;

  void merge(const PopulateKernelStats& other) {
    bitmap_subspaces += other.bitmap_subspaces;
    if (other.bitmap_bytes > bitmap_bytes) bitmap_bytes = other.bitmap_bytes;
    bitmap_words_anded += other.bitmap_words_anded;
  }
};

class UnitPopulator {
 public:
  /// Prepares counting membership in `cdus` under `grids`.  With `index`
  /// (run_pmafia's run index) the counts are those of its rows, counted
  /// here, and accumulate() must not be called.  Without it the counts
  /// start at zero.  `grids`, `cdus` and `index` must outlive the
  /// populator.
  UnitPopulator(const GridSet& grids, const UnitStore& cdus,
                const PopulateConfig& config = {},
                const BitmapIndex* index = nullptr);

  /// Folds `nrows` row-major records (width = grids.num_dims()) into the
  /// local counts: the populator's own index takes the batch, counts it
  /// and is cleared, so it holds one batch at a time.
  void accumulate(const Value* rows, std::size_t nrows);

  /// Accumulates `base` element-wise into the counts — the append path's
  /// accumulate-into-existing-counts entry point.  run_pmafia seeds
  /// the stored global counts AFTER the batch-only allreduce, so every
  /// rank adds the base exactly once.  Throws mafia::Error when any sum
  /// would overflow Count.
  void seed_counts(std::span<const Count> base);

  /// Local counts per CDU (index-aligned with the input store), mutable so
  /// run_pmafia can allreduce_sum in place.
  [[nodiscard]] std::vector<Count>& counts() { return counts_; }
  [[nodiscard]] const std::vector<Count>& counts() const { return counts_; }

  /// Number of distinct subspaces among the CDUs (exposed for tests/benches).
  [[nodiscard]] std::size_t num_subspaces() const { return num_subspaces_; }

  /// Index footprint and AND work of this populator (for the run report
  /// and the benches).
  [[nodiscard]] const PopulateKernelStats& kernel_stats() const { return stats_; }

 private:
  const GridSet& grids_;
  const UnitStore& cdus_;
  std::vector<std::uint8_t> dim_used_;  // dimensions some CDU uses
  std::size_t num_subspaces_ = 0;
  PopulateKernelStats stats_;
  std::vector<Count> counts_;
  // The batch index accumulate() fills; empty when counting from a
  // prebuilt index.
  std::optional<BitmapIndex> own_index_;
};

}  // namespace mafia
