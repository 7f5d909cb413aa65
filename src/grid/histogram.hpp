// Fine-grained per-dimension histograms and domain (min/max) accumulation.
//
// Algorithm 2's first data pass builds "a histogram in each dimension"
// locally on each processor, then a Reduce-with-sum gathers the global
// histogram.  The accumulators here are plain flat vectors precisely so the
// mp::Comm::allreduce_sum primitive applies directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace mafia {

/// Tracks per-dimension minima and maxima over chunked record scans.
/// Combine across ranks with allreduce_min / allreduce_max on the vectors.
class MinMaxAccumulator {
 public:
  explicit MinMaxAccumulator(std::size_t dims)
      : mins_(dims, std::numeric_limits<Value>::max()),
        maxs_(dims, std::numeric_limits<Value>::lowest()) {}

  /// Folds `nrows` row-major records into the running extrema.
  void accumulate(const Value* rows, std::size_t nrows) {
    const std::size_t d = mins_.size();
    for (std::size_t r = 0; r < nrows; ++r) {
      const Value* row = rows + r * d;
      for (std::size_t j = 0; j < d; ++j) {
        if (row[j] < mins_[j]) mins_[j] = row[j];
        if (row[j] > maxs_[j]) maxs_[j] = row[j];
      }
    }
  }

  [[nodiscard]] std::vector<Value>& mins() { return mins_; }
  [[nodiscard]] std::vector<Value>& maxs() { return maxs_; }
  [[nodiscard]] const std::vector<Value>& mins() const { return mins_; }
  [[nodiscard]] const std::vector<Value>& maxs() const { return maxs_; }

 private:
  std::vector<Value> mins_;
  std::vector<Value> maxs_;
};

/// Builds the fine histogram Algorithm 1 consumes: every dimension's domain
/// divided into `fine_bins` equal cells, counts accumulated over chunked
/// scans.  Counts are stored flattened (dim-major) so one allreduce_sum
/// globalizes all dimensions at once.
class HistogramBuilder {
 public:
  HistogramBuilder(std::span<const Value> domain_lo, std::span<const Value> domain_hi,
                   std::size_t fine_bins)
      : fine_bins_(fine_bins),
        lo_(domain_lo.begin(), domain_lo.end()),
        inv_width_(domain_lo.size()),
        offset_(domain_lo.size()),
        cells_(domain_lo.size()),
        counts_(cell_count(domain_lo.size(), fine_bins), 0) {
    require(domain_lo.size() == domain_hi.size(), "HistogramBuilder: lo/hi mismatch");
    for (std::size_t j = 0; j < lo_.size(); ++j) {
      const double width = static_cast<double>(domain_hi[j]) - lo_[j];
      // Degenerate (constant) dimensions map everything to cell 0.
      inv_width_[j] = width > 0 ? static_cast<double>(fine_bins) / width : 0.0;
      offset_[j] = static_cast<std::int32_t>(j * fine_bins);
    }
  }

  /// Folds `nrows` row-major records into the counts.
  void accumulate(const Value* rows, std::size_t nrows) {
    const std::size_t d = lo_.size();
    const double last = static_cast<double>(fine_bins_ - 1);
    std::int32_t* cells = cells_.data();
    for (std::size_t r = 0; r < nrows; ++r) {
      const Value* row = rows + r * d;
      // Every dimension's flattened cell first, then the increments: the
      // cell loop holds no store the next value's load could depend on,
      // so it vectorizes.
      for (std::size_t j = 0; j < d; ++j) {
        // Clamped in double before the cast, which a finite value far
        // outside the domain would overflow; values outside it land in
        // the first or last cell, as DimensionGrid::bin_of clamps them.
        // A NaN fails `cell > 0` and lands in cell 0.
        double cell = (static_cast<double>(row[j]) - lo_[j]) * inv_width_[j];
        cell = cell > 0.0 ? cell : 0.0;
        cell = cell < last ? cell : last;
        cells[j] = static_cast<std::int32_t>(cell) + offset_[j];
      }
      for (std::size_t j = 0; j < d; ++j) {
        ++counts_[static_cast<std::size_t>(cells[j])];
      }
    }
  }

  /// Accumulates `base` element-wise into the counts — the append path
  /// seeds a stored global histogram and scans only the new batch.  The
  /// SPMD driver seeds AFTER the batch-only allreduce so every rank adds
  /// the base exactly once.  Throws mafia::Error on Count overflow (the
  /// appended total crossing the accumulator's range must fail loudly,
  /// not wrap).
  void seed_counts(std::span<const Count> base) {
    require(base.size() == counts_.size(),
            "HistogramBuilder::seed_counts: base size mismatch");
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] > std::numeric_limits<Count>::max() - base[i]) {
        throw Error("HistogramBuilder: histogram accumulation overflowed",
                    ErrorClass::Internal);
      }
      counts_[i] += base[i];
    }
  }

  [[nodiscard]] std::size_t fine_bins() const { return fine_bins_; }
  [[nodiscard]] std::size_t num_dims() const { return lo_.size(); }

  /// Flattened counts (dim-major), mutable so callers can allreduce in place.
  [[nodiscard]] std::vector<Count>& counts() { return counts_; }
  [[nodiscard]] const std::vector<Count>& counts() const { return counts_; }

  /// The fine-cell counts of one dimension.
  [[nodiscard]] std::span<const Count> dim_counts(std::size_t j) const {
    return {counts_.data() + j * fine_bins_, fine_bins_};
  }

 private:
  /// The d x fine_bins cells, which the int32 flattened cell index must
  /// address; checked before the counts are allocated.
  static std::size_t cell_count(std::size_t dims, std::size_t fine_bins) {
    require(fine_bins >= 1, "HistogramBuilder: fine_bins must be positive");
    constexpr auto kMaxCells =
        static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max());
    if (dims > kMaxCells / fine_bins) {
      throw Error("HistogramBuilder: " + std::to_string(dims) + " dims x " +
                  std::to_string(fine_bins) +
                  " fine bins overflow the histogram's cell index");
    }
    return dims * fine_bins;
  }

  std::size_t fine_bins_;
  std::vector<double> lo_;
  std::vector<double> inv_width_;
  std::vector<std::int32_t> offset_;  // j * fine_bins_
  std::vector<std::int32_t> cells_;   // one row's flattened cells
  std::vector<Count> counts_;
};

}  // namespace mafia
