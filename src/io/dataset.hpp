// In-memory data set representation.
//
// A data set is a dense N x d table of float attribute values (row-major),
// optionally carrying per-record ground-truth labels from the synthetic
// generator (cluster id, kNoiseLabel for planted noise, kUnlabeledLabel when
// the source carried no truth at all).  Labels are never visible to the
// clustering algorithms — they exist only so the quality benches (Table 3,
// Fig 1.2) and the eval scoreboard can score discovered clusters against the
// planted truth.
//
// Values and labels live in page mappings (common/mapped_array.hpp):
// appending a batch to a large data set grows its mapping in place instead
// of copying it, and a freed data set returns its pages to the kernel at
// once.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/mapped_array.hpp"
#include "common/types.hpp"

namespace mafia {

class Dataset {
 public:
  Dataset() = default;

  /// Creates an empty data set with `dims` attributes.
  explicit Dataset(std::size_t dims) : dims_(dims) {
    require(dims >= 1 && dims <= kMaxDims, "Dataset: bad dimension count");
  }

  /// Takes `values` (row-major, `dims` per record) and one label per
  /// record: the bulk loader's path, which reads a file straight into the
  /// two arrays.
  Dataset(std::size_t dims, MappedArray<Value> values,
          MappedArray<std::int32_t> labels)
      : Dataset(dims) {
    require(values.size() == labels.size() * dims,
            "Dataset: values do not match the label count");
    values_ = std::move(values);
    labels_ = std::move(labels);
  }

  [[nodiscard]] RecordIndex num_records() const {
    return static_cast<RecordIndex>(labels_.size());
  }
  [[nodiscard]] std::size_t num_dims() const { return dims_; }

  /// Appends one record; `row.size()` must equal num_dims().  The default
  /// label is kUnlabeledLabel ("no ground truth"), NOT kNoiseLabel: a caller
  /// that knows a record is planted noise must say so explicitly.
  void append(std::span<const Value> row, std::int32_t label = kUnlabeledLabel) {
    require(row.size() == dims_, "Dataset::append: wrong row width");
    values_.append(row.data(), dims_);
    labels_.push_back(label);
  }

  /// Appends every record of `other`, labels included — the append-batch
  /// path concatenates the base data and the new batch with this.  The
  /// base grows in place; `other` may be this data set.
  void append_rows(const Dataset& other) {
    require(other.dims_ == dims_, "Dataset::append_rows: dimension mismatch");
    values_.append(other.values_.data(), other.values_.size());
    labels_.append(other.labels_.data(), other.labels_.size());
  }

  /// Reserves capacity for `n` records.
  void reserve(RecordIndex n) {
    values_.reserve(static_cast<std::size_t>(n) * dims_);
    labels_.reserve(static_cast<std::size_t>(n));
  }

  [[nodiscard]] std::span<const Value> row(RecordIndex i) const {
    return {values_.data() + static_cast<std::size_t>(i) * dims_, dims_};
  }
  [[nodiscard]] std::span<Value> mutable_row(RecordIndex i) {
    return {values_.data() + static_cast<std::size_t>(i) * dims_, dims_};
  }

  [[nodiscard]] Value at(RecordIndex i, std::size_t dim) const {
    return values_[static_cast<std::size_t>(i) * dims_ + dim];
  }

  [[nodiscard]] std::int32_t label(RecordIndex i) const {
    return labels_[static_cast<std::size_t>(i)];
  }
  void set_label(RecordIndex i, std::int32_t label) {
    labels_[static_cast<std::size_t>(i)] = label;
  }

  /// Every value, row-major.  The view is invalidated by any append.
  [[nodiscard]] std::span<const Value> values() const { return values_.span(); }
  /// One label per record.  The view is invalidated by any append.
  [[nodiscard]] std::span<const std::int32_t> labels() const {
    return labels_.span();
  }

  /// Reorders records by the given permutation (new[i] = old[perm[i]]).
  /// Used by the generator's record-order permutation step (Section 5.1).
  void permute(const std::vector<RecordIndex>& perm) {
    require(perm.size() == num_records(), "Dataset::permute: bad permutation size");
    MappedArray<Value> new_values(values_.size());
    MappedArray<std::int32_t> new_labels(labels_.size());
    for (std::size_t i = 0; i < perm.size(); ++i) {
      const auto src = static_cast<std::size_t>(perm[i]);
      for (std::size_t d = 0; d < dims_; ++d) {
        new_values[i * dims_ + d] = values_[src * dims_ + d];
      }
      new_labels[i] = labels_[src];
    }
    values_ = std::move(new_values);
    labels_ = std::move(new_labels);
  }

 private:
  std::size_t dims_ = 0;
  MappedArray<Value> values_;
  MappedArray<std::int32_t> labels_;
};

}  // namespace mafia
