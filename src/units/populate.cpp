#include "units/populate.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <string_view>

namespace mafia {

UnitPopulator::UnitPopulator(const GridSet& grids, const UnitStore& cdus,
                             const PopulateConfig& /*config*/,
                             const BitmapIndex* index)
    : grids_(grids),
      cdus_(cdus),
      dim_used_(grids.num_dims(), 0),
      counts_(cdus.size(), 0) {
  // Distinct dimension sets, as views of the store's dim bytes.
  std::set<std::string_view> subspaces;
  for (std::size_t u = 0; u < cdus.size(); ++u) {
    const auto d = cdus.dims(u);
    for (const DimId j : d) {
      require(j < grids.num_dims(),
              "UnitPopulator: CDU dimension outside the grids");
      dim_used_[j] = 1;
    }
    subspaces.insert(
        std::string_view(reinterpret_cast<const char*>(d.data()), d.size()));
  }
  num_subspaces_ = subspaces.size();
  stats_.bitmap_subspaces = num_subspaces_;

  if (index != nullptr) {
    stats_.bitmap_bytes = index->bytes();
    stats_.bitmap_words_anded = index->count(cdus, counts_);
  } else {
    own_index_.emplace(grids, 0, dim_used_);
  }
}

void UnitPopulator::accumulate(const Value* rows, std::size_t nrows) {
  require(own_index_.has_value(),
          "UnitPopulator: accumulate() on a populator counting from a "
          "prebuilt index");
  // A larger batch than any before maps a fresh index; nothing indexed
  // survives a batch, so nothing is copied.
  if (nrows > own_index_->capacity()) {
    own_index_.emplace(grids_, nrows, dim_used_);
  }
  own_index_->add(rows, nrows);
  stats_.bitmap_bytes = std::max(stats_.bitmap_bytes, own_index_->bytes());
  stats_.bitmap_words_anded += own_index_->count(cdus_, counts_);
  own_index_->clear();
}

void UnitPopulator::seed_counts(std::span<const Count> base) {
  require(base.size() == counts_.size(),
          "UnitPopulator::seed_counts: base size mismatch");
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] > std::numeric_limits<Count>::max() - base[i]) {
      throw Error("UnitPopulator: unit-count accumulation overflowed",
                  ErrorClass::Internal);
    }
    counts_[i] += base[i];
  }
}

}  // namespace mafia
