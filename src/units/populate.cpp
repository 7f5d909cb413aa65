#include "units/populate.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <type_traits>

namespace mafia {

// Row-layout contract for the memcmp-based sort and search (the k > 8
// fallback): a unit's bin tuple is k_ contiguous BinId elements, so a row
// occupies exactly k_ * sizeof(BinId) bytes with no padding, and byte-wise
// comparison yields a consistent total order between the sort and the
// search (for multi-byte BinId it is not the numeric tuple order, which is
// fine — only consistency and equality matter here).  The packed kernels
// additionally require sizeof(BinId) == 1 (asserted next to pack_bin_key);
// a wider BinId falls back to this memcmp path at compile time.
static_assert(std::is_trivially_copyable_v<BinId> &&
                  std::has_unique_object_representations_v<BinId>,
              "UnitPopulator compares bin rows with memcmp; BinId must have "
              "no padding bits");

namespace {

/// Empty-slot sentinel of the open-addressing tables.
constexpr std::uint32_t kEmptySlot = 0xffffffffu;

/// splitmix64 finalizer: spreads packed keys (which concentrate entropy in
/// the low bytes for small k) over the whole table.
inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Branchless lower bound over a sorted uint64 array: the comparison feeds
/// a conditional add instead of a branch, so the search pipeline never
/// stalls on the data-dependent direction the memcmp path branches on.
inline std::size_t lower_bound_u64(const std::uint64_t* a, std::size_t n,
                                   std::uint64_t key) {
  std::size_t base = 0;
  while (n > 1) {
    const std::size_t half = n / 2;
    base += (a[base + half - 1] < key) ? half : 0;
    n -= half;
  }
  return base + (n == 1 && a[base] < key ? 1 : 0);
}

}  // namespace

UnitPopulator::UnitPopulator(const GridSet& grids, const UnitStore& cdus,
                             const PopulateConfig& config,
                             const BitmapIndex* index)
    : grids_(grids),
      cdus_(cdus),
      k_(cdus.k()),
      packed_(cdus.k() <= kPackedKeyMaxDims &&
              config.kernel == PopulateKernel::Packed),
      cfg_(config),
      counts_(cdus.size(), 0),
      dim_used_(grids.num_dims(), 0),
      key_scratch_(cdus.k()) {
  require(cfg_.block_records >= 1, "UnitPopulator: block_records must be positive");
  const bool bitmap = index != nullptr || cfg_.kernel == PopulateKernel::Auto ||
                      cfg_.kernel == PopulateKernel::Bitmap;
  stats_.block_records = cfg_.block_records;

  // Group CDU indices by dimension set.
  std::map<std::vector<DimId>, std::vector<std::uint32_t>> by_subspace;
  for (std::size_t u = 0; u < cdus.size(); ++u) {
    const auto d = cdus.dims(u);
    std::vector<DimId> key(d.begin(), d.end());
    by_subspace[std::move(key)].push_back(static_cast<std::uint32_t>(u));
  }
  num_subspaces_ = by_subspace.size();
  for (const auto& [dims, members] : by_subspace) {
    for (const DimId d : dims) dim_used_[d] = 1;
  }

  if (bitmap) {
    // The index counts every CDU directly; no per-subspace structure.
    if (index == nullptr) {
      own_index_.emplace(grids, 0, dim_used_);
      index = &*own_index_;
    }
    index_ = index;
    stats_.bitmap_subspaces = num_subspaces_;
    stats_.bitmap_bytes = index_->bytes();
    return;
  }

  col_bins_.resize(grids.num_dims() * cfg_.block_records);
  subspaces_.reserve(by_subspace.size());
  for (auto& [dims, members] : by_subspace) {
    Subspace sub;
    sub.dims = dims;

    // Lex-sort the member CDUs by their bin rows so record lookup is a
    // search over contiguous rows; for the packed kernels ascending key
    // order is the same order (pack_bin_key is byte-lexicographic).
    std::sort(members.begin(), members.end(),
              [&cdus, this](std::uint32_t a, std::uint32_t b) {
                return std::memcmp(cdus.bins(a).data(), cdus.bins(b).data(),
                                   k_ * sizeof(BinId)) < 0;
              });
    sub.cdu_index = members;

    if (packed_) {
      sub.keys.reserve(members.size());
      for (const std::uint32_t u : members) {
        sub.keys.push_back(pack_bin_key(cdus.bins(u).data(), k_));
      }
      if (members.size() >= cfg_.hash_min_cdus) {
        // Open-addressing table at <= 50% load (see hash_table_capacity),
        // mapping each distinct key to the first row of its equal run in
        // the sorted key array.
        const std::size_t cap = hash_table_capacity(members.size());
        sub.slots.assign(cap, kEmptySlot);
        sub.slot_mask = cap - 1;
        for (std::size_t i = members.size(); i-- > 0;) {
          std::uint64_t h = mix64(sub.keys[i]) & sub.slot_mask;
          while (sub.slots[h] != kEmptySlot &&
                 sub.keys[sub.slots[h]] != sub.keys[i]) {
            h = (h + 1) & sub.slot_mask;
          }
          sub.slots[h] = static_cast<std::uint32_t>(i);
        }
        ++stats_.packed_hash_subspaces;
      } else {
        ++stats_.packed_sorted_subspaces;
      }
    } else {
      sub.sorted_bins.reserve(members.size() * k_);
      for (const std::uint32_t u : members) {
        const auto b = cdus.bins(u);
        sub.sorted_bins.insert(sub.sorted_bins.end(), b.begin(), b.end());
      }
      ++stats_.memcmp_subspaces;
    }
    subspaces_.push_back(std::move(sub));
  }
}

std::size_t UnitPopulator::auxiliary_bytes(std::size_t nrows) const {
  if (index_ != nullptr) {
    return BitmapIndex::bytes_for(index_->num_bitsets(), nrows);
  }
  std::size_t bytes = 0;
  for (const Subspace& sub : subspaces_) {
    bytes += sub.keys.size() * sizeof(std::uint64_t) +
             sub.slots.size() * sizeof(std::uint32_t) +
             sub.sorted_bins.size() * sizeof(BinId);
  }
  return bytes;
}

void UnitPopulator::accumulate(const Value* rows, std::size_t nrows) {
  if (index_ != nullptr) {
    require(own_index_.has_value(),
            "UnitPopulator: accumulate() on a populator counting from a "
            "prebuilt index");
    own_index_->add(rows, nrows);
    stats_.bitmap_bytes = std::max(stats_.bitmap_bytes, own_index_->bytes());
    return;
  }

  const std::size_t d = grids_.num_dims();
  const std::size_t block = cfg_.block_records;
  for (std::size_t base = 0; base < nrows; base += block) {
    const std::size_t bn = std::min(block, nrows - base);

    // Bin the block once in every dimension that participates anywhere:
    // one column of bin indices per dimension, so the subspace sweep below
    // reads sequential bytes instead of re-binning per subspace.
    for (std::size_t j = 0; j < d; ++j) {
      if (!dim_used_[j]) continue;
      BinId* col = col_bins_.data() + j * block;
      const DimensionGrid& g = grids_[j];
      const Value* v = rows + base * d + j;
      for (std::size_t r = 0; r < bn; ++r, v += d) col[r] = g.bin_of(*v);
    }

    // Subspace-major sweep: each subspace's lookup structure stays hot
    // across the whole block.
    for (const Subspace& sub : subspaces_) {
      if (!packed_) {
        sweep_memcmp(sub, bn);
      } else if (!sub.slots.empty()) {
        sweep_packed_hash(sub, bn);
      } else {
        sweep_packed_sorted(sub, bn);
      }
    }
  }
}

void UnitPopulator::seed_counts(std::span<const Count> base) {
  require(base.size() == counts_.size(),
          "UnitPopulator::seed_counts: base size mismatch");
  // Count any pending bitmap rows first so the overflow check sees the
  // final local contribution (addition commutes, but a late count could
  // overflow silently after the guarded add).
  finalize_bitmap_counts();
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] > std::numeric_limits<Count>::max() - base[i]) {
      throw Error("UnitPopulator: unit-count accumulation overflowed",
                  ErrorClass::Internal);
    }
    counts_[i] += base[i];
  }
}

void UnitPopulator::finalize_bitmap_counts() const {
  if (index_ == nullptr || done_rows_ == index_->rows()) return;
  stats_.bitmap_words_anded += index_->count(cdus_, counts_, done_rows_);
  done_rows_ = index_->rows();
}

void UnitPopulator::sweep_packed_sorted(const Subspace& sub, std::size_t bn) {
  const std::size_t block = cfg_.block_records;
  const DimId* dims = sub.dims.data();
  const std::uint64_t* keys = sub.keys.data();
  const std::size_t m = sub.keys.size();
  for (std::size_t r = 0; r < bn; ++r) {
    std::uint64_t key = 0;
    for (std::size_t i = 0; i < k_; ++i) {
      key = (key << 8) | col_bins_[dims[i] * block + r];
    }
    for (std::size_t pos = lower_bound_u64(keys, m, key);
         pos < m && keys[pos] == key; ++pos) {
      ++counts_[sub.cdu_index[pos]];
    }
  }
}

void UnitPopulator::sweep_packed_hash(const Subspace& sub, std::size_t bn) {
  const std::size_t block = cfg_.block_records;
  const DimId* dims = sub.dims.data();
  const std::uint64_t* keys = sub.keys.data();
  const std::size_t m = sub.keys.size();
  for (std::size_t r = 0; r < bn; ++r) {
    std::uint64_t key = 0;
    for (std::size_t i = 0; i < k_; ++i) {
      key = (key << 8) | col_bins_[dims[i] * block + r];
    }
    std::uint64_t h = mix64(key) & sub.slot_mask;
    while (sub.slots[h] != kEmptySlot) {
      const std::size_t first = sub.slots[h];
      if (keys[first] == key) {
        for (std::size_t pos = first; pos < m && keys[pos] == key; ++pos) {
          ++counts_[sub.cdu_index[pos]];
        }
        break;
      }
      h = (h + 1) & sub.slot_mask;
    }
  }
}

void UnitPopulator::sweep_memcmp(const Subspace& sub, std::size_t bn) {
  const std::size_t block = cfg_.block_records;
  const DimId* dims = sub.dims.data();
  BinId* key = key_scratch_.data();
  for (std::size_t r = 0; r < bn; ++r) {
    // Project the record onto the subspace's dimensions.
    for (std::size_t i = 0; i < k_; ++i) key[i] = col_bins_[dims[i] * block + r];

    // Binary search the projected bin tuple among the sorted CDU rows.
    std::size_t lo = 0;
    std::size_t hi = sub.cdu_index.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      const int cmp = std::memcmp(sub.sorted_bins.data() + mid * k_, key,
                                  k_ * sizeof(BinId));
      if (cmp < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    // Increment every matching row (duplicate CDUs are normally removed by
    // dedup before populating, but the counting contract holds either way:
    // identical candidates sort adjacently).
    while (lo < sub.cdu_index.size() &&
           std::memcmp(sub.sorted_bins.data() + lo * k_, key,
                       k_ * sizeof(BinId)) == 0) {
      ++counts_[sub.cdu_index[lo]];
      ++lo;
    }
  }
}

}  // namespace mafia
