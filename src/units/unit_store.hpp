// UnitStore: the paper's byte-array representation of candidate and dense
// units.
//
// Section 4.2: "Each candidate dense unit (CDU) and, similarly a dense
// unit, in the k-th dimension is completely specified by the k dimensions
// of the unit and their corresponding k bin indices.  In our implementation
// we store this information in the form of an array of bytes, one array for
// the bin indices of all the CDUs and one for the CDU dimensions. ... By
// storing the information in the form of a linear array of bytes we not
// only optimize for space, but also gain enormously while communicating."
//
// A UnitStore of dimensionality k holds n units as two contiguous byte
// arrays of length n*k (dims and bins).  Invariant: each unit's dims are
// strictly ascending, which makes unit equality a k-byte memcmp and lets
// the join kernels use sorted-merge logic.  The raw arrays are exposed so
// mp::Comm can gather/broadcast them "in a single step with the use of much
// smaller message buffers", exactly as the paper describes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace mafia {

class UnitStore {
 public:
  /// Creates an empty store of `k`-dimensional units.
  explicit UnitStore(std::size_t k = 1) : k_(k) {
    require(k >= 1 && k <= kMaxDims, "UnitStore: bad unit dimensionality");
  }

  [[nodiscard]] std::size_t k() const { return k_; }
  [[nodiscard]] std::size_t size() const { return dims_.size() / k_; }
  [[nodiscard]] bool empty() const { return dims_.empty(); }

  void reserve(std::size_t units) {
    dims_.reserve(units * k_);
    bins_.reserve(units * k_);
  }

  /// Appends one unit.  `dims` must be strictly ascending; `bins[i]` is the
  /// bin index in dimension `dims[i]`.
  void push(std::span<const DimId> dims, std::span<const BinId> bins) {
    require(dims.size() == k_ && bins.size() == k_, "UnitStore::push: wrong arity");
    for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
      require(dims[i] < dims[i + 1], "UnitStore::push: dims must be ascending");
    }
    dims_.insert(dims_.end(), dims.begin(), dims.end());
    bins_.insert(bins_.end(), bins.begin(), bins.end());
  }

  /// Appends a unit without the ascending check — hot-path variant for the
  /// join kernels, which construct sorted dims by construction.
  void push_unchecked(const DimId* dims, const BinId* bins) {
    dims_.insert(dims_.end(), dims, dims + k_);
    bins_.insert(bins_.end(), bins, bins + k_);
  }

  [[nodiscard]] std::span<const DimId> dims(std::size_t u) const {
    return {dims_.data() + u * k_, k_};
  }
  [[nodiscard]] std::span<const BinId> bins(std::size_t u) const {
    return {bins_.data() + u * k_, k_};
  }

  /// The linear byte arrays (the paper's communication payloads).
  [[nodiscard]] const std::vector<DimId>& dim_bytes() const { return dims_; }
  [[nodiscard]] const std::vector<BinId>& bin_bytes() const { return bins_; }

  /// Rebuilds a store from raw byte arrays (after a gather/broadcast).
  static UnitStore from_bytes(std::size_t k, std::vector<DimId> dims,
                              std::vector<BinId> bins) {
    require(dims.size() == bins.size(), "UnitStore::from_bytes: array size mismatch");
    require(k >= 1 && dims.size() % k == 0, "UnitStore::from_bytes: not a multiple of k");
    UnitStore store(k);
    store.dims_ = std::move(dims);
    store.bins_ = std::move(bins);
    return store;
  }

  /// Appends all units of `other` (same k) — rank-order concatenation.
  void append(const UnitStore& other) {
    require(other.k_ == k_, "UnitStore::append: dimensionality mismatch");
    dims_.insert(dims_.end(), other.dims_.begin(), other.dims_.end());
    bins_.insert(bins_.end(), other.bins_.begin(), other.bins_.end());
  }

  /// Unit equality within this store (dims and bins both equal).
  [[nodiscard]] bool equal(std::size_t a, std::size_t b) const {
    return std::memcmp(dims_.data() + a * k_, dims_.data() + b * k_, k_) == 0 &&
           std::memcmp(bins_.data() + a * k_, bins_.data() + b * k_, k_) == 0;
  }

  /// Unit equality across stores of the same dimensionality.
  [[nodiscard]] bool equal(std::size_t a, const UnitStore& other,
                           std::size_t b) const {
    return other.k_ == k_ &&
           std::memcmp(dims_.data() + a * k_, other.dims_.data() + b * k_, k_) == 0 &&
           std::memcmp(bins_.data() + a * k_, other.bins_.data() + b * k_, k_) == 0;
  }

  /// FNV-1a hash over the unit's dims and bins bytes.
  [[nodiscard]] std::uint64_t hash(std::size_t u) const {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](const std::uint8_t* p, std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
      }
    };
    mix(dims_.data() + u * k_, k_);
    mix(bins_.data() + u * k_, k_);
    return h;
  }

  /// Human-readable rendering, e.g. "{d1:b7, d3:b2}".
  [[nodiscard]] std::string to_string(std::size_t u) const {
    std::string out = "{";
    for (std::size_t i = 0; i < k_; ++i) {
      if (i) out += ", ";
      out += "d" + std::to_string(dims_[u * k_ + i]);
      out += ":b" + std::to_string(bins_[u * k_ + i]);
    }
    out += "}";
    return out;
  }

 private:
  std::size_t k_;
  std::vector<DimId> dims_;
  std::vector<BinId> bins_;
};

}  // namespace mafia
