// Per-(dim, bin) record-membership bitmap index: the counting structure of
// the populate phase.
//
// A record lies in CDU {(d₁,b₁)..(d_k,b_k)} iff it falls in bin bᵢ of every
// dimension dᵢ.  The index holds one bitset per (dim, bin) pair, bit r set
// iff indexed row r falls in that bin, so a CDU's count is the popcount of
// the AND of its k bitsets — a branch-free reduction over 64-bit words
// (gpumafia's build_bitmaps/count_points_bitmaps; AVX2/NEON fast path,
// std::popcount fallback).  Rows are binned once, when they are added;
// counting touches no record.  This is the "encode every record as a bin
// transaction once, then mine the encoding" step of *Scalable Bottom-up
// Subspace Clustering using FP-Trees*, applied to Algorithm 2's populate.
//
// Two owners build one:
//   * the driver (core/mafia.cpp), once per run and rank, over the rank's
//     record partition as soon as the grids are known — every level is
//     then counted from it, with no further data pass;
//   * UnitPopulator, over each batch accumulate() hands it — indexed,
//     counted and cleared, so its memory is O(batch).  This is run_pmafia's
//     low-memory regime (one chunked pass per level) and the standalone
//     callers' way to count one candidate set over a record stream.
//
// Memory is bitsets × ⌈rows/64⌉ × 8 bytes in an anonymous mapping of its
// own, so the pages go back to the OS when the index is destroyed rather
// than staying resident in a malloc arena.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "grid/grid_types.hpp"
#include "units/unit_store.hpp"

namespace mafia {

class BitmapIndex {
 public:
  /// An empty index over every bin of the dimensions `dim_used` marks
  /// nonzero (every dimension when `dim_used` is empty), with room for
  /// `capacity_rows` rows.  `grids` must outlive the index.
  BitmapIndex(const GridSet& grids, std::size_t capacity_rows,
              std::span<const std::uint8_t> dim_used = {});

  /// Bytes an index of `bitsets` bitsets occupies over `rows` rows.
  [[nodiscard]] static std::size_t bytes_for(std::size_t bitsets,
                                             std::size_t rows) {
    return bitsets * ((rows + 63) / 64) * sizeof(std::uint64_t);
  }

  /// Bins `nrows` row-major records (width = grids.num_dims()) and sets
  /// their bits, as rows rows() .. rows() + nrows - 1.  The rows must fit
  /// the capacity.
  void add(const Value* rows, std::size_t nrows);

  /// Adds to counts[u], for every CDU u of `cdus`, the number of indexed
  /// rows that lie in u.  Every dimension of `cdus` must be indexed.
  /// Returns the number of 64-bit words ANDed.
  std::uint64_t count(const UnitStore& cdus, std::span<Count> counts) const;

  /// Drops every indexed row, keeping the mapping for the next add().
  void clear();

  /// Rows the index holds room for.
  [[nodiscard]] std::size_t capacity() const { return stride_ * 64; }
  /// Bytes currently mapped for the bitsets.
  [[nodiscard]] std::size_t bytes() const { return words_.size() * sizeof(std::uint64_t); }

 private:
  /// Zero-filled anonymous mapping of 64-bit words; unmapped on destruction.
  class WordMapping {
   public:
    WordMapping() = default;
    explicit WordMapping(std::size_t words);
    ~WordMapping();
    WordMapping(WordMapping&& other) noexcept;
    WordMapping& operator=(WordMapping&& other) noexcept;
    WordMapping(const WordMapping&) = delete;
    WordMapping& operator=(const WordMapping&) = delete;

    [[nodiscard]] std::uint64_t* data() const { return data_; }
    [[nodiscard]] std::size_t size() const { return size_; }

   private:
    std::uint64_t* data_ = nullptr;
    std::size_t size_ = 0;
  };

  /// Bitset of (dim, bin): `stride_` words starting here.
  [[nodiscard]] const std::uint64_t* bitset(DimId dim, BinId bin) const {
    return words_.data() + (first_[dim] + bin) * stride_;
  }

  const GridSet* grids_;
  std::vector<DimId> dims_;          // indexed dimensions, ascending
  std::vector<std::size_t> first_;   // dim -> bitset id of its bin 0
  std::size_t num_bitsets_ = 0;
  std::size_t stride_ = 0;           // words per bitset (capacity / 64)
  std::size_t rows_ = 0;
  WordMapping words_;
};

}  // namespace mafia
