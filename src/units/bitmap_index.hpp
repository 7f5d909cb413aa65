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
// add() bins 64-row blocks, each ending on an index word boundary (a
// call's first block starts mid-word after an odd row count, and shifts
// its masks by the offset).  A block's indexed columns are copied into a
// column-major buffer, and each dimension turns its column into one
// 64-bit word per bin: dimensions of few bins by the edge sweep — one
// vector compare per interior edge gives the mask ge_i of rows >= edge i,
// and bin b's word is ge_b & ~ge_{b+1} — and dimensions of many bins by
// one bin_of per value into block-local words.  The grid's bin count
// picks the strategy.  Either way each (dim, bin) word is written once
// per block, and the words equal bin_of's mapping for every non-NaN
// value; a NaN sets no bit.
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
// Memory is bitsets × ⌈rows/64⌉ × 8 bytes in a MappedArray
// (common/mapped_array.hpp), the page mapping the data set's values also
// live in: zero pages from the kernel, huge pages from 2 MiB up, and
// returned to the kernel when the index is destroyed rather than staying
// resident in a malloc arena.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/mapped_array.hpp"
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
  MappedArray<std::uint64_t> words_;
};

}  // namespace mafia
