// CDU population: counting how many records fall inside each candidate.
//
// This is the I/O-bound, data-parallel phase the paper says dominates run
// time ("bulk of the time is taken in populating the candidate dense units
// which is completely data parallel", Section 5.3).  Each rank counts its
// N/p records, and the driver Reduce-sums the local counts.
//
// A record lies in CDU {(d₁,b₁)..(d_k,b_k)} iff its bin index in dimension
// dᵢ equals bᵢ for all i (adaptive bins tile each dimension, so each value
// maps to exactly one bin).  Two families of kernels count that
// (PopulateKernel selects; Auto is the bitmap index):
//
//   * bitmap index (units/bitmap_index.hpp): one bitset per (dim, bin),
//     a unit's count is the popcount of the AND of its k bitsets.  The
//     driver builds the index once per run over each rank's partition and
//     counts every level from it, handing it to the populator through the
//     constructor; standalone callers feed the populator's own index
//     through accumulate() instead.  Memory is bins × rows bits (see
//     auxiliary_bytes), which is why the driver charges it to
//     --max-cdu-bytes.
//   * rescan kernels (Packed, Memcmp): Algorithm 2 as the paper runs it —
//     every level rescans the records in cache-sized blocks with a
//     subspace-major inner loop.  Each block's per-dimension bin indices
//     are computed once into a column buffer, then every subspace sweeps
//     the whole block while its lookup structure stays hot in cache:
//       - packed/sorted (k <= 8): the k bin bytes of each CDU row pack into
//         one uint64 (pack_bin_key); a record's projected tuple packs the
//         same way and a branchless lower_bound over the flat sorted key
//         array replaces the per-record memcmp binary search.
//       - packed/hash (k <= 8, high CDU count): an open-addressing
//         exact-match table over the packed keys turns the lookup into
//         O(1) probes.
//       - memcmp (k > 8, or forced): binary search of the projected k-byte
//         row against the subspace's lexicographically sorted CDU rows.
//     Their memory is O(chunk) whatever the record count, so they are the
//     choice when the index does not fit.
// All kernels count duplicate CDU rows correctly (identical candidates
// sort adjacently; the hash table points at the first row of an equal
// run; the index counts each CDU on its own), so the contract holds with
// or without a prior dedup pass.
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

/// Kernel selection for UnitPopulator and the driver.  Auto (the production
/// default) and Bitmap both count from the per-(dim, bin) bitmap index —
/// in the driver, the run index built once per rank.  Packed and Memcmp
/// are the O(chunk)-memory rescan kernels: every level rescans the records,
/// Packed with packed integer keys where k <= kPackedKeyMaxDims (memcmp
/// beyond), Memcmp with the byte-row binary search everywhere.  They stay
/// selectable for runs whose index does not fit the memory budget, the
/// oracle-differential tests, and the bench_populate_kernel A/B.
enum class PopulateKernel { Auto, Packed, Memcmp, Bitmap };

/// Tuning knobs for the populate kernel (defaults are the production
/// configuration; the bench and the differential tests sweep them).
struct PopulateConfig {
  /// Records per block of the rescan kernels' subspace-major sweep.  The
  /// block's bin columns occupy block_records * num_dims bytes; the default
  /// keeps them comfortably inside L2 for the paper's dimensionalities.
  std::size_t block_records = 2048;

  /// Kernel selection (see PopulateKernel).
  PopulateKernel kernel = PopulateKernel::Auto;

  /// Packed subspaces with at least this many CDUs get the open-addressing
  /// exact-match table instead of the sorted-array search.
  std::size_t hash_min_cdus = 48;
};

/// Open-addressing table capacity for `members` keys: the next power of
/// two at or above twice the member count, so the table never exceeds 50%
/// load.  The 2× headroom matters precisely at power-of-two member counts:
/// rounding members up to a power of two with no slack would put such a
/// table at load factor 1.0, where probe chains degenerate and — with no
/// empty slot left — the linear-probe miss loop never terminates.
[[nodiscard]] inline std::size_t hash_table_capacity(std::size_t members) {
  std::size_t cap = 4;
  while (cap < members * 2) cap *= 2;
  return cap;
}

/// Which kernel each subspace ended up on — surfaced through MafiaResult
/// and the JSON report so the populate-phase configuration is visible in
/// every recorded run.
struct PopulateKernelStats {
  std::size_t packed_sorted_subspaces = 0;
  std::size_t packed_hash_subspaces = 0;
  std::size_t memcmp_subspaces = 0;
  std::size_t bitmap_subspaces = 0;
  std::size_t block_records = 0;
  /// Peak bitmap-index footprint over the run's levels (bytes mapped for
  /// the bitsets); 0 unless the bitmap index counted.
  std::size_t bitmap_bytes = 0;
  /// Total 64-bit words ANDed by the bitmap count finalization, summed
  /// over all levels — the work metric of the AND+popcount reduction.
  std::size_t bitmap_words_anded = 0;

  void merge(const PopulateKernelStats& other) {
    packed_sorted_subspaces += other.packed_sorted_subspaces;
    packed_hash_subspaces += other.packed_hash_subspaces;
    memcmp_subspaces += other.memcmp_subspaces;
    bitmap_subspaces += other.bitmap_subspaces;
    if (other.block_records > block_records) block_records = other.block_records;
    if (other.bitmap_bytes > bitmap_bytes) bitmap_bytes = other.bitmap_bytes;
    bitmap_words_anded += other.bitmap_words_anded;
  }
};

class UnitPopulator {
 public:
  /// Prepares counting membership in `cdus` under `grids`.  With `index`
  /// (the driver's run index; it selects the bitmap kernel whatever
  /// config.kernel says) the counts come from that prebuilt index and
  /// accumulate() must not be called.  Without it, Auto and Bitmap index
  /// the rows accumulate() sees in the populator's own index, and Packed
  /// and Memcmp look each of them up.  `grids`, `cdus` and `index` must
  /// outlive the populator.
  UnitPopulator(const GridSet& grids, const UnitStore& cdus,
                const PopulateConfig& config = {},
                const BitmapIndex* index = nullptr);

  /// Folds `nrows` row-major records (width = grids.num_dims()) into the
  /// local counts.
  void accumulate(const Value* rows, std::size_t nrows);

  /// Accumulates `base` element-wise into the counts — the append path's
  /// accumulate-into-existing-counts entry point.  Valid for every kernel:
  /// counts_ is the unified additive accumulator (the bitmap kernel's
  /// pending rows are counted first, so seeding and scanning commute).
  /// The SPMD driver seeds the stored global counts AFTER the batch-only
  /// allreduce, so every rank adds the base exactly once.  Throws
  /// mafia::Error when any sum would overflow Count.
  void seed_counts(std::span<const Count> base);

  /// Local counts per CDU (index-aligned with the input store), mutable so
  /// the parallel driver can allreduce_sum in place.  Under the bitmap
  /// kernel the first access after new rows counts them (AND+popcount over
  /// the words they occupy); the counts are append-consistent, so
  /// accumulate and counts may interleave.
  [[nodiscard]] std::vector<Count>& counts() {
    finalize_bitmap_counts();
    return counts_;
  }
  [[nodiscard]] const std::vector<Count>& counts() const {
    finalize_bitmap_counts();
    return counts_;
  }

  /// Number of distinct subspaces among the CDUs (exposed for tests/benches).
  [[nodiscard]] std::size_t num_subspaces() const { return num_subspaces_; }

  /// Per-kernel subspace counts for this populator (exposed for the run
  /// report and the benches).  Under the bitmap kernel the AND-work counter
  /// is complete only once counts() has counted the indexed rows.
  [[nodiscard]] const PopulateKernelStats& kernel_stats() const { return stats_; }

  /// Kernel family this populator resolved to (Auto and the k > 8 packed
  /// fallback resolved): Packed, Memcmp, or Bitmap.  Recorded per level in
  /// the run trace.
  [[nodiscard]] PopulateKernel effective_kernel() const {
    if (index_ != nullptr) return PopulateKernel::Bitmap;
    return packed_ ? PopulateKernel::Packed : PopulateKernel::Memcmp;
  }

  /// Kernel auxiliary memory needed to count `nrows` records: the bitmap
  /// index under the bitmap kernel, the lookup tables (packed keys, hash
  /// slots, sorted byte rows) otherwise.  Callers pass the worst-case
  /// partition size so a collective budget guard stays rank-invariant.
  /// See auxiliary_component() for the matching name.
  [[nodiscard]] std::size_t auxiliary_bytes(std::size_t nrows) const;

  /// Human-readable name of the auxiliary-memory component measured by
  /// auxiliary_bytes(), for resource-error messages.
  [[nodiscard]] const char* auxiliary_component() const {
    return index_ != nullptr ? "populate bitmap index" : "populate lookup tables";
  }

 private:
  struct Subspace {
    std::vector<DimId> dims;               // ascending dimension set, size k
    std::vector<std::uint32_t> cdu_index;  // sorted row -> original CDU index
    // Packed kernels (k <= kPackedKeyMaxDims):
    std::vector<std::uint64_t> keys;  // member CDU rows as sorted packed keys
    std::vector<std::uint32_t> slots;  // open addressing: key -> first run row
    std::uint64_t slot_mask = 0;       // slots.size() - 1 (power of two)
    // Memcmp fallback (k > kPackedKeyMaxDims or forced):
    std::vector<BinId> sorted_bins;  // member CDU bin rows, lex-sorted, k-stride
  };

  void sweep_packed_sorted(const Subspace& sub, std::size_t bn);
  void sweep_packed_hash(const Subspace& sub, std::size_t bn);
  void sweep_memcmp(const Subspace& sub, std::size_t bn);

  /// Bitmap-kernel counting: adds the rows indexed since the last call
  /// (bits are append-only, so counting from the watermark sums to the
  /// full-scan answer).  No-op for the rescan kernels or when no rows are
  /// pending; const because both counts() overloads trigger it
  /// (counts_/stats_/done_rows_ are mutable).
  void finalize_bitmap_counts() const;

  const GridSet& grids_;
  const UnitStore& cdus_;
  std::size_t k_;
  bool packed_;  // packed rescan kernels active (k fits a key, not forced off)
  PopulateConfig cfg_;
  std::size_t num_subspaces_ = 0;
  mutable PopulateKernelStats stats_;
  mutable std::vector<Count> counts_;
  // Rescan kernels: subspaces with their lookup structures, and the
  // block-sweep scratch — per-dimension bin columns for the current block,
  // dim-major (column j starts at j * block_records), filled only for
  // dimensions that occur in some subspace.
  std::vector<Subspace> subspaces_;
  std::vector<BinId> col_bins_;
  std::vector<std::uint8_t> dim_used_;
  std::vector<BinId> key_scratch_;  // projected row buffer (memcmp path)
  // Bitmap kernel: the index counted from (the caller's, or own_index_
  // over the accumulated rows) and the rows already folded into counts_.
  std::optional<BitmapIndex> own_index_;
  const BitmapIndex* index_ = nullptr;
  mutable std::size_t done_rows_ = 0;
};

}  // namespace mafia
