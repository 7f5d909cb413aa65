// Optimal task partitioning (Section 4.3, Equation 1).
//
// Building CDUs compares dense unit i with every dense unit j > i: row i of
// the triangular pair loop performs (Ndu − 1 − i) merge attempts, so total
// work is Ndu(Ndu−1)/2 pairs and a naive block split of the unit array
// gives the first processor far more work than the last.  The paper picks
// boundaries 0 ≤ n₁ ≤ ... ≤ n_{p−1} ≤ Ndu so each processor's range
// carries work Ndu(Ndu−1)/(2p), solving one quadratic per boundary (Eq. 1):
//
//   (Ndu − 1)·(n_{i+1} − n_i) − Σ_{j=n_i}^{n_{i+1}−1} j = Ndu(Ndu−1)/(2p)
//
// (An earlier revision charged row j a cost of n − j — one phantom
// comparison per row, n extra in total — which solved the boundary
// quadratic against the wrong cost function; the model here matches the
// loop in join_dense_units exactly, pair for pair.)
//
// This module provides the closed-form solver, exact work accounting (for
// the tests that prove the split optimal), the same partitioning applied to
// repeat elimination (Ndu → Ncdu, as the paper prescribes), the "linear
// search" equal-count partitioning used when dense units are spread
// unevenly through the CDU array (Algorithm 6's build step), and a
// weight-balanced range partitioner for the bucketed join kernel (ranges
// of signature buckets balanced by Σ b·(b−1)/2 pair work per bucket).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace mafia {

/// Comparisons charged to index range [begin, end) of a triangular pair
/// loop over `n` items: Σ_{j=begin}^{end-1} (n − 1 − j).
[[nodiscard]] std::uint64_t triangular_work(std::size_t n, std::size_t begin,
                                            std::size_t end);

/// Total triangular work n(n−1)/2 (the number of unordered pairs).
[[nodiscard]] std::uint64_t triangular_total_work(std::size_t n);

/// Eq. 1 boundaries: returns p+1 ascending cut points with [r] .. [r+1]
/// being rank r's index range; boundaries[0] == 0, boundaries[p] == n.
/// Each range's triangular_work differs from the ideal n(n−1)/(2p) by at
/// most one row's work (integer rounding of the real-valued solution).
[[nodiscard]] std::vector<std::size_t> triangular_partition(std::size_t n,
                                                            std::size_t p);

/// Equal-count partitioning by linear search: cut [0, flags.size()) into p
/// ranges each containing (as nearly as possible) the same number of set
/// flags.  Used to balance dense-unit data-structure construction when
/// "the dense units would not be distributed evenly" (Section 4.4).
[[nodiscard]] std::vector<std::size_t> flag_balanced_partition(
    std::span<const std::uint8_t> flags, std::size_t p);

/// Weighted range partitioning: cut [0, weights.size()) into p contiguous
/// ranges with (as nearly as possible) equal total weight.  The bucketed
/// join kernel balances unit ranges with per-unit member visits as the
/// weight.  All-zero weights fall back to an even block split (same
/// degenerate-case policy as flag_balanced_partition).
[[nodiscard]] std::vector<std::size_t> weight_balanced_partition(
    std::span<const std::uint64_t> weights, std::size_t p);

}  // namespace mafia
