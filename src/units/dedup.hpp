// Repeated-CDU elimination (Algorithm 4), on the pairwise (paper) path.
//
// The MAFIA join generates the same candidate from many parent pairs
// (Figure 2's "Repeat" rows).  The paper eliminates repeats with a pairwise
// O(Ncdu²) comparison, task-partitioned across processors like the join
// itself.  This module provides:
//   * the paper-faithful pairwise kernel (range-partitionable, so the
//     parallel driver can split it with the Eq. 1 solver), and
//   * a hash-based O(Ncdu) pass over the UnitKey map (DedupPolicy::Hash,
//     the default policy),
// plus the machinery to rebuild the unique store and the raw→unique index
// map.  The driver runs them only under JoinKernel::Pairwise: the default
// bucketed kernel's canonical walk emits each candidate once, in the order
// dedup_hash leaves them (units/join.hpp), so the default path has no
// repeats to eliminate.  The oracles and perfbench's serial replay still
// pair the raw join with dedup_hash.  tests/dedup sections of
// units_test.cpp prove the two paths equivalent; bench_ablation_dedup
// measures the gap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "units/unit_store.hpp"

namespace mafia {

/// How repeated CDUs are detected.
enum class DedupPolicy {
  Hash,      ///< hash set over canonical (dims, bins) keys — O(Ncdu)
  Pairwise,  ///< the paper's all-pairs comparison — O(Ncdu²), partitionable
};

/// Pairwise repeat detection over an i-range: marks unit j as repeated when
/// some i < j in [i_begin, i_end) has identical content ("Identify repeated
/// CDUs in the entire CDU array as compared to the CDUs of its portion of
/// the array", Algorithm 4).  Flags from all ranks OR-reduce to the global
/// repeat set.  Returns flags of size raw.size().
[[nodiscard]] std::vector<std::uint8_t> pairwise_repeat_flags(const UnitStore& raw,
                                                              std::size_t i_begin,
                                                              std::size_t i_end);

/// Result of repeat elimination.
struct DedupResult {
  /// First-occurrence units in original order.
  UnitStore unique{1};
  /// raw index -> index into `unique` (every raw unit, including repeats,
  /// maps to its unique representative).
  std::vector<std::uint32_t> raw_to_unique;
  /// Number of eliminated repeats (the paper's Nrepeat).
  std::size_t num_repeats = 0;
};

/// Hash-based one-pass dedup over the UnitKey map.
[[nodiscard]] DedupResult dedup_hash(const UnitStore& raw);

/// Builds the DedupResult from global pairwise repeat flags.  The flags say
/// *which* units repeat; the raw→unique map is reconstructed in one ordered
/// pass.
[[nodiscard]] DedupResult dedup_from_flags(const UnitStore& raw,
                                           const std::vector<std::uint8_t>& repeat_flags);

}  // namespace mafia
