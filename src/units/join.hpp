// Candidate-dense-unit generation: the MAFIA join and the CLIQUE join.
//
// Section 3: "candidate dense cells in k dimensions are obtained by merging
// any two dense cells, represented by an ordered set of (k−1) dimensions,
// such that they share any of the (k−2) dimensions" — versus CLIQUE, which
// only merges units sharing the *first* (k−2) dimensions and therefore
// provably misses candidates (the paper's {a₁,b₇,c₈} ⋈ {b₇,c₈,d₉} example;
// reproduced in tests/units_test.cpp).
//
// A k-dim candidate c with m *dense faces* (its (k−1)-dim sub-units that
// are dense) is produced by every pair of them under the MAFIA rule, so the
// pairwise join emits it m(m−1)/2 times and Algorithm 4 removes the
// repeats.  (Under CLIQUE's prefix rule only the two faces dropping c's last
// two dims join into c, so it never repeats.)  Two kernels:
//
//   * Pairwise — the paper's triangular scan (unit i against every j > i),
//     exactly the workload Eq. 1 partitions across processors; rank r runs
//     join_dense_units(dense, rule, n_r, n_{r+1}) and the driver then
//     eliminates repeats (units/dedup.hpp).
//   * Bucketed (the default) — JoinBucketIndex hashes every unit's drop-one
//     signatures (every (k−2)-coordinate sub-unit under the MAFIA rule, the
//     prefix under CLIQUE's) into buckets.  Two units join iff they meet
//     in a bucket with extra coordinates on different dims, and a joining
//     pair meets in exactly one bucket.  Two walks read the index:
//       - the canonical walk (join_unique) emits each candidate exactly
//         once, from its lowest-index dense face a: the members of a's
//         buckets, grouped by their extra coordinate y, are exactly the
//         other dense faces of c = a ∪ {y}, and c is emitted only when they
//         all lie above a.  a's candidates come in ascending order of their
//         second-lowest face, so the output is sorted by each candidate's
//         two lowest faces — the pair at which the pairwise scan first
//         emits it, and the occurrence dedup keeps.  The output therefore
//         equals join_dense_units + dedup_hash member for member, and no
//         repeat is ever produced;
//       - the raw walk (join_raw) emits every joining pair (a, b), b > a,
//         in ascending b: the pairwise scan's raw sequence, parents
//         included, for the oracles and the join bench.
//
// Task parallelism for the bucketed kernel is over *unit* ranges, balanced
// by per-unit member visits (weight_balanced_partition).  A range's output
// is contiguous in the global order, so the ranks' outputs concatenate in
// rank order into the serial output with no sort.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "units/unit_store.hpp"

namespace mafia {

/// Which pairs of (k−1)-dim dense units may combine into a k-dim CDU.
enum class JoinRule {
  /// MAFIA: any two units sharing any (k−2) dims (bins equal on shared dims).
  MafiaAnyShared,
  /// CLIQUE: units sharing their first (k−2) dims (ordered-set prefix).
  CliquePrefix,
};

/// Which candidate-generation kernel executes the join.
enum class JoinKernel {
  /// The paper's O(n²) triangular scan, task-partitioned by Eq. 1, followed
  /// by repeat elimination under MafiaOptions::dedup.
  Pairwise,
  /// Signature bucket index walked canonically: each unique candidate is
  /// emitted once, in the order pairwise join + dedup produce.
  Bucketed,
};

/// Join-kernel selection on MafiaOptions.
struct JoinConfig {
  JoinKernel kernel = JoinKernel::Bucketed;
};

/// Work counters of one join execution (or one level, once globalized).
struct JoinStats {
  /// Signature buckets, each counted at its lowest member, so the counts of
  /// a unit-range partition sum to the index's bucket count (0: pairwise).
  std::uint64_t buckets = 0;
  /// Pair merge attempts: every pair the pairwise scan tries, or every
  /// in-bucket pair (counted at its lower unit) under the bucket index.
  std::uint64_t probes = 0;
  /// Joining pairs — the pairwise scan's raw emissions, Σ m(m−1)/2 over the
  /// candidates — counted at their lower unit.  The canonical walk counts
  /// them without materializing one.
  std::uint64_t emitted = 0;
  /// Joining pairs whose candidate the canonical walk emitted from its
  /// lowest pair instead: emitted − unique candidates.  0 for the pairwise
  /// scan and the raw walk, whose output still holds its repeats.
  std::uint64_t repeats_fused = 0;
};

/// Kernel selection and work counters accumulated over all levels of a run
/// — the candidate-generation analogue of PopulateKernelStats.
struct JoinKernelStats {
  std::uint64_t bucketed_levels = 0;  ///< levels joined by the bucket index
  std::uint64_t pairwise_levels = 0;  ///< levels joined by the triangular scan
  std::uint64_t buckets = 0;
  std::uint64_t probes = 0;
  std::uint64_t emitted = 0;
  std::uint64_t repeats_fused = 0;
};

/// Output of one join-range execution.
struct JoinResult {
  /// k-dim CDUs: the raw sequence (repeats possible; see dedup.hpp) from
  /// the pairwise scan and the raw walk, unique candidates from the
  /// canonical walk.
  UnitStore cdus{1};
  /// Per raw CDU: the indices of its two parent dense units.  Filled by
  /// the raw kernels only; the driver marks parents by unit content
  /// (mark_dense_parents), so the canonical walk records none.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> parents;
  /// Per dense unit (size = dense.size()): 1 iff the unit combined with at
  /// least one other unit in this range's pairs (the canonical walk: iff a
  /// unit of the range joins any unit).  OR-reduce across ranks to find the
  /// paper's "dense units which could not be combined with any other dense
  /// units" (registered as potential clusters).
  std::vector<std::uint8_t> combined;
  /// Probe/emission counters for this execution.
  JoinStats stats;
};

/// Attempts to join dense units `a` and `b` (both of dimensionality k−1)
/// into a k-dim CDU under `rule`.  On success appends the CDU to `out` and
/// returns true.  Exposed for tests; the drivers use join_dense_units.
bool try_join(const UnitStore& dense, std::size_t a, std::size_t b, JoinRule rule,
              UnitStore& out);

/// Runs the pair loop for i in [i_begin, i_end), j in (i, dense.size()).
/// `dense` holds (k−1)-dim units; the result holds k-dim raw CDUs.  Row i
/// performs exactly dense.size() − 1 − i probes — the cost function
/// triangular_work models (the regression test in tests/taskpart_test.cpp
/// pins measured probes to the model).
[[nodiscard]] JoinResult join_dense_units(const UnitStore& dense, JoinRule rule,
                                          std::size_t i_begin, std::size_t i_end);

/// Convenience: the full (serial) pairwise join over all pairs.
[[nodiscard]] inline JoinResult join_dense_units(const UnitStore& dense,
                                                 JoinRule rule) {
  return join_dense_units(dense, rule, 0, dense.size());
}

/// Drop-one signature index over one level's dense units, built by hashing:
/// a unit's hash is the wrapping sum of a 64-bit mix of each (dim, bin), so
/// a signature's hash is the unit's minus the dropped coordinate's mix, and
/// every hash hit is verified by content.  Buckets are stored CSR-style,
/// members in ascending unit index, each with the position it dropped.
/// Construction is deterministic given the (globally replicated) dense
/// store, so every rank builds an identical index and the unit-range task
/// partition needs no coordination.  The canonical walk assumes the store
/// holds no duplicate units, as the driver's dense stores never do.
class JoinBucketIndex {
 public:
  JoinBucketIndex(const UnitStore& dense, JoinRule rule);

  /// Upper bound on the index's memory, construction scratch included, for
  /// `units` dense units of dimensionality `k` (= the store's k, the join's
  /// k−1).  Every unit contributes one entry per dropped dimension under
  /// the MAFIA rule (k entries) and exactly one under CLIQUE's prefix rule.
  /// Per entry: its member and bucket id; at most one bucket (offset, size
  /// or fill cursor, representative member, signature hash); at most four
  /// hash-table slots; and at most one unit-work counter.  Lets the driver
  /// fold the index into a resource budget before construction.
  [[nodiscard]] static std::size_t estimate_bytes(std::size_t units,
                                                  std::size_t k,
                                                  JoinRule rule) {
    const std::size_t per_unit = rule == JoinRule::MafiaAnyShared ? k : 1;
    constexpr std::size_t kPerEntry =
        sizeof(Member) + sizeof(std::uint32_t) +  // member, bucket id
        2 * sizeof(std::uint32_t) + sizeof(Member) +
        sizeof(std::uint64_t) +                   // one bucket
        4 * sizeof(std::uint32_t) +               // table slots
        sizeof(std::uint64_t);                    // unit work
    return units * per_unit * kPerEntry;
  }

  [[nodiscard]] std::size_t num_buckets() const { return offsets_.size() - 1; }

  /// Per-unit member visits (the members of the unit's buckets other than
  /// itself) — the canonical walk's work per unit, and the weights for
  /// weight_balanced_partition.
  [[nodiscard]] std::span<const std::uint64_t> unit_work() const {
    return work_;
  }

  /// The canonical walk over units [unit_begin, unit_end): every candidate
  /// whose lowest-index dense face lies in the range, once, in global
  /// order.  Concatenating the results of consecutive ranges gives the
  /// full walk's output, which equals join_dense_units + dedup_hash.
  [[nodiscard]] JoinResult join_unique(std::size_t unit_begin,
                                       std::size_t unit_end) const;

  /// The raw walk over units [unit_begin, unit_end): every joining pair
  /// (a, b) with a in the range and b > a, in the pairwise scan's (a, b)
  /// order, parents included.
  [[nodiscard]] JoinResult join_raw(std::size_t unit_begin,
                                    std::size_t unit_end) const;

 private:
  /// One bucket member: a unit and the position its signature drops.
  struct Member {
    std::uint32_t unit;
    std::uint32_t drop;
  };

  /// The position a unit's signature number `slot` drops: every position
  /// under the MAFIA rule, only the last under CLIQUE's.
  [[nodiscard]] std::size_t drop_of(std::size_t slot) const {
    return per_unit_ == 1 ? dense_->k() - 1 : slot;
  }
  /// A member of some bucket of unit a that joins a: its extra coordinate
  /// y, as dim << 8 | bin, and its unit index.
  struct Partner {
    std::uint32_t y;
    std::uint32_t unit;
  };
  /// Fills `out` with the partners of unit `a`, below and above it, and
  /// counts into `stats` the buckets `a` is the lowest member of and the
  /// probes (its buckets' members above `a`).
  void partners_of(std::size_t a, std::vector<Partner>& out,
                   JoinStats& stats) const;

  const UnitStore* dense_;
  std::size_t per_unit_;                    ///< signatures per unit
  std::vector<std::uint32_t> unit_bucket_;  ///< [unit·per_unit + slot] -> bucket
  std::vector<std::uint32_t> offsets_;      ///< bucket b = members [b], [b+1])
  std::vector<Member> members_;
  std::vector<std::uint64_t> work_;         ///< per-unit member visits
};

/// Convenience: the full (serial) raw walk, equal to join_dense_units(dense,
/// rule) member for member, parents included (stats aside: probes counts
/// only in-bucket pairs).
[[nodiscard]] JoinResult bucket_join_dense_units(const UnitStore& dense,
                                                 JoinRule rule);

/// Parent marking after identify, by unit content: per unit of `dense`
/// (the (k−1)-dim store the level's candidates `cdus` were joined from),
/// 1 iff it is a parent of a candidate whose `flags` entry is set.  Under
/// the MAFIA rule every dense face of a candidate is a parent (every pair
/// of them joins into it); under CLIQUE's prefix rule only the two faces
/// dropping its last two dims are.  These are exactly the units the raw
/// parent pairs of the dense candidates name, so no pair list is needed.
/// The (k−1)-dim units left unmarked are the maximal dense units.
[[nodiscard]] std::vector<std::uint8_t> mark_dense_parents(
    const UnitStore& dense, const UnitStore& cdus,
    std::span<const std::uint8_t> flags, JoinRule rule);

}  // namespace mafia
