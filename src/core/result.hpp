// Result of a pMAFIA run: the clusters plus everything the evaluation
// section reports — per-level CDU/dense-unit counts (Table 2), per-phase
// timing breakdown (Section 5.3's discussion), and communication volume
// (Section 4.5's cost model inputs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_model.hpp"
#include "common/timer.hpp"
#include "core/trace.hpp"
#include "grid/grid_types.hpp"
#include "mp/comm.hpp"
#include "mp/stats.hpp"
#include "units/join.hpp"
#include "units/populate.hpp"

namespace mafia {

/// Cap on the per-level list of unjoined dense units carried in the trace
/// (the count is always exact; the list is a diagnostic sample).
inline constexpr std::size_t kMaxUnjoinedListed = 32;

/// One level of the bottom-up search.
struct LevelTrace {
  std::size_t level = 0;     ///< k (unit dimensionality)
  std::size_t ncdu_raw = 0;  ///< CDUs generated before repeat elimination
  std::size_t ncdu = 0;      ///< unique CDUs populated (the paper's Ncdu)
  std::size_t ndu = 0;       ///< dense units identified (the paper's Ndu)
  /// FNV-1a over the level's globalized populate counts, in CDU order.
  /// Identical on every rank and for every (p, B, populate regime) —
  /// the determinism tests compare it across rank counts, and it pins the
  /// populate output of a run without shipping the full count vector.
  std::uint64_t count_checksum = 0;
  /// Join work counters for the join that generated this level's CDUs,
  /// globalized across ranks (units/join.hpp JoinStats).  join_buckets is 0
  /// when the pairwise kernel ran; join_emitted counts joining pairs (equal
  /// to ncdu_raw); join_repeats_fused counts the pairs whose candidate the
  /// bucketed kernel's canonical walk emitted once from its lowest pair
  /// instead — join_emitted − ncdu — and is 0 under the pairwise kernel,
  /// whose repeats the dedup phase removes.
  std::uint64_t join_buckets = 0;
  std::uint64_t join_probes = 0;
  std::uint64_t join_emitted = 0;
  std::uint64_t join_repeats_fused = 0;
  /// True when the level rescanned its rows in chunks because the run
  /// index did not fit --max-cdu-bytes; false when it counted from the run
  /// index.  The report names it "rescan" or "index".
  bool populate_rescan = false;
  /// Bitmap-index footprint and AND-reduction work for this level's
  /// populate.
  std::uint64_t bitmap_bytes = 0;
  std::uint64_t bitmap_words_anded = 0;
  /// gpumafia's find_unjoined_dus, per level: dense units of this level
  /// that combined into no candidate of the next level (globalized — a
  /// unit counts only if no rank's join range paired it).  On the run's
  /// last dense level every dense unit is trivially unjoined because no
  /// join follows; the fields stay zero there.  unjoined_units carries at
  /// most kMaxUnjoinedListed printable units; unjoined_dus is exact.
  std::uint64_t unjoined_dus = 0;
  std::vector<std::string> unjoined_units;
};

/// FNV-1a over a count vector (the LevelTrace::count_checksum function).
[[nodiscard]] inline std::uint64_t count_vector_checksum(
    const std::vector<Count>& counts) {
  std::uint64_t h = 1469598103934665603ull;
  for (const Count c : counts) {
    for (std::size_t byte = 0; byte < sizeof(Count); ++byte) {
      h ^= (c >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Incremental append accounting (MafiaOptions::append).  A level is
/// "reused" when its candidate set was proven unchanged and only the new
/// batch was scanned (stored global counts seeded on top); "rerun" when a
/// full data scan was required (first run of a new level, or the reuse
/// chain broke upstream).  Promotions/demotions compare the fresh dense
/// flags against the stored ones over the aligned candidate sets.
struct AppendStats {
  bool performed = false;  ///< the run executed in append mode
  std::uint64_t levels_reused = 0;
  std::uint64_t levels_rerun = 0;
  std::uint64_t units_promoted = 0;  ///< not dense before, dense now
  std::uint64_t units_demoted = 0;   ///< dense before, not dense now
};

/// Checkpoint/restart accounting for one run (core/checkpoint.hpp).
struct RecoveryInfo {
  bool checkpoint_enabled = false;     ///< a checkpoint directory was set
  bool resumed = false;                ///< run continued from a checkpoint
  std::size_t resume_level = 0;        ///< level the resume restarted at
  std::size_t checkpoints_written = 0;
  std::size_t checkpoints_discarded = 0;  ///< corrupt/mismatched files skipped
};

struct MafiaResult {
  /// Maximal-dimensionality clusters (subset clusters eliminated), highest
  /// dimensionality first, DNF expressions built.
  std::vector<Cluster> clusters;

  /// The grids the run used (needed to interpret bin indices / DNF).
  GridSet grids;

  /// Per-level Ncdu/Ndu trace.
  std::vector<LevelTrace> levels;

  /// Wall-clock per phase, max across ranks (the slowest rank bounds the
  /// job): "histogram", "grid", "populate", "identify", "join", "dedup"
  /// (pairwise join kernel only), "assemble", "io+scan" is folded into
  /// populate/histogram.  Derived
  /// from `trace` (a true cross-rank allreduce_max, not rank 0's timers).
  PhaseTimer phases;

  /// Aggregate communication over all ranks: the sum of the per-rank
  /// snapshots in `trace`, equal by construction to the sum of all
  /// per-phase comm deltas (the trace exchange itself is excluded).
  mp::CommStats comm;

  /// Full per-rank, per-phase breakdown (seconds + comm deltas), gathered
  /// from every rank at the end of the run.
  RunTrace trace;

  /// Populate-kernel selection, accumulated over all levels: how many
  /// subspaces ran on the packed sorted / packed hash / memcmp kernels and
  /// the block size the sweep used.  Identical on every rank (the CDU sets
  /// are globally replicated).
  PopulateKernelStats populate_kernel;

  /// Join-kernel selection and work counters, accumulated over all levels:
  /// how many levels ran on the bucketed index vs the pairwise scan, and
  /// the globalized bucket/probe/emission/repeat totals.  Identical on
  /// every rank.
  JoinKernelStats join_kernel;

  /// Checkpoint/restart accounting (zeros when checkpointing is off).
  RecoveryInfo recovery;

  /// Incremental append accounting (performed = false off the append path).
  AppendStats append;

  /// The I/O pipeline configuration the run used (copied from
  /// MafiaOptions::io).  The per-phase and total I/O accounting lives in
  /// `trace` (PhaseStats::io / RunTrace::io_total).
  IoConfig io;

  /// End-to-end wall-clock seconds (includes rank spawn/join).
  double total_seconds = 0.0;

  std::size_t num_records = 0;
  std::size_t num_dims = 0;
  int num_ranks = 1;

  /// The SPMD transport the run used (MafiaOptions::mp.backend).
  mp::MpBackend mp_backend = mp::MpBackend::Threads;

  /// Process backend only: how each worker rank exited (all code 0 on a
  /// clean run).  Empty on the threads backend — ranks are threads, there
  /// is no per-rank exit status.
  std::vector<mp::RankExit> rank_exits;

  /// Total unjoined dense units over all levels (LevelTrace::unjoined_dus
  /// summed): the paper's "dense units which could not be combined".
  [[nodiscard]] std::uint64_t total_unjoined_dus() const {
    std::uint64_t n = 0;
    for (const LevelTrace& t : levels) n += t.unjoined_dus;
    return n;
  }

  /// Highest dimensionality at which a dense unit was found.
  [[nodiscard]] std::size_t max_dense_level() const {
    std::size_t k = 0;
    for (const LevelTrace& t : levels) {
      if (t.ndu > 0) k = t.level;
    }
    return k;
  }

  /// Number of discovered clusters of dimensionality k.
  [[nodiscard]] std::size_t clusters_of_dim(std::size_t k) const {
    std::size_t n = 0;
    for (const Cluster& c : clusters) n += (c.dims.size() == k);
    return n;
  }
};

}  // namespace mafia
