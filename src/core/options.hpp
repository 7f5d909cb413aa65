// Public options for the pMAFIA driver.
//
// The paper's headline claim is that pMAFIA is "a truly un-supervised
// clustering algorithm requiring no user inputs": everything here defaults
// to the paper's recommendations (alpha = 1.5, beta in the working range,
// automatic per-bin thresholds) and the algorithm is normally run with
// MafiaOptions{}.  The knobs exist for the ablation benches and for the
// CLIQUE baseline comparison.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "grid/adaptive_grid.hpp"
#include "io/pipeline.hpp"
#include "mp/backend.hpp"
#include "mp/faults.hpp"
#include "mp/stats.hpp"
#include "units/dedup.hpp"
#include "units/identify.hpp"
#include "units/join.hpp"
#include "units/populate.hpp"

namespace mafia {

/// Level-checkpoint/restart configuration (core/checkpoint.hpp).  With a
/// directory set, rank 0 writes one CRC-guarded file per completed level
/// of the bottom-up loop, holding that level's record, and a final
/// checkpoint holding every record; with `resume` also set, the run
/// replays the longest valid chain of level files (ending it at the first
/// corrupt, missing or mismatched file) and continues from the next level
/// with bit-identical results to an uninterrupted run.
struct CheckpointConfig {
  std::string directory;  ///< empty = checkpointing disabled
  bool resume = false;    ///< replay the valid level-file chain first

  /// Data files the run consumes, in concatenation order, as (path,
  /// records) pairs.  Recorded verbatim in the final checkpoint so
  /// `pmafia append` can reconstruct the base data; the library never
  /// opens these paths itself.  Filled by the CLI, optional elsewhere.
  std::vector<std::pair<std::string, std::uint64_t>> provenance;

  [[nodiscard]] bool enabled() const { return !directory.empty(); }
};

/// Incremental append-batch mode: the run's data source holds the base
/// records (the ones a previous checkpointed run clustered) followed by
/// the new batch, and `base_records` marks the boundary.  The run loads
/// the final checkpoint from CheckpointConfig::directory (fingerprinted
/// for the base record count), seeds histograms and per-level unit counts
/// from it, scans only the batch for every level whose candidate set is
/// provably unchanged, and falls back to full scans from the first level
/// whose dense-unit flags diverge — so the result is bit-identical to a
/// full rebuild on the concatenated data by construction, and the stored
/// level records only buy speed.  A new final checkpoint (fingerprinted for the
/// concatenated count) is written at the end; per-level checkpoint writes
/// are suppressed, so a crash mid-append leaves the base state intact.
struct AppendConfig {
  std::uint64_t base_records = 0;
};

/// SPMD transport configuration (mp/backend.hpp).  The backend changes how
/// ranks exchange data — threads over a shared board, or forked worker
/// processes over shared memory + sockets — never what they compute:
/// results are bit-identical across backends, and the checkpoint
/// fingerprint deliberately excludes all three knobs so a resume may switch
/// backend mid-run.
struct MpConfig {
  mp::MpBackend backend = mp::MpBackend::Threads;

  /// Deadline, in seconds, on every collective and mailbox wait; a rank
  /// stuck longer fails the job with a Fault-class error naming the rank
  /// and operation instead of hanging it.  0 = no deadline.
  double deadline_seconds = 0.0;

  /// Process backend only: per-rank shared-memory slot size; payloads
  /// larger than a slot spill over the rank's socket (correct either way,
  /// sizing only affects transport cost).
  std::size_t shm_slot_bytes = 256 * 1024;
};

/// `pmafia serve` daemon configuration (src/serve/server.hpp): which model
/// file to load, where to listen, and the worker-pool / admission limits.
/// Lives here (not in the serve module) so the CLI's option plumbing has a
/// single home and the serve module stays a pure consumer.
struct ServeOptions {
  std::string model_path;  ///< model file written by `cluster --save`

  /// Listen spec: "unix:/path/to.sock" (or a bare filesystem path) for a
  /// Unix socket, "tcp:HOST:PORT" for IPv4 TCP (PORT 0 = pick a free one).
  std::string listen;

  std::size_t serve_threads = 4;  ///< query worker pool size
  std::size_t max_batch = 4096;   ///< rows admitted per query frame

  void validate() const {
    require(!model_path.empty(), "ServeOptions: model path is required");
    require(!listen.empty(), "ServeOptions: listen spec is required");
    require(serve_threads >= 1 && serve_threads <= 256,
            "ServeOptions: serve_threads must be in [1, 256]");
    require(max_batch >= 1 && max_batch <= (1u << 22),
            "ServeOptions: max_batch must be in [1, 4194304]");
  }
};

struct MafiaOptions {
  /// Algorithm 1 parameters (alpha, beta, window geometry).
  AdaptiveGridOptions grid;

  /// Density test for k-dim candidates (default: the paper's every-bin rule).
  DensityPolicy density = DensityPolicy::AllBins;

  /// Candidate generation rule (default: MAFIA's any-(k-2)-shared join;
  /// CliquePrefix reproduces the baseline's incomplete candidate set).
  JoinRule join_rule = JoinRule::MafiaAnyShared;

  /// Repeat-elimination strategy.  Hash is the engineering default;
  /// Pairwise is the paper's O(Ncdu^2) kernel, task-partitioned in
  /// parallel runs (kept for fidelity and the dedup ablation bench).
  /// Note: it takes effect only with the Pairwise join kernel; the default
  /// JoinKernel::Bucketed emits each candidate once, so no repeat exists
  /// to eliminate and this knob is not consulted.
  DedupPolicy dedup = DedupPolicy::Hash;

  /// Candidate-generation kernel selection (units/join.hpp).  Bucketed (the
  /// default) walks a drop-one signature index and emits each unique
  /// candidate once, bit-identical in output to the paper's Pairwise
  /// triangular scan plus repeat elimination, which remains available for
  /// fidelity runs and the join A/B bench.
  JoinConfig join;

  /// B: records per chunk of the out-of-core scans (Algorithm 2's memory
  /// buffer).
  std::size_t chunk_records = 1 << 16;

  /// Pipelined prefetching for the data passes (io/pipeline.hpp): with
  /// `io.prefetch` set, every chunked scan runs through a PipelinedSource
  /// so the next chunk is read while the current one is processed.  Results
  /// are bit-identical either way (the pipeline preserves the synchronous
  /// chunk sequence); only where the time goes changes, and the per-phase
  /// io stats in the run report show the split.
  IoConfig io;

  /// Not read by run_pmafia (see PopulateKernel).  The populate regime is
  /// picked by max_cdu_bytes: see there.
  PopulateConfig populate;

  /// tau: below this many units, task-parallel phases degenerate to every
  /// rank processing everything locally ("Candidate dense units are
  /// generated in parallel only when each processor is guaranteed to have a
  /// minimal amount of work", Section 4.3).
  std::size_t tau = 32;

  /// Eq. 1 optimal triangular partitioning for the join / pairwise-dedup
  /// workloads; false falls back to naive block partitioning (ablation).
  bool optimal_task_partition = true;

  /// Safety cap on the level loop (the genuine termination condition is
  /// "no more candidate dense units").
  std::size_t max_level = 64;

  /// When set, every dimension's domain is taken as [first, second] and the
  /// min/max pre-pass is skipped (one fewer scan; useful when the data
  /// generator's domain is known).
  std::optional<std::pair<Value, Value>> fixed_domain;

  /// When set, Algorithm 1 is bypassed and a CLIQUE-style uniform grid is
  /// used instead: `xi` equal bins per dimension (or `bins_per_dim` when
  /// non-empty) with a single global density threshold `tau_fraction`·N.
  /// The clique module sets this; combining it with JoinRule::MafiaAnyShared
  /// gives the paper's "modified CLIQUE" of Section 5.5.
  struct UniformGridOverride {
    std::size_t xi = 10;
    double tau_fraction = 0.01;
    std::vector<std::size_t> bins_per_dim;  ///< optional per-dim bin counts
  };
  std::optional<UniformGridOverride> uniform_grid;

  /// When set, every collective/message stalls the participating rank by
  /// the emulated interconnect delay (mp::NetworkSimulation::sp2() for the
  /// paper's switch constants) — lets benches measure communication
  /// overhead under the paper's network instead of thread-speed exchanges.
  std::optional<mp::NetworkSimulation> simulate_network;

  /// Minimum subspace dimensionality of reported clusters.  A single dense
  /// bin that never combined upward is a maximal dense region but rarely a
  /// meaningful "cluster"; the paper's real-data tables (e.g. Table 4)
  /// report clusters of dimensionality >= 3 only.  Default 2.  Set to 1 to
  /// see every registered maximal unit.
  std::size_t min_cluster_dims = 2;

  /// Level-checkpoint/restart: see CheckpointConfig.  Checkpoint contents
  /// are independent of chunk_records, max_cdu_bytes and rank count
  /// (results are invariant to all three), so a resume may change them —
  /// including a budget that switches the populate regime mid-run.
  CheckpointConfig checkpoint;

  /// Incremental append-batch mode (see AppendConfig).  Requires a
  /// checkpoint directory holding the base run's final checkpoint; mutually
  /// exclusive with checkpoint.resume (an interrupted append is simply
  /// rerun — the base state is never mutated until the final atomic
  /// publish).
  std::optional<AppendConfig> append;

  /// Graceful degradation: hard cap, in bytes, on one level's memory
  /// components — the CDU stores (dim/bin byte arrays plus the count
  /// vector), the populate bitmap index and the join bucket index.
  /// It also picks the populate regime, once per run and alike on every
  /// rank: when the run index over the worst-case partition (total bins ×
  /// ⌈N/p⌉ bits) fits, or no budget is set, every level counts from it;
  /// otherwise every level rescans its rows in chunk_records batches, each
  /// indexed, counted and cleared, and the batch index (total bins ×
  /// min(chunk_records, ⌈N/p⌉) bits) is what the budget is charged.
  /// Exceeding it throws mafia::ResourceError naming the level and the
  /// offending component instead of OOM-ing mid-allocation.  0 = unlimited.
  std::size_t max_cdu_bytes = 0;

  /// SPMD transport selection and robustness knobs (see MpConfig).
  MpConfig mp;

  /// Deterministic fault injection for robustness tests and recovery
  /// drills (mp/faults.hpp).  Empty = no faults.  An injected kill
  /// surfaces as mp::FaultError from run_pmafia with every rank unwound.
  mp::FaultPlan fault_plan;

  /// CLIQUE's MDL subspace pruning, applied to the dense units of every
  /// level: subspaces in the low-coverage MDL group lose their dense units
  /// before the next join.  pMAFIA keeps this off ("In order to maintain
  /// the high quality of clustering we do not use this pruning technique").
  bool mdl_pruning = false;

  void validate() const {
    grid.validate();
    io.validate();
    require(chunk_records >= 1, "MafiaOptions: chunk_records must be positive");
    require(max_level >= 1, "MafiaOptions: max_level must be positive");
    require(!checkpoint.resume || checkpoint.enabled(),
            "MafiaOptions: resume requires a checkpoint directory");
    if (append) {
      require(checkpoint.enabled(),
              "MafiaOptions: append requires a checkpoint directory");
      require(!checkpoint.resume,
              "MafiaOptions: append and resume are mutually exclusive");
      require(append->base_records >= 1,
              "MafiaOptions: append.base_records must be positive");
    }
    require(mp.deadline_seconds >= 0.0,
            "MafiaOptions: mp.deadline_seconds must be non-negative");
    require(mp.shm_slot_bytes >= 64,
            "MafiaOptions: mp.shm_slot_bytes must be at least 64");
    if (fixed_domain) {
      require(fixed_domain->second > fixed_domain->first,
              "MafiaOptions: empty fixed domain");
    }
  }
};

}  // namespace mafia
