// Level-granularity checkpoint/restart and the append base, in one format.
//
// Algorithm 2 carries only dense-unit summaries from one level to the next,
// so the level boundary is the one recovery and reuse point.  A checkpoint
// stores one LevelRecord per completed level — the level's entering join
// state, its global counts and dense flags, and the dense units its own
// join left unpaired — plus the grid phase once: grids, attribute domains
// and the global fine histogram.  A run starts from at most one such state
// (nothing, the chain of level files for --resume, or the final file for
// `pmafia append`), rebuilds the grids from its grid phase plus the rows it
// does not cover, and replays its records through the one level loop
// (core/mafia.cpp) — the cheapest possible recovery point for a
// grid/density algorithm, since the state is kilobytes of dense-unit
// summaries, not gigabytes of data.
//
// File format (version 6, little-endian PODs):
//   [0..7]   magic "MAFIACKP"
//   [8..11]  uint32 format version
//   [12..15] uint32 CRC-32 of the payload
//   [16.. ]  payload: fingerprint, data shape, the grid phase (empty when
//            the file does not carry it), the level records, and the data
//            provenance (empty outside the final file)
// Older versions are discarded by the version check: versions before 5
// carried the loop state and cumulative outputs instead of level records,
// and version 5's records also carried the join's raw parent pairs and
// raw→unique map, which parent marking by unit content made unnecessary.
//
// Two kinds of file share the format, written by one serializer and read
// by one file reader:
//   * "ckpt-level-NNNN.bin", written at the boundary entering level NNNN:
//     level NNNN-1's record, and — in the first file, NNNN = 2 — the grid
//     phase.  No file repeats an earlier level's record.
//     load_latest_checkpoint joins them into the longest valid chain.
//   * "ckpt-final.bin", written once after the level loop finishes: the
//     grid phase, every level's record, and the data provenance
//     `pmafia append` rebuilds the base data from.
//
// Torn writes cannot produce a "valid" half-checkpoint: files are written
// to a temp name and atomically renamed, and the CRC guards everything
// after the header.  The CRC is not an authenticator, though, so the
// loaders also check every stored candidate against the grid phase before
// a replay reads one: a record's candidates have its level's
// dimensionality, each unit's dims are strictly ascending and below the
// data's dimension count, and each bin lies inside its dimension's grid.
// A level file that is missing, short, corrupt, from another format
// version, fingerprinted for different options/data, or fails those checks
// ends the chain; it and every later file count as discarded, so the run
// report can surface them.  A final file that fails them is discarded the
// same way.
//
// The options fingerprint covers every knob that changes the computed
// state (grid parameters, density policy, join rule, dedup policy, tau,
// partitioning, max_level, domains, MDL pruning) and deliberately excludes
// knobs that provably don't (chunk size B, the memory budget — the run
// index and the per-level rescan produce bit-identical counts — join
// kernel selection — bucketed and pairwise joins are bit-identical — and
// rank count p; the determinism suite pins result invariance across all
// four), so a resume may legally change them, including a budget that
// switches the populate regime across the resume boundary.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/options.hpp"
#include "core/result.hpp"
#include "grid/grid_types.hpp"
#include "units/unit_store.hpp"

namespace mafia {

inline constexpr std::uint32_t kCheckpointVersion = 6;

/// One data file a checkpointed run consumed, in concatenation order —
/// `pmafia append` reloads the segments to reconstruct the base data.
struct DataSegment {
  std::string path;
  std::uint64_t records = 0;
};

/// One completed level of the bottom-up loop: its entering state (the
/// unique candidates the join produced, and that join's counters), the
/// global counts and dense flags it computed, and the dense units its own
/// join left unpaired.  Nothing per raw emission is stored: parent marking
/// works from unit content (mark_dense_parents).  A run
/// replays a record instead of recomputing the level while the fresh dense
/// flags of every earlier level match the stored ones: the level's
/// candidate set is then unchanged, so its counts are the stored global
/// counts plus a pass over the rows the stored state does not cover.
struct LevelRecord {
  std::uint64_t level = 1;
  UnitStore cdus{1};
  /// The level's candidate count before repeat elimination — the joining
  /// pairs of the join that produced `cdus`, or every bin at level 1 — and
  /// that join's work counters and kernel (zero at level 1).
  std::uint64_t pending_raw_count = 0;
  JoinStats pending_join;
  /// Kernel of that join: 0 = none (level 1), 1 = pairwise, 2 = bucketed.
  std::uint8_t pending_join_kernel = 0;
  /// Global populate counts (post-allreduce, CDU order) and the dense
  /// flags identify produced from them (post-MDL when pruning is on).
  std::vector<Count> counts;
  std::vector<std::uint8_t> flags;
  /// This level's LevelTrace::unjoined_dus / unjoined_units, which only the
  /// join at the end of the level computes.
  std::uint64_t unjoined_dus = 0;
  std::vector<std::string> unjoined_units;
};

/// A run's start state: the grid phase and the level records computed
/// over the first `num_records` rows.  One file may hold only part of it
/// (see the file kinds above); the loaders return it whole.
struct CheckpointState {
  std::uint64_t fingerprint = 0;   ///< checkpoint_fingerprint() of the run
  std::uint64_t num_records = 0;
  std::uint32_t num_dims = 0;

  // ---- Grid phase (empty in level files past the first).
  GridSet grids;
  /// Attribute domains the grids were built on.
  std::vector<Value> domain_lo;
  std::vector<Value> domain_hi;
  /// Global fine histogram (dim-major, fine_bins cells per dim; see
  /// HistogramBuilder).  Empty for uniform-grid runs, which build none.
  std::vector<Count> hist_counts;

  /// Level records, consecutive levels in order.
  std::vector<LevelRecord> records;
  /// Data files this state was computed from, in concatenation order
  /// (copied from CheckpointConfig::provenance; filled by the CLI).
  std::vector<DataSegment> provenance;
};

/// Hash of the options and data shape a checkpoint is only valid for.
/// Bit-exact field hashing (doubles bit-cast), so any change to a
/// result-affecting knob invalidates old checkpoints.
[[nodiscard]] std::uint64_t checkpoint_fingerprint(const MafiaOptions& options,
                                                   std::uint64_t num_records,
                                                   std::uint32_t num_dims);

/// Serializes `state` to the current wire format (CRC filled in).
[[nodiscard]] std::vector<std::uint8_t> serialize_checkpoint(
    const CheckpointState& state);

/// Parses and validates a serialized checkpoint.  Throws mafia::InputError
/// on bad magic, version, CRC, or structural corruption.
[[nodiscard]] CheckpointState deserialize_checkpoint(
    const std::uint8_t* data, std::size_t size);

/// Path of the level file written at the boundary entering `level` (it
/// holds level `level` - 1's record) under `directory`.
[[nodiscard]] std::string checkpoint_file_path(const std::string& directory,
                                               std::uint64_t level);

/// Atomically writes `state`, which holds exactly one record, as that
/// record's level file under `directory` (created if missing): temp file +
/// rename, so a crash mid-write leaves the earlier files as the chain.
void write_checkpoint_file(const std::string& directory,
                           const CheckpointState& state);

/// Removes every level file under `directory`, so a run that starts fresh
/// never leaves an earlier run's levels for a later resume to chain onto.
void remove_level_checkpoints(const std::string& directory);

/// Result of loading a start state from a checkpoint directory.
struct CheckpointScan {
  std::optional<CheckpointState> state;  ///< the valid state, if any
  std::uint64_t discarded = 0;  ///< corrupt/short/mismatched files skipped
};

/// Joins the level files under `directory` into the longest valid chain
/// from level 1: the first file must carry the grid phase, and each file
/// must deserialize cleanly, match `fingerprint`, and hold the next level's
/// record, whose candidates fit the first file's grids.  The first file
/// that does not ends the chain; it and every later file count as
/// discarded.  A missing directory is simply "no checkpoint".
[[nodiscard]] CheckpointScan load_latest_checkpoint(
    const std::string& directory, std::uint64_t fingerprint);

/// Path of the final checkpoint under `directory`.
[[nodiscard]] std::string final_checkpoint_path(const std::string& directory);

/// Atomically writes `state` (grid phase and every record from level 1) as
/// the final checkpoint under `directory`: temp file + rename, so a crash
/// mid-write — including a SIGKILL mid-append — leaves the previous final
/// state as the valid one and the append simply reruns.
void write_final_checkpoint(const std::string& directory,
                            const CheckpointState& state);

/// Loads the final checkpoint under `directory` if present, valid (every
/// stored candidate fitting its grids included), and fingerprinted
/// `fingerprint` (0 = accept any fingerprint).  Invalid or mismatched files
/// count as discarded, exactly like load_latest_checkpoint.
[[nodiscard]] CheckpointScan load_final_checkpoint(
    const std::string& directory, std::uint64_t fingerprint);

}  // namespace mafia
