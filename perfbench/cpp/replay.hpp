// Serial replay of run_pmafia's level loop through the library's public
// layer calls, with a span around each call.  It exists so the traced run
// can attribute build time to layers without instrumenting the program,
// and it must reproduce run_pmafia(p = 1) exactly — per-level
// count_checksums and the cluster set — or it is timing a different
// program (compare_levels / clusters_equal check that).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/options.hpp"
#include "core/result.hpp"
#include "io/data_source.hpp"
#include "spans.hpp"

namespace perfbench {

/// Work counters gathered at the layer boundaries during a replay.
struct ReplayCounters {
  std::uint64_t grid_scans = 0;     ///< full record passes of the grid build
  std::uint64_t record_passes = 0;  ///< full record passes of populate
  std::uint64_t subspaces = 0;      ///< populated subspaces, all levels
  std::uint64_t cdus = 0;           ///< populated candidate units, all levels
  std::uint64_t join_probes = 0;
  std::uint64_t join_emitted = 0;
  std::uint64_t dedup_raw = 0;     ///< candidates entering repeat elimination
  std::uint64_t dedup_unique = 0;  ///< candidates leaving it
};

struct ReplayResult {
  mafia::GridSet grids;
  std::vector<mafia::LevelTrace> levels;  ///< level, ncdu_raw, ncdu, ndu, checksum
  std::vector<mafia::Cluster> clusters;
  ReplayCounters counters;
};

/// Replays a fresh (no checkpoint, no append) serial build.  Spans:
/// grid.scan, grid.build, populate, identify, join, dedup, assemble.
/// Throws std::invalid_argument on options the replay does not cover.
[[nodiscard]] ReplayResult replay_build(const mafia::DataSource& data,
                                        const mafia::MafiaOptions& options,
                                        SpanLog& log);

/// Empty when `got` matches `want` level by level on level, ncdu_raw, ncdu,
/// ndu and count_checksum; otherwise a description of the first mismatch.
[[nodiscard]] std::string compare_levels(
    const std::vector<mafia::LevelTrace>& want,
    const std::vector<mafia::LevelTrace>& got);

/// Exact equality of two cluster lists: order, subspaces, units and DNF.
[[nodiscard]] bool clusters_equal(const std::vector<mafia::Cluster>& a,
                                  const std::vector<mafia::Cluster>& b);

}  // namespace perfbench
