#include "core/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "core/result_codec.hpp"

namespace mafia {

namespace {

constexpr char kCheckpointMagic[8] = {'M', 'A', 'F', 'I', 'A', 'C', 'K', 'P'};
constexpr std::size_t kCheckpointHeaderBytes = 16;  // magic + version + crc

// The byte stream (common/bytes.hpp) and the store/grid codecs
// (core/result_codec.hpp) are shared with the process backend's worker
// result blob; this file owns only the checkpoint framing and the
// level-record fields around them.

}  // namespace

std::uint64_t checkpoint_fingerprint(const MafiaOptions& options,
                                     std::uint64_t num_records,
                                     std::uint32_t num_dims) {
  ByteWriter w;
  w.pod(kCheckpointVersion);
  w.pod(num_records);
  w.pod(num_dims);
  w.pod(options.grid.fine_bins);
  w.pod(options.grid.window_cells);
  w.pod(options.grid.beta);
  w.pod(options.grid.merge_noise_sigmas);
  w.pod(options.grid.uniform_dim_partitions);
  w.pod(options.grid.alpha);
  w.pod(options.grid.uniform_dim_alpha_boost);
  w.pod(options.grid.max_bins);
  w.pod(static_cast<std::uint32_t>(options.density));
  w.pod(static_cast<std::uint32_t>(options.join_rule));
  w.pod(static_cast<std::uint32_t>(options.dedup));
  w.pod(options.tau);
  w.pod(static_cast<std::uint8_t>(options.optimal_task_partition));
  w.pod(options.max_level);
  w.pod(options.min_cluster_dims);
  w.pod(static_cast<std::uint8_t>(options.mdl_pruning));
  w.pod(static_cast<std::uint8_t>(options.fixed_domain.has_value()));
  if (options.fixed_domain) {
    w.pod(options.fixed_domain->first);
    w.pod(options.fixed_domain->second);
  }
  w.pod(static_cast<std::uint8_t>(options.uniform_grid.has_value()));
  if (options.uniform_grid) {
    w.pod(options.uniform_grid->xi);
    w.pod(options.uniform_grid->tau_fraction);
    w.vec(options.uniform_grid->bins_per_dim);
  }

  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : w.out) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<std::uint8_t> serialize_checkpoint(const CheckpointState& state) {
  ByteWriter w;
  w.pod(state.fingerprint);
  w.pod(state.num_records);
  w.pod(state.num_dims);
  write_grids(w, state.grids);
  w.vec(state.domain_lo);
  w.vec(state.domain_hi);
  w.vec(state.hist_counts);
  w.pod(static_cast<std::uint64_t>(state.records.size()));
  for (const LevelRecord& rec : state.records) {
    w.pod(rec.level);
    write_store(w, rec.cdus);
    w.pod(rec.pending_raw_count);
    w.pod(rec.pending_join.buckets);
    w.pod(rec.pending_join.probes);
    w.pod(rec.pending_join.emitted);
    w.pod(rec.pending_join.repeats_fused);
    w.pod(rec.pending_join_kernel);
    w.vec(rec.counts);
    w.vec(rec.flags);
    w.pod(rec.unjoined_dus);
    w.pod(static_cast<std::uint64_t>(rec.unjoined_units.size()));
    for (const std::string& u : rec.unjoined_units) w.str(u);
  }
  w.pod(static_cast<std::uint64_t>(state.provenance.size()));
  for (const DataSegment& seg : state.provenance) {
    w.str(seg.path);
    w.pod(seg.records);
  }

  std::vector<std::uint8_t> file;
  file.reserve(kCheckpointHeaderBytes + w.out.size());
  file.insert(file.end(), kCheckpointMagic, kCheckpointMagic + 8);
  const std::uint32_t version = kCheckpointVersion;
  const std::uint32_t crc = crc32(w.out.data(), w.out.size());
  const auto* vp = reinterpret_cast<const std::uint8_t*>(&version);
  file.insert(file.end(), vp, vp + sizeof(version));
  const auto* cp = reinterpret_cast<const std::uint8_t*>(&crc);
  file.insert(file.end(), cp, cp + sizeof(crc));
  file.insert(file.end(), w.out.begin(), w.out.end());
  return file;
}

CheckpointState deserialize_checkpoint(const std::uint8_t* data,
                                       std::size_t size) {
  require_input(size >= kCheckpointHeaderBytes &&
                    std::memcmp(data, kCheckpointMagic, 8) == 0,
                "checkpoint: bad magic or short file");
  std::uint32_t version = 0;
  std::uint32_t stored_crc = 0;
  std::memcpy(&version, data + 8, sizeof(version));
  std::memcpy(&stored_crc, data + 12, sizeof(stored_crc));
  require_input(version == kCheckpointVersion,
                "checkpoint: unsupported format version " +
                    std::to_string(version));
  const std::uint8_t* payload = data + kCheckpointHeaderBytes;
  const std::size_t payload_size = size - kCheckpointHeaderBytes;
  require_input(crc32(payload, payload_size) == stored_crc,
                "checkpoint: CRC mismatch (corrupt payload)");

  ByteReader r{payload, payload_size};
  CheckpointState state;
  try {
    state.fingerprint = r.pod<std::uint64_t>();
    state.num_records = r.pod<std::uint64_t>();
    state.num_dims = r.pod<std::uint32_t>();
    state.grids = read_grids(r);
    state.domain_lo = r.vec<Value>();
    state.domain_hi = r.vec<Value>();
    require_input(state.domain_lo.size() == state.domain_hi.size(),
                  "checkpoint: domain lo/hi size mismatch");
    state.hist_counts = r.vec<Count>();
    const auto nrecords = r.pod<std::uint64_t>();
    require_input(nrecords <= 1u << 16, "checkpoint: implausible level count");
    state.records.reserve(static_cast<std::size_t>(nrecords));
    for (std::uint64_t i = 0; i < nrecords; ++i) {
      LevelRecord rec;
      rec.level = r.pod<std::uint64_t>();
      require_input(rec.level >= 1 &&
                        (i == 0 || rec.level == state.records[0].level + i),
                    "checkpoint: level records out of order");
      rec.cdus = read_store(r);
      rec.pending_raw_count = r.pod<std::uint64_t>();
      rec.pending_join.buckets = r.pod<std::uint64_t>();
      rec.pending_join.probes = r.pod<std::uint64_t>();
      rec.pending_join.emitted = r.pod<std::uint64_t>();
      rec.pending_join.repeats_fused = r.pod<std::uint64_t>();
      rec.pending_join_kernel = r.pod<std::uint8_t>();
      rec.counts = r.vec<Count>();
      rec.flags = r.vec<std::uint8_t>();
      require_input(rec.counts.size() == rec.cdus.size() &&
                        rec.flags.size() == rec.cdus.size(),
                    "checkpoint: level counts/flags size mismatch");
      rec.unjoined_dus = r.pod<std::uint64_t>();
      const auto nunjoined = r.pod<std::uint64_t>();
      require_input(nunjoined <= kMaxUnjoinedListed,
                    "checkpoint: implausible unjoined-unit list length");
      for (std::uint64_t u = 0; u < nunjoined; ++u) {
        rec.unjoined_units.push_back(r.str());
      }
      state.records.push_back(std::move(rec));
    }
    const auto nseg = r.pod<std::uint64_t>();
    require_input(nseg <= 1u << 16, "checkpoint: implausible provenance count");
    state.provenance.reserve(static_cast<std::size_t>(nseg));
    for (std::uint64_t i = 0; i < nseg; ++i) {
      DataSegment seg;
      seg.path = r.str();
      seg.records = r.pod<std::uint64_t>();
      state.provenance.push_back(std::move(seg));
    }
  } catch (const InputError&) {
    throw;
  } catch (const Error& e) {
    // Structural validation inside UnitStore/DimensionGrid throws plain
    // Error; in this context the cause is a corrupt file, so reclassify.
    throw InputError(std::string("checkpoint: invalid structure: ") +
                     e.what());
  }
  require_input(r.at == r.size,
                "checkpoint: trailing garbage after payload");
  return state;
}

std::string checkpoint_file_path(const std::string& directory,
                                 std::uint64_t level) {
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt-level-%04llu.bin",
                static_cast<unsigned long long>(level));
  return (std::filesystem::path(directory) / name).string();
}

namespace {

/// Shared atomic write: serialize, write to `path` + ".tmp", rename.
void write_checkpoint_bytes(const std::string& directory,
                            const CheckpointState& state,
                            const std::string& final_path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(directory, ec);
  require(!ec, "checkpoint: cannot create directory " + directory);

  const std::vector<std::uint8_t> bytes = serialize_checkpoint(state);
  const std::string tmp_path = final_path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    require(out.good(), "checkpoint: cannot open " + tmp_path);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    require(out.good(), "checkpoint: write failed for " + tmp_path);
  }
  // Atomic publish: a crash before this rename leaves only the .tmp file,
  // which the loaders ignore; a crash after it leaves a complete,
  // CRC-valid checkpoint.
  fs::rename(tmp_path, final_path, ec);
  require(!ec, "checkpoint: cannot rename " + tmp_path + " to " + final_path);
}

/// The one file reader: the state stored at `path`, or nullopt when no
/// such file exists.  Throws InputError when the file is not a valid
/// checkpoint.
std::optional<CheckpointState> read_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return deserialize_checkpoint(bytes.data(), bytes.size());
}

/// Requires `state` to start at level 1 with its grid phase present.
void require_start_at_level_one(const CheckpointState& state) {
  require_input(!state.records.empty() && state.records.front().level == 1 &&
                    state.grids.num_dims() == state.num_dims &&
                    state.domain_lo.size() == state.num_dims,
                "checkpoint: state does not start with the grid phase and "
                "level 1");
}

/// Requires every candidate of `rec` to fit the grid phase of `state`
/// before a replay reads it: the populate kernel indexes the grids by dim
/// and identify reads the thresholds by bin, and the CRC only proves the
/// bytes are the ones written, not that a writer produced them.  So the
/// candidates must have the record's level as their dimensionality, and
/// each unit strictly ascending dims below the dimension count and bins
/// inside its dimension's grid.
void require_valid_candidates(const CheckpointState& state,
                              const LevelRecord& rec) {
  const auto fail = [&rec](const char* what) {
    throw InputError("checkpoint: level " + std::to_string(rec.level) +
                     " holds " + what);
  };
  const UnitStore& cdus = rec.cdus;
  if (cdus.k() != rec.level) fail("candidates of another dimensionality");
  for (std::size_t u = 0; u < cdus.size(); ++u) {
    const auto dims = cdus.dims(u);
    const auto bins = cdus.bins(u);
    for (std::size_t i = 0; i < dims.size(); ++i) {
      if (i > 0 && dims[i - 1] >= dims[i]) {
        fail("a candidate whose dims are not ascending");
      }
      if (dims[i] >= state.grids.num_dims()) {
        fail("a candidate past the data's dimensions");
      }
      if (bins[i] >= state.grids[dims[i]].num_bins()) {
        fail("a candidate past its dimension's bins");
      }
    }
  }
}

/// Levels of the level files under `directory`, ascending.
std::vector<std::uint64_t> level_file_levels(const std::string& directory) {
  namespace fs = std::filesystem;
  std::vector<std::uint64_t> levels;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned long long level = 0;
    if (std::sscanf(name.c_str(), "ckpt-level-%4llu.bin", &level) == 1 &&
        name == fs::path(checkpoint_file_path(directory, level))
                    .filename()
                    .string()) {
      levels.push_back(level);
    }
  }
  std::sort(levels.begin(), levels.end());
  return levels;
}

}  // namespace

void write_checkpoint_file(const std::string& directory,
                           const CheckpointState& state) {
  require(state.records.size() == 1,
          "checkpoint: a level file holds exactly one level record");
  write_checkpoint_bytes(
      directory, state,
      checkpoint_file_path(directory, state.records.front().level + 1));
}

void remove_level_checkpoints(const std::string& directory) {
  for (const std::uint64_t level : level_file_levels(directory)) {
    std::error_code ec;
    std::filesystem::remove(checkpoint_file_path(directory, level), ec);
    require(!ec, "checkpoint: cannot remove a stale level file in " +
                     directory);
  }
}

std::string final_checkpoint_path(const std::string& directory) {
  return (std::filesystem::path(directory) / "ckpt-final.bin").string();
}

void write_final_checkpoint(const std::string& directory,
                            const CheckpointState& state) {
  require(!state.records.empty() && state.records.front().level == 1,
          "checkpoint: the final checkpoint holds every level from 1");
  write_checkpoint_bytes(directory, state, final_checkpoint_path(directory));
}

CheckpointScan load_final_checkpoint(const std::string& directory,
                                     std::uint64_t fingerprint) {
  CheckpointScan scan;
  try {
    std::optional<CheckpointState> state =
        read_checkpoint_file(final_checkpoint_path(directory));
    if (!state) return scan;  // no final checkpoint: not an error
    require_input(fingerprint == 0 || state->fingerprint == fingerprint,
                  "checkpoint: options/data fingerprint mismatch");
    require_start_at_level_one(*state);
    for (const LevelRecord& rec : state->records) {
      require_valid_candidates(*state, rec);
    }
    scan.state = std::move(state);
  } catch (const InputError&) {
    ++scan.discarded;
  }
  return scan;
}

CheckpointScan load_latest_checkpoint(const std::string& directory,
                                      std::uint64_t fingerprint) {
  CheckpointScan scan;
  const std::vector<std::uint64_t> levels = level_file_levels(directory);
  // Level file k + 1 holds level k's record; the chain runs from file 2
  // while every file is present and valid.
  std::size_t linked = 0;
  for (std::uint64_t level = 2;
       std::binary_search(levels.begin(), levels.end(), level); ++level) {
    try {
      std::optional<CheckpointState> file =
          read_checkpoint_file(checkpoint_file_path(directory, level));
      require_input(file.has_value(), "checkpoint: level file vanished");
      require_input(file->fingerprint == fingerprint,
                    "checkpoint: options/data fingerprint mismatch");
      require_input(file->records.size() == 1 &&
                        file->records.front().level == level - 1,
                    "checkpoint: level file holds the wrong level");
      if (!scan.state) {
        require_start_at_level_one(*file);
        require_valid_candidates(*file, file->records.front());
        scan.state = std::move(file);
      } else {
        require_valid_candidates(*scan.state, file->records.front());
        scan.state->records.push_back(std::move(file->records.front()));
      }
      ++linked;
    } catch (const InputError&) {
      break;  // corrupt, short, or mismatched: the chain ends here
    }
  }
  scan.discarded = levels.size() - linked;
  return scan;
}

}  // namespace mafia
