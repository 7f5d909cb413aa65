// Checkpoint/restart: a run interrupted at any level boundary and resumed
// must reproduce the uninterrupted run's cluster set and per-level
// count_checksums bit-identically, and corrupt checkpoint files must fall
// back to the previous valid level instead of poisoning the resume.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/math_util.hpp"
#include "core/checkpoint.hpp"
#include "core/mafia.hpp"
#include "datagen/generator.hpp"
#include "io/data_source.hpp"
#include "units/bitmap_index.hpp"

namespace mafia {
namespace {

namespace fs = std::filesystem;

Dataset planted_data() {
  GeneratorConfig cfg;
  cfg.num_dims = 6;
  cfg.num_records = 8000;
  cfg.seed = 17;
  cfg.clusters.push_back(ClusterSpec::box({1, 3, 4}, {20, 20, 20}, {40, 40, 40}));
  return generate(cfg);
}

MafiaOptions base_options() {
  MafiaOptions o;
  o.fixed_domain = {{0.0f, 100.0f}};
  return o;
}

/// Order-independent cluster identity: the multiset of DNF strings.
std::vector<std::string> signature(const MafiaResult& r) {
  std::vector<std::string> sig;
  for (const Cluster& c : r.clusters) sig.push_back(c.to_string(r.grids));
  std::sort(sig.begin(), sig.end());
  return sig;
}

void expect_same_result(const MafiaResult& a, const MafiaResult& b) {
  EXPECT_EQ(signature(a), signature(b));
  ASSERT_EQ(a.levels.size(), b.levels.size());
  for (std::size_t i = 0; i < a.levels.size(); ++i) {
    EXPECT_EQ(a.levels[i].level, b.levels[i].level);
    EXPECT_EQ(a.levels[i].ncdu_raw, b.levels[i].ncdu_raw);
    EXPECT_EQ(a.levels[i].ncdu, b.levels[i].ncdu);
    EXPECT_EQ(a.levels[i].ndu, b.levels[i].ndu);
    EXPECT_EQ(a.levels[i].count_checksum, b.levels[i].count_checksum)
        << "count checksum diverged at level " << a.levels[i].level;
  }
}

/// A fresh scratch directory under the system temp dir.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A level record with every field set; `level` (1 or 2) picks its level
/// and its candidates' dimensionality.  The candidates fit
/// sample_state()'s grids: dims 0 and 1, two bins each.
LevelRecord sample_record(std::uint64_t level) {
  LevelRecord rec;
  rec.level = level;
  rec.cdus = UnitStore(level);
  for (std::size_t u = 0; u < 2; ++u) {
    std::vector<DimId> dims;
    std::vector<BinId> bins;
    for (std::size_t i = 0; i < level; ++i) {
      dims.push_back(static_cast<DimId>(level == 1 ? u : i));
      bins.push_back(static_cast<BinId>((u + i) % 2));
    }
    rec.cdus.push(dims, bins);
  }
  rec.pending_raw_count = 12;
  rec.pending_join = JoinStats{4, 9, 3, 1};
  rec.pending_join_kernel = 2;
  rec.counts = {40, 7};
  rec.flags = {1, 1};
  rec.unjoined_dus = 2;
  rec.unjoined_units = {"{d0:b2}", "{d4:b7}"};
  return rec;
}

/// A start state with every field set: the grid phase, records for levels
/// 1 and 2, and provenance.
CheckpointState sample_state() {
  CheckpointState state;
  state.fingerprint = 0xabcdef0123456789ull;
  state.num_records = 4000;
  state.num_dims = 2;

  for (const DimId dim : {DimId{0}, DimId{1}}) {
    DimensionGrid g;
    g.dim = dim;
    g.domain_lo = 0.0f;
    g.domain_hi = 100.0f;
    g.edges = {0.0f, 50.0f, 100.0f};
    g.thresholds = {12.5, 30.0};
    g.uniform_fallback = true;
    state.grids.dims.push_back(g);
  }
  state.domain_lo = {0.0f, 0.0f};
  state.domain_hi = {100.0f, 100.0f};
  state.hist_counts = {1000, 0, 2500, 500};

  state.records.push_back(sample_record(1));
  state.records.push_back(sample_record(2));
  state.records[1].unjoined_units.clear();
  state.provenance.push_back({"base.bin", 4000});
  return state;
}

TEST(CheckpointFormat, SerializeRoundTrip) {
  const CheckpointState in = sample_state();
  const auto bytes = serialize_checkpoint(in);
  const CheckpointState out = deserialize_checkpoint(bytes.data(), bytes.size());

  EXPECT_EQ(out.fingerprint, in.fingerprint);
  EXPECT_EQ(out.num_records, in.num_records);
  EXPECT_EQ(out.num_dims, in.num_dims);
  ASSERT_EQ(out.grids.num_dims(), 2u);
  EXPECT_EQ(out.grids[0].edges, in.grids[0].edges);
  EXPECT_EQ(out.grids[0].thresholds, in.grids[0].thresholds);
  EXPECT_TRUE(out.grids[0].uniform_fallback);
  EXPECT_EQ(out.domain_lo, in.domain_lo);
  EXPECT_EQ(out.domain_hi, in.domain_hi);
  EXPECT_EQ(out.hist_counts, in.hist_counts);
  ASSERT_EQ(out.records.size(), 2u);
  for (std::size_t i = 0; i < in.records.size(); ++i) {
    const LevelRecord& a = out.records[i];
    const LevelRecord& b = in.records[i];
    EXPECT_EQ(a.level, b.level);
    EXPECT_EQ(a.cdus.k(), b.cdus.k());
    EXPECT_EQ(a.cdus.dim_bytes(), b.cdus.dim_bytes());
    EXPECT_EQ(a.cdus.bin_bytes(), b.cdus.bin_bytes());
    EXPECT_EQ(a.pending_raw_count, b.pending_raw_count);
    EXPECT_EQ(a.pending_join.buckets, b.pending_join.buckets);
    EXPECT_EQ(a.pending_join.probes, b.pending_join.probes);
    EXPECT_EQ(a.pending_join.emitted, b.pending_join.emitted);
    EXPECT_EQ(a.pending_join.repeats_fused, b.pending_join.repeats_fused);
    EXPECT_EQ(a.pending_join_kernel, b.pending_join_kernel);
    EXPECT_EQ(a.counts, b.counts);
    EXPECT_EQ(a.flags, b.flags);
    EXPECT_EQ(a.unjoined_dus, b.unjoined_dus);
    EXPECT_EQ(a.unjoined_units, b.unjoined_units);
  }
  EXPECT_TRUE(out.records[1].unjoined_units.empty());
  ASSERT_EQ(out.provenance.size(), 1u);
  EXPECT_EQ(out.provenance[0].path, "base.bin");
  EXPECT_EQ(out.provenance[0].records, 4000u);
}

TEST(CheckpointFormat, RejectsCorruptionAsInputError) {
  const auto bytes = serialize_checkpoint(sample_state());

  // Flipped payload byte: CRC mismatch.
  auto bad_crc = bytes;
  bad_crc[bad_crc.size() - 1] ^= 0x5a;
  EXPECT_THROW((void)deserialize_checkpoint(bad_crc.data(), bad_crc.size()),
               InputError);

  // Short file: cut mid-payload (CRC over the truncated payload fails).
  EXPECT_THROW((void)deserialize_checkpoint(bytes.data(), bytes.size() / 2),
               InputError);

  // Shorter than the header itself.
  EXPECT_THROW((void)deserialize_checkpoint(bytes.data(), 7), InputError);

  // Wrong magic.
  auto bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_THROW(
      (void)deserialize_checkpoint(bad_magic.data(), bad_magic.size()),
      InputError);

  // Unsupported version, including the previous one.
  auto bad_version = bytes;
  bad_version[8] = 99;
  EXPECT_THROW(
      (void)deserialize_checkpoint(bad_version.data(), bad_version.size()),
      InputError);
  bad_version[8] = 4;
  EXPECT_THROW(
      (void)deserialize_checkpoint(bad_version.data(), bad_version.size()),
      InputError);
}

/// Writes `state`'s records as level files: the first carries the grid
/// phase, each later one only its record.
void write_level_files(const std::string& dir, const CheckpointState& state) {
  for (const LevelRecord& rec : state.records) {
    CheckpointState file;
    file.fingerprint = state.fingerprint;
    file.num_records = state.num_records;
    file.num_dims = state.num_dims;
    if (rec.level == 1) {
      file.grids = state.grids;
      file.domain_lo = state.domain_lo;
      file.domain_hi = state.domain_hi;
      file.hist_counts = state.hist_counts;
    }
    file.records.push_back(rec);
    write_checkpoint_file(dir, file);
  }
}

TEST(CheckpointFormat, LoadLatestFallsBackPastCorruptFiles) {
  ScratchDir dir("mafia_ckpt_fallback");
  CheckpointState state = sample_state();
  state.provenance.clear();
  write_level_files(dir.path(), state);

  // Untouched: the chain runs through the highest file, one level each.
  {
    const CheckpointScan scan =
        load_latest_checkpoint(dir.path(), state.fingerprint);
    ASSERT_TRUE(scan.state.has_value());
    ASSERT_EQ(scan.state->records.size(), 2u);
    EXPECT_EQ(scan.state->records[1].level, 2u);
    EXPECT_EQ(scan.state->records[1].counts, state.records[1].counts);
    EXPECT_EQ(scan.state->hist_counts, state.hist_counts);
    EXPECT_EQ(scan.discarded, 0u);
  }

  // Corrupt the highest file (level 2's record): fall back one level,
  // counting the discard.
  {
    std::ofstream f(checkpoint_file_path(dir.path(), 3),
                    std::ios::binary | std::ios::trunc);
    f << "garbage";
  }
  {
    const CheckpointScan scan =
        load_latest_checkpoint(dir.path(), state.fingerprint);
    ASSERT_TRUE(scan.state.has_value());
    ASSERT_EQ(scan.state->records.size(), 1u);
    EXPECT_EQ(scan.state->records[0].level, 1u);
    EXPECT_EQ(scan.discarded, 1u);
  }

  // Fingerprint mismatch discards everything.
  {
    const CheckpointScan scan = load_latest_checkpoint(dir.path(), 0xdeadull);
    EXPECT_FALSE(scan.state.has_value());
    EXPECT_EQ(scan.discarded, 2u);
  }

  // A missing file ends the chain: the files past it are discarded.
  write_level_files(dir.path(), state);
  fs::remove(checkpoint_file_path(dir.path(), 2));
  {
    const CheckpointScan scan =
        load_latest_checkpoint(dir.path(), state.fingerprint);
    EXPECT_FALSE(scan.state.has_value());
    EXPECT_EQ(scan.discarded, 1u);
  }

  // Missing directory is simply "no checkpoint".
  {
    const CheckpointScan scan =
        load_latest_checkpoint(dir.path() + "/nope", state.fingerprint);
    EXPECT_FALSE(scan.state.has_value());
    EXPECT_EQ(scan.discarded, 0u);
  }
}

TEST(CheckpointFormat, FinalFileHoldsEveryRecordOnce) {
  ScratchDir dir("mafia_ckpt_final");
  const CheckpointState state = sample_state();
  write_final_checkpoint(dir.path(), state);
  const CheckpointScan scan = load_final_checkpoint(dir.path(), 0);
  ASSERT_TRUE(scan.state.has_value());
  EXPECT_EQ(scan.state->records.size(), 2u);
  EXPECT_EQ(scan.state->provenance.size(), 1u);
  EXPECT_FALSE(load_final_checkpoint(dir.path(), 0xdeadull).state.has_value());

  // A level file holds its own record only, and only the first one
  // carries the grid phase.
  ScratchDir levels("mafia_ckpt_levels_once");
  write_level_files(levels.path(), state);
  for (const std::uint64_t level : {2u, 3u}) {
    std::ifstream in(checkpoint_file_path(levels.path(), level),
                     std::ios::binary);
    const std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    const CheckpointState file =
        deserialize_checkpoint(bytes.data(), bytes.size());
    ASSERT_EQ(file.records.size(), 1u);
    EXPECT_EQ(file.records[0].level, level - 1);
    EXPECT_EQ(file.grids.num_dims(), level == 2 ? 2u : 0u);
    EXPECT_EQ(file.hist_counts.empty(), level != 2);
  }
}

/// The state stored in the checkpoint file at `path`.
CheckpointState read_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                        std::istreambuf_iterator<char>());
  return deserialize_checkpoint(bytes.data(), bytes.size());
}

/// Breaks the first candidate of `rec`, a record past level 1, in one of
/// kCandidateBreaks ways no writer produces: a bin past its dimension's
/// bins (identify would read past the thresholds), a dim past the data's
/// dimensions, and dims out of ascending order.
constexpr int kCandidateBreaks = 3;
void break_candidate(LevelRecord& rec, int how) {
  std::vector<DimId> dims(rec.cdus.dim_bytes());
  std::vector<BinId> bins(rec.cdus.bin_bytes());
  switch (how) {
    case 0:
      bins[0] = 255;
      break;
    case 1:
      dims[rec.cdus.k() - 1] = 255;
      break;
    default:
      std::swap(dims[0], dims[1]);
      std::swap(bins[0], bins[1]);
      break;
  }
  rec.cdus = UnitStore::from_bytes(rec.cdus.k(), std::move(dims),
                                   std::move(bins));
}

TEST(CheckpointFormat, FinalFileWithOutOfRangeCandidatesIsDiscarded) {
  // A real final checkpoint with its first level-2 candidate broken and
  // the CRC recomputed by the writer: the CRC cannot tell, so the loader
  // must discard the file, and an append on it is an input error instead
  // of an out-of-range read in the replay.
  ScratchDir dir("mafia_ckpt_crafted_final");
  const Dataset base = planted_data();
  MafiaOptions options = base_options();
  options.checkpoint.directory = dir.path();
  {
    InMemorySource base_source(base);
    (void)run_pmafia(base_source, options, 2);
  }
  const CheckpointScan real = load_final_checkpoint(dir.path(), 0);
  ASSERT_TRUE(real.state.has_value());
  ASSERT_GE(real.state->records.size(), 2u);
  ASSERT_FALSE(real.state->records[1].cdus.empty());

  Dataset all(base.num_dims());
  all.append_rows(base);
  all.append_rows(planted_data());
  InMemorySource all_source(all);
  MafiaOptions append = options;
  append.append = AppendConfig{static_cast<std::uint64_t>(base.num_records())};

  for (int how = 0; how < kCandidateBreaks; ++how) {
    CheckpointState crafted = *real.state;
    break_candidate(crafted.records[1], how);
    write_final_checkpoint(dir.path(), crafted);
    const CheckpointScan scan = load_final_checkpoint(dir.path(), 0);
    EXPECT_FALSE(scan.state.has_value()) << "break " << how;
    EXPECT_EQ(scan.discarded, 1u) << "break " << how;
    EXPECT_THROW((void)run_pmafia(all_source, append, 2), InputError)
        << "break " << how;
  }
}

TEST(CheckpointFormat, LevelFileWithOutOfRangeCandidatesEndsTheChain) {
  // The same breaks in a real level file (level 2's record, CRC
  // recomputed): the chain ends before it, and a resume reruns from level
  // 2 and reproduces the uninterrupted run.
  ScratchDir dir("mafia_ckpt_crafted_level");
  const Dataset data = planted_data();
  InMemorySource source(data);
  MafiaOptions options = base_options();
  options.checkpoint.directory = dir.path();
  const MafiaResult baseline = run_pmafia(source, options, 2);
  std::size_t level_files = 0;
  while (fs::exists(checkpoint_file_path(dir.path(), level_files + 2))) {
    ++level_files;
  }
  ASSERT_GE(level_files, 2u);
  const CheckpointState real =
      read_checkpoint(checkpoint_file_path(dir.path(), 3));
  ASSERT_EQ(real.records.size(), 1u);
  ASSERT_FALSE(real.records[0].cdus.empty());

  MafiaOptions resume = options;
  resume.checkpoint.resume = true;
  for (int how = 0; how < kCandidateBreaks; ++how) {
    CheckpointState crafted = real;
    break_candidate(crafted.records[0], how);
    write_checkpoint_file(dir.path(), crafted);
    const CheckpointScan scan =
        load_latest_checkpoint(dir.path(), real.fingerprint);
    ASSERT_TRUE(scan.state.has_value()) << "break " << how;
    EXPECT_EQ(scan.state->records.size(), 1u) << "break " << how;
    EXPECT_EQ(scan.discarded, level_files - 1) << "break " << how;

    const MafiaResult resumed = run_pmafia(source, resume, 2);
    EXPECT_TRUE(resumed.recovery.resumed) << "break " << how;
    EXPECT_EQ(resumed.recovery.resume_level, 2u) << "break " << how;
    expect_same_result(resumed, baseline);
  }
}

TEST(CheckpointFormat, FingerprintTracksResultAffectingOptionsOnly) {
  const MafiaOptions base = base_options();
  const std::uint64_t fp = checkpoint_fingerprint(base, 4000, 6);
  EXPECT_EQ(checkpoint_fingerprint(base, 4000, 6), fp);

  MafiaOptions alpha = base;
  alpha.grid.alpha = 2.0;
  EXPECT_NE(checkpoint_fingerprint(alpha, 4000, 6), fp);

  EXPECT_NE(checkpoint_fingerprint(base, 4001, 6), fp);
  EXPECT_NE(checkpoint_fingerprint(base, 4000, 7), fp);

  // Knobs the determinism suite proves result-invariant may change across
  // a resume: chunk size, and the memory budget that picks the populate
  // regime.
  MafiaOptions chunk = base;
  chunk.chunk_records = 128;
  EXPECT_EQ(checkpoint_fingerprint(chunk, 4000, 6), fp);
  MafiaOptions budget = base;
  budget.max_cdu_bytes = 4096;
  EXPECT_EQ(checkpoint_fingerprint(budget, 4000, 6), fp);
}

/// Kill-at-every-op sweep on one backend.  On the process backend every
/// injected kill is a GENUINE SIGKILL of a forked worker (mp/faults.hpp),
/// so the sweep doubles as the crash-surviving-restart drill: a real
/// mid-level process death, then a resume that must reproduce the
/// uninterrupted baseline bit-identically (count_checksums compared by
/// expect_same_result).  The baseline always runs on the threads backend,
/// so the comparison also pins cross-backend bit-identity.
void kill_sweep_resumes_bit_identically(mp::MpBackend backend) {
  const Dataset data = planted_data();
  InMemorySource source(data);
  const int p = 2;

  const MafiaResult baseline = run_pmafia(source, base_options(), p);
  ASSERT_FALSE(baseline.clusters.empty());

  // Sweep the kill point across the victim rank's entire comm-op sequence:
  // every level boundary (and every op between boundaries) becomes an
  // interruption point.  The sweep ends when a run completes because the
  // fault never fired.  A deadline bounds every faulted run so a transport
  // bug shows up as a Fault-class error, never a hung sweep.
  int interrupted_runs = 0;
  bool saw_resume_from_checkpoint = false;
  for (std::uint64_t op = 0;; ++op) {
    ScratchDir dir("mafia_ckpt_sweep_" + std::string(mp::mp_backend_name(backend)) +
                   "_" + std::to_string(op));

    MafiaOptions faulted = base_options();
    faulted.mp.backend = backend;
    faulted.mp.deadline_seconds = 30.0;
    faulted.checkpoint.directory = dir.path();
    faulted.fault_plan.kill(/*rank=*/1, op);
    bool fired = false;
    try {
      const MafiaResult full = run_pmafia(source, faulted, p);
      expect_same_result(full, baseline);
    } catch (const mp::FaultError&) {
      fired = true;
      ++interrupted_runs;
    }
    if (!fired) break;

    MafiaOptions resume = base_options();
    resume.mp.backend = backend;
    resume.checkpoint.directory = dir.path();
    resume.checkpoint.resume = true;
    const MafiaResult resumed = run_pmafia(source, resume, p);
    expect_same_result(resumed, baseline);
    EXPECT_TRUE(resumed.recovery.checkpoint_enabled);
    if (resumed.recovery.resumed) {
      saw_resume_from_checkpoint = true;
      EXPECT_GE(resumed.recovery.resume_level, 2u);
    }
    ASSERT_LT(op, 10000u) << "fault sweep did not terminate";
  }
  EXPECT_GT(interrupted_runs, 0);
  // At least some kill points must land after the first checkpoint was
  // written, exercising a true restore (not just fresh-run fallback).
  EXPECT_TRUE(saw_resume_from_checkpoint);
}

TEST(CheckpointRestart, KillAtEveryOpResumesBitIdentically) {
  kill_sweep_resumes_bit_identically(mp::MpBackend::Threads);
}

TEST(CheckpointRestart, KillAtEveryOpResumesBitIdenticallyOnProcessBackend) {
  if (!mp::process_backend_supported()) {
    GTEST_SKIP() << "process backend unavailable in this build";
  }
  kill_sweep_resumes_bit_identically(mp::MpBackend::Process);
}

TEST(CheckpointRestart, ResumeWithoutCheckpointRunsFresh) {
  ScratchDir dir("mafia_ckpt_fresh");
  const Dataset data = planted_data();
  InMemorySource source(data);

  MafiaOptions options = base_options();
  options.checkpoint.directory = dir.path();
  options.checkpoint.resume = true;  // nothing there yet
  const MafiaResult r = run_pmafia(source, options, 2);
  EXPECT_FALSE(r.recovery.resumed);
  EXPECT_TRUE(r.recovery.checkpoint_enabled);
  EXPECT_GT(r.recovery.checkpoints_written, 0u);
  expect_same_result(r, run_pmafia(source, base_options(), 2));
}

TEST(CheckpointRestart, FreshRunClearsAnEarlierRunsLevelFiles) {
  // Two data sets of the same shape share a fingerprint.  A fresh run of B
  // in A's directory must not leave A's deeper level files behind, or a
  // resume of B would continue from A's levels and report A's clusters.
  ScratchDir dir("mafia_ckpt_stale");
  const Dataset a = planted_data();
  GeneratorConfig cfg;
  cfg.num_dims = 6;
  cfg.num_records = 8000;
  cfg.seed = 29;
  cfg.clusters.push_back(ClusterSpec::box({0, 2}, {60, 60}, {80, 80}));
  const Dataset b = generate(cfg);
  InMemorySource source_a(a);
  InMemorySource source_b(b);

  MafiaOptions options = base_options();
  options.checkpoint.directory = dir.path();
  const MafiaResult first = run_pmafia(source_a, options, 2);
  const MafiaResult fresh = run_pmafia(source_b, options, 2);
  ASSERT_NE(signature(first), signature(fresh));
  ASSERT_LT(fresh.levels.size(), first.levels.size());

  options.checkpoint.resume = true;
  const MafiaResult resumed = run_pmafia(source_b, options, 2);
  EXPECT_TRUE(resumed.recovery.resumed);
  expect_same_result(resumed, fresh);
}

TEST(CheckpointRestart, OptionChangeInvalidatesOldCheckpoints) {
  ScratchDir dir("mafia_ckpt_mismatch");
  const Dataset data = planted_data();
  InMemorySource source(data);

  MafiaOptions first = base_options();
  first.checkpoint.directory = dir.path();
  (void)run_pmafia(source, first, 2);

  // Different alpha -> different fingerprint: the resume must discard the
  // old files and run fresh rather than restore incompatible state.
  MafiaOptions second = base_options();
  second.grid.alpha = 2.0;
  second.checkpoint.directory = dir.path();
  second.checkpoint.resume = true;
  const MafiaResult r = run_pmafia(source, second, 2);
  EXPECT_FALSE(r.recovery.resumed);
  EXPECT_GT(r.recovery.checkpoints_discarded, 0u);

  MafiaOptions plain = base_options();
  plain.grid.alpha = 2.0;
  expect_same_result(r, run_pmafia(source, plain, 2));
}

TEST(CheckpointRestart, ResumeMayChangeChunkSizeAndKernel)
{
  // The fingerprint deliberately excludes result-invariant knobs; a resume
  // with a different chunk size and populate regime — a budget one byte
  // below the run index, which rescans every level, or none — still
  // reproduces the baseline bit-identically.
  const Dataset data = planted_data();
  InMemorySource source(data);
  const MafiaResult baseline = run_pmafia(source, base_options(), 2);
  const int p = 3;  // p changes too
  const std::size_t run_index_bytes = BitmapIndex::bytes_for(
      baseline.grids.total_bins(),
      ceil_div(static_cast<std::size_t>(data.num_records()),
               static_cast<std::size_t>(p)));

  for (const std::size_t budget : {std::size_t{0}, run_index_bytes - 1}) {
    ScratchDir dir("mafia_ckpt_knobs_" + std::to_string(budget));
    MafiaOptions faulted = base_options();
    faulted.checkpoint.directory = dir.path();
    faulted.fault_plan.kill(/*rank=*/0, /*op=*/6);
    try {
      (void)run_pmafia(source, faulted, 2);
    } catch (const mp::FaultError&) {
    }

    MafiaOptions resume = base_options();
    resume.checkpoint.directory = dir.path();
    resume.checkpoint.resume = true;
    resume.chunk_records = 256;
    resume.max_cdu_bytes = budget;
    const MafiaResult resumed = run_pmafia(source, resume, p);
    expect_same_result(resumed, baseline);
    for (const LevelTrace& t : resumed.levels) {
      EXPECT_EQ(t.populate_rescan, budget != 0) << "level " << t.level;
    }
  }
}

TEST(ResourceBudget, CduBudgetFailsFastNamingLevel) {
  const Dataset data = planted_data();
  InMemorySource source(data);

  MafiaOptions options = base_options();
  options.max_cdu_bytes = 64;  // absurdly small: level 1 blows it
  try {
    (void)run_pmafia(source, options, 2);
    FAIL() << "expected a ResourceError";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.error_class(), ErrorClass::Resource);
    const std::string what = e.what();
    EXPECT_NE(what.find("CDU budget exceeded at level 1"), std::string::npos)
        << what;
  }

  // A generous budget never triggers.
  MafiaOptions roomy = base_options();
  roomy.max_cdu_bytes = 1u << 30;
  EXPECT_FALSE(run_pmafia(source, roomy, 2).clusters.empty());
}

TEST(ResourceBudget, ResourceErrorNamesTheOffendingComponent) {
  const Dataset data = planted_data();
  InMemorySource source(data);

  // A budget of 64 bytes dies on the very first allocation attempt: the
  // level-1 candidate store.
  MafiaOptions tight = base_options();
  tight.max_cdu_bytes = 64;
  try {
    (void)run_pmafia(source, tight, 2);
    FAIL() << "expected a ResourceError";
  } catch (const ResourceError& e) {
    EXPECT_NE(std::string(e.what()).find("candidate store"), std::string::npos)
        << e.what();
  }

  // The run's bitmap index (one bitset of partition-size bits per bin)
  // dwarfs the level-1 candidate store; a budget between the two must pass
  // the store check and then fail naming the index.
  MafiaOptions bitmap = base_options();
  bitmap.populate.kernel = PopulateKernel::Bitmap;
  bitmap.max_cdu_bytes = 4096;
  try {
    (void)run_pmafia(source, bitmap, 2);
    FAIL() << "expected a ResourceError";
  } catch (const ResourceError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("populate bitmap index"), std::string::npos) << what;
    EXPECT_NE(what.find("CDU budget exceeded at level 1"), std::string::npos)
        << what;
  }
}

TEST(ResourceBudget, JoinBucketIndexEstimateCountsOneEntryPerDroppedDim) {
  // The signature index holds one entry per unit under the prefix rule and
  // one per dropped dimension (= k entries for a k-dim store) under MAFIA's
  // any-shared rule.  Each entry is charged its member (unit, dropped
  // position) and bucket id, at most one bucket (offset, fill cursor,
  // representative member, signature hash), at most four hash-table slots
  // and at most one unit-work counter.  The budget guard relies on this
  // arithmetic; pin it.
  constexpr std::size_t kPerEntry = 8 + 4 + (4 + 4 + 8 + 8) + 4 * 4 + 8;
  EXPECT_EQ(JoinBucketIndex::estimate_bytes(10, 3, JoinRule::MafiaAnyShared),
            10 * 3 * kPerEntry);
  EXPECT_EQ(JoinBucketIndex::estimate_bytes(10, 3, JoinRule::CliquePrefix),
            10 * kPerEntry);
  EXPECT_EQ(JoinBucketIndex::estimate_bytes(0, 5, JoinRule::MafiaAnyShared),
            0u);
}

TEST(ResourceBudget, ValidateRejectsResumeWithoutDirectory) {
  MafiaOptions options = base_options();
  options.checkpoint.resume = true;
  EXPECT_THROW(options.validate(), Error);
}

}  // namespace
}  // namespace mafia
