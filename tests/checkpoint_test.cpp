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

#include "core/checkpoint.hpp"
#include "core/mafia.hpp"
#include "datagen/generator.hpp"
#include "io/data_source.hpp"

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

CheckpointState sample_state() {
  CheckpointState state;
  state.fingerprint = 0xabcdef0123456789ull;
  state.num_records = 4000;
  state.num_dims = 6;
  state.level = 3;
  state.pending_raw_count = 12;

  const DimId d01[] = {0, 1};
  const BinId b01[] = {2, 3};
  state.cdus = UnitStore(2);
  state.cdus.push(d01, b01);
  const DimId d2[] = {4};
  const BinId b2[] = {7};
  state.prev_dense = UnitStore(1);
  state.prev_dense.push(d2, b2);
  state.parents = {{0, 1}, {2, 3}};
  state.raw_to_unique = {0, 0, 1};

  DimensionGrid g;
  g.dim = 0;
  g.domain_lo = 0.0f;
  g.domain_hi = 100.0f;
  g.edges = {0.0f, 50.0f, 100.0f};
  g.thresholds = {12.5, 30.0};
  g.uniform_fallback = true;
  state.grids.dims.push_back(g);

  LevelTrace l1;
  l1.level = 1;
  l1.ncdu_raw = 10;
  l1.ncdu = 10;
  l1.ndu = 4;
  l1.count_checksum = 0x1111ull;
  l1.populate_kernel = kPopulateKernelBitmap;
  l1.bitmap_bytes = 4096;
  l1.bitmap_words_anded = 320;
  l1.unjoined_dus = 2;
  l1.unjoined_units = {"{d0:b2}", "{d4:b7}"};
  state.levels.push_back(l1);
  LevelTrace l2;
  l2.level = 2;
  l2.ncdu_raw = 6;
  l2.ncdu = 5;
  l2.ndu = 2;
  l2.count_checksum = 0x2222ull;
  state.levels.push_back(l2);

  UnitStore reg(1);
  reg.push(d2, b2);
  state.registered.push_back(reg);

  state.populate.packed_sorted_subspaces = 3;
  state.populate.packed_hash_subspaces = 1;
  state.populate.memcmp_subspaces = 0;
  state.populate.bitmap_subspaces = 2;
  state.populate.block_records = 2048;
  state.populate.bitmap_bytes = 4096;
  state.populate.bitmap_words_anded = 320;
  return state;
}

TEST(CheckpointFormat, SerializeRoundTrip) {
  const CheckpointState in = sample_state();
  const auto bytes = serialize_checkpoint(in);
  const CheckpointState out = deserialize_checkpoint(bytes.data(), bytes.size());

  EXPECT_EQ(out.fingerprint, in.fingerprint);
  EXPECT_EQ(out.num_records, in.num_records);
  EXPECT_EQ(out.num_dims, in.num_dims);
  EXPECT_EQ(out.level, in.level);
  EXPECT_EQ(out.pending_raw_count, in.pending_raw_count);
  EXPECT_EQ(out.cdus.k(), in.cdus.k());
  EXPECT_EQ(out.cdus.dim_bytes(), in.cdus.dim_bytes());
  EXPECT_EQ(out.cdus.bin_bytes(), in.cdus.bin_bytes());
  EXPECT_EQ(out.prev_dense.dim_bytes(), in.prev_dense.dim_bytes());
  EXPECT_EQ(out.parents, in.parents);
  EXPECT_EQ(out.raw_to_unique, in.raw_to_unique);
  ASSERT_EQ(out.grids.num_dims(), 1u);
  EXPECT_EQ(out.grids[0].edges, in.grids[0].edges);
  EXPECT_EQ(out.grids[0].thresholds, in.grids[0].thresholds);
  EXPECT_TRUE(out.grids[0].uniform_fallback);
  ASSERT_EQ(out.levels.size(), 2u);
  EXPECT_EQ(out.levels[1].count_checksum, 0x2222ull);
  // Version-3 fields: per-level kernel id, bitmap counters, unjoined units.
  EXPECT_EQ(out.levels[0].populate_kernel, kPopulateKernelBitmap);
  EXPECT_EQ(out.levels[0].bitmap_bytes, 4096u);
  EXPECT_EQ(out.levels[0].bitmap_words_anded, 320u);
  EXPECT_EQ(out.levels[0].unjoined_dus, 2u);
  EXPECT_EQ(out.levels[0].unjoined_units, in.levels[0].unjoined_units);
  EXPECT_EQ(out.levels[1].populate_kernel, kPopulateKernelPacked);
  EXPECT_TRUE(out.levels[1].unjoined_units.empty());
  ASSERT_EQ(out.registered.size(), 1u);
  EXPECT_EQ(out.registered[0].dim_bytes(), in.registered[0].dim_bytes());
  EXPECT_EQ(out.populate.packed_sorted_subspaces, 3u);
  EXPECT_EQ(out.populate.bitmap_subspaces, 2u);
  EXPECT_EQ(out.populate.bitmap_bytes, 4096u);
  EXPECT_EQ(out.populate.bitmap_words_anded, 320u);
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

  // Unsupported version.
  auto bad_version = bytes;
  bad_version[8] = 99;
  EXPECT_THROW(
      (void)deserialize_checkpoint(bad_version.data(), bad_version.size()),
      InputError);
}

TEST(CheckpointFormat, LoadLatestFallsBackPastCorruptFiles) {
  ScratchDir dir("mafia_ckpt_fallback");
  CheckpointState state = sample_state();

  state.level = 2;
  write_checkpoint_file(dir.path(), state);
  state.level = 3;
  write_checkpoint_file(dir.path(), state);

  // Untouched: the highest level wins.
  {
    const CheckpointScan scan =
        load_latest_checkpoint(dir.path(), state.fingerprint);
    ASSERT_TRUE(scan.state.has_value());
    EXPECT_EQ(scan.state->level, 3u);
    EXPECT_EQ(scan.discarded, 0u);
  }

  // Corrupt level 3: fall back to level 2, counting the discard.
  {
    std::ofstream f(checkpoint_file_path(dir.path(), 3),
                    std::ios::binary | std::ios::trunc);
    f << "garbage";
  }
  {
    const CheckpointScan scan =
        load_latest_checkpoint(dir.path(), state.fingerprint);
    ASSERT_TRUE(scan.state.has_value());
    EXPECT_EQ(scan.state->level, 2u);
    EXPECT_EQ(scan.discarded, 1u);
  }

  // Fingerprint mismatch discards everything.
  {
    const CheckpointScan scan = load_latest_checkpoint(dir.path(), 0xdeadull);
    EXPECT_FALSE(scan.state.has_value());
    EXPECT_EQ(scan.discarded, 2u);
  }

  // Missing directory is simply "no checkpoint".
  {
    const CheckpointScan scan =
        load_latest_checkpoint(dir.path() + "/nope", state.fingerprint);
    EXPECT_FALSE(scan.state.has_value());
    EXPECT_EQ(scan.discarded, 0u);
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
  // a resume: chunk size, populate tuning.
  MafiaOptions chunk = base;
  chunk.chunk_records = 128;
  EXPECT_EQ(checkpoint_fingerprint(chunk, 4000, 6), fp);
  MafiaOptions kernel = base;
  kernel.populate.kernel = PopulateKernel::Memcmp;
  EXPECT_EQ(checkpoint_fingerprint(kernel, 4000, 6), fp);
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
  // with a different chunk size and populate kernel — including the bitmap
  // kernel, whose execution model shares nothing with the lookup kernels —
  // still reproduces the baseline bit-identically.
  const Dataset data = planted_data();
  InMemorySource source(data);
  const MafiaResult baseline = run_pmafia(source, base_options(), 2);

  for (const PopulateKernel kernel :
       {PopulateKernel::Packed, PopulateKernel::Memcmp, PopulateKernel::Bitmap}) {
    ScratchDir dir("mafia_ckpt_knobs_" +
                   std::to_string(static_cast<int>(kernel)));
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
    resume.populate.kernel = kernel;
    const MafiaResult resumed = run_pmafia(source, resume, 3);  // p changes too
    expect_same_result(resumed, baseline);
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
  // The bucket index stores (sub-signature hash, unit, bucket-key) entries:
  // one per unit under the prefix rule, one per dropped dimension (= k
  // entries for a k-dim store) under MAFIA's any-shared rule.  The budget
  // guard relies on this arithmetic; pin it.
  constexpr std::size_t kPerEntry =
      sizeof(std::uint32_t) + sizeof(std::size_t) + sizeof(std::uint64_t);
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
