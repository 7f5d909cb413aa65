// Oracle-differential proof of the populate kernels.
//
// Every production lookup kernel (packed/sorted, packed/hash, memcmp
// fallback) is driven over the same instances as the naive reference
// oracle (tests/populate_oracle.hpp) and must produce identical counts.
// The instances cover the kernel's adversarial surface explicitly — k = 1,
// the k = 8/9 packed-key boundary, a 256-bin dimension (full BinId range),
// duplicate bin rows across and within subspaces, records outside every
// CDU — plus randomized differential sweeps over datagen workloads with
// planted subspace clusters.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "datagen/generator.hpp"
#include "grid/uniform_grid.hpp"
#include "populate_oracle.hpp"
#include "rng/distributions.hpp"
#include "rng/icg.hpp"
#include "units/populate.hpp"

namespace mafia {
namespace {

/// Kernel/block/table configurations every differential case runs under:
/// every kernel, block sizes straddling the record counts (1 record, odd,
/// power of two, larger than the data), and hash thresholds forcing the
/// open-addressing table on and off.
std::vector<PopulateConfig> kernel_matrix() {
  constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();
  return {
      {2048, PopulateKernel::Auto, 48},     // production default: bitmap index
      {1, PopulateKernel::Auto, 48},        // (the index ignores block size)
      {2048, PopulateKernel::Packed, 48},   // packed rescan, default knobs
      {1, PopulateKernel::Packed, 48},      // single-record blocks
      {3, PopulateKernel::Packed, 1},       // odd blocks, hash table always
      {64, PopulateKernel::Packed, kNever}, // sorted-array search always
      {2048, PopulateKernel::Memcmp, 48},   // forced byte-row fallback
      {7, PopulateKernel::Memcmp, 48},
      {2048, PopulateKernel::Bitmap, 48},   // bitmap index, large blocks
      {3, PopulateKernel::Bitmap, 48},      // bitmap index, odd tiny blocks
  };
}

/// Runs every kernel configuration over the instance (splitting the rows
/// into two accumulate calls to exercise chunk boundaries) and asserts
/// count-exact agreement with the oracle.
void expect_all_kernels_match_oracle(const GridSet& grids,
                                     const UnitStore& cdus,
                                     const std::vector<Value>& rows) {
  const std::size_t d = grids.num_dims();
  const std::size_t nrows = rows.size() / d;
  const std::vector<Count> expected =
      oracle_counts(grids, cdus, rows.data(), nrows);

  for (const PopulateConfig& cfg : kernel_matrix()) {
    UnitPopulator pop(grids, cdus, cfg);
    const std::size_t split = nrows / 3;
    pop.accumulate(rows.data(), split);
    pop.accumulate(rows.data() + split * d, nrows - split);
    ASSERT_EQ(pop.counts().size(), expected.size());
    for (std::size_t u = 0; u < expected.size(); ++u) {
      ASSERT_EQ(pop.counts()[u], expected[u])
          << "cdu " << cdus.to_string(u) << " block=" << cfg.block_records
          << " kernel=" << static_cast<int>(cfg.kernel)
          << " hash_min=" << cfg.hash_min_cdus;
    }
  }
}

/// Uniform grids over [0, 100] with the given bins per dimension.
GridSet uniform_grids(std::size_t d, std::size_t bins) {
  GridSet grids;
  for (std::size_t j = 0; j < d; ++j) {
    grids.dims.push_back(compute_uniform_grid(static_cast<DimId>(j), 0.0f,
                                              100.0f, bins, 0.01, 1000));
  }
  return grids;
}

std::vector<Value> random_rows(IcgRandom& rng, std::size_t nrows,
                               std::size_t d, double lo = -10.0,
                               double hi = 110.0) {
  std::vector<Value> rows(nrows * d);
  for (auto& v : rows) v = static_cast<Value>(uniform_real(rng, lo, hi));
  return rows;
}

TEST(PopulateOracle, SingleDimensionCandidates) {
  IcgRandom rng(101);
  const GridSet grids = uniform_grids(6, 10);
  const UnitStore cdus = random_cdus(rng, grids, 1, 40);
  expect_all_kernels_match_oracle(grids, cdus, random_rows(rng, 700, 6));
}

TEST(PopulateOracle, PackedKeyBoundaryKEight) {
  // k = 8: the widest unit that still packs into one 64-bit key.
  IcgRandom rng(102);
  const GridSet grids = uniform_grids(12, 8);
  const UnitStore cdus = random_cdus(rng, grids, 8, 120);
  expect_all_kernels_match_oracle(grids, cdus, random_rows(rng, 600, 12));
}

TEST(PopulateOracle, PackedKeyBoundaryKNine) {
  // k = 9: one past the packed-key limit — every kernel selection must
  // agree because the packed path silently falls back to memcmp rows.
  IcgRandom rng(103);
  const GridSet grids = uniform_grids(12, 8);
  const UnitStore cdus = random_cdus(rng, grids, 9, 120);
  expect_all_kernels_match_oracle(grids, cdus, random_rows(rng, 600, 12));
}

TEST(PopulateOracle, FullBinIdRangeIn256BinDimension) {
  // One dimension at the BinId limit (256 bins): bin indices occupy the
  // full byte range, so any packing arithmetic that loses high bits or
  // sign-extends 0x80.. bytes shows up as count drift.
  IcgRandom rng(104);
  GridSet grids;
  grids.dims.push_back(compute_uniform_grid(0, 0.0f, 100.0f, 256, 0.01, 1000));
  grids.dims.push_back(compute_uniform_grid(1, 0.0f, 100.0f, 256, 0.01, 1000));
  grids.dims.push_back(compute_uniform_grid(2, 0.0f, 100.0f, 5, 0.01, 1000));

  UnitStore cdus(2);
  // Deliberately include the extreme bins 0 and 255 alongside random rows.
  for (const BinId hot : {BinId{0}, BinId{127}, BinId{128}, BinId{255}}) {
    const DimId dims01[2] = {0, 1};
    const BinId bins[2] = {hot, hot};
    cdus.push_unchecked(dims01, bins);
    const DimId dims02[2] = {0, 2};
    const BinId bins2[2] = {hot, 3};
    cdus.push_unchecked(dims02, bins2);
  }
  const UnitStore extra = random_cdus(rng, grids, 2, 90);
  UnitStore all(2);
  all.append(cdus);
  all.append(extra);
  expect_all_kernels_match_oracle(grids, all, random_rows(rng, 2000, 3));
}

TEST(PopulateOracle, DuplicateBinRowsAcrossSubspaces) {
  // The same bin tuple planted in several distinct dimension sets: packed
  // keys collide numerically across subspaces, so any state shared between
  // subspace sweeps would miscount.
  IcgRandom rng(105);
  const GridSet grids = uniform_grids(8, 10);
  UnitStore cdus(3);
  const BinId bins[3] = {4, 4, 4};
  for (const auto& dims : std::vector<std::vector<DimId>>{
           {0, 1, 2}, {0, 1, 3}, {2, 3, 4}, {5, 6, 7}, {0, 6, 7}}) {
    cdus.push_unchecked(dims.data(), bins);
  }
  const UnitStore extra = random_cdus(rng, grids, 3, 50);
  UnitStore all(3);
  all.append(cdus);
  all.append(extra);
  expect_all_kernels_match_oracle(grids, all, random_rows(rng, 1500, 8));
}

TEST(PopulateOracle, DuplicateCandidatesWithinASubspace) {
  // Identical CDUs repeated in one subspace (dedup normally removes these;
  // the counting contract must hold regardless): every duplicate row gets
  // the full count, in every kernel — including the hash table, whose
  // slots point at the first row of an equal run.
  IcgRandom rng(106);
  const GridSet grids = uniform_grids(5, 10);
  UnitStore cdus(2);
  const DimId dims[2] = {1, 3};
  for (int rep = 0; rep < 3; ++rep) {
    const BinId bins[2] = {2, 7};
    cdus.push_unchecked(dims, bins);
  }
  const BinId other[2] = {2, 8};
  cdus.push_unchecked(dims, other);
  const UnitStore extra = random_cdus(rng, grids, 2, 60);
  UnitStore all(2);
  all.append(cdus);
  all.append(extra);
  expect_all_kernels_match_oracle(grids, all, random_rows(rng, 1200, 5));

  // Spot-check the contract directly: the three duplicates carry equal
  // counts in the production configuration.
  UnitPopulator pop(grids, all);
  pop.accumulate(random_rows(rng, 500, 5).data(), 500);
  EXPECT_EQ(pop.counts()[0], pop.counts()[1]);
  EXPECT_EQ(pop.counts()[1], pop.counts()[2]);
}

TEST(PopulateOracle, RecordsOutsideEveryCandidate) {
  // All CDUs sit in bins the records never touch: every kernel must report
  // all-zero counts (the lookup misses on every record).
  const GridSet grids = uniform_grids(4, 10);
  UnitStore cdus(2);
  for (DimId a = 0; a < 3; ++a) {
    const DimId dims[2] = {a, static_cast<DimId>(a + 1)};
    const BinId bins[2] = {9, 9};  // top bin: records below never reach it
    cdus.push_unchecked(dims, bins);
  }
  IcgRandom rng(107);
  // Records confined to [0, 50) -> bins 0..4 only.
  const std::vector<Value> rows = random_rows(rng, 800, 4, 0.0, 50.0);
  expect_all_kernels_match_oracle(grids, cdus, rows);
  UnitPopulator pop(grids, cdus);
  pop.accumulate(rows.data(), 800);
  for (const Count c : pop.counts()) EXPECT_EQ(c, 0u);
}

TEST(PopulateOracle, HashTableKeepsHeadroomAtPowerOfTwoMemberCounts) {
  // Regression guard for the open-addressing table sizing: at exactly 64
  // CDUs in one subspace — a power-of-two member count — a `next_pow2(n)`
  // capacity would be 64 slots for 64 keys (load factor 1.0), degrading
  // probe chains toward O(n) and, with the final empty slot filled, turning
  // the miss-probe loop into an infinite scan.  hash_table_capacity must
  // keep >= 2x headroom everywhere, and the forced-hash kernel must agree
  // with the oracle at that exact count.
  EXPECT_EQ(hash_table_capacity(0), 4u);
  EXPECT_EQ(hash_table_capacity(1), 4u);
  EXPECT_EQ(hash_table_capacity(63), 128u);
  EXPECT_EQ(hash_table_capacity(64), 128u);  // not 64: 2x headroom held
  EXPECT_EQ(hash_table_capacity(65), 256u);
  for (std::size_t n = 1; n <= 1024; ++n) {
    ASSERT_GE(hash_table_capacity(n), 2 * n) << "members=" << n;
  }

  IcgRandom rng(108);
  const GridSet grids = uniform_grids(6, 12);
  UnitStore cdus(3);
  const DimId dims[3] = {1, 2, 4};
  std::size_t pushed = 0;
  while (pushed < 64) {  // 64 distinct bin rows in the one subspace
    const BinId bins[3] = {static_cast<BinId>(uniform_index(rng, 12)),
                           static_cast<BinId>(uniform_index(rng, 12)),
                           static_cast<BinId>(pushed % 12)};
    cdus.push_unchecked(dims, bins);
    ++pushed;
  }
  const std::vector<Value> rows = random_rows(rng, 1500, 6);
  const std::vector<Count> expected =
      oracle_counts(grids, cdus, rows.data(), 1500);
  const PopulateConfig force_hash{2048, PopulateKernel::Packed, 1};
  UnitPopulator pop(grids, cdus, force_hash);
  pop.accumulate(rows.data(), 1500);
  ASSERT_EQ(pop.counts().size(), expected.size());
  for (std::size_t u = 0; u < expected.size(); ++u) {
    ASSERT_EQ(pop.counts()[u], expected[u]) << "cdu " << cdus.to_string(u);
  }
}

TEST(PopulateOracle, BitmapKernelSupportsInterleavedCountsAndAccumulate) {
  // The bitmap kernel finalizes lazily: counts() AND-reduces only the word
  // range appended since the last finalize.  Interleaving reads with
  // further accumulation — which the SPMD loop does across chunk
  // boundaries — must yield exact prefix counts at every step, including
  // reads at non-multiple-of-64 row watermarks (partial head word).
  IcgRandom rng(109);
  const GridSet grids = uniform_grids(7, 9);
  const UnitStore cdus = random_cdus(rng, grids, 3, 70);
  const std::vector<Value> rows = random_rows(rng, 1000, 7);

  const PopulateConfig cfg{256, PopulateKernel::Bitmap, 48};
  UnitPopulator pop(grids, cdus, cfg);
  std::size_t done = 0;
  for (const std::size_t chunk : {37u, 1u, 64u, 200u, 500u, 198u}) {
    pop.accumulate(rows.data() + done * 7, chunk);
    done += chunk;
    const std::vector<Count> expected =
        oracle_counts(grids, cdus, rows.data(), done);
    ASSERT_EQ(pop.counts().size(), expected.size());
    for (std::size_t u = 0; u < expected.size(); ++u) {
      ASSERT_EQ(pop.counts()[u], expected[u])
          << "cdu " << cdus.to_string(u) << " after " << done << " rows";
    }
  }
  ASSERT_EQ(done, 1000u);
  // A read with no new rows since the last finalize is a no-op.
  const std::vector<Count> again(pop.counts().begin(), pop.counts().end());
  EXPECT_EQ(again, oracle_counts(grids, cdus, rows.data(), 1000));
}

// ------------------------------------------- randomized datagen workloads

class PopulateOracleDatagen : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PopulateOracleDatagen, KernelsMatchOracleOnPlantedWorkloads) {
  IcgRandom rng(GetParam() * 7919);
  GeneratorConfig cfg;
  cfg.num_dims = 8 + uniform_index(rng, 8);  // 8..15 dims
  cfg.num_records = 1500;
  cfg.seed = GetParam();
  const std::size_t nclusters = 1 + uniform_index(rng, 3);
  for (std::size_t c = 0; c < nclusters; ++c) {
    const std::size_t cdims = 2 + uniform_index(rng, 3);
    std::vector<DimId> dims(cfg.num_dims);
    std::iota(dims.begin(), dims.end(), DimId{0});
    shuffle(rng, dims.begin(), dims.end());
    dims.resize(cdims);
    std::sort(dims.begin(), dims.end());
    const Value lo = static_cast<Value>(10 + 20 * c);
    cfg.clusters.push_back(
        ClusterSpec::box(std::move(dims), std::vector<Value>(cdims, lo),
                         std::vector<Value>(cdims, lo + 10), 1.0));
  }
  const Dataset data = generate(cfg);

  const GridSet grids = uniform_grids(cfg.num_dims, 3 + uniform_index(rng, 17));
  const std::size_t k =
      1 + uniform_index(rng, std::min<std::size_t>(cfg.num_dims, 10));
  const UnitStore cdus = random_cdus(rng, grids, k, 1 + uniform_index(rng, 120));
  expect_all_kernels_match_oracle(grids, cdus, data.values());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PopulateOracleDatagen,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace mafia
