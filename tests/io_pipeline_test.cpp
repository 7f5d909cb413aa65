// Cross-source differential tests for the data-pass pipeline: every pass
// the driver makes over the records is one synchronous timed_scan over a
// DataSource (io/data_source.hpp), whatever the source.
//   * chunk-sequence equivalence — randomized (begin, end, chunk_records)
//     sweeps proving InMemorySource, FileSource and StagedSource deliver
//     bit-identical chunk sequences (same boundaries, same bytes, same
//     order);
//   * driver bit-identity — run_pmafia yields identical clusters, per-level
//     populate checksums and scanned bytes at every rank count, over
//     in-memory, file, and staged sources;
//   * I/O accounting — timed_scan's chunk and byte counts, and its
//     read = scan - compute split.
// The CI TSan leg runs this suite (p ranks scan one file concurrently).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "common/math_util.hpp"
#include "core/mafia.hpp"
#include "datagen/generator.hpp"
#include "io/data_source.hpp"
#include "io/record_file.hpp"
#include "io/staging.hpp"

namespace mafia {
namespace {

/// Temp file that deletes itself.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() / name).string()) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Dataset make_dataset(std::size_t n, std::size_t d) {
  Dataset data(d);
  std::vector<Value> row(d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      row[j] = static_cast<Value>((i * 131 + j * 17) % 997) * 0.25f;
    }
    data.append(row);
  }
  return data;
}

// ----------------------------------------------------- chunk fingerprints

/// One chunk as the consumer saw it: row count + FNV-1a over its bytes.
struct ChunkSig {
  std::size_t nrows = 0;
  std::uint64_t hash = 0;
  bool operator==(const ChunkSig&) const = default;
};

std::uint64_t fnv_bytes(const void* data, std::size_t nbytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < nbytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// The full chunk sequence a scan delivers — the object the differential
/// tests compare across sources.
std::vector<ChunkSig> chunk_sigs(const DataSource& source, RecordIndex begin,
                                 RecordIndex end, std::size_t chunk_records) {
  std::vector<ChunkSig> sigs;
  const std::size_t d = source.num_dims();
  source.scan(begin, end, chunk_records,
              [&](const Value* rows, std::size_t nrows) {
                sigs.push_back({nrows, fnv_bytes(rows, nrows * d * sizeof(Value))});
              });
  return sigs;
}

/// Deterministic splitmix64 for the randomized sweep.
std::uint64_t next_rand(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// ----------------------------------------------------------- equivalence

TEST(PipelineEquivalence, CrossSourceChunkSequences) {
  const std::size_t d = 5;
  const RecordIndex n = 1237;
  const Dataset data = make_dataset(static_cast<std::size_t>(n), d);
  TempFile rec("mafia_pipe_xsource.rec");
  write_record_file(rec.path(), data, /*with_labels=*/true);

  const InMemorySource mem(data);
  const FileSource file(rec.path());

  // Edge triples first, then a randomized sweep.
  std::vector<std::tuple<RecordIndex, RecordIndex, std::size_t>> cases = {
      {0, n, 64},
      {0, n, static_cast<std::size_t>(n) + 999},  // chunk_records > n
      {0, n, static_cast<std::size_t>(n)},        // exactly one chunk
      {0, 0, 16},                                  // empty at the front
      {n, n, 16},                                  // empty at the back
      {0, n, 1},                                   // one record per chunk
      {17, 18, 4},                                 // single record
  };
  std::uint64_t state = 42;
  for (int i = 0; i < 32; ++i) {
    const RecordIndex a = static_cast<RecordIndex>(next_rand(state) % (n + 1));
    const RecordIndex b = static_cast<RecordIndex>(next_rand(state) % (n + 1));
    const std::size_t chunk =
        1 + static_cast<std::size_t>(next_rand(state) % (2 * n));
    cases.emplace_back(std::min(a, b), std::max(a, b), chunk);
  }

  for (const auto& [begin, end, chunk] : cases) {
    EXPECT_EQ(chunk_sigs(file, begin, end, chunk),
              chunk_sigs(mem, begin, end, chunk))
        << "range [" << begin << ", " << end << ") chunk " << chunk;
  }
}

TEST(PipelineEquivalence, StagedSourceAcrossRankCounts) {
  const std::size_t d = 4;
  const RecordIndex n = 1000;
  const Dataset data = make_dataset(static_cast<std::size_t>(n), d);
  TempFile rec("mafia_pipe_staged.rec");
  write_record_file(rec.path(), data, /*with_labels=*/false);
  const InMemorySource mem(data);

  for (const int p : {1, 2, 3, 5, 8}) {
    const std::string prefix =
        (std::filesystem::temp_directory_path() /
         ("mafia_pipe_staged_p" + std::to_string(p)))
            .string();
    const StagedPartitions parts = stage_partitions(rec.path(), prefix, p);
    const StagedSource staged(parts);
    ASSERT_EQ(staged.num_records(), n);

    // Partition-aligned scans — the driver's access pattern (rank r scans
    // its own block partition only) — must reproduce the in-memory chunk
    // sequence exactly, including chunk_records larger than the partition
    // and the empty range.
    for (int r = 0; r < p; ++r) {
      const BlockRange part =
          block_partition(static_cast<std::size_t>(n), static_cast<std::size_t>(p),
                          static_cast<std::size_t>(r));
      const auto begin = static_cast<RecordIndex>(part.begin);
      const auto end = static_cast<RecordIndex>(part.end);
      EXPECT_EQ(staged.partitions_touched(begin, end), 1u) << "p=" << p;
      for (const std::size_t chunk :
           {std::size_t{31}, static_cast<std::size_t>(n) + 1}) {
        EXPECT_EQ(chunk_sigs(staged, begin, end, chunk),
                  chunk_sigs(mem, begin, end, chunk))
            << "staged p=" << p << " rank " << r;
      }
      EXPECT_TRUE(chunk_sigs(staged, begin, begin, 8).empty());
    }

    // A cross-partition scan may split chunks at partition edges, but the
    // record stream itself (bytes in order) must still be identical.
    const auto row_stream = [&](const DataSource& s, RecordIndex begin,
                                RecordIndex end, std::size_t chunk) {
      std::vector<Value> rows;
      s.scan(begin, end, chunk, [&](const Value* r0, std::size_t nrows) {
        rows.insert(rows.end(), r0, r0 + nrows * d);
      });
      return rows;
    };
    const RecordIndex lo = n / 3;
    const RecordIndex hi = (2 * n) / 3 + 7;
    EXPECT_EQ(row_stream(staged, lo, hi, 31), row_stream(mem, lo, hi, 31))
        << "p=" << p;
    remove_staged(parts);
  }
}

/// Clusters + per-level trace as a comparable value.
std::string result_fingerprint(const MafiaResult& r) {
  std::string s;
  for (const LevelTrace& t : r.levels) {
    s += "L" + std::to_string(t.level) + ":" + std::to_string(t.ncdu) + ":" +
         std::to_string(t.ndu) + ":" + std::to_string(t.count_checksum) + ";";
  }
  std::vector<std::string> clusters;
  for (const Cluster& c : r.clusters) {
    std::string cs;
    for (const DimId dim : c.dims) cs += "d" + std::to_string(dim);
    for (std::size_t u = 0; u < c.units.size(); ++u) {
      cs += c.units.to_string(u);
    }
    clusters.push_back(std::move(cs));
  }
  std::sort(clusters.begin(), clusters.end());
  for (const std::string& c : clusters) s += c + "|";
  return s;
}

TEST(PipelineEquivalence, DriverBitIdenticalAcrossSourcesAndPrefetch) {
  // Every data pass is the same synchronous scan whatever feeds it: one
  // shared record file that every rank scans concurrently and per-rank
  // staged partitions give the in-memory result bit for bit, and read the
  // same bytes, at every rank count.
  GeneratorConfig cfg;
  cfg.num_dims = 8;
  cfg.num_records = 6000;
  cfg.seed = 23;
  cfg.clusters.push_back(ClusterSpec::box({1, 4, 6}, {30, 30, 30}, {42, 42, 42}));
  cfg.clusters.push_back(ClusterSpec::box({0, 3}, {60, 60}, {75, 75}));
  const Dataset data = generate(cfg);
  TempFile rec("mafia_pipe_driver.rec");
  write_record_file(rec.path(), data, /*with_labels=*/false);
  const InMemorySource mem(data);
  const FileSource file(rec.path());

  MafiaOptions options;
  options.fixed_domain = {{0.0f, 100.0f}};
  options.chunk_records = 700;  // several chunks per rank partition

  const MafiaResult reference = run_pmafia(mem, options, 1);
  const std::string expect = result_fingerprint(reference);
  ASSERT_FALSE(reference.levels.empty());
  ASSERT_FALSE(reference.clusters.empty());

  for (const int p : {1, 2, 3, 5, 8}) {
    const std::string prefix =
        (std::filesystem::temp_directory_path() /
         ("mafia_pipe_driver_p" + std::to_string(p)))
            .string();
    const StagedPartitions parts = stage_partitions(rec.path(), prefix, p);
    const StagedSource staged(parts);

    const MafiaResult r_mem = run_pmafia(mem, options, p);
    EXPECT_EQ(result_fingerprint(r_mem), expect) << "mem p=" << p;
    const std::uint64_t bytes = r_mem.trace.io_total().bytes;
    EXPECT_GT(bytes, 0u);
    for (const auto& [name, source] :
         {std::pair<const char*, const DataSource*>{"file", &file},
          {"staged", &staged}}) {
      const MafiaResult r = run_pmafia(*source, options, p);
      EXPECT_EQ(result_fingerprint(r), expect) << name << " p=" << p;
      EXPECT_EQ(r.trace.io_total().bytes, bytes) << name << " p=" << p;
    }
    remove_staged(parts);
  }
}

// ------------------------------------------------------------- accounting

TEST(PipelineStats, TimedScanWaitEqualsRead) {
  // A synchronous scan waits for exactly its reads: the time the scan does
  // not spend in the callback is all charged to read_seconds.
  const Dataset data = make_dataset(500, 3);
  const InMemorySource mem(data);
  IoScanStats stats;
  std::size_t rows_seen = 0;
  timed_scan(mem, 0, 500, 64, [&](const Value*, std::size_t nrows) {
    rows_seen += nrows;
  }, stats);
  EXPECT_EQ(rows_seen, 500u);
  EXPECT_EQ(stats.chunks, 8u);  // ceil(500/64)
  EXPECT_EQ(stats.bytes, 500u * 3u * sizeof(Value));
  EXPECT_GE(stats.scan_seconds, stats.compute_seconds);
  EXPECT_DOUBLE_EQ(stats.read_seconds, stats.scan_seconds - stats.compute_seconds);
}

TEST(PipelineStats, PipelinedScanCountsChunksAndBytes) {
  // A subrange counts only its own chunks and bytes; later scans
  // accumulate into the same record; an empty range delivers nothing.
  const Dataset data = make_dataset(1000, 4);
  const InMemorySource mem(data);
  IoScanStats stats;
  timed_scan(mem, 100, 900, 128, [](const Value*, std::size_t) {}, stats);
  EXPECT_EQ(stats.chunks, 7u);  // ceil(800/128)
  EXPECT_EQ(stats.bytes, 800u * 4u * sizeof(Value));
  EXPECT_GE(stats.scan_seconds, 0.0);

  timed_scan(mem, 0, 500, 64, [](const Value*, std::size_t) {}, stats);
  EXPECT_EQ(stats.chunks, 7u + 8u);  // + ceil(500/64)
  EXPECT_EQ(stats.bytes, 1300u * 4u * sizeof(Value));

  IoScanStats empty;
  timed_scan(mem, 5, 5, 16, [](const Value*, std::size_t) {
    FAIL() << "callback on empty range";
  }, empty);
  EXPECT_EQ(empty.chunks, 0u);
  EXPECT_EQ(empty.bytes, 0u);
}

}  // namespace
}  // namespace mafia
