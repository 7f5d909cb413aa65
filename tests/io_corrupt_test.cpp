// Corrupt-input matrix for the binary record-file format: every way a file
// can lie about itself — truncated mid-row, truncated label block, padded
// tail, overflow-scale record counts, bad magic/version/dims, non-finite
// values — must surface as mafia::InputError (the CLI maps it to exit code
// 3) with a message naming the file and, for value corruption, the exact
// record, dimension, and byte offset.  Every reader path is covered:
// read_record_file_header, read_record_file, and FileSource's chunked scan
// (the out-of-core path the driver uses).
// read_record_file reads its slabs on several threads, so its error must
// not depend on which slab fails first, and no thread may outlive the call.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "io/data_source.hpp"
#include "io/dataset.hpp"
#include "io/pipeline.hpp"
#include "io/record_file.hpp"

namespace mafia {
namespace {

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
      row[j] = static_cast<Value>(i + j) * 0.5f;
    }
    data.append(row, static_cast<std::int32_t>(i % 2));
  }
  return data;
}

/// Writes a raw 28-byte header with arbitrary (possibly invalid) fields,
/// followed by `payload_bytes` zero bytes.
void write_raw_file(const std::string& path, const char magic[8],
                    std::uint32_t version, std::uint64_t num_records,
                    std::uint32_t num_dims, std::uint32_t flags,
                    std::size_t payload_bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(magic, 8);
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(&num_records), sizeof(num_records));
  out.write(reinterpret_cast<const char*>(&num_dims), sizeof(num_dims));
  out.write(reinterpret_cast<const char*>(&flags), sizeof(flags));
  const std::vector<char> zeros(payload_bytes, 0);
  if (payload_bytes > 0) {
    out.write(zeros.data(), static_cast<std::streamsize>(payload_bytes));
  }
}

/// Asserts `fn` throws InputError whose message contains every expected
/// fragment (the CLI relays the same message at exit code 3).
template <typename Fn>
void expect_input_error(const Fn& fn, const std::vector<std::string>& fragments) {
  try {
    fn();
    FAIL() << "expected InputError";
  } catch (const Error& e) {
    EXPECT_EQ(e.error_class(), ErrorClass::Input) << e.what();
    const std::string what = e.what();
    for (const std::string& fragment : fragments) {
      EXPECT_NE(what.find(fragment), std::string::npos)
          << "missing \"" << fragment << "\" in: " << what;
    }
  }
}

// ----------------------------------------------------- size/shape lies

TEST(CorruptRecordFile, TruncatedMidRow) {
  TempFile tmp("mafia_corrupt_midrow.rec");
  const std::size_t d = 4;
  write_record_file(tmp.path(), make_dataset(50, d), /*with_labels=*/false);
  // Chop inside record 12's row: 12 full rows + 2 of 4 values.
  std::filesystem::resize_file(
      tmp.path(), kRecordFileHeaderBytes + (12 * d + 2) * sizeof(Value));
  expect_input_error([&] { (void)read_record_file_header(tmp.path()); },
                     {"size mismatch", tmp.path(), "50 records x 4 dims"});
  expect_input_error([&] { (void)read_record_file(tmp.path()); },
                     {"size mismatch", tmp.path()});
  expect_input_error([&] { (void)FileSource(tmp.path()); },
                     {"size mismatch", tmp.path()});
}

TEST(CorruptRecordFile, TruncatedLabelBlock) {
  TempFile tmp("mafia_corrupt_labels.rec");
  const std::size_t d = 3;
  const std::size_t n = 40;
  write_record_file(tmp.path(), make_dataset(n, d), /*with_labels=*/true);
  // Keep the whole value block but only half the labels.
  std::filesystem::resize_file(
      tmp.path(), kRecordFileHeaderBytes + n * d * sizeof(Value) +
                      (n / 2) * sizeof(std::int32_t));
  expect_input_error([&] { (void)read_record_file(tmp.path()); },
                     {"size mismatch", tmp.path(), "+ labels"});
}

TEST(CorruptRecordFile, PaddedTail) {
  TempFile tmp("mafia_corrupt_padded.rec");
  write_record_file(tmp.path(), make_dataset(20, 2), /*with_labels=*/false);
  std::ofstream out(tmp.path(), std::ios::binary | std::ios::app);
  out << "trailing garbage bytes";
  out.close();
  expect_input_error([&] { (void)read_record_file_header(tmp.path()); },
                     {"size mismatch", tmp.path()});
}

TEST(CorruptRecordFile, OverflowScaleRecordCount) {
  // A record count so large that N * row_bytes wraps 64-bit arithmetic:
  // the overflow guard must reject it explicitly, not compute a
  // wrapped-around "expected" size that could accidentally match.
  TempFile tmp("mafia_corrupt_overflow.rec");
  const std::uint64_t absurd = std::numeric_limits<std::uint64_t>::max() / 2;
  write_raw_file(tmp.path(), kRecordFileMagic, kRecordFileVersion, absurd,
                 /*num_dims=*/8, /*flags=*/1, /*payload_bytes=*/64);
  expect_input_error([&] { (void)read_record_file_header(tmp.path()); },
                     {"impossible record count", tmp.path()});
}

TEST(CorruptRecordFile, DeclaredCountBeyondFileSize) {
  // Not overflow-scale, just a lie: header declares 1e9 records over a
  // 64-byte payload.
  TempFile tmp("mafia_corrupt_bigcount.rec");
  write_raw_file(tmp.path(), kRecordFileMagic, kRecordFileVersion,
                 /*num_records=*/1000000000ull, /*num_dims=*/4, /*flags=*/0,
                 /*payload_bytes=*/64);
  expect_input_error([&] { (void)read_record_file_header(tmp.path()); },
                     {"size mismatch", "1000000000 records"});
}

// ------------------------------------------------------- header corruption

TEST(CorruptRecordFile, BadMagic) {
  TempFile tmp("mafia_corrupt_magic.rec");
  const char magic[8] = {'N', 'O', 'T', 'M', 'A', 'F', 'I', 'A'};
  write_raw_file(tmp.path(), magic, kRecordFileVersion, 4, 2, 0,
                 4 * 2 * sizeof(Value));
  expect_input_error([&] { (void)read_record_file_header(tmp.path()); },
                     {"bad magic", tmp.path()});
}

TEST(CorruptRecordFile, UnsupportedVersion) {
  TempFile tmp("mafia_corrupt_version.rec");
  write_raw_file(tmp.path(), kRecordFileMagic, kRecordFileVersion + 41, 4, 2,
                 0, 4 * 2 * sizeof(Value));
  expect_input_error([&] { (void)read_record_file_header(tmp.path()); },
                     {"unsupported version", tmp.path()});
}

TEST(CorruptRecordFile, TruncatedHeader) {
  TempFile tmp("mafia_corrupt_header.rec");
  std::ofstream out(tmp.path(), std::ios::binary);
  out.write(kRecordFileMagic, 8);
  const std::uint32_t version = kRecordFileVersion;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.close();  // 12 bytes: header fields missing
  expect_input_error([&] { (void)read_record_file_header(tmp.path()); },
                     {"truncated header", tmp.path()});
}

TEST(CorruptRecordFile, BadDimensionCount) {
  TempFile zero("mafia_corrupt_zerodims.rec");
  write_raw_file(zero.path(), kRecordFileMagic, kRecordFileVersion, 4,
                 /*num_dims=*/0, 0, 16);
  expect_input_error([&] { (void)read_record_file_header(zero.path()); },
                     {"bad dimension count", zero.path()});

  TempFile wide("mafia_corrupt_widedims.rec");
  write_raw_file(wide.path(), kRecordFileMagic, kRecordFileVersion, 1,
                 /*num_dims=*/static_cast<std::uint32_t>(kMaxDims) + 1, 0, 16);
  expect_input_error([&] { (void)read_record_file_header(wide.path()); },
                     {"bad dimension count", wide.path()});
}

// -------------------------------------------------------- value corruption

/// Overwrites record `rec`, dim `dim` with the given float's bytes.
void poison_value(const std::string& path, std::size_t rec, std::size_t dim,
                  std::size_t num_dims, float bad) {
  std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
  io.seekp(static_cast<std::streamoff>(
      kRecordFileHeaderBytes + (rec * num_dims + dim) * sizeof(Value)));
  io.write(reinterpret_cast<const char*>(&bad), sizeof(bad));
}

TEST(CorruptRecordFile, NaNPinnedToRecordDimAndByteOffset) {
  TempFile tmp("mafia_corrupt_nan.rec");
  const std::size_t d = 5;
  write_record_file(tmp.path(), make_dataset(100, d), /*with_labels=*/false);
  const std::size_t rec = 37;
  const std::size_t dim = 3;
  poison_value(tmp.path(), rec, dim, d,
               std::numeric_limits<float>::quiet_NaN());
  const std::string offset = std::to_string(
      kRecordFileHeaderBytes + (rec * d + dim) * sizeof(Value));
  const std::vector<std::string> fragments = {
      "non-finite value", tmp.path(), "record 37", "dim 3",
      "byte offset " + offset};

  // Whole-file reader (slab path must attribute inside the slab).
  expect_input_error([&] { (void)read_record_file(tmp.path()); }, fragments);

  // Chunked out-of-core scan, with a chunk boundary before the bad record.
  const FileSource file(tmp.path());
  expect_input_error(
      [&] { file.scan(0, 100, 10, [](const Value*, std::size_t) {}); },
      fragments);

  // Pipelined wrapper: the producer-side InputError crosses the ring.
  const PipelinedSource piped(file, 2);
  expect_input_error(
      [&] { piped.scan(0, 100, 10, [](const Value*, std::size_t) {}); },
      fragments);
}

TEST(CorruptRecordFile, InfinityRejectedToo) {
  TempFile tmp("mafia_corrupt_inf.rec");
  const std::size_t d = 2;
  write_record_file(tmp.path(), make_dataset(10, d), /*with_labels=*/false);
  poison_value(tmp.path(), 0, 0, d, -std::numeric_limits<float>::infinity());
  expect_input_error([&] { (void)read_record_file(tmp.path()); },
                     {"non-finite value", "record 0", "dim 0"});
}

TEST(CorruptRecordFile, SlabReaderMatchesLegacySemantics) {
  // The slab reader must load byte-identical data and labels for a clean
  // file of every awkward size around the slab boundary logic.
  for (const std::size_t n : {0u, 1u, 7u, 100u}) {
    TempFile tmp("mafia_corrupt_clean_" + std::to_string(n) + ".rec");
    const Dataset original = make_dataset(n, 6);
    write_record_file(tmp.path(), original, /*with_labels=*/true);
    const Dataset loaded = read_record_file(tmp.path());
    EXPECT_TRUE(std::ranges::equal(loaded.values(), original.values())) << "n=" << n;
    EXPECT_TRUE(std::ranges::equal(loaded.labels(), original.labels())) << "n=" << n;
  }
}

/// Records in one of read_record_file's ~4 MiB slabs at `d` dims.
std::size_t slab_records(std::size_t d) {
  return (std::size_t{4} << 20) / (d * sizeof(Value));
}

TEST(CorruptRecordFile, SlabReaderMatchesAcrossSlabBoundaries) {
  // Sizes around one and two slabs, with and without labels: every value
  // and label must land where the writer put it.  An empty and a one-slab
  // file start no thread; 11 slabs (~44 MB) are more than a small runner
  // has workers, so each worker claims several.
  constexpr std::size_t d = 6;
  const std::size_t slab = slab_records(d);
  for (const std::size_t n : {std::size_t{0}, slab - 1, slab, slab + 1,
                              2 * slab + 1, 4 * slab + 3, 10 * slab + 7}) {
    const Dataset original = make_dataset(n, d);
    for (const bool with_labels : {true, false}) {
      TempFile tmp("mafia_corrupt_slabs_" + std::to_string(n) +
                   (with_labels ? "_labels" : "") + ".rec");
      write_record_file(tmp.path(), original, with_labels);
      const Dataset loaded = read_record_file(tmp.path());
      ASSERT_EQ(loaded.num_records(), n);
      ASSERT_EQ(loaded.num_dims(), d);
      EXPECT_TRUE(std::ranges::equal(loaded.values(), original.values()))
          << "n=" << n << " labels=" << with_labels;
      if (with_labels) {
        EXPECT_TRUE(std::ranges::equal(loaded.labels(), original.labels()))
            << "n=" << n;
      } else {
        EXPECT_TRUE(std::ranges::all_of(
            loaded.labels(),
            [](std::int32_t label) { return label == kUnlabeledLabel; }))
            << "n=" << n;
      }
    }
  }
}

TEST(CorruptRecordFile, NaNInSecondSlabPinnedToRecordDimAndByteOffset) {
  // The slab that holds the bad value starts at record `slab`, so the
  // record index must be offset by it, not counted from the slab's start.
  constexpr std::size_t d = 6;
  const std::size_t slab = slab_records(d);
  TempFile tmp("mafia_corrupt_nan_slab2.rec");
  write_record_file(tmp.path(), make_dataset(2 * slab + 1, d),
                    /*with_labels=*/true);
  const std::size_t rec = slab + 5;
  const std::size_t dim = 4;
  poison_value(tmp.path(), rec, dim, d,
               std::numeric_limits<float>::quiet_NaN());
  expect_input_error(
      [&] { (void)read_record_file(tmp.path()); },
      {"non-finite value", tmp.path(), "record " + std::to_string(rec),
       "dim 4",
       "byte offset " + std::to_string(kRecordFileHeaderBytes +
                                       (rec * d + dim) * sizeof(Value))});
}

/// Threads of this process, as /proc/self/task lists them.
std::size_t thread_count() {
  const auto tasks = std::filesystem::directory_iterator("/proc/self/task");
  return static_cast<std::size_t>(
      std::distance(std::filesystem::begin(tasks), std::filesystem::end(tasks)));
}

/// Waits up to 5 s for the process to hold `expected` threads again: a
/// joined thread may linger in /proc for a moment after its join returns,
/// but a thread kept alive (a pool, a detached worker) never leaves.
bool thread_count_returns_to(std::size_t expected) {
  for (int i = 0; i < 500 && thread_count() != expected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return thread_count() == expected;
}

TEST(CorruptRecordFile, LowestFailingSlabReportsAtEveryRead) {
  // NaNs in slab 1 (its last record) and in the last slab, a single
  // record that a worker reads far sooner than slab 1's 4 MiB.  Whichever
  // fails first, every read must name slab 1's value, as a serial reader
  // does.
  constexpr std::size_t d = 6;
  const std::size_t slab = slab_records(d);
  TempFile tmp("mafia_corrupt_nan_two_slabs.rec");
  write_record_file(tmp.path(), make_dataset(2 * slab + 1, d),
                    /*with_labels=*/true);
  const std::size_t rec = 2 * slab - 1;
  const std::size_t dim = 2;
  poison_value(tmp.path(), rec, dim, d,
               std::numeric_limits<float>::quiet_NaN());
  poison_value(tmp.path(), 2 * slab, 0, d,
               std::numeric_limits<float>::quiet_NaN());
  const std::vector<std::string> fragments = {
      "non-finite value", tmp.path(), "record " + std::to_string(rec),
      "dim 2",
      "byte offset " + std::to_string(kRecordFileHeaderBytes +
                                      (rec * d + dim) * sizeof(Value))};
  for (int attempt = 0; attempt < 20; ++attempt) {
    SCOPED_TRACE("attempt " + std::to_string(attempt));
    expect_input_error([&] { (void)read_record_file(tmp.path()); }, fragments);
  }
}

TEST(CorruptRecordFile, ReadLeavesNoThreadBehind) {
  // Every worker is joined before read_record_file returns or throws: no
  // pool outlives the call (the process backend forks after loading).
  constexpr std::size_t d = 6;
  const std::size_t slab = slab_records(d);
  TempFile tmp("mafia_corrupt_threads.rec");
  write_record_file(tmp.path(), make_dataset(3 * slab + 1, d),
                    /*with_labels=*/true);
  // A sanitizer runtime may start a thread of its own when the process
  // first creates one (TSan does); let that happen before counting.
  std::thread([] {}).join();
  const std::size_t before = thread_count();
  EXPECT_EQ(read_record_file(tmp.path()).num_records(), 3 * slab + 1);
  EXPECT_TRUE(thread_count_returns_to(before)) << thread_count();

  poison_value(tmp.path(), slab + 1, 0, d,
               std::numeric_limits<float>::quiet_NaN());
  expect_input_error([&] { (void)read_record_file(tmp.path()); },
                     {"non-finite value", "record " + std::to_string(slab + 1)});
  EXPECT_TRUE(thread_count_returns_to(before)) << thread_count();
}

TEST(CorruptRecordFile, AppendRowsBulkMatchesAppend) {
  const Dataset original = make_dataset(23, 4);
  Dataset bulk(4);
  bulk.append_rows(original);
  EXPECT_TRUE(std::ranges::equal(bulk.values(), original.values()));
  EXPECT_TRUE(std::ranges::equal(bulk.labels(), original.labels()));
  EXPECT_EQ(bulk.num_records(), 23u);
  bulk.append_rows(Dataset(4));  // no-op splice
  EXPECT_EQ(bulk.num_records(), 23u);
}

}  // namespace
}  // namespace mafia
