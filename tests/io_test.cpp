// Tests for the I/O substrate: binary record files, chunked scans, and the
// in-memory / out-of-core DataSource equivalence the disk-based algorithm
// depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>

#include "io/data_source.hpp"
#include "io/dataset.hpp"
#include "io/record_file.hpp"

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
      row[j] = static_cast<Value>(i * 100 + j);
    }
    data.append(row, static_cast<std::int32_t>(i % 3) - 1);
  }
  return data;
}

// ---------------------------------------------------------------- Dataset

TEST(Dataset, AppendAndAccess) {
  Dataset data(3);
  data.append(std::vector<Value>{1, 2, 3}, 7);
  EXPECT_EQ(data.num_records(), 1u);
  EXPECT_EQ(data.at(0, 2), 3.0f);
  EXPECT_EQ(data.label(0), 7);
  EXPECT_THROW(data.append(std::vector<Value>{1, 2}), Error);
}

TEST(Dataset, PermuteReordersRowsAndLabels) {
  Dataset data = make_dataset(4, 2);
  data.permute({3, 1, 0, 2});
  EXPECT_EQ(data.at(0, 0), 300.0f);
  EXPECT_EQ(data.at(2, 0), 0.0f);
  EXPECT_EQ(data.label(0), (3 % 3) - 1);
}

TEST(Dataset, PermuteRejectsWrongSize) {
  Dataset data = make_dataset(4, 2);
  EXPECT_THROW(data.permute({0, 1}), Error);
}

// ------------------------------------------------------------ record file

TEST(RecordFile, RoundTripWithLabels) {
  TempFile tmp("mafia_io_roundtrip.bin");
  const Dataset original = make_dataset(57, 5);
  write_record_file(tmp.path(), original, /*with_labels=*/true);

  const RecordFileHeader header = read_record_file_header(tmp.path());
  EXPECT_EQ(header.num_records, 57u);
  EXPECT_EQ(header.num_dims, 5u);
  EXPECT_TRUE(header.has_labels);

  const Dataset loaded = read_record_file(tmp.path());
  ASSERT_EQ(loaded.num_records(), original.num_records());
  ASSERT_EQ(loaded.num_dims(), original.num_dims());
  EXPECT_TRUE(std::ranges::equal(loaded.values(), original.values()));
  EXPECT_TRUE(std::ranges::equal(loaded.labels(), original.labels()));
}

TEST(RecordFile, RoundTripWithoutLabels) {
  TempFile tmp("mafia_io_nolabels.bin");
  const Dataset original = make_dataset(10, 2);
  write_record_file(tmp.path(), original, /*with_labels=*/false);
  const Dataset loaded = read_record_file(tmp.path());
  EXPECT_TRUE(std::ranges::equal(loaded.values(), original.values()));
  for (RecordIndex i = 0; i < loaded.num_records(); ++i) {
    EXPECT_EQ(loaded.label(i), kUnlabeledLabel);
  }
}

TEST(RecordFile, RejectsBadMagic) {
  TempFile tmp("mafia_io_badmagic.bin");
  std::ofstream out(tmp.path(), std::ios::binary);
  out << "NOTMAFIA_GARBAGE_HEADER_PADDING";
  out.close();
  EXPECT_THROW((void)read_record_file_header(tmp.path()), Error);
}

TEST(RecordFile, RejectsMissingFile) {
  EXPECT_THROW((void)read_record_file_header("/nonexistent/nope.bin"), Error);
}

TEST(RecordFile, RejectsTruncatedValues) {
  TempFile tmp("mafia_io_truncated.bin");
  const Dataset original = make_dataset(100, 4);
  write_record_file(tmp.path(), original, false);
  // Chop the file short.
  std::filesystem::resize_file(tmp.path(), kRecordFileHeaderBytes + 10);
  EXPECT_THROW((void)read_record_file(tmp.path()), Error);
}

// ------------------------------------------------------------ data source

TEST(DataSource, InMemoryScanVisitsEveryRecordOnce) {
  const Dataset data = make_dataset(103, 3);
  InMemorySource source(data);
  std::size_t visited = 0;
  std::size_t chunks = 0;
  source.scan(0, 103, 10, [&](const Value* rows, std::size_t n) {
    ++chunks;
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_EQ(rows[r * 3 + 0], static_cast<Value>((visited + r) * 100));
    }
    visited += n;
  });
  EXPECT_EQ(visited, 103u);
  EXPECT_EQ(chunks, 11u);  // ceil(103/10)
  EXPECT_EQ(source.chunk_count(0, 103, 10), 11u);
}

TEST(DataSource, ScanSubrange) {
  const Dataset data = make_dataset(50, 2);
  InMemorySource source(data);
  std::vector<Value> first_col;
  source.scan(20, 30, 4, [&](const Value* rows, std::size_t n) {
    for (std::size_t r = 0; r < n; ++r) first_col.push_back(rows[r * 2]);
  });
  ASSERT_EQ(first_col.size(), 10u);
  EXPECT_EQ(first_col.front(), 2000.0f);
  EXPECT_EQ(first_col.back(), 2900.0f);
}

TEST(DataSource, ScanRejectsBadArguments) {
  const Dataset data = make_dataset(10, 2);
  InMemorySource source(data);
  EXPECT_THROW(source.scan(0, 20, 4, [](const Value*, std::size_t) {}), Error);
  EXPECT_THROW(source.scan(0, 10, 0, [](const Value*, std::size_t) {}), Error);
}

TEST(DataSource, FileSourceMatchesInMemorySource) {
  TempFile tmp("mafia_io_filesource.bin");
  const Dataset data = make_dataset(211, 4);
  write_record_file(tmp.path(), data, true);

  InMemorySource mem(data);
  FileSource file(tmp.path());
  EXPECT_EQ(file.num_records(), mem.num_records());
  EXPECT_EQ(file.num_dims(), mem.num_dims());

  for (const auto [begin, end, chunk] :
       {std::tuple<RecordIndex, RecordIndex, std::size_t>{0, 211, 64},
        {0, 211, 211},
        {0, 211, 1},
        {57, 130, 13}}) {
    std::vector<Value> from_mem;
    std::vector<Value> from_file;
    mem.scan(begin, end, chunk, [&](const Value* rows, std::size_t n) {
      from_mem.insert(from_mem.end(), rows, rows + n * 4);
    });
    file.scan(begin, end, chunk, [&](const Value* rows, std::size_t n) {
      from_file.insert(from_file.end(), rows, rows + n * 4);
    });
    EXPECT_EQ(from_mem, from_file) << "chunk=" << chunk;
  }
}

TEST(DataSource, FileSourceSupportsConcurrentScans) {
  // Each SPMD rank scans through its own stream; interleave two scans of
  // disjoint ranges manually to prove no shared-cursor corruption.
  TempFile tmp("mafia_io_concurrent.bin");
  const Dataset data = make_dataset(100, 2);
  write_record_file(tmp.path(), data, false);
  FileSource file(tmp.path());

  std::vector<Value> a;
  std::vector<Value> b;
  std::thread t1([&] {
    file.scan(0, 50, 7, [&](const Value* rows, std::size_t n) {
      a.insert(a.end(), rows, rows + n * 2);
    });
  });
  std::thread t2([&] {
    file.scan(50, 100, 7, [&](const Value* rows, std::size_t n) {
      b.insert(b.end(), rows, rows + n * 2);
    });
  });
  t1.join();
  t2.join();
  ASSERT_EQ(a.size(), 100u);
  ASSERT_EQ(b.size(), 100u);
  EXPECT_EQ(a[0], 0.0f);
  EXPECT_EQ(b[0], 5000.0f);
}

}  // namespace
}  // namespace mafia
