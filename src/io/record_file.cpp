#include "io/record_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/mapped_array.hpp"

namespace mafia {

namespace {

template <typename T>
void write_pod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::ifstream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  return value;
}

/// Byte size the header says the file must have.  Guarded against 64-bit
/// overflow (an absurd record count in a corrupt header must produce a
/// mismatch error, not a wrapped-around "expected" size that accidentally
/// matches).
std::uint64_t declared_file_bytes(const RecordFileHeader& h,
                                  const std::string& path) {
  const std::uint64_t row_bytes =
      static_cast<std::uint64_t>(h.num_dims) * sizeof(Value) +
      (h.has_labels ? sizeof(std::int32_t) : 0);
  require_input(h.num_records <=
                    (UINT64_MAX - kRecordFileHeaderBytes) / row_bytes,
                "record file header in " + path +
                    " declares an impossible record count");
  return kRecordFileHeaderBytes + h.num_records * row_bytes;
}

/// A file opened read-only, closed on destruction; fd() < 0 if the open
/// failed.
class ReadOnlyFile {
 public:
  explicit ReadOnlyFile(const std::string& path)
      : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {}
  ~ReadOnlyFile() {
    if (fd_ >= 0) ::close(fd_);
  }
  ReadOnlyFile(const ReadOnlyFile&) = delete;
  ReadOnlyFile& operator=(const ReadOnlyFile&) = delete;

  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_;
};

/// Reads exactly `bytes` at `offset` of `fd` into `to`, retrying short
/// reads and EINTR.  False when the read fails or the file ends first (it
/// shrank after the header's size check).
bool pread_exact(int fd, void* to, std::size_t bytes, std::uint64_t offset) {
  auto* at = static_cast<char*>(to);
  while (bytes > 0) {
    const ssize_t got = ::pread(fd, at, bytes, static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    const auto n = static_cast<std::size_t>(got);
    at += n;
    bytes -= n;
    offset += n;
  }
  return true;
}

/// Runs `read_slab(s)` for every slab s in [0, slabs) on
/// min(slabs, hardware threads) workers, the calling thread among them, so
/// a one-slab file starts no thread.  Workers claim slabs in ascending order
/// through a shared counter and finish every slab they claim; after a
/// failure no new slab is claimed.  Every slab below the lowest failing one
/// has therefore been read, and that slab's error is rethrown after every
/// worker is joined: the error is the one a serial reader gives, at any
/// worker count.  No thread outlives the call (the process backend forks
/// after loading, and a fork copies only the calling thread).
template <class ReadSlab>
void for_each_slab(std::size_t slabs, const ReadSlab& read_slab) {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex failure_mutex;
  std::size_t failed_slab = slabs;  // guarded by failure_mutex
  std::exception_ptr failure;       // guarded by failure_mutex
  const auto work = [&]() noexcept {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t s = next.fetch_add(1, std::memory_order_relaxed);
      if (s >= slabs) return;
      try {
        read_slab(s);
      } catch (...) {
        const std::lock_guard lock(failure_mutex);
        if (s < failed_slab) {
          failed_slab = s;
          failure = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  {
    const std::size_t workers = std::min<std::size_t>(
        slabs, std::max(1u, std::thread::hardware_concurrency()));
    std::vector<std::jthread> helpers;
    try {
      helpers.reserve(workers > 0 ? workers - 1 : 0);
      while (helpers.size() + 1 < workers) helpers.emplace_back(work);
    } catch (const std::exception&) {
      // A thread that cannot start leaves its slabs to the other workers.
    }
    work();
  }  // joins the helpers
  if (failure) std::rethrow_exception(failure);
}

}  // namespace

void validate_finite_values(const Value* rows, std::size_t nrows,
                            std::size_t num_dims, RecordIndex first_record,
                            const std::string& path) {
  const std::size_t n = nrows * num_dims;
  // A branch-free screen of the exponent bits first: it vectorizes, so its
  // speed does not hinge on where the linker places a scalar loop.  Only a
  // slab that holds a NaN or infinity is searched for the first one.
  static_assert(sizeof(Value) == sizeof(std::uint32_t) &&
                std::numeric_limits<Value>::is_iec559);
  std::uint32_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, rows + i, sizeof(bits));
    bad |= static_cast<std::uint32_t>((bits & 0x7f800000u) == 0x7f800000u);
  }
  if (bad == 0) return;
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(rows[i])) [[unlikely]] {
      const std::uint64_t record =
          static_cast<std::uint64_t>(first_record) + i / num_dims;
      const std::size_t dim = i % num_dims;
      const std::uint64_t offset =
          kRecordFileHeaderBytes +
          (record * num_dims + dim) * sizeof(Value);
      throw InputError("non-finite value in " + path + " at record " +
                       std::to_string(record) + ", dim " +
                       std::to_string(dim) + " (byte offset " +
                       std::to_string(offset) + ")");
    }
  }
}

void write_record_file(const std::string& path, const Dataset& data,
                       bool with_labels) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  require(out.good(), "write_record_file: cannot open " + path);

  out.write(kRecordFileMagic, sizeof(kRecordFileMagic));
  write_pod(out, kRecordFileVersion);
  write_pod(out, static_cast<std::uint64_t>(data.num_records()));
  write_pod(out, static_cast<std::uint32_t>(data.num_dims()));
  write_pod(out, static_cast<std::uint32_t>(with_labels ? 1u : 0u));

  const auto& values = data.values();
  if (!values.empty()) {
    out.write(reinterpret_cast<const char*>(values.data()),
              static_cast<std::streamsize>(values.size() * sizeof(Value)));
  }
  if (with_labels) {
    const auto& labels = data.labels();
    if (!labels.empty()) {
      out.write(reinterpret_cast<const char*>(labels.data()),
                static_cast<std::streamsize>(labels.size() * sizeof(std::int32_t)));
    }
  }
  require(out.good(), "write_record_file: write failed for " + path);
}

RecordFileHeader read_record_file_header(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require_input(in.good(), "read_record_file_header: cannot open " + path);

  char magic[8];
  in.read(magic, sizeof(magic));
  require_input(in.good() && std::memcmp(magic, kRecordFileMagic, 8) == 0,
                "read_record_file_header: bad magic in " + path);
  const auto version = read_pod<std::uint32_t>(in);
  require_input(version == kRecordFileVersion,
                "read_record_file_header: unsupported version in " + path);

  RecordFileHeader header;
  header.num_records = read_pod<std::uint64_t>(in);
  header.num_dims = read_pod<std::uint32_t>(in);
  header.has_labels = (read_pod<std::uint32_t>(in) & 1u) != 0;
  require_input(in.good(),
                "read_record_file_header: truncated header in " + path);
  require_input(header.num_dims >= 1 && header.num_dims <= kMaxDims,
                "read_record_file_header: bad dimension count in " + path);

  // The value block (and label block, if flagged) must match the header's
  // declared shape exactly — a truncated or padded file is rejected here,
  // before any reader silently scans garbage.
  const std::uint64_t expected = declared_file_bytes(header, path);
  std::error_code ec;
  const std::uint64_t actual = std::filesystem::file_size(path, ec);
  require_input(!ec, "read_record_file_header: cannot stat " + path);
  require_input(actual == expected,
                "record file size mismatch in " + path + ": header declares " +
                    std::to_string(header.num_records) + " records x " +
                    std::to_string(header.num_dims) + " dims" +
                    (header.has_labels ? " + labels" : "") + " = " +
                    std::to_string(expected) + " bytes, file has " +
                    std::to_string(actual) + " bytes");
  return header;
}

Dataset read_record_file(const std::string& path) {
  const RecordFileHeader header = read_record_file_header(path);
  const ReadOnlyFile file(path);
  require_input(file.fd() >= 0, "read_record_file: cannot open " + path);

  // The header sized the file exactly, so the arrays are sized once and
  // the file is read straight into them.
  const std::size_t d = header.num_dims;
  const auto n = static_cast<std::size_t>(header.num_records);
  MappedArray<Value> values(n * d);
  MappedArray<std::int32_t> labels(n);

  // The file past the header goes in ~4 MiB slabs in file order: the value
  // block's, then the label block's.  Each value slab is validated while it
  // is still in cache; validate_finite_values keeps per-record error
  // attribution because each slab knows its first record index.
  constexpr std::size_t kSlabBytes = 4u << 20;
  const std::size_t value_rows =
      std::max<std::size_t>(1, kSlabBytes / (d * sizeof(Value)));
  const std::size_t label_rows = kSlabBytes / sizeof(std::int32_t);
  const std::size_t value_slabs = (n + value_rows - 1) / value_rows;
  const std::size_t label_slabs =
      header.has_labels ? (n + label_rows - 1) / label_rows : 0;
  const std::uint64_t label_block =
      kRecordFileHeaderBytes + static_cast<std::uint64_t>(n) * d * sizeof(Value);

  for_each_slab(value_slabs + label_slabs, [&](std::size_t s) {
    if (s < value_slabs) {
      const std::size_t first = s * value_rows;
      const std::size_t take = std::min(value_rows, n - first);
      Value* slab = values.data() + first * d;
      if (!pread_exact(file.fd(), slab, take * d * sizeof(Value),
                       kRecordFileHeaderBytes +
                           static_cast<std::uint64_t>(first) * d * sizeof(Value))) {
        throw InputError("read_record_file: truncated values in " + path);
      }
      validate_finite_values(slab, take, d, static_cast<RecordIndex>(first),
                             path);
      if (!header.has_labels) {
        std::fill_n(labels.data() + first, take, kUnlabeledLabel);
      }
    } else {
      const std::size_t first = (s - value_slabs) * label_rows;
      const std::size_t take = std::min(label_rows, n - first);
      if (!pread_exact(file.fd(), labels.data() + first,
                       take * sizeof(std::int32_t),
                       label_block + static_cast<std::uint64_t>(first) *
                                         sizeof(std::int32_t))) {
        throw InputError("read_record_file: truncated labels in " + path);
      }
    }
  });
  return Dataset(d, std::move(values), std::move(labels));
}

}  // namespace mafia
