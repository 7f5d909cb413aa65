#include "io/record_file.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "common/error.hpp"

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
  std::ifstream in(path, std::ios::binary);
  require_input(in.good(), "read_record_file: cannot open " + path);
  in.seekg(static_cast<std::streamoff>(kRecordFileHeaderBytes));

  Dataset data(header.num_dims);
  data.reserve(header.num_records);
  const std::size_t d = header.num_dims;

  // Read the value block in multi-record slabs (~4 MiB) instead of one
  // read() per row; validate_finite_values keeps per-record error
  // attribution because each slab knows its first record index.
  constexpr std::uint64_t kSlabBytes = 4u << 20;
  const std::uint64_t slab_records =
      std::max<std::uint64_t>(1, kSlabBytes / (d * sizeof(Value)));
  std::vector<Value> slab(
      static_cast<std::size_t>(
          std::min<std::uint64_t>(slab_records, header.num_records)) * d);
  for (std::uint64_t at = 0; at < header.num_records;) {
    const std::uint64_t take =
        std::min<std::uint64_t>(slab_records, header.num_records - at);
    in.read(reinterpret_cast<char*>(slab.data()),
            static_cast<std::streamsize>(take * d * sizeof(Value)));
    require_input(in.good(), "read_record_file: truncated values in " + path);
    validate_finite_values(slab.data(), static_cast<std::size_t>(take), d,
                           static_cast<RecordIndex>(at), path);
    data.append_rows(slab.data(), static_cast<RecordIndex>(take));
    at += take;
  }

  if (header.has_labels && header.num_records > 0) {
    std::vector<std::int32_t> labels(
        static_cast<std::size_t>(header.num_records));
    in.read(reinterpret_cast<char*>(labels.data()),
            static_cast<std::streamsize>(labels.size() * sizeof(std::int32_t)));
    require_input(in.good(), "read_record_file: truncated labels in " + path);
    for (std::uint64_t i = 0; i < header.num_records; ++i) {
      data.set_label(static_cast<RecordIndex>(i), labels[i]);
    }
  }
  return data;
}

}  // namespace mafia
