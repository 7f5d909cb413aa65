#include "serve/protocol.hpp"

#include <cmath>
#include <cstring>

#include "common/error.hpp"

namespace mafia::serve {

namespace {

constexpr std::size_t kShapeBytes = 2 * sizeof(std::uint32_t);

template <typename T>
T load_pod(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void append_pod(std::vector<std::uint8_t>& out, T v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

}  // namespace

std::uint64_t query_payload_bytes(std::uint64_t num_rows,
                                  std::uint64_t num_dims) {
  return kShapeBytes + num_rows * num_dims * sizeof(Value);
}

std::vector<std::uint8_t> encode_query(const QueryBatch& batch) {
  std::vector<std::uint8_t> out;
  out.reserve(static_cast<std::size_t>(
      query_payload_bytes(batch.num_rows(), batch.num_dims)));
  append_pod(out, static_cast<std::uint32_t>(batch.num_rows()));
  append_pod(out, batch.num_dims);
  const auto* p = reinterpret_cast<const std::uint8_t*>(batch.values.data());
  out.insert(out.end(), p, p + batch.values.size() * sizeof(Value));
  return out;
}

QueryBatch decode_query(const std::uint8_t* data, std::size_t size,
                        std::size_t max_batch, std::uint32_t expect_dims) {
  require_input(size >= kShapeBytes,
                "serve query: truncated payload (" + std::to_string(size) +
                    " bytes, need at least 8)");
  const auto num_rows = load_pod<std::uint32_t>(data);
  const auto num_dims = load_pod<std::uint32_t>(data + sizeof(std::uint32_t));
  require_input(num_rows <= max_batch,
                "serve query: batch of " + std::to_string(num_rows) +
                    " rows exceeds --max-batch " + std::to_string(max_batch));
  require_input(num_dims >= 1 && num_dims <= kMaxDims,
                "serve query: bad row width " + std::to_string(num_dims));
  if (expect_dims != 0) {
    require_input(num_dims == expect_dims,
                  "serve query: row width " + std::to_string(num_dims) +
                      " does not match the model's " +
                      std::to_string(expect_dims) + " dims");
  }
  // The shape must account for every payload byte exactly: a loose size
  // check would let a short payload read uninitialized memory and a long
  // one smuggle trailing bytes past validation.
  const std::uint64_t expected = query_payload_bytes(num_rows, num_dims);
  require_input(size == expected,
                "serve query: payload is " + std::to_string(size) +
                    " bytes, shape " + std::to_string(num_rows) + "x" +
                    std::to_string(num_dims) + " needs " +
                    std::to_string(expected));
  QueryBatch batch;
  batch.num_dims = num_dims;
  batch.values.resize(static_cast<std::size_t>(num_rows) * num_dims);
  // A zero-row batch leaves data() possibly null, which memcpy must not
  // receive even for a zero length.
  if (!batch.values.empty()) {
    std::memcpy(batch.values.data(), data + kShapeBytes,
                batch.values.size() * sizeof(Value));
  }
  // A NaN or infinity lies in no bin (bin_of maps a NaN past the grid,
  // which wraps to bin 0 in a 256-bin dimension), so it is rejected here as
  // the record-file and CSV readers reject it.
  for (std::size_t i = 0; i < batch.values.size(); ++i) {
    if (!std::isfinite(batch.values[i])) [[unlikely]] {
      throw InputError("serve query: non-finite value at row " +
                       std::to_string(i / num_dims) + ", dim " +
                       std::to_string(i % num_dims));
    }
  }
  return batch;
}

std::vector<std::uint8_t> encode_response(
    const std::vector<RowAnswer>& answers) {
  std::vector<std::uint8_t> out;
  out.reserve(sizeof(std::uint32_t) +
              answers.size() * (sizeof(std::int32_t) + sizeof(std::uint32_t)));
  append_pod(out, static_cast<std::uint32_t>(answers.size()));
  for (const RowAnswer& a : answers) {
    append_pod(out, a.label);
    append_pod(out, a.match_count);
  }
  return out;
}

std::vector<RowAnswer> decode_response(const std::uint8_t* data,
                                       std::size_t size) {
  require_input(size >= sizeof(std::uint32_t),
                "serve response: truncated payload");
  const auto num_rows = load_pod<std::uint32_t>(data);
  const std::uint64_t expected =
      sizeof(std::uint32_t) +
      static_cast<std::uint64_t>(num_rows) * (sizeof(std::int32_t) +
                                              sizeof(std::uint32_t));
  require_input(size == expected,
                "serve response: payload is " + std::to_string(size) +
                    " bytes, " + std::to_string(num_rows) + " rows need " +
                    std::to_string(expected));
  std::vector<RowAnswer> answers(num_rows);
  const std::uint8_t* p = data + sizeof(std::uint32_t);
  for (RowAnswer& a : answers) {
    a.label = load_pod<std::int32_t>(p);
    a.match_count = load_pod<std::uint32_t>(p + sizeof(std::int32_t));
    p += sizeof(std::int32_t) + sizeof(std::uint32_t);
  }
  return answers;
}

}  // namespace mafia::serve
