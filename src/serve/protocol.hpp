// serve-v1 wire protocol: the length-prefixed binary framing spoken between
// `pmafia serve` and its clients (documented in docs/architecture.md).
//
// Every frame is a 16-byte header {u32 type, u32 aux, u64 len} followed by
// `len` payload bytes — the same framing shape as the process backend's
// coordinator protocol (mp/process_backend.cpp), so one set of conventions
// covers both wire formats.  Payload encoding reuses common/bytes.hpp where
// variable-length fields appear.
//
//   Query      (client→server): u32 num_rows, u32 num_dims,
//                               num_rows×num_dims f32 values (row-major).
//   Response   (server→client): u32 num_rows, then per row
//                               {i32 label, u32 match_count}.  label is the
//                               first-match cluster index or kNoiseLabel;
//                               match_count is the number of clusters whose
//                               DNF contains the row (0 for noise).
//   Error      (server→client): aux = ErrorClass code, payload = message
//                               text; the server closes the connection after
//                               sending it (protocol state is unknown).
//   Stats      (client→server): empty payload; requests a stats snapshot.
//   StatsReply (server→client): payload = pmafia-serve-v1 JSON document.
//
// The decode functions are pure (no sockets) so the adversarial-frame tests
// exercise them directly; every malformed payload throws InputError.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace mafia::serve {

/// 16-byte frame header, identical layout to the process backend's.
struct FrameHeader {
  std::uint32_t type = 0;
  std::uint32_t aux = 0;
  std::uint64_t len = 0;
};

enum FrameType : std::uint32_t {
  kFrameQuery = 1,
  kFrameResponse = 2,
  kFrameError = 3,
  kFrameStats = 4,
  kFrameStatsReply = 5,
};

/// Protocol identity, negotiated implicitly: the magic lives in docs, the
/// version in the header-free framing — bump kProtocolVersion on any wire
/// change and reject mismatched aux on Query frames.
constexpr std::uint32_t kProtocolVersion = 1;

/// A batch of rows to classify.  `values` is row-major, num_rows × num_dims.
struct QueryBatch {
  std::uint32_t num_dims = 0;
  std::vector<Value> values;

  [[nodiscard]] std::size_t num_rows() const {
    return num_dims == 0 ? 0 : values.size() / num_dims;
  }
};

/// One row's answer: first-match cluster label (or kNoiseLabel) plus how
/// many clusters contained the row in total.
struct RowAnswer {
  std::int32_t label = kNoiseLabel;
  std::uint32_t match_count = 0;
};

/// Exact payload size of a query with the given shape; also the admission
/// bound the server applies to header.len BEFORE allocating the payload
/// buffer (a hostile length prefix must be rejected, not malloc'd).
[[nodiscard]] std::uint64_t query_payload_bytes(std::uint64_t num_rows,
                                                std::uint64_t num_dims);

[[nodiscard]] std::vector<std::uint8_t> encode_query(const QueryBatch& batch);

/// Decodes and validates a query payload.  Throws InputError when the
/// declared shape disagrees with the payload size, the batch exceeds
/// `max_batch` rows, `expect_dims` (non-zero = the model's width)
/// doesn't match the query's, or a value is NaN or infinite (the error
/// names its row and dim).  A zero-row batch is valid.
[[nodiscard]] QueryBatch decode_query(const std::uint8_t* data,
                                      std::size_t size, std::size_t max_batch,
                                      std::uint32_t expect_dims);

[[nodiscard]] std::vector<std::uint8_t> encode_response(
    const std::vector<RowAnswer>& answers);

[[nodiscard]] std::vector<RowAnswer> decode_response(const std::uint8_t* data,
                                                     std::size_t size);

}  // namespace mafia::serve
