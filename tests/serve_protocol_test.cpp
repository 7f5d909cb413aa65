// serve-v1 codec tests: exact round-trips plus the adversarial payload
// matrix (the same frames the ASan CI leg replays over a live socket in
// serve_test.cpp, exercised here against the pure decode functions).
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "serve/protocol.hpp"

namespace mafia::serve {
namespace {

QueryBatch make_batch(std::uint32_t rows, std::uint32_t dims) {
  QueryBatch b;
  b.num_dims = dims;
  b.values.resize(static_cast<std::size_t>(rows) * dims);
  for (std::size_t i = 0; i < b.values.size(); ++i) {
    b.values[i] = static_cast<Value>(i) * 0.25f - 3.0f;
  }
  return b;
}

void expect_input_error(const std::vector<std::uint8_t>& payload,
                        std::size_t max_batch, std::uint32_t expect_dims,
                        const std::string& what_substr) {
  try {
    (void)decode_query(payload.data(), payload.size(), max_batch,
                       expect_dims);
    FAIL() << "expected rejection: " << what_substr;
  } catch (const Error& e) {
    EXPECT_EQ(e.error_class(), ErrorClass::Input) << e.what();
    EXPECT_NE(std::string(e.what()).find(what_substr), std::string::npos)
        << e.what();
  }
}

TEST(ServeProtocol, QueryRoundTripIsExact) {
  const QueryBatch batch = make_batch(7, 5);
  const auto payload = encode_query(batch);
  EXPECT_EQ(payload.size(), query_payload_bytes(7, 5));
  const QueryBatch back = decode_query(payload.data(), payload.size(),
                                       /*max_batch=*/100, /*expect_dims=*/5);
  EXPECT_EQ(back.num_dims, 5u);
  ASSERT_EQ(back.values.size(), batch.values.size());
  // Bit-exact, not approximately-equal: the values ARE the query.
  EXPECT_EQ(std::memcmp(back.values.data(), batch.values.data(),
                        batch.values.size() * sizeof(Value)),
            0);
}

TEST(ServeProtocol, ZeroRowBatchIsValid) {
  const QueryBatch batch = make_batch(0, 3);
  const auto payload = encode_query(batch);
  const QueryBatch back =
      decode_query(payload.data(), payload.size(), 10, 3);
  EXPECT_EQ(back.num_rows(), 0u);
  EXPECT_EQ(back.num_dims, 3u);
}

TEST(ServeProtocol, RejectsTruncatedShape) {
  expect_input_error({0x01, 0x00, 0x00}, 10, 0, "truncated payload");
}

TEST(ServeProtocol, RejectsBatchOverMaxBatch) {
  const auto payload = encode_query(make_batch(11, 2));
  expect_input_error(payload, /*max_batch=*/10, 2, "exceeds --max-batch");
}

TEST(ServeProtocol, RejectsDimsMismatchAgainstModel) {
  const auto payload = encode_query(make_batch(2, 4));
  expect_input_error(payload, 10, /*expect_dims=*/6,
                     "does not match the model's 6 dims");
}

TEST(ServeProtocol, RejectsZeroWidthRows) {
  // Hand-built shape {rows=3, dims=0}: encode_query cannot produce it.
  std::vector<std::uint8_t> payload(8, 0);
  payload[0] = 3;
  expect_input_error(payload, 10, 0, "bad row width");
}

TEST(ServeProtocol, RejectsPayloadShorterThanShape) {
  auto payload = encode_query(make_batch(4, 3));
  payload.resize(payload.size() - 5);
  expect_input_error(payload, 10, 3, "needs");
}

TEST(ServeProtocol, RejectsTrailingBytesAfterRows) {
  auto payload = encode_query(make_batch(4, 3));
  payload.push_back(0xAB);
  expect_input_error(payload, 10, 3, "needs");
}

TEST(ServeProtocol, RejectsNonFiniteValuesNamingRowAndDim) {
  // A NaN lies in no bin, and in a 256-bin dimension bin_of's past-the-end
  // answer wraps to bin 0; the decoder must refuse every non-finite value.
  constexpr std::uint32_t kRows = 4;
  constexpr std::uint32_t kDims = 5;
  const std::pair<std::uint32_t, std::uint32_t> corners[] = {
      {0, 0}, {0, kDims - 1}, {kRows - 1, 0}, {kRows - 1, kDims - 1}};
  for (const Value bad : {std::numeric_limits<Value>::quiet_NaN(),
                          std::numeric_limits<Value>::infinity(),
                          -std::numeric_limits<Value>::infinity()}) {
    for (const auto& [row, dim] : corners) {
      QueryBatch batch = make_batch(kRows, kDims);
      batch.values[row * kDims + dim] = bad;
      expect_input_error(encode_query(batch), 10, kDims,
                         "non-finite value at row " + std::to_string(row) +
                             ", dim " + std::to_string(dim));
    }
  }
}

TEST(ServeProtocol, ResponseRoundTrip) {
  std::vector<RowAnswer> answers(5);
  for (std::size_t i = 0; i < answers.size(); ++i) {
    answers[i].label = static_cast<std::int32_t>(i) - 1;  // includes noise
    answers[i].match_count = static_cast<std::uint32_t>(i * i);
  }
  const auto payload = encode_response(answers);
  const auto back = decode_response(payload.data(), payload.size());
  ASSERT_EQ(back.size(), answers.size());
  for (std::size_t i = 0; i < answers.size(); ++i) {
    EXPECT_EQ(back[i].label, answers[i].label);
    EXPECT_EQ(back[i].match_count, answers[i].match_count);
  }
}

TEST(ServeProtocol, RejectsShortResponse) {
  const auto payload = encode_response(std::vector<RowAnswer>(3));
  EXPECT_THROW((void)decode_response(payload.data(), payload.size() - 1),
               Error);
  EXPECT_THROW((void)decode_response(payload.data(), 2), Error);
}

TEST(ServeProtocol, PayloadSizeFormula) {
  EXPECT_EQ(query_payload_bytes(0, 8), 8u);
  EXPECT_EQ(query_payload_bytes(10, 4), 8u + 10 * 4 * sizeof(Value));
  // The admission cap must not overflow for hostile shapes.
  EXPECT_GT(query_payload_bytes(1u << 20, 256), 1u << 30);
}

}  // namespace
}  // namespace mafia::serve
