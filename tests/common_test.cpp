// Tests for the common utilities: block partitioning, math helpers,
// timers, the logging gate, and the byte codec.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/math_util.hpp"
#include "common/timer.hpp"

namespace mafia {
namespace {

// --------------------------------------------------------- block_partition

class BlockPartitionSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(BlockPartitionSweep, CoversExactlyOnceAndBalanced) {
  const auto [total, p] = GetParam();
  std::size_t covered = 0;
  std::size_t min_size = total + 1;
  std::size_t max_size = 0;
  std::size_t expected_begin = 0;
  for (std::size_t r = 0; r < p; ++r) {
    const BlockRange range = block_partition(total, p, r);
    EXPECT_EQ(range.begin, expected_begin) << "gap or overlap at rank " << r;
    expected_begin = range.end;
    covered += range.size();
    min_size = std::min(min_size, range.size());
    max_size = std::max(max_size, range.size());
  }
  EXPECT_EQ(covered, total);
  EXPECT_EQ(expected_begin, total);
  EXPECT_LE(max_size - min_size, 1u) << "imbalance beyond one item";
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BlockPartitionSweep,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 2, 7, 100, 1000,
                                                      65537),
                       ::testing::Values<std::size_t>(1, 2, 3, 8, 16, 100)));

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(1, 100), 1);
  EXPECT_EQ(ceil_div<std::size_t>(0 + 5, 5), 1u);
}

TEST(MathUtil, Clamp) {
  EXPECT_EQ(clamp(5, 0, 10), 5);
  EXPECT_EQ(clamp(-5, 0, 10), 0);
  EXPECT_EQ(clamp(15, 0, 10), 10);
}

TEST(MathUtil, ApproxEqual) {
  EXPECT_TRUE(approx_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(approx_equal(1.0, 1.001));
  EXPECT_TRUE(approx_equal(1e12, 1e12 + 1.0, 1e-9));
  EXPECT_TRUE(approx_equal(0.0, 0.0));
}

// ------------------------------------------------------------------ timers

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.millis(), 15.0);
  t.reset();
  EXPECT_LT(t.millis(), 15.0);
}

TEST(PhaseTimer, AccumulatesAndMerges) {
  PhaseTimer a;
  a.add("populate", 1.0);
  a.add("populate", 0.5);
  a.add("join", 0.25);
  EXPECT_DOUBLE_EQ(a.get("populate"), 1.5);
  EXPECT_DOUBLE_EQ(a.get("missing"), 0.0);
  EXPECT_DOUBLE_EQ(a.total(), 1.75);

  PhaseTimer b;
  b.add("populate", 2.0);
  b.add("identify", 0.1);

  PhaseTimer sum = a;
  sum.merge(b);
  EXPECT_DOUBLE_EQ(sum.get("populate"), 3.5);
  EXPECT_DOUBLE_EQ(sum.get("identify"), 0.1);

  PhaseTimer mx = a;
  mx.merge_max(b);
  EXPECT_DOUBLE_EQ(mx.get("populate"), 2.0);  // max, not sum
  EXPECT_DOUBLE_EQ(mx.get("join"), 0.25);
}

TEST(PhaseTimer, ScopedPhaseRecordsOnDestruction) {
  PhaseTimer t;
  {
    ScopedPhase scope(t, "work");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(t.get("work"), 0.005);
}

// ----------------------------------------------------------------- logging

TEST(Log, LevelGateSuppressesBelowThreshold) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::Silent);
  // Nothing observable to assert about stderr here beyond "does not crash",
  // but the macro must not evaluate its expression when gated.
  int evaluated = 0;
  MAFIA_LOG(LogLevel::Debug, "value=" << ++evaluated);
  EXPECT_EQ(evaluated, 0) << "log expression evaluated while suppressed";
  set_log_level(LogLevel::Debug);
  MAFIA_LOG(LogLevel::Debug, "value=" << ++evaluated);
  EXPECT_EQ(evaluated, 1);
  set_log_level(before);
}

// ------------------------------------------------------------------ errors

TEST(Error, RequireThrowsWithMessage) {
  EXPECT_NO_THROW(require(true, "fine"));
  try {
    require(false, "exact message");
    FAIL();
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "exact message");
  }
}

// ------------------------------------------------------------- byte codec

TEST(Bytes, EmptyVectorsRoundTrip) {
  // Zero-length arrays occur in real payloads (an append base with no
  // memo, a level with no unjoined units); reading one must not hand a
  // null data() to memcpy.
  ByteWriter w;
  w.vec(std::vector<std::uint32_t>{});
  w.vec(std::vector<std::uint8_t>{7, 8});
  w.vec(std::vector<std::uint64_t>{});
  ByteReader r{w.out.data(), w.out.size()};
  EXPECT_TRUE(r.vec<std::uint32_t>().empty());
  EXPECT_EQ(r.vec<std::uint8_t>(), (std::vector<std::uint8_t>{7, 8}));
  EXPECT_TRUE(r.vec<std::uint64_t>().empty());
  EXPECT_EQ(r.at, w.out.size());
}

}  // namespace
}  // namespace mafia
