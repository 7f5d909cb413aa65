// Self-tests of the benchmark's own measurement code: percentiles and the
// ten-samples-beyond rule, the open-loop due-time schedule, the rate ladder
// and phase verdicts, the label hash, and the build replay's equality with
// run_pmafia.  Run with `python3 perfbench/run.py --self-test`.
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "core/mafia.hpp"
#include "datagen/generator.hpp"
#include "io/data_source.hpp"
#include "replay.hpp"
#include "stats.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

#define CHECK(cond)                                                        \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, \
                   #cond);                                                 \
      ++g_failures;                                                        \
    }                                                                      \
  } while (0)

constexpr double kInf = std::numeric_limits<double>::infinity();

void test_quantile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  CHECK(quantile(v, 0.5) == 50.0);
  CHECK(quantile(v, 0.99) == 99.0);
  CHECK(quantile(v, 1.0) == 100.0);
  CHECK(quantile(v, 0.001) == 1.0);
  CHECK(median({7.0}) == 7.0);
  CHECK(std::isnan(quantile({}, 0.5)));
  // Failed requests (+inf) sort last and dominate the top ranks.
  CHECK(quantile({1.0, kInf, 2.0}, 0.5) == 2.0);
  CHECK(quantile({1.0, kInf, 2.0}, 1.0) == kInf);
}

void test_windowed_quantile() {
  // Three 1-s slices; the middle one stalls.  The median over slices keeps
  // the stall out of the figure, and a too-small slice is skipped.
  std::vector<double> at, v;
  for (int i = 0; i < 300; ++i) {
    at.push_back(i / 100.0);
    v.push_back(i >= 100 && i < 200 ? 50.0 : 1.0 + (i % 10));
  }
  at.push_back(3.5);
  v.push_back(1000.0);
  CHECK(windowed_quantile(at, v, 1.0, 0.5, 50) == 5.0);
  CHECK(windowed_quantile(at, v, 1.0, 0.99, 50) == 10.0);
  CHECK(windowed_quantile(at, v, 1.0, 0.5, 1) == 5.0);  // slices 5, 50, 5, 1000
  CHECK(std::isnan(windowed_quantile(at, v, 1.0, 0.5, 1000)));
}

void test_tail_rule() {
  CHECK(samples_beyond(1000, 0.99) == 10);
  CHECK(tail_supported(1000, 0.99));
  CHECK(!tail_supported(999, 0.99));  // rank 990, nine beyond
  CHECK(samples_beyond(1100, 0.99) == 11);
  CHECK(samples_beyond(5, 0.99) == 0);
  CHECK(tail_supported(20, 0.5));
}

void test_schedule() {
  const Schedule s{10.0, 4.0};
  CHECK(s.due(0) == 10.0);
  CHECK(s.due(1) == 10.25);
  CHECK(s.due(8) == 12.0);
  CHECK(s.count_within(2.5) == 10);
  CHECK((Schedule{0.0, 1000.0}.count_within(5.0)) == 5000);
  // Latency runs from the due time, not the (late) send time.
  CHECK(latency_from_due(1.0, 1.5, true) == 0.5);
  CHECK(latency_from_due(1.0, 1.5, false) == kInf);
}

void test_ladder() {
  CHECK(RateLadder::rate(0) == RateLadder::kBase);
  CHECK(RateLadder::rung_at_or_below(50.0) == 0);
  CHECK(RateLadder::rung_at_or_below(RateLadder::kBase) == 0);
  for (const double rps : {105.0, 999.0, 1000.0, 4321.0, 25000.0}) {
    const int r = RateLadder::rung_at_or_below(rps);
    CHECK(RateLadder::rate(r) <= rps);
    CHECK(RateLadder::rate(r + 1) > rps);
  }
  CHECK(RateLadder::rung_at_or_below(1e12) == RateLadder::kRungs - 1);
  CHECK(std::abs(RateLadder::rate(1) / RateLadder::rate(0) - RateLadder::kStep) < 1e-12);
}

void test_judge_phase() {
  std::vector<double> lat(1000, 1e-3);
  std::vector<double> late(1000, 0.0);
  CHECK(judge_phase(lat, late, 5e-3).meets);
  // 1% over the limit is still met; 1.1% is not.
  for (int i = 0; i < 10; ++i) lat[static_cast<std::size_t>(i)] = 9e-3;
  CHECK(judge_phase(lat, late, 5e-3).meets);
  lat[10] = kInf;  // a failure counts as a miss
  const PhaseVerdict v = judge_phase(lat, late, 5e-3);
  CHECK(!v.meets);
  CHECK(v.failed == 1 && v.succeeded == 999 && v.sent == 1000);
  // A growing backlog fails even when latencies look fine.
  std::vector<double> ok(1000, 1e-3);
  std::vector<double> growing(1000);
  for (std::size_t i = 0; i < growing.size(); ++i) growing[i] = 1e-5 * static_cast<double>(i);
  CHECK(!judge_phase(ok, growing, 5e-3).meets);
}

void test_labels_hash() {
  LabelsHash a, b, c;
  for (const int l : {0, 3, -1, 2}) a.add(l);
  for (const int l : {0, 3, -1, 2}) b.add(l);
  for (const int l : {3, 0, -1, 2}) c.add(l);
  CHECK(a.value == b.value);
  CHECK(a.value != c.value);
}

void test_replay_equality() {
  mafia::GeneratorConfig cfg;
  cfg.num_dims = 8;
  cfg.num_records = 20000;
  cfg.seed = 7;
  cfg.clusters.push_back(mafia::ClusterSpec::box({1, 4, 6}, {30, 30, 30}, {45, 45, 45}));
  cfg.clusters.push_back(mafia::ClusterSpec::box({0, 2}, {60, 60}, {75, 75}));
  const mafia::Dataset data = mafia::generate(cfg);
  const mafia::InMemorySource src(data);

  mafia::MafiaOptions bitmap_pairwise;
  bitmap_pairwise.populate.kernel = mafia::PopulateKernel::Bitmap;
  bitmap_pairwise.join.kernel = mafia::JoinKernel::Pairwise;
  bitmap_pairwise.dedup = mafia::DedupPolicy::Pairwise;
  for (const mafia::MafiaOptions& opt : {mafia::MafiaOptions{}, bitmap_pairwise}) {
    const mafia::MafiaResult want = mafia::run_pmafia(src, opt, 1);
    const mafia::MafiaResult want_p2 = mafia::run_pmafia(src, opt, 2);
    SpanLog log(true);
    const ReplayResult got = replay_build(src, opt, log);
    CHECK(want.clusters.size() == 2);
    CHECK(compare_levels(want.levels, got.levels).empty());
    CHECK(compare_levels(want_p2.levels, got.levels).empty());
    CHECK(clusters_equal(want.clusters, got.clusters));
    CHECK(got.counters.record_passes == want.levels.size());
    CHECK(log.total("populate") > 0.0);
    CHECK(log.durations("populate").size() == want.levels.size());

    // The comparisons must notice a changed checksum, a missing level, and
    // a changed DNF bound.
    std::vector<mafia::LevelTrace> bad = got.levels;
    bad[1].count_checksum ^= 1;
    CHECK(!compare_levels(want.levels, bad).empty());
    bad = got.levels;
    bad.pop_back();
    CHECK(!compare_levels(want.levels, bad).empty());
    std::vector<mafia::Cluster> bad_clusters = got.clusters;
    bad_clusters[0].dnf[0].hi[0] ^= 1;
    CHECK(!clusters_equal(want.clusters, bad_clusters));
    bad_clusters = got.clusters;
    bad_clusters.pop_back();
    CHECK(!clusters_equal(want.clusters, bad_clusters));
  }
}

}  // namespace

int main() {
  test_quantile();
  test_windowed_quantile();
  test_tail_rule();
  test_schedule();
  test_ladder();
  test_judge_phase();
  test_labels_hash();
  test_replay_equality();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench self-test: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
