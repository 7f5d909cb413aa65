// Small, self-tested helpers the benchmark's figures rest on: percentiles
// with the "at least ten samples beyond" rule, the open-loop due-time
// schedule, and the fixed offered-rate ladder of the capacity search.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of `values` (q in (0, 1]): the smallest sample with
/// at least q·n samples at or below it.  Infinite samples (failed requests)
/// sort last.  Returns NaN on an empty input.
[[nodiscard]] inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

[[nodiscard]] inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// The q-quantile of each `window`-second slice of a series (by the time
/// in `at`), then the median over slices.  Slices with fewer than
/// `min_samples` values are skipped; returns NaN when none is left.  A
/// stall in one slice moves one slice's figure, not the reported one.
[[nodiscard]] inline double windowed_quantile(const std::vector<double>& at,
                                              const std::vector<double>& values,
                                              double window, double q,
                                              std::size_t min_samples) {
  std::vector<std::vector<double>> slices;
  for (std::size_t i = 0; i < values.size() && i < at.size(); ++i) {
    const auto w = static_cast<std::size_t>(std::max(0.0, at[i]) / window);
    if (w >= slices.size()) slices.resize(w + 1);
    slices[w].push_back(values[i]);
  }
  std::vector<double> per_slice;
  for (std::vector<double>& s : slices) {
    if (s.size() >= min_samples) per_slice.push_back(quantile(std::move(s), q));
  }
  return median(per_slice);
}

/// Samples that lie strictly beyond the nearest-rank q-quantile's rank.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

/// A tail percentile is reported only when at least ten samples lie beyond
/// it; below that it would be the sample maximum in disguise.
inline constexpr std::size_t kMinTailSamples = 10;

[[nodiscard]] inline bool tail_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= kMinTailSamples;
}

/// FNV-1a over the bytes of a label sequence: two answers hash equal
/// exactly when their labels are byte-identical (up to 64-bit collisions).
struct LabelsHash {
  std::uint64_t value = 1469598103934665603ull;

  void add(std::int32_t label) {
    const auto v = static_cast<std::uint32_t>(label);
    for (int byte = 0; byte < 4; ++byte) {
      value ^= (v >> (8 * byte)) & 0xffu;
      value *= 1099511628211ull;
    }
  }
};

/// Open-loop schedule: request j is due at start + j / rate, whatever
/// happened to earlier requests.  Latency is measured from the due time, so
/// a stall also charges the wait it imposes on every later request.
struct Schedule {
  double start = 0.0;  ///< seconds on the benchmark clock
  double rate = 1.0;   ///< requests per second

  [[nodiscard]] double due(std::size_t j) const {
    return start + static_cast<double>(j) / rate;
  }
  /// Number of requests due in [start, start + seconds).
  [[nodiscard]] std::size_t count_within(double seconds) const {
    return static_cast<std::size_t>(std::ceil(seconds * rate));
  }
};

/// Latency of one request timed from its due time; a failed request gets
/// +inf, so it misses every limit.
[[nodiscard]] inline double latency_from_due(double due, double done,
                                             bool ok) {
  return ok ? done - due : std::numeric_limits<double>::infinity();
}

/// The fixed offered rates of the capacity search: a geometric ladder of
/// 5% steps from kBase requests per second.  Every run of every workload
/// uses the same rungs, so a capacity figure is always one of them.
struct RateLadder {
  static constexpr double kBase = 100.0;
  static constexpr double kStep = 1.05;
  static constexpr int kRungs = 140;  ///< up to ~93k requests per second

  [[nodiscard]] static double rate(int rung) {
    return kBase * std::pow(kStep, rung);
  }
  /// Highest rung whose rate does not exceed `rps` (0 below the base).
  [[nodiscard]] static int rung_at_or_below(double rps) {
    if (!(rps > kBase)) return 0;
    int r = static_cast<int>(std::floor(std::log(rps / kBase) / std::log(kStep)));
    while (r + 1 < kRungs && rate(r + 1) <= rps) ++r;
    while (r > 0 && rate(r) > rps) --r;
    return std::clamp(r, 0, kRungs - 1);
  }
};

/// Outcome of one offered-rate phase, judged against the latency limit.
struct PhaseVerdict {
  std::size_t sent = 0;
  std::size_t succeeded = 0;
  std::size_t failed = 0;
  double within_limit_frac = 0.0;  ///< share of sent requests under the limit
  double final_lateness = 0.0;     ///< median send lateness, last tenth
  bool meets = false;
};

/// A rate is met when at least 99% of the requests sent finished within
/// `limit` of their due time (failures count as misses) and the backlog did
/// not grow: the last tenth of the sends left no later than `limit` after
/// their due times.
[[nodiscard]] inline PhaseVerdict judge_phase(
    const std::vector<double>& latencies, const std::vector<double>& lateness,
    double limit) {
  PhaseVerdict v;
  v.sent = latencies.size();
  std::size_t within = 0;
  for (const double l : latencies) {
    if (std::isfinite(l)) ++v.succeeded;
    if (l <= limit) ++within;
  }
  v.failed = v.sent - v.succeeded;
  if (v.sent == 0) return v;
  v.within_limit_frac = static_cast<double>(within) / static_cast<double>(v.sent);
  const std::size_t tail = std::max<std::size_t>(1, lateness.size() / 10);
  std::vector<double> last(lateness.end() - static_cast<std::ptrdiff_t>(
                                                std::min(tail, lateness.size())),
                           lateness.end());
  v.final_lateness = last.empty() ? 0.0 : median(last);
  v.meets = v.within_limit_frac >= 0.99 && v.final_lateness <= limit;
  return v;
}

}  // namespace perfbench
