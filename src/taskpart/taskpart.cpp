#include "taskpart/taskpart.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace mafia {

std::uint64_t triangular_work(std::size_t n, std::size_t begin, std::size_t end) {
  require(begin <= end && end <= n, "triangular_work: bad range");
  // Σ_{j=begin}^{end-1} (n − 1 − j) = (n−1)·len − Σ j.  Row j pairs with
  // exactly the n − 1 − j units after it — the inner loop of
  // join_dense_units, counted exactly.
  const std::uint64_t len = end - begin;
  if (len == 0) return 0;
  const std::uint64_t sum_j =
      (static_cast<std::uint64_t>(begin) + (end - 1)) * len / 2;
  return (static_cast<std::uint64_t>(n) - 1) * len - sum_j;
}

std::uint64_t triangular_total_work(std::size_t n) {
  if (n == 0) return 0;
  return static_cast<std::uint64_t>(n) * (n - 1) / 2;
}

std::vector<std::size_t> triangular_partition(std::size_t n, std::size_t p) {
  require(p >= 1, "triangular_partition: need at least one rank");
  std::vector<std::size_t> bounds(p + 1, 0);
  bounds[p] = n;
  if (n == 0 || p == 1) return bounds;

  // Cumulative work of a prefix [0, x): C(x) = (n−1)·x − x(x−1)/2.
  // Boundary n_i is the real root of C(x) = i·W/p with W = n(n−1)/2, i.e.
  // of
  //   x² − (2n−1)·x + 2·i·W/p = 0,
  // taking the smaller root (the one in [0, n]).  This is the iterative
  // quadratic solve of Eq. 1 done in closed form.
  const double total = static_cast<double>(triangular_total_work(n));
  const double b = 2.0 * static_cast<double>(n) - 1.0;
  for (std::size_t i = 1; i < p; ++i) {
    const double target = total * static_cast<double>(i) / static_cast<double>(p);
    const double disc = b * b - 8.0 * target;
    const double x = disc <= 0 ? static_cast<double>(n)
                               : (b - std::sqrt(disc)) / 2.0;
    auto cut = static_cast<std::size_t>(std::llround(x));
    cut = std::min(cut, n);
    cut = std::max(cut, bounds[i - 1]);  // keep boundaries monotone
    bounds[i] = cut;
  }
  // Monotonicity against the final boundary.
  for (std::size_t i = p; i-- > 1;) {
    bounds[i] = std::min(bounds[i], bounds[i + 1]);
  }
  return bounds;
}

std::vector<std::size_t> flag_balanced_partition(std::span<const std::uint8_t> flags,
                                                 std::size_t p) {
  require(p >= 1, "flag_balanced_partition: need at least one rank");
  const std::size_t n = flags.size();
  std::vector<std::size_t> bounds(p + 1, 0);
  bounds[p] = n;
  if (p == 1 || n == 0) return bounds;

  std::size_t total_set = 0;
  for (const std::uint8_t f : flags) total_set += (f != 0);

  // Degenerate case: with no flags set every quota is 0, and the scan
  // below would hand one element to each of the first p−1 ranks and the
  // rest to the last — fall back to an even block split instead so the
  // (flag-independent) per-element scan work stays balanced.
  if (total_set == 0) {
    for (std::size_t i = 0; i <= p; ++i) bounds[i] = n * i / p;
    return bounds;
  }

  // Linear scan: advance the cut when the running count reaches the next
  // rank's quota (ceil-balanced so early ranks take the remainder).  One
  // index can satisfy several consecutive quotas at once — e.g. a single
  // dense run of flags when total_set < p, where the ceil quotas plateau —
  // so every satisfied rank's cut lands here, not one rank per element
  // (which used to smear the remaining cuts one element apart and skew the
  // tail ranks' scan ranges).
  std::size_t next_rank = 1;
  std::size_t seen = 0;
  for (std::size_t i = 0; i < n && next_rank < p; ++i) {
    seen += (flags[i] != 0);
    while (next_rank < p &&
           seen >= (total_set * next_rank + p - 1) / p) {  // ceil(total·r/p)
      bounds[next_rank] = i + 1;
      ++next_rank;
    }
  }
  for (; next_rank < p; ++next_rank) bounds[next_rank] = n;
  // Monotonicity (a rank whose quota was met immediately can leave its
  // bound behind the previous rank's — clamp forward).
  for (std::size_t i = 1; i <= p; ++i) {
    bounds[i] = std::max(bounds[i], bounds[i - 1]);
  }
  return bounds;
}

std::vector<std::size_t> weight_balanced_partition(
    std::span<const std::uint64_t> weights, std::size_t p) {
  require(p >= 1, "weight_balanced_partition: need at least one rank");
  const std::size_t n = weights.size();
  std::vector<std::size_t> bounds(p + 1, 0);
  bounds[p] = n;
  if (p == 1 || n == 0) return bounds;

  std::uint64_t total = 0;
  for (const std::uint64_t w : weights) total += w;

  // All-zero weights (no unit has work): even block split, same
  // rationale as flag_balanced_partition's degenerate case.
  if (total == 0) {
    for (std::size_t i = 0; i <= p; ++i) bounds[i] = n * i / p;
    return bounds;
  }

  // Same ceil-quota scan as flag_balanced_partition, weights instead of
  // flags; one heavy unit can satisfy several quotas at once, so all
  // satisfied ranks cut at the same index.
  std::size_t next_rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < n && next_rank < p; ++i) {
    seen += weights[i];
    while (next_rank < p &&
           seen >= (total * next_rank + p - 1) / p) {  // ceil(total·r/p)
      bounds[next_rank] = i + 1;
      ++next_rank;
    }
  }
  for (; next_rank < p; ++next_rank) bounds[next_rank] = n;
  for (std::size_t i = 1; i <= p; ++i) {
    bounds[i] = std::max(bounds[i], bounds[i - 1]);
  }
  return bounds;
}

}  // namespace mafia
