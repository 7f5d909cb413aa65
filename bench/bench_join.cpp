// Join-kernel A/B: the paper's O(n²) pairwise triangular scan vs the
// signature bucket index, which probes only pairs sharing a (k−2)-dim
// sub-signature.  The index's raw walk produces the pairwise scan's raw
// CDU sequence bit for bit (asserted here per configuration;
// tests/join_differential_test.cpp is the exhaustive proof), so the micro
// comparison is pure work: probes and wall-clock at equal output.
//
// Three measurements, all recorded as pmafia-bench-v1 rows in
// BENCH_join.json (the committed rows are the baselines
// scripts/bench_gate.py compares fresh runs against, via the join-phase
// seconds):
//   * micro — full serial joins over synthetic dense stores at fixed unit
//     counts and two shapes (spread: units across many subspaces;
//     clustered: units packed into a few subspaces, the worst case for
//     bucket sizes);
//   * e2e   — full driver runs with the kernel forced each way on the
//     Figure 3 workload; join-phase seconds from the run's phase trace;
//   * e2e-highdim — the same on the high-dimensional shape (clusters in
//     10/12/15-dim subspaces), where the MAFIA join repeats each candidate
//     many times and candidate generation is most of the build: the
//     default kernel (canonical walk, no repeats) against the pairwise
//     kernel plus repeat elimination, at p = 1 and p = 2.
//
// Exit status is the acceptance check: 0 iff the raw walk is at least 2x
// faster than pairwise at every micro configuration with >= 2000 dense
// units, and the e2e-highdim runs of both kernels agree on every level's
// count checksum and raw candidate count and on the clusters.
#include "bench_common.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/timer.hpp"
#include "core/mafia.hpp"
#include "datagen/workloads.hpp"
#include "grid/adaptive_grid.hpp"
#include "io/data_source.hpp"
#include "rng/distributions.hpp"
#include "rng/icg.hpp"
#include "taskpart/taskpart.hpp"
#include "units/join.hpp"
#include "units/unit_store.hpp"

namespace {

using namespace mafia;

/// Synthetic (k−1)-dim dense store: `n` units with dims drawn from
/// `subspaces` distinct k-subsets of `num_dims` dimensions and bins in
/// [0, num_bins).  Few subspaces + few bins = big signature buckets.
UnitStore make_dense(IcgRandom& rng, std::size_t n, std::size_t k,
                     std::size_t num_dims, std::size_t subspaces,
                     std::size_t num_bins) {
  std::vector<std::vector<DimId>> dim_sets;
  std::vector<DimId> all_dims(num_dims);
  std::iota(all_dims.begin(), all_dims.end(), DimId{0});
  for (std::size_t s = 0; s < subspaces; ++s) {
    shuffle(rng, all_dims.begin(), all_dims.end());
    std::vector<DimId> dims(all_dims.begin(),
                            all_dims.begin() + static_cast<std::ptrdiff_t>(k));
    std::sort(dims.begin(), dims.end());
    dim_sets.push_back(std::move(dims));
  }
  UnitStore dense(k);
  std::vector<BinId> bins(k);
  for (std::size_t u = 0; u < n; ++u) {
    const auto& dims = dim_sets[uniform_index(rng, dim_sets.size())];
    for (std::size_t i = 0; i < k; ++i) {
      bins[i] = static_cast<BinId>(uniform_index(rng, num_bins));
    }
    dense.push_unchecked(dims.data(), bins.data());
  }
  return dense;
}

/// Times `reps` full serial joins of one kernel; returns seconds and the
/// stats of the last run.
double time_join(const UnitStore& dense, bool bucketed, std::size_t reps,
                 JoinStats* stats) {
  Timer t;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const JoinResult r = bucketed
                             ? bucket_join_dense_units(dense, JoinRule::MafiaAnyShared)
                             : join_dense_units(dense, JoinRule::MafiaAnyShared);
    *stats = r.stats;
  }
  return t.seconds();
}

/// Wraps a micro measurement in the bench JSONL schema: a minimal result
/// carrying the join seconds and the dense units processed, so the row's
/// gate throughput (units per second through the join) is computable the
/// same way as for a full driver run.
void record_micro(const std::string& tag, double seconds,
                  std::size_t units_processed) {
  MafiaResult r;
  r.phases.add("join", seconds);
  r.num_records = units_processed;
  r.total_seconds = seconds;
  bench::append_bench_json("join", r, tag);
}

/// Empty when the two runs agree on every level's count checksum, raw and
/// unique candidate counts and dense count, and on the clusters (order,
/// subspaces, units and DNF); otherwise the first difference.
std::string compare_runs(const MafiaResult& a, const MafiaResult& b) {
  if (a.levels.size() != b.levels.size()) return "level count differs";
  for (std::size_t l = 0; l < a.levels.size(); ++l) {
    const LevelTrace& x = a.levels[l];
    const LevelTrace& y = b.levels[l];
    if (x.count_checksum != y.count_checksum || x.ncdu_raw != y.ncdu_raw ||
        x.ncdu != y.ncdu || x.ndu != y.ndu) {
      return "level " + std::to_string(x.level) + " differs";
    }
  }
  if (a.clusters.size() != b.clusters.size()) return "cluster count differs";
  for (std::size_t c = 0; c < a.clusters.size(); ++c) {
    const Cluster& x = a.clusters[c];
    const Cluster& y = b.clusters[c];
    bool same = x.dims == y.dims &&
                x.units.dim_bytes() == y.units.dim_bytes() &&
                x.units.bin_bytes() == y.units.bin_bytes() &&
                x.dnf.size() == y.dnf.size();
    for (std::size_t i = 0; same && i < x.dnf.size(); ++i) {
      same = x.dnf[i].lo == y.dnf[i].lo && x.dnf[i].hi == y.dnf[i].hi;
    }
    if (!same) return "cluster " + std::to_string(c) + " differs";
  }
  return {};
}

}  // namespace

int main() {
  using namespace mafia;

  bench::print_header(
      "Join kernel — signature bucket index vs pairwise O(n^2) scan",
      "Section 4.3: CDU generation compares all unit pairs, Eq. 1 balanced",
      "synthetic dense stores + fig3 and highdim driver runs, kernel A/B at "
      "equal output");

  struct Shape {
    const char* name;
    std::size_t subspaces;
    std::size_t num_bins;
  };
  const Shape shapes[] = {
      {"spread", 24, 5},    // many subspaces: small buckets
      {"clustered", 4, 8},  // few subspaces: the big-bucket worst case
  };
  const std::size_t sizes[] = {500, 2000, 5000};
  const std::size_t reps = std::max<std::size_t>(
      1, static_cast<std::size_t>(3.0 * bench::scale()));

  std::printf("\n[micro] full serial join, k=3 parents -> k=4 CDUs, %zu reps\n",
              reps);
  std::printf("%-11s %-7s %-13s %-13s %-13s %-13s %s\n", "shape", "units",
              "pairwise(s)", "bucketed(s)", "pw probes", "bk probes",
              "speedup");
  double min_gated_speedup = 1e300;
  for (const Shape& shape : shapes) {
    for (const std::size_t n : sizes) {
      IcgRandom rng(1000 + n + shape.subspaces);
      const UnitStore dense =
          make_dense(rng, n, 3, 20, shape.subspaces, shape.num_bins);

      // Equal-output sanity check before timing anything.
      {
        const JoinResult pw = join_dense_units(dense, JoinRule::MafiaAnyShared);
        const JoinResult bk = bucket_join_dense_units(dense, JoinRule::MafiaAnyShared);
        if (pw.cdus.dim_bytes() != bk.cdus.dim_bytes() ||
            pw.cdus.bin_bytes() != bk.cdus.bin_bytes() ||
            pw.parents != bk.parents) {
          std::printf("FATAL: kernels disagree at %s n=%zu\n", shape.name, n);
          return 1;
        }
      }

      JoinStats pw_stats{};
      JoinStats bk_stats{};
      const double pw_secs = time_join(dense, /*bucketed=*/false, reps, &pw_stats);
      const double bk_secs = time_join(dense, /*bucketed=*/true, reps, &bk_stats);
      const double speedup = pw_secs / bk_secs;
      std::printf("%-11s %-7zu %-13.4f %-13.4f %-13llu %-13llu %.2fx\n",
                  shape.name, n, pw_secs, bk_secs,
                  static_cast<unsigned long long>(pw_stats.probes),
                  static_cast<unsigned long long>(bk_stats.probes), speedup);
      if (n >= 2000) min_gated_speedup = std::min(min_gated_speedup, speedup);

      char tag[64];
      std::snprintf(tag, sizeof(tag), "micro-%s-n=%zu-kernel=%s", shape.name,
                    n, "bucketed");
      record_micro(tag, bk_secs, n * reps);
      std::snprintf(tag, sizeof(tag), "micro-%s-n=%zu-kernel=%s", shape.name,
                    n, "pairwise");
      record_micro(tag, pw_secs, n * reps);
    }
  }

  // ---- e2e: full driver, kernel forced each way on the fig3 workload.
  const RecordIndex records = bench::scaled(100000);
  const GeneratorConfig cfg = workloads::fig3_parallel(records);
  const Dataset data = generate(cfg);
  InMemorySource source(data);

  std::printf("\n[e2e] full driver on %llu records\n",
              static_cast<unsigned long long>(data.num_records()));
  std::printf("%-10s %-12s %-12s %-10s %-13s %-13s %s\n", "kernel", "join(s)",
              "total(s)", "levels", "probes", "emitted", "levels bk/pw");
  double e2e_join_secs[2] = {0, 0};
  for (const bool bucketed : {true, false}) {
    MafiaOptions o;
    o.fixed_domain = {{0.0f, 100.0f}};
    o.join.kernel = bucketed ? JoinKernel::Bucketed : JoinKernel::Pairwise;
    const MafiaResult r = run_mafia(source, o);
    e2e_join_secs[bucketed ? 0 : 1] = r.phases.get("join");
    std::printf("%-10s %-12.4f %-12.3f %-10zu %-13llu %-13llu %llu/%llu\n",
                bucketed ? "bucketed" : "pairwise", r.phases.get("join"),
                r.total_seconds, r.levels.size(),
                static_cast<unsigned long long>(r.join_kernel.probes),
                static_cast<unsigned long long>(r.join_kernel.emitted),
                static_cast<unsigned long long>(r.join_kernel.bucketed_levels),
                static_cast<unsigned long long>(r.join_kernel.pairwise_levels));
    bench::append_bench_json("join", r,
                             bucketed ? "e2e-kernel=bucketed" : "e2e-kernel=pairwise");
  }
  if (e2e_join_secs[1] > 0) {
    std::printf("join speedup (e2e): %.2fx\n",
                e2e_join_secs[1] / e2e_join_secs[0]);
  }

  // ---- e2e-highdim: the default kernel against the paper path on the
  // high-dimensional shape, with the options the end-to-end benchmark's
  // build-deep workload uses (grid sized for the sample, domain [0, 100]).
  const Dataset deep = generate(workloads::highdim(bench::scaled(10000)));
  InMemorySource deep_source(deep);
  std::printf("\n[e2e-highdim] full driver on %llu records x %zu dims\n",
              static_cast<unsigned long long>(deep.num_records()),
              deep.num_dims());
  std::printf("%-10s %-4s %-12s %-12s %-12s %-8s %-11s %-11s %s\n", "kernel",
              "p", "join(s)", "dedup(s)", "total(s)", "levels", "raw cdus",
              "unique", "comm bytes");
  bool agree = true;
  for (const int p : {1, 2}) {
    MafiaResult runs[2];
    for (const bool bucketed : {true, false}) {
      MafiaOptions o;
      o.grid = AdaptiveGridOptions::for_sample_size(
          static_cast<Count>(deep.num_records()));
      o.fixed_domain = {{0.0f, 100.0f}};
      o.join.kernel = bucketed ? JoinKernel::Bucketed : JoinKernel::Pairwise;
      MafiaResult& r = runs[bucketed ? 0 : 1];
      r = run_pmafia(deep_source, o, p);
      std::uint64_t raw = 0;
      std::uint64_t unique = 0;
      for (const LevelTrace& t : r.levels) {
        if (t.level > 1) {
          raw += t.ncdu_raw;
          unique += t.ncdu;
        }
      }
      std::printf("%-10s %-4d %-12.4f %-12.4f %-12.3f %-8zu %-11llu %-11llu %llu\n",
                  bucketed ? "bucketed" : "pairwise", p, r.phases.get("join"),
                  r.phases.get("dedup"), r.total_seconds, r.levels.size(),
                  static_cast<unsigned long long>(raw),
                  static_cast<unsigned long long>(unique),
                  static_cast<unsigned long long>(r.comm.total_bytes()));
      char tag[64];
      std::snprintf(tag, sizeof(tag), "e2e-highdim-p=%d-kernel=%s", p,
                    bucketed ? "bucketed" : "pairwise");
      bench::append_bench_json("join", r, tag);
    }
    const std::string diff = compare_runs(runs[0], runs[1]);
    if (!diff.empty()) {
      std::printf("FATAL: kernels disagree on highdim at p=%d: %s\n", p,
                  diff.c_str());
      agree = false;
    }
  }

  std::printf("\nmin micro speedup at n >= 2000: %.2fx (acceptance: >= 2x)\n",
              min_gated_speedup);
  std::printf("highdim kernels agree: %s\n", agree ? "yes" : "NO");
  std::printf("rows appended to BENCH_join.json "
              "(scripts/bench_gate.py compares against the committed "
              "baselines).\n");
  return min_gated_speedup >= 2.0 && agree ? 0 : 1;
}
