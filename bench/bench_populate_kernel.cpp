// Populate regimes end to end: the run index vs the budget-forced
// per-level rescan, on the paper's Figure 3 workload (30-d data, 5
// clusters each in a different 6-d subspace) — the phase the paper calls
// out as "the bulk of the time" (Section 5.3).
//
// Both rows run all of run_pmafia with the one populate kernel, the
// per-(dim, bin) bitmap index counted by AND+popcount:
//   * e2e-populate=index  — no budget: each rank indexes its partition
//     once and every level counts from that run index;
//   * e2e-populate=rescan — max_cdu_bytes one byte below the run index,
//     so every level rescans the records in B-record chunks, each indexed,
//     counted and cleared (Algorithm 2's out-of-core pass).
// The populate-phase seconds come from each run's own phase trace.  Both
// rows land in BENCH_populate.json as pmafia-bench-v1 rows (the committed
// rows are the baselines scripts/bench_gate.py compares fresh runs
// against).  The bench exits non-zero unless both runs produce the same
// level checksums, each in the regime it was meant to run.
#include "bench_common.hpp"

#include <algorithm>

#include "core/mafia.hpp"
#include "datagen/workloads.hpp"
#include "io/data_source.hpp"

int main() {
  using namespace mafia;

  bench::print_header(
      "Populate — run index vs budget-forced per-level rescan",
      "Section 5.3: populate dominates; 30-d, 5 clusters in 6-d subspaces",
      "same fig3 structure, both populate regimes through run_pmafia");

  const RecordIndex records = bench::scaled(100000);
  const Dataset data = generate(workloads::fig3_parallel(records));
  InMemorySource source(data);
  const auto n = static_cast<std::size_t>(data.num_records());

  MafiaOptions options;
  options.fixed_domain = {{0.0f, 100.0f}};
  const MafiaResult index = run_mafia(source, options);

  MafiaOptions budgeted = options;
  budgeted.max_cdu_bytes = index.populate_kernel.bitmap_bytes - 1;
  // At small bench scales one default chunk would hold every record and
  // the chunk index would be the run index again.
  if (budgeted.chunk_records >= n) {
    budgeted.chunk_records = std::max<std::size_t>(64, n / 4);
  }
  const MafiaResult rescan = run_mafia(source, budgeted);

  std::printf("\n[e2e] run_pmafia on %zu records, chunk %zu records\n", n,
              budgeted.chunk_records);
  std::printf("%-8s %-12s %-10s %-8s %-16s %s\n", "regime", "populate(s)",
              "total(s)", "levels", "index peak (B)", "words ANDed");
  bool ok = index.levels.size() == rescan.levels.size();
  const auto record = [&ok](const char* name, const MafiaResult& r,
                            bool rescanned) {
    std::printf("%-8s %-12.3f %-10.3f %-8zu %-16zu %zu\n", name,
                r.phases.get("populate"), r.total_seconds, r.levels.size(),
                r.populate_kernel.bitmap_bytes,
                r.populate_kernel.bitmap_words_anded);
    bench::append_bench_json("populate", r,
                             std::string("e2e-populate=") + name);
    for (const LevelTrace& t : r.levels) {
      ok = ok && t.populate_rescan == rescanned;
    }
  };
  record("index", index, false);
  record("rescan", rescan, true);
  for (std::size_t l = 0; ok && l < index.levels.size(); ++l) {
    ok = index.levels[l].count_checksum == rescan.levels[l].count_checksum;
  }
  std::printf("populate: rescan / index = %.2fx; level checksums %s\n",
              rescan.phases.get("populate") / index.phases.get("populate"),
              ok ? "agree" : "DIFFER (or a run left its regime)");
  std::printf("\nrows appended to BENCH_populate.json "
              "(scripts/bench_gate.py compares against the committed "
              "baselines).\n");
  return ok ? 0 : 1;
}
