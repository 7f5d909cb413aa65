// Populate-kernel A/B/C: packed integer keys vs the memcmp binary-search
// fallback vs the bitmap index (one nrows-bit bitset per (dim, bin) of the
// dimensions the CDUs use, counts by AND+popcount; in the e2e rows the
// driver's index built once per run), on the paper's Figure 3 workload (30-d
// data, 5 clusters each in a different 6-d subspace) — the phase the paper
// calls out as "the bulk of the time" (Section 5.3).
//
// Three measurements, all recorded as pmafia-bench-v1 rows in
// BENCH_populate.json (the committed rows are the baselines
// scripts/bench_gate.py compares fresh runs against):
//   * micro     — UnitPopulator::accumulate alone over a fixed CDU store,
//     isolating the kernels from scan/driver overhead;
//   * e2e       — full driver runs with the kernel forced each way; the
//     populate-phase seconds come from the run's own phase trace;
//   * crossover — the bitmap index amortizes its per-record bit writes
//     over every CDU sharing a bin, so it wins when the candidate set is
//     bin-dense and loses when few CDUs share bins (the AND work grows
//     with used bins x records while the lookup kernels only pay per
//     subspace).  The sweep scales the CDU count at fixed records and
//     prints the used-bins x records product where bitmaps stop winning.
#include "bench_common.hpp"

#include <numeric>

#include "common/timer.hpp"
#include "core/mafia.hpp"
#include "datagen/workloads.hpp"
#include "io/data_source.hpp"
#include "rng/distributions.hpp"
#include "rng/icg.hpp"
#include "units/populate.hpp"

namespace {

using namespace mafia;

struct KernelCase {
  PopulateKernel kernel;
  const char* name;
};

// Packed is selected explicitly: Auto is the bitmap index, and the
// committed "packed" rows must keep measuring the packed rescan kernel.
constexpr KernelCase kKernels[] = {
    {PopulateKernel::Packed, "packed"},
    {PopulateKernel::Memcmp, "memcmp"},
    {PopulateKernel::Bitmap, "bitmap"},
};

/// Random CDU store of dimensionality k with valid bins under `grids`.
UnitStore make_cdus(IcgRandom& rng, const GridSet& grids, std::size_t k,
                    std::size_t count) {
  UnitStore cdus(k);
  std::vector<DimId> all_dims(grids.num_dims());
  std::iota(all_dims.begin(), all_dims.end(), DimId{0});
  std::vector<DimId> dims(k);
  std::vector<BinId> bins(k);
  for (std::size_t u = 0; u < count; ++u) {
    shuffle(rng, all_dims.begin(), all_dims.end());
    std::copy(all_dims.begin(), all_dims.begin() + static_cast<std::ptrdiff_t>(k),
              dims.begin());
    std::sort(dims.begin(), dims.end());
    for (std::size_t i = 0; i < k; ++i) {
      bins[i] = static_cast<BinId>(
          uniform_index(rng, grids[dims[i]].num_bins()));
    }
    cdus.push_unchecked(dims.data(), bins.data());
  }
  return cdus;
}

/// Times `reps` accumulate passes of one kernel configuration; returns
/// records per second.  counts() is drained once at the end so the bitmap
/// kernel's lazy AND+popcount finalize is inside the measurement.
double micro_throughput(const GridSet& grids, const UnitStore& cdus,
                        const Dataset& data, PopulateKernel kernel,
                        std::size_t reps, double* out_seconds) {
  PopulateConfig cfg;
  cfg.kernel = kernel;
  UnitPopulator pop(grids, cdus, cfg);
  const auto nrows = static_cast<std::size_t>(data.num_records());
  Timer t;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    pop.accumulate(data.values().data(), nrows);
  }
  const Count sink = pop.counts().empty() ? 0 : pop.counts()[0];
  const double secs = t.seconds() + static_cast<double>(sink) * 0.0;
  *out_seconds = secs;
  return static_cast<double>(nrows) * static_cast<double>(reps) / secs;
}

/// Wraps a micro measurement in the bench JSONL schema: a minimal result
/// carrying the populate seconds and the records processed, so the row's
/// throughput is computable the same way as for a full driver run.
void record_micro(const std::string& tag, double seconds,
                  std::size_t records_processed, std::size_t dims) {
  MafiaResult r;
  r.phases.add("populate", seconds);
  r.num_records = records_processed;
  r.num_dims = dims;
  r.total_seconds = seconds;
  bench::append_bench_json("populate", r, tag);
}

}  // namespace

int main() {
  using namespace mafia;

  bench::print_header(
      "Populate kernel — packed keys vs memcmp search vs bitmap index",
      "Section 5.3: populate dominates; 30-d, 5 clusters in 6-d subspaces",
      "same fig3 structure, kernel A/B/C at equal work");

  const RecordIndex records = bench::scaled(100000);
  const GeneratorConfig cfg = workloads::fig3_parallel(records);
  const Dataset data = generate(cfg);
  InMemorySource source(data);

  MafiaOptions options;
  options.fixed_domain = {{0.0f, 100.0f}};

  // ---- e2e: full driver, kernel forced each way.  The packed run also
  // reports which kernels its subspaces selected.
  double e2e_secs[3] = {0, 0, 0};
  std::size_t e2e_levels = 1;
  std::printf("\n[e2e] full driver on %llu records\n",
              static_cast<unsigned long long>(data.num_records()));
  std::printf("%-10s %-14s %-12s %-10s %s\n", "kernel", "populate(s)",
              "total(s)", "levels", "subspaces sorted/hash/memcmp/bitmap");
  for (std::size_t i = 0; i < 3; ++i) {
    MafiaOptions o = options;
    o.populate.kernel = kKernels[i].kernel;
    const MafiaResult r = run_mafia(source, o);
    const double pop_secs = r.phases.get("populate");
    e2e_secs[i] = pop_secs;
    e2e_levels = r.levels.empty() ? 1 : r.levels.size();
    std::printf("%-10s %-14.3f %-12.3f %-10zu %zu/%zu/%zu/%zu\n",
                kKernels[i].name, pop_secs, r.total_seconds, r.levels.size(),
                r.populate_kernel.packed_sorted_subspaces,
                r.populate_kernel.packed_hash_subspaces,
                r.populate_kernel.memcmp_subspaces,
                r.populate_kernel.bitmap_subspaces);
    bench::append_bench_json("populate", r,
                             std::string("e2e-kernel=") + kKernels[i].name);
  }
  const double e2e_speedup = e2e_secs[1] / e2e_secs[0];
  const double e2e_tp =
      static_cast<double>(data.num_records()) *
      static_cast<double>(e2e_levels) / e2e_secs[0];
  std::printf("populate speedup (e2e): packed %.2fx vs memcmp, "
              "bitmap %.2fx vs packed  (packed: %.0f record-level "
              "passes/s)\n", e2e_speedup, e2e_secs[0] / e2e_secs[2], e2e_tp);

  // ---- micro: the kernels alone, on a fixed CDU store shaped like a
  // mid-level candidate set (many small subspaces plus a few large ones).
  const MafiaResult ref = run_mafia(source, options);
  IcgRandom rng(77);
  UnitStore cdus = make_cdus(rng, ref.grids, 3, 600);
  const std::size_t reps = std::max<std::size_t>(1,
      static_cast<std::size_t>(3.0 * bench::scale()));

  std::printf("\n[micro] accumulate only: %zu CDUs (k=3), %zu subspaces, "
              "%zu reps\n", cdus.size(),
              UnitPopulator(ref.grids, cdus).num_subspaces(), reps);
  std::printf("%-10s %-14s %s\n", "kernel", "seconds", "records/s");
  double micro_secs[3] = {0, 0, 0};
  double micro_tp[3] = {0, 0, 0};
  for (std::size_t i = 0; i < 3; ++i) {
    micro_tp[i] = micro_throughput(ref.grids, cdus, data, kKernels[i].kernel,
                                   reps, &micro_secs[i]);
    std::printf("%-10s %-14.3f %.3e\n", kKernels[i].name, micro_secs[i],
                micro_tp[i]);
    record_micro(std::string("micro-kernel=") + kKernels[i].name,
                 micro_secs[i],
                 static_cast<std::size_t>(data.num_records()) * reps,
                 data.num_dims());
  }
  std::printf("kernel speedup (micro): packed %.2fx vs memcmp, "
              "bitmap %.2fx vs packed\n", micro_tp[0] / micro_tp[1],
              micro_tp[2] / micro_tp[0]);

  // ---- crossover: scale the candidate set (and with it the used-bin
  // count driving the bitmap AND work) at fixed records; the bitmap wins
  // while CDUs-per-used-bin stays high and loses once the index outgrows
  // the lookup tables' touched working set.
  std::printf("\n[crossover] bitmap vs packed at fixed %llu records, k=3\n",
              static_cast<unsigned long long>(data.num_records()));
  std::printf("%-8s %-10s %-14s %-14s %s\n", "cdus", "used-bins",
              "bitmap rec/s", "packed rec/s", "bitmap/packed");
  double crossover_bins_records = 0.0;
  for (const std::size_t ncdus : {4u, 12u, 50u, 200u, 800u, 3200u}) {
    IcgRandom sweep_rng(900 + ncdus);
    const UnitStore sweep = make_cdus(sweep_rng, ref.grids, 3, ncdus);
    PopulateConfig bitmap_cfg;
    bitmap_cfg.kernel = PopulateKernel::Bitmap;
    const UnitPopulator probe(ref.grids, sweep, bitmap_cfg);
    // One 64-bit word per bitset at nrows = 64, so the byte delta over the
    // empty index divides back out to the indexed-(dim,bin) count.
    const std::size_t used_bins =
        (probe.auxiliary_bytes(64) - probe.auxiliary_bytes(0)) /
        sizeof(std::uint64_t);
    double b_secs = 0.0, p_secs = 0.0;
    const double b_tp = micro_throughput(ref.grids, sweep, data,
                                         PopulateKernel::Bitmap, 1, &b_secs);
    const double p_tp = micro_throughput(ref.grids, sweep, data,
                                         PopulateKernel::Packed, 1, &p_secs);
    const double ratio = b_tp / p_tp;
    std::printf("%-8zu %-10zu %-14.3e %-14.3e %.2f\n", ncdus, used_bins,
                b_tp, p_tp, ratio);
    if (ratio < 1.0) {
      crossover_bins_records = static_cast<double>(used_bins) *
                               static_cast<double>(data.num_records());
    }
  }
  if (crossover_bins_records > 0.0) {
    std::printf("bitmap stops winning below ~%.2e used-bins x records "
                "(sparse candidate sets: the index build outweighs the "
                "few lookups it replaces)\n", crossover_bins_records);
  } else {
    std::printf("bitmap won at every sweep point (crossover below "
                "4 CDUs at this record count)\n");
  }

  std::printf("\nrows appended to BENCH_populate.json "
              "(scripts/bench_gate.py compares against the committed "
              "baselines).\n");
  return e2e_speedup >= 1.0 ? 0 : 1;
}
