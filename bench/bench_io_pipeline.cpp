// I/O pipeline A/B: the driver's data passes with prefetching off vs on,
// on a deterministically I/O-bound configuration.
//
// On a warm page cache a record file reads at memcpy speed and there is
// nothing to overlap, so the workload throttles the file source to an
// emulated local-disk bandwidth (io/pipeline.hpp ThrottledSource — the
// same move mp::NetworkSimulation makes for the SP2 switch).  The
// bandwidth is CALIBRATED, not hard-coded: an unthrottled run measures the
// scan-compute seconds C and bytes B of this machine, and the throttle is
// set to B/(1.5C) so every pass is clearly read-bound (read ~ 1.5x
// compute).  Double buffering then pays max(read, compute) ~ read per pass
// instead of read + compute, predicting (1.5C + C)/1.5C ~ 1.67x end to
// end; per-sleep scheduler overshoot trims the measurement to a steady
// ~1.4x — comfortably above the 1.3x gate on any machine, because both
// sides of the ratio are dominated by the same deterministic throttle
// sleeps rather than by machine-dependent per-pass compute.
//
// Every level must be a chunked data pass for prefetching to have
// anything to overlap, so the A/B runs under a budget one byte below the
// run index: run_pmafia then rescans every level's rows in B-record
// chunks (each indexed, counted and cleared) instead of counting every
// level from one in-memory index.
//
// Two pmafia-bench-v1 rows land in BENCH_io.json (tags e2e-prefetch=off /
// e2e-prefetch=on); scripts/bench_gate.py --speedup io:... turns their
// total_seconds ratio into a hard >= 1.3x gate.  The ratio is intra-run
// (same machine, same throttle), so the gate is machine-independent.
#include "bench_common.hpp"

#include "core/mafia.hpp"
#include "datagen/generator.hpp"
#include "io/data_source.hpp"
#include "io/pipeline.hpp"
#include "io/record_file.hpp"

#include <filesystem>

namespace {

using namespace mafia;

constexpr double kMinSpeedup = 1.3;
/// Emulated read seconds per scan-compute second (see header comment).
constexpr double kReadComputeRatio = 1.5;

GeneratorConfig workload(RecordIndex records) {
  GeneratorConfig cfg;
  cfg.num_dims = 10;
  cfg.num_records = records;
  cfg.seed = 19;
  cfg.clusters.push_back(
      ClusterSpec::box({1, 4, 7}, {30, 30, 30}, {42, 42, 42}, 1.0));
  cfg.clusters.push_back(ClusterSpec::box({0, 5}, {60, 60}, {75, 75}, 1.0));
  return cfg;
}

MafiaOptions base_options() {
  MafiaOptions o;
  o.fixed_domain = {{0.0f, 100.0f}};
  o.chunk_records = 4096;
  return o;
}

}  // namespace

int main() {
  using namespace mafia;

  bench::print_header(
      "I/O pipeline — prefetching off vs on at calibrated disk bandwidth",
      "Algorithm 2: every pass reads N/p chunks of B records, then computes",
      "10-d planted clusters, per-level rescan, throttled FileSource, "
      "read ~ 1.5x compute");

  // p = 1 keeps the A/B honest on any core count: with several rank
  // threads, one rank's throttle sleep already overlaps a sibling's
  // compute at the OS level and the prefetch win would be understated.
  const int p = 1;
  // Sized so the calibrated scan compute stays at or above 0.1 s: long
  // enough for the throttle sleeps to time reliably.
  const RecordIndex records = bench::scaled(960000);
  const Dataset data = generate(workload(records));
  const std::string rec_path =
      (std::filesystem::temp_directory_path() / "mafia_bench_io.rec").string();
  write_record_file(rec_path, data, /*with_labels=*/false);
  const FileSource file(rec_path);
  MafiaOptions options = base_options();
  options.max_cdu_bytes =
      run_pmafia(file, options, p).populate_kernel.bitmap_bytes - 1;

  // ---- calibration: unthrottled run -> this machine's compute seconds
  // and bytes per full set of data passes.
  const MafiaResult cal = run_pmafia(file, options, p);
  const IoScanStats cal_io = cal.trace.io_total();
  const double compute = cal_io.compute_seconds;
  const double bandwidth =
      compute > 0.0
          ? static_cast<double>(cal_io.bytes) / (kReadComputeRatio * compute)
          : 1e9;
  std::printf("\n[calibrate] p=%d, %llu records, %zu levels: scan compute "
              "%.3f s over %.1f MB -> throttle %.1f MB/s\n",
              p, static_cast<unsigned long long>(data.num_records()),
              cal.levels.size(), compute,
              static_cast<double>(cal_io.bytes) / 1e6, bandwidth / 1e6);

  // ---- measured A/B on the throttled source.
  const ThrottledSource throttled(file, bandwidth);
  double totals[2] = {0, 0};
  std::printf("\n%-14s %-10s %-10s %-10s %-10s %s\n", "prefetch", "total(s)",
              "read(s)", "wait(s)", "compute(s)", "overlap");
  for (const bool prefetch : {false, true}) {
    MafiaOptions o = options;
    o.io.prefetch = prefetch;
    o.io.buffers = 4;
    const MafiaResult r = run_pmafia(throttled, o, p);
    totals[prefetch ? 1 : 0] = r.total_seconds;
    const IoScanStats io = r.trace.io_total();
    std::printf("%-14s %-10.3f %-10.3f %-10.3f %-10.3f %.0f%%\n",
                prefetch ? "on" : "off", r.total_seconds, io.read_seconds,
                io.wait_seconds, io.compute_seconds,
                100.0 * io.overlap_fraction());
    bench::append_bench_json("io", r,
                             prefetch ? "e2e-prefetch=on" : "e2e-prefetch=off");
  }
  std::remove(rec_path.c_str());

  const double speedup = totals[0] / totals[1];
  std::printf("\nend-to-end speedup from prefetching: %.2fx (gate: >= %.1fx)\n",
              speedup, kMinSpeedup);
  std::printf("rows appended to BENCH_io.json (scripts/bench_gate.py "
              "--speedup io:e2e-prefetch=on:e2e-prefetch=off:%.1f gates the "
              "ratio).\n", kMinSpeedup);
  return speedup >= kMinSpeedup ? 0 : 1;
}
