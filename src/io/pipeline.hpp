// Pipelined prefetching scans — overlapping disk reads with kernel compute.
//
// Algorithm 2 structures every data pass as "read N/p chunks of B records
// and process"; with a strictly synchronous DataSource::scan each rank's
// disk read and kernel compute serialize on every pass (histogram, min/max,
// populate).  PipelinedSource decorates any DataSource with a background
// producer thread that fills a bounded ring of B-record chunk buffers while
// the consumer callback processes the previous chunk, so a pass costs
// max(read, compute) instead of read + compute — the standard double-
// buffering fix (cf. the chunked device-staging pipelines in gpumafia).
//
// Contract:
//   * Ordering — the consumer sees exactly the chunk sequence of the
//     synchronous scan (same boundaries, same bytes, same order): the
//     producer runs the inner source's own scan and the ring is drained
//     strictly FIFO.  Results are therefore bit-identical with pipelining
//     on or off; the equivalence suite pins this across sources and rank
//     counts.
//   * Concurrency — scan() stays const and re-entrant: each call owns its
//     ring and producer thread, so every SPMD rank can run its own
//     pipelined scan concurrently (p scans = p producer threads).
//   * Fault safety — an exception on either side of the ring unwinds both:
//     a producer-side failure (truncated file, injected fault) is rethrown
//     to the consumer once the drained prefix is delivered; a consumer-side
//     failure (AbortedError from a sibling rank's death, any injected
//     kill) cancels the producer, joins the thread, and rethrows the
//     original exception unchanged — never a deadlock, never a leaked
//     thread, matching the mp runtime's failure-propagation contract.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "io/data_source.hpp"

namespace mafia {

/// I/O accounting for one or more chunked scans.  read/wait/compute split:
/// `read_seconds` is producer-side time spent filling buffers (for a
/// synchronous scan: everything outside the callback), `wait_seconds` is
/// consumer-side time blocked on a buffer that was not ready yet (for a
/// synchronous scan: equal to read_seconds — nothing is hidden), and
/// `compute_seconds` is time inside the consumer callback.  The overlap
/// fraction is the share of read time hidden behind compute.
struct IoScanStats {
  std::uint64_t chunks = 0;
  std::uint64_t bytes = 0;  ///< value bytes delivered to the callback
  double read_seconds = 0.0;
  double wait_seconds = 0.0;
  double compute_seconds = 0.0;
  double scan_seconds = 0.0;  ///< whole-scan wall time

  void merge(const IoScanStats& other) {
    chunks += other.chunks;
    bytes += other.bytes;
    read_seconds += other.read_seconds;
    wait_seconds += other.wait_seconds;
    compute_seconds += other.compute_seconds;
    scan_seconds += other.scan_seconds;
  }

  /// Share of read time NOT paid for by the consumer: 0 for a synchronous
  /// scan (every read second is also a wait second), approaching 1 when
  /// prefetching hides the reads entirely.  Clamped to [0, 1] and NaN-safe:
  /// an empty partition yields a zero-length scan (all fields 0) and a
  /// timer anomaly can inject NaN, and the value feeds straight into the
  /// text report's percent cast (UB on NaN) and the JSON report — so every
  /// degenerate input must come out as 0, not NaN.  The negated
  /// comparisons are deliberate: `!(x > 0)` is true for 0, negatives, and
  /// NaN alike, where `x <= 0` would let NaN fall through.
  [[nodiscard]] double overlap_fraction() const {
    if (!(read_seconds > 0.0)) return 0.0;
    const double hidden = read_seconds - wait_seconds;
    if (!(hidden > 0.0)) return 0.0;
    return hidden >= read_seconds ? 1.0 : hidden / read_seconds;
  }

  /// Fixed-width serialization for the trace exchange (doubles bit-cast to
  /// preserve exact values across the gather).
  static constexpr std::size_t kSerializedWords = 6;
  [[nodiscard]] std::array<std::uint64_t, kSerializedWords> serialize() const {
    return {chunks,
            bytes,
            std::bit_cast<std::uint64_t>(read_seconds),
            std::bit_cast<std::uint64_t>(wait_seconds),
            std::bit_cast<std::uint64_t>(compute_seconds),
            std::bit_cast<std::uint64_t>(scan_seconds)};
  }
  [[nodiscard]] static IoScanStats deserialize(const std::uint64_t* words) {
    IoScanStats s;
    s.chunks = words[0];
    s.bytes = words[1];
    s.read_seconds = std::bit_cast<double>(words[2]);
    s.wait_seconds = std::bit_cast<double>(words[3]);
    s.compute_seconds = std::bit_cast<double>(words[4]);
    s.scan_seconds = std::bit_cast<double>(words[5]);
    return s;
  }

  [[nodiscard]] bool empty() const { return chunks == 0 && scan_seconds == 0.0; }
};

/// Prefetch-pipeline configuration (MafiaOptions::io carries one).
struct IoConfig {
  /// Run the driver's data passes through a PipelinedSource.
  bool prefetch = false;
  /// Ring depth: how many B-record chunk buffers may be in flight.  2 is
  /// classic double buffering; a deeper ring absorbs burstier reads.
  std::size_t buffers = 4;

  void validate() const {
    require(buffers >= 2, "IoConfig: prefetch ring needs at least 2 buffers");
  }
};

/// Decorator running `inner`'s scans through a background producer thread
/// and a bounded chunk-buffer ring.  See the header comment for the
/// ordering/concurrency/fault contract.
class PipelinedSource final : public DataSource {
 public:
  explicit PipelinedSource(const DataSource& inner, std::size_t buffers = 4);

  [[nodiscard]] RecordIndex num_records() const override {
    return inner_.num_records();
  }
  [[nodiscard]] std::size_t num_dims() const override {
    return inner_.num_dims();
  }

  void scan(RecordIndex begin, RecordIndex end, std::size_t chunk_records,
            const ChunkFn& fn) const override;

  /// scan() plus I/O accounting merged into `stats` (the driver feeds these
  /// into the per-phase trace).
  void scan_with_stats(RecordIndex begin, RecordIndex end,
                       std::size_t chunk_records, const ChunkFn& fn,
                       IoScanStats& stats) const;

 private:
  const DataSource& inner_;
  std::size_t buffers_;
};

/// Synchronous scan of any source with the same I/O accounting as
/// PipelinedSource::scan_with_stats: compute is time inside the callback,
/// read is everything else, and wait == read (nothing is hidden).  The
/// driver uses this for the prefetch-off path so the report's overlap
/// fraction is comparable across modes.
void timed_scan(const DataSource& source, RecordIndex begin, RecordIndex end,
                std::size_t chunk_records, const ChunkFn& fn,
                IoScanStats& stats);

/// Bandwidth-emulating decorator: delivers `inner`'s chunks unchanged but
/// stretches each chunk's delivery to bytes/bandwidth seconds (sleeping the
/// remainder after the inner read, and carrying any overshoot into the
/// next chunk's sleep), emulating the paper's local-disk bandwidth the
/// same way mp::NetworkSimulation emulates the SP2 switch.
/// bench_io_pipeline uses it to build a deterministic I/O-bound workload:
/// on a warm page cache a record file reads at memcpy speed and there
/// would be nothing to overlap.
class ThrottledSource final : public DataSource {
 public:
  ThrottledSource(const DataSource& inner, double bytes_per_second)
      : inner_(inner), bytes_per_second_(bytes_per_second) {
    require(bytes_per_second > 0.0,
            "ThrottledSource: bandwidth must be positive");
  }

  [[nodiscard]] RecordIndex num_records() const override {
    return inner_.num_records();
  }
  [[nodiscard]] std::size_t num_dims() const override {
    return inner_.num_dims();
  }

  void scan(RecordIndex begin, RecordIndex end, std::size_t chunk_records,
            const ChunkFn& fn) const override;

 private:
  const DataSource& inner_;
  double bytes_per_second_;
};

}  // namespace mafia
