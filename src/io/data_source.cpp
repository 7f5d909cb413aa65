#include "io/data_source.hpp"

#include "common/timer.hpp"

namespace mafia {

void timed_scan(const DataSource& source, RecordIndex begin, RecordIndex end,
                std::size_t chunk_records, const ChunkFn& fn,
                IoScanStats& stats) {
  const std::size_t d = source.num_dims();
  const Timer scan_timer;
  IoScanStats local;
  source.scan(begin, end, chunk_records,
              [&](const Value* rows, std::size_t nrows) {
                const Timer compute;
                fn(rows, nrows);
                local.compute_seconds += compute.seconds();
                ++local.chunks;
                local.bytes += nrows * d * sizeof(Value);
              });
  local.scan_seconds = scan_timer.seconds();
  local.read_seconds = local.scan_seconds - local.compute_seconds;
  if (local.read_seconds < 0.0) local.read_seconds = 0.0;
  stats.merge(local);
}

}  // namespace mafia
