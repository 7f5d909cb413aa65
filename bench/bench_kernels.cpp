// Google-benchmark microbenchmarks of the hot kernels: the MAFIA join, the
// two dedup paths, the bitmap index build, CDU population, histogram
// accumulation, the Eq. 1 boundary solver, and the load layer (reading a
// record file, appending a batch onto a loaded base).  These complement
// the table/figure benches: when a reproduction number drifts, this pins
// down which kernel moved.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "grid/adaptive_grid.hpp"
#include "grid/histogram.hpp"
#include "grid/uniform_grid.hpp"
#include "io/dataset.hpp"
#include "io/record_file.hpp"
#include "taskpart/taskpart.hpp"
#include "units/bitmap_index.hpp"
#include "units/dedup.hpp"
#include "units/join.hpp"
#include "units/populate.hpp"

namespace {

using namespace mafia;

UnitStore synthetic_dense(std::size_t n, std::size_t k, DimId span,
                          std::uint64_t seed) {
  UnitStore s(k);
  std::uint64_t state = seed;
  std::vector<DimId> dims(k);
  std::vector<BinId> bins(k);
  for (std::size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    DimId d = static_cast<DimId>((state >> 5) % (span - k));
    for (std::size_t j = 0; j < k; ++j) {
      dims[j] = d;
      d = static_cast<DimId>(d + 1 + ((state >> (10 + 4 * j)) & 1));
      bins[j] = static_cast<BinId>((state >> (20 + 3 * j)) % 8);
    }
    s.push_unchecked(dims.data(), bins.data());
  }
  return s;
}

void BM_MafiaJoin(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const UnitStore dense = synthetic_dense(n, 3, 14, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(join_dense_units(dense, JoinRule::MafiaAnyShared));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MafiaJoin)->Range(64, 4096)->Complexity(benchmark::oNSquared);

void BM_CliqueJoin(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const UnitStore dense = synthetic_dense(n, 3, 14, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(join_dense_units(dense, JoinRule::CliquePrefix));
  }
}
BENCHMARK(BM_CliqueJoin)->Range(64, 4096);

void BM_DedupHash(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const UnitStore raw = synthetic_dense(n, 4, 16, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dedup_hash(raw));
  }
}
BENCHMARK(BM_DedupHash)->Range(256, 16384);

void BM_DedupPairwise(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const UnitStore raw = synthetic_dense(n, 4, 16, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pairwise_repeat_flags(raw, 0, raw.size()));
  }
}
BENCHMARK(BM_DedupPairwise)->Range(256, 4096);

void BM_Populate(benchmark::State& state) {
  const auto ncdu = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kDims = 16;
  constexpr std::size_t kRecords = 4096;
  const std::vector<Value> lo(kDims, 0.0f);
  const std::vector<Value> hi(kDims, 100.0f);
  const GridSet grids = compute_uniform_grids(lo, hi, 8, 0.01, kRecords);
  const UnitStore cdus = synthetic_dense(ncdu, 3, kDims, 13);

  std::vector<Value> rows(kRecords * kDims);
  std::uint64_t s = 5;
  for (auto& v : rows) {
    s = s * 6364136223846793005ull + 1;
    v = static_cast<Value>((s >> 33) % 10000) / 100.0f;
  }
  for (auto _ : state) {
    UnitPopulator pop(grids, cdus);
    pop.accumulate(rows.data(), kRecords);
    benchmark::DoNotOptimize(pop.counts());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kRecords);
}
BENCHMARK(BM_Populate)->Range(16, 2048);

// Building the bitmap index: add() bins dimensions of few bins by the edge
// sweep and dimensions of many bins by bin_of, so the bin counts span both
// sides of that choice.  Items are binned values (rows × dims).
void BM_BitmapIndexAdd(benchmark::State& state) {
  const auto bins = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kDims = 16;
  constexpr std::size_t kRecords = 1 << 16;
  const std::vector<Value> lo(kDims, 0.0f);
  const std::vector<Value> hi(kDims, 100.0f);
  const GridSet grids = compute_uniform_grids(lo, hi, bins, 0.01, kRecords);

  std::vector<Value> rows(kRecords * kDims);
  std::uint64_t s = 17;
  for (auto& v : rows) {
    s = s * 6364136223846793005ull + 1;
    v = static_cast<Value>((s >> 33) % 10000) / 100.0f;
  }
  BitmapIndex index(grids, kRecords);
  for (auto _ : state) {
    state.PauseTiming();
    index.clear();
    state.ResumeTiming();
    index.add(rows.data(), kRecords);
    benchmark::DoNotOptimize(&index);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kRecords * kDims);
}
BENCHMARK(BM_BitmapIndexAdd)->Arg(1)->Arg(3)->Arg(10)->Arg(30)->Arg(100)->Arg(256);

void BM_HistogramAccumulate(benchmark::State& state) {
  const auto dims = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kRecords = 4096;
  const std::vector<Value> lo(dims, 0.0f);
  const std::vector<Value> hi(dims, 100.0f);
  std::vector<Value> rows(kRecords * dims);
  std::uint64_t s = 9;
  for (auto& v : rows) {
    s = s * 6364136223846793005ull + 1;
    v = static_cast<Value>((s >> 33) % 10000) / 100.0f;
  }
  for (auto _ : state) {
    HistogramBuilder hb(lo, hi, 1000);
    hb.accumulate(rows.data(), kRecords);
    benchmark::DoNotOptimize(hb.counts());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kRecords);
}
BENCHMARK(BM_HistogramAccumulate)->Range(8, 64);

void BM_AdaptiveGridCompute(benchmark::State& state) {
  AdaptiveGridOptions o;
  std::vector<Count> counts(o.fine_bins);
  std::uint64_t s = 3;
  for (auto& c : counts) {
    s = s * 6364136223846793005ull + 1;
    c = 100 + (s >> 40) % 900;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        compute_adaptive_grid(0, 0.0f, 100.0f, counts, 1000000, o));
  }
}
BENCHMARK(BM_AdaptiveGridCompute);

void BM_TriangularPartition(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(triangular_partition(n, 16));
  }
}
BENCHMARK(BM_TriangularPartition)->Range(1024, 1 << 20);

// The load layer.  A record file of 300k rows x 30 dims (36 MB, the
// build-wide row shape) is read from the page cache straight into a data
// set's mapping; the append grows a base loaded that way by a 1% batch.
// Bytes are the value bytes read or appended.
constexpr std::size_t kLoadDims = 30;
constexpr std::size_t kLoadRecords = 300000;

Dataset spread_rows(std::size_t records, std::uint64_t seed) {
  Dataset data(kLoadDims);
  data.reserve(records);
  std::vector<Value> row(kLoadDims);
  for (std::size_t i = 0; i < records; ++i) {
    for (auto& v : row) {
      seed = seed * 6364136223846793005ull + 1;
      v = static_cast<Value>((seed >> 33) % 10000) / 100.0f;
    }
    data.append(row);
  }
  return data;
}

/// A record file in the temp directory, removed when the bench ends.
class TempRecordFile {
 public:
  TempRecordFile(const std::string& name, const Dataset& data)
      : path_((std::filesystem::temp_directory_path() /
               (std::to_string(::getpid()) + "_" + name))
                  .string()) {
    write_record_file(path_, data, /*with_labels=*/false);
  }
  ~TempRecordFile() { std::remove(path_.c_str()); }
  TempRecordFile(const TempRecordFile&) = delete;
  TempRecordFile& operator=(const TempRecordFile&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void BM_ReadRecordFile(benchmark::State& state) {
  const TempRecordFile file("bench_kernels_read.rec",
                            spread_rows(kLoadRecords, 5));
  for (auto _ : state) {
    const Dataset data = read_record_file(file.path());
    benchmark::DoNotOptimize(data.values().data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kLoadRecords * kLoadDims * sizeof(Value));
}
BENCHMARK(BM_ReadRecordFile)->Unit(benchmark::kMillisecond);

void BM_AppendBatchOntoBase(benchmark::State& state) {
  const TempRecordFile file("bench_kernels_base.rec",
                            spread_rows(kLoadRecords, 6));
  const Dataset batch = spread_rows(kLoadRecords / 100, 7);
  for (auto _ : state) {
    state.PauseTiming();
    Dataset data = read_record_file(file.path());
    state.ResumeTiming();
    data.append_rows(batch);
    benchmark::DoNotOptimize(data.values().data());
    benchmark::ClobberMemory();
    state.PauseTiming();
    data = Dataset{};  // unmapped outside the timed region
    state.ResumeTiming();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          batch.num_records() * kLoadDims * sizeof(Value));
}
BENCHMARK(BM_AppendBatchOntoBase)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
