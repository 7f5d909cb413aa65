#include "replay.hpp"

#include <algorithm>
#include <stdexcept>

#include "cluster/assembly.hpp"
#include "grid/adaptive_grid.hpp"
#include "grid/histogram.hpp"
#include "units/dedup.hpp"
#include "units/identify.hpp"
#include "units/join.hpp"
#include "units/populate.hpp"

namespace perfbench {

using namespace mafia;

namespace {

void register_unmarked(const UnitStore& dense,
                       const std::vector<std::uint8_t>& marked,
                       std::vector<UnitStore>& registered) {
  UnitStore reg(dense.k());
  for (std::size_t u = 0; u < dense.size(); ++u) {
    if (!marked[u]) reg.push_unchecked(dense.dims(u).data(), dense.bins(u).data());
  }
  if (!reg.empty()) registered.push_back(std::move(reg));
}

void register_all(const UnitStore& dense, std::vector<UnitStore>& registered) {
  if (!dense.empty()) registered.push_back(dense);
}

}  // namespace

ReplayResult replay_build(const DataSource& data, const MafiaOptions& opt,
                          SpanLog& log) {
  if (opt.uniform_grid || opt.mdl_pruning || opt.checkpoint.enabled() ||
      opt.append) {
    throw std::invalid_argument(
        "replay_build covers fresh adaptive-grid builds only");
  }
  ReplayResult out;
  ReplayCounters& ctr = out.counters;
  const std::size_t d = data.num_dims();
  const RecordIndex n = data.num_records();
  const auto scan_all = [&](const ChunkFn& fn) {
    data.scan(0, n, opt.chunk_records, fn);
  };

  // Grid phase: domains (unless fixed), fine histogram, Algorithm 1.
  std::vector<Value> lo(d);
  std::vector<Value> hi(d);
  if (opt.fixed_domain) {
    std::fill(lo.begin(), lo.end(), opt.fixed_domain->first);
    std::fill(hi.begin(), hi.end(), opt.fixed_domain->second);
  } else {
    SpanLog::Scope span(log, "grid.scan");
    MinMaxAccumulator mm(d);
    scan_all([&](const Value* rows, std::size_t nrows) { mm.accumulate(rows, nrows); });
    lo = mm.mins();
    hi = mm.maxs();
    ++ctr.grid_scans;
  }
  HistogramBuilder hist(lo, hi, opt.grid.fine_bins);
  {
    SpanLog::Scope span(log, "grid.scan");
    scan_all([&](const Value* rows, std::size_t nrows) { hist.accumulate(rows, nrows); });
    ++ctr.grid_scans;
  }
  {
    SpanLog::Scope span(log, "grid.build");
    out.grids = compute_adaptive_grids(lo, hi, hist, static_cast<Count>(n), opt.grid);
  }
  const GridSet& grids = out.grids;

  // Level loop, as run_pmafia runs it on one rank.
  const DensityContext dctx{opt.grid.alpha, static_cast<Count>(n)};
  UnitStore cdus(1);
  UnitStore prev_dense(1);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> parents;
  std::vector<std::uint32_t> raw_to_unique;
  std::vector<UnitStore> registered;
  for (std::size_t j = 0; j < grids.num_dims(); ++j) {
    for (std::size_t b = 0; b < grids[j].num_bins(); ++b) {
      const auto dj = static_cast<DimId>(j);
      const auto bb = static_cast<BinId>(b);
      cdus.push_unchecked(&dj, &bb);
    }
  }
  std::size_t pending_raw_count = cdus.size();
  std::size_t level = 1;
  while (true) {
    const auto id = static_cast<std::int64_t>(level);
    std::vector<Count> counts;
    {
      SpanLog::Scope span(log, "populate", id);
      UnitPopulator populator(grids, cdus, opt.populate);
      scan_all([&](const Value* rows, std::size_t nrows) {
        populator.accumulate(rows, nrows);
      });
      counts = populator.counts();  // the bitmap kernel finalizes here
      ++ctr.record_passes;
      ctr.subspaces += populator.num_subspaces();
      ctr.cdus += cdus.size();
    }
    std::vector<std::uint8_t> flags(cdus.size(), 0);
    {
      SpanLog::Scope span(log, "identify", id);
      identify_dense_units(cdus, counts, grids, opt.density, dctx, 0,
                           cdus.size(), flags);
    }
    const auto ndu = static_cast<std::size_t>(
        std::count_if(flags.begin(), flags.end(), [](std::uint8_t f) { return f != 0; }));
    LevelTrace t;
    t.level = level;
    t.ncdu_raw = pending_raw_count;
    t.ncdu = cdus.size();
    t.ndu = ndu;
    t.count_checksum = count_vector_checksum(counts);
    out.levels.push_back(std::move(t));

    if (level > 1) {
      std::vector<std::uint8_t> marked(prev_dense.size(), 0);
      for (std::size_t r = 0; r < parents.size(); ++r) {
        if (flags[raw_to_unique[r]]) {
          marked[parents[r].first] = 1;
          marked[parents[r].second] = 1;
        }
      }
      register_unmarked(prev_dense, marked, registered);
    }
    if (ndu == 0) break;

    UnitStore dense(cdus.k());
    {
      SpanLog::Scope span(log, "identify", id);
      dense = build_dense_store(cdus, flags);
    }
    if (level >= opt.max_level) {
      register_all(dense, registered);
      break;
    }
    prev_dense = std::move(dense);
    ++level;

    const bool bucketed =
        opt.join.kernel == JoinKernel::Bucketed && prev_dense.k() >= 2;
    JoinResult jr;
    {
      SpanLog::Scope span(log, "join", static_cast<std::int64_t>(level));
      jr = bucketed ? bucket_join_dense_units(prev_dense, opt.join_rule)
                    : join_dense_units(prev_dense, opt.join_rule);
    }
    ctr.join_probes += jr.stats.probes;
    ctr.join_emitted += jr.stats.emitted;
    if (jr.cdus.empty()) {
      register_all(prev_dense, registered);
      break;
    }
    parents = std::move(jr.parents);
    pending_raw_count = jr.cdus.size();
    {
      SpanLog::Scope span(log, "dedup", static_cast<std::int64_t>(level));
      DedupResult dd =
          (bucketed || opt.dedup == DedupPolicy::Hash)
              ? dedup_hash(jr.cdus)
              : dedup_from_flags(jr.cdus,
                                 pairwise_repeat_flags(jr.cdus, 0, jr.cdus.size()));
      cdus = std::move(dd.unique);
      raw_to_unique = std::move(dd.raw_to_unique);
    }
    ctr.dedup_raw += pending_raw_count;
    ctr.dedup_unique += cdus.size();
  }

  {
    SpanLog::Scope span(log, "assemble");
    out.clusters = assemble_clusters(registered);
    std::erase_if(out.clusters, [&opt](const Cluster& c) {
      return c.dims.size() < opt.min_cluster_dims;
    });
  }
  return out;
}

std::string compare_levels(const std::vector<LevelTrace>& want,
                           const std::vector<LevelTrace>& got) {
  if (want.size() != got.size()) {
    return "level count " + std::to_string(got.size()) + " != " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    const LevelTrace& a = want[i];
    const LevelTrace& b = got[i];
    if (a.level != b.level || a.ncdu_raw != b.ncdu_raw || a.ncdu != b.ncdu ||
        a.ndu != b.ndu || a.count_checksum != b.count_checksum) {
      return "level " + std::to_string(a.level) + " differs (ncdu " +
             std::to_string(b.ncdu) + " vs " + std::to_string(a.ncdu) +
             ", ndu " + std::to_string(b.ndu) + " vs " + std::to_string(a.ndu) +
             ", checksum " + std::to_string(b.count_checksum) + " vs " +
             std::to_string(a.count_checksum) + ")";
    }
  }
  return {};
}

bool clusters_equal(const std::vector<Cluster>& a, const std::vector<Cluster>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t c = 0; c < a.size(); ++c) {
    const Cluster& x = a[c];
    const Cluster& y = b[c];
    if (x.dims != y.dims || x.units.k() != y.units.k() ||
        x.units.dim_bytes() != y.units.dim_bytes() ||
        x.units.bin_bytes() != y.units.bin_bytes() || x.dnf.size() != y.dnf.size()) {
      return false;
    }
    for (std::size_t r = 0; r < x.dnf.size(); ++r) {
      if (x.dnf[r].lo != y.dnf[r].lo || x.dnf[r].hi != y.dnf[r].hi) return false;
    }
  }
  return true;
}

}  // namespace perfbench
