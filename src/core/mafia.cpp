#include "core/mafia.hpp"

#include <algorithm>
#include <map>
#include <optional>

#include "cluster/assembly.hpp"
#include "core/checkpoint.hpp"
#include "core/mdl.hpp"
#include "core/result_codec.hpp"
#include "core/trace.hpp"
#include "common/math_util.hpp"
#include "grid/uniform_grid.hpp"
#include "io/pipeline.hpp"
#include "mp/comm.hpp"
#include "taskpart/taskpart.hpp"
#include "units/populate.hpp"

namespace mafia {

namespace {

/// True when `a` and `b` induce the same record-to-bin mapping: equal
/// domains, edges, and fallback status per dimension.  Thresholds are
/// deliberately excluded — they scale with the record count and only feed
/// identify, which the append path always recomputes fresh.  This is the
/// reuse precondition for stored per-unit counts: identical binning means
/// the base records land in the same units they were counted in.
bool grids_binning_equal(const GridSet& a, const GridSet& b) {
  if (a.num_dims() != b.num_dims()) return false;
  for (std::size_t j = 0; j < a.num_dims(); ++j) {
    const DimensionGrid& x = a[j];
    const DimensionGrid& y = b[j];
    if (x.dim != y.dim || x.domain_lo != y.domain_lo ||
        x.domain_hi != y.domain_hi ||
        x.uniform_fallback != y.uniform_fallback || x.edges != y.edges) {
      return false;
    }
  }
  return true;
}

/// Byte-level equality of two unit stores (same k, same dim/bin rows in
/// the same order).
bool stores_equal(const UnitStore& a, const UnitStore& b) {
  if (a.k() != b.k() || a.size() != b.size()) return false;
  for (std::size_t u = 0; u < a.size(); ++u) {
    if (!a.equal(u, b, u)) return false;
  }
  return true;
}

/// One SPMD rank executing Algorithm 2.  All ranks run identical code; the
/// only rank-dependent state is the data partition and the task-partition
/// index ranges.  Everything globalized by a collective is bit-identical on
/// every rank, so the final cluster assembly is redundantly computed and
/// rank 0's copy is returned.
class MafiaWorker {
 public:
  MafiaWorker(const DataSource& data, const MafiaOptions& opt, mp::Comm& comm)
      : data_(data), opt_(opt), comm_(comm), tracer_(&comm.stats()) {
    // Each rank owns its pipeline decorator: every scan_local then spawns
    // its own producer thread over its own ring, so p ranks prefetch their
    // p partitions independently (the paper's p local disks).
    if (opt_.io.prefetch) pipelined_.emplace(data_, opt_.io.buffers);
  }

  void run() {
    const int p = comm_.size();
    const int rank = comm_.rank();
    const RecordIndex n = data_.num_records();
    my_records_ = block_partition(static_cast<std::size_t>(n),
                                  static_cast<std::size_t>(p),
                                  static_cast<std::size_t>(rank));

    if (opt_.append) {
      // Append mode: load the base run's final checkpoint, rebuild grids
      // incrementally where the stored state allows, and run the level
      // loop with the stored memo as an accelerator.  The loop body is the
      // same as a fresh run's, so the result is bit-identical to a full
      // rebuild on the concatenated data whether or not anything reuses.
      const std::size_t batch =
          static_cast<std::size_t>(n) -
          static_cast<std::size_t>(opt_.append->base_records);
      const BlockRange br = block_partition(batch, static_cast<std::size_t>(p),
                                            static_cast<std::size_t>(rank));
      my_batch_.begin =
          static_cast<std::size_t>(opt_.append->base_records) + br.begin;
      my_batch_.end =
          static_cast<std::size_t>(opt_.append->base_records) + br.end;
      append_setup();
      build_grids_append();
      collect_memo_ = true;
      level_loop(nullptr);
      write_final_state();
    } else {
      // Resume is decided collectively (the checkpoint blob is broadcast),
      // so either every rank restores the same level boundary or none does.
      std::optional<CheckpointState> restored = maybe_resume();
      if (restored) {
        grids_ = std::move(restored->grids);
        trace_ = std::move(restored->levels);
        registered_ = std::move(restored->registered);
        populate_stats_ = restored->populate;
        join_stats_ = restored->join_kernel;
      } else {
        build_grids();
      }
      // A resumed run never saw the early levels, so its final checkpoint
      // carries no append memo (append then falls back to full scans).
      collect_memo_ = opt_.checkpoint.enabled() && !restored;
      level_loop(restored ? &*restored : nullptr);
      write_final_state();
    }
    {
      PhaseTracer::Scope sp(tracer_, "assemble");
      clusters_ = assemble_clusters(registered_);
      std::erase_if(clusters_, [this](const Cluster& c) {
        return c.dims.size() < opt_.min_cluster_dims;
      });
    }
    // Globalize the per-rank trace: cross-rank phase maxima on every rank,
    // the full per-rank breakdown on the parent.  Every collective before
    // this point sits inside a phase scope, so the per-phase comm deltas
    // sum exactly to the totals snapshotted here.
    run_trace_ = exchange_trace(tracer_, comm_);
  }

  // Outputs (read after run()).
  GridSet grids_;
  std::vector<LevelTrace> trace_;
  std::vector<Cluster> clusters_;
  std::vector<UnitStore> registered_;
  RunTrace run_trace_;
  PopulateKernelStats populate_stats_;
  JoinKernelStats join_stats_;
  RecoveryInfo recovery_;
  AppendStats append_stats_;

 private:
  // ----------------------------------------------------------- grid phase

  void build_grids() {
    const std::size_t d = data_.num_dims();
    const auto n = static_cast<Count>(data_.num_records());

    // Attribute domains: fixed, or learned with a min/max pass + Reduce.
    std::vector<Value> lo(d);
    std::vector<Value> hi(d);
    if (opt_.fixed_domain) {
      std::fill(lo.begin(), lo.end(), opt_.fixed_domain->first);
      std::fill(hi.begin(), hi.end(), opt_.fixed_domain->second);
    } else {
      PhaseTracer::Scope sp(tracer_, "histogram");
      MinMaxAccumulator mm(d);
      scan_local("histogram", [&](const Value* rows, std::size_t nrows) {
        mm.accumulate(rows, nrows);
      });
      comm_.allreduce_min(mm.mins());
      comm_.allreduce_max(mm.maxs());
      lo = mm.mins();
      hi = mm.maxs();
    }

    if (opt_.uniform_grid) {
      // CLIQUE-style grid: no histogram needed.
      PhaseTracer::Scope sp(tracer_, "grid");
      const auto& ug = *opt_.uniform_grid;
      if (!ug.bins_per_dim.empty()) {
        require(ug.bins_per_dim.size() == d,
                "MafiaOptions: bins_per_dim size mismatch");
        grids_ = compute_uniform_grids(lo, hi, ug.bins_per_dim, ug.tau_fraction, n);
      } else {
        grids_ = compute_uniform_grids(lo, hi, ug.xi, ug.tau_fraction, n);
      }
      if (opt_.checkpoint.enabled()) {
        domain_lo_ = lo;
        domain_hi_ = hi;
      }
      return;
    }

    // Algorithm 2: "build a histogram in each dimension; Reduce
    // communication to get the global histogram; determine adaptive
    // intervals ... and also fix the threshold level."
    HistogramBuilder hist(lo, hi, opt_.grid.fine_bins);
    {
      PhaseTracer::Scope sp(tracer_, "histogram");
      scan_local("histogram", [&](const Value* rows, std::size_t nrows) {
        hist.accumulate(rows, nrows);
      });
      comm_.allreduce_sum(hist.counts());
    }
    if (opt_.checkpoint.enabled()) {
      domain_lo_ = lo;
      domain_hi_ = hi;
      hist_counts_ = hist.counts();  // global after the allreduce
    }
    {
      PhaseTracer::Scope sp(tracer_, "grid");
      grids_ = compute_adaptive_grids(lo, hi, hist, n, opt_.grid);
    }
  }

  // ----------------------------------------------------------- append mode

  /// Collective load of the base run's final checkpoint, fingerprinted for
  /// the base record count (every result-affecting option must match the
  /// base run; the record counts differ by exactly the batch).  Rank 0
  /// reads, everyone receives the broadcast blob; an empty blob means no
  /// usable base state, which is an input error on every rank — append
  /// cannot proceed without the thing it appends to.
  void append_setup() {
    PhaseTracer::Scope sp(tracer_, "checkpoint");
    recovery_.checkpoint_enabled = true;
    append_stats_.performed = true;
    const auto n_total = static_cast<std::uint64_t>(data_.num_records());
    const auto dims = static_cast<std::uint32_t>(data_.num_dims());
    const std::uint64_t base_fp =
        checkpoint_fingerprint(opt_, opt_.append->base_records, dims);
    // The final checkpoint this run writes covers the concatenated data.
    fingerprint_ = checkpoint_fingerprint(opt_, n_total, dims);

    std::vector<std::uint8_t> blob;
    if (comm_.is_parent()) {
      const CheckpointScan scan =
          load_final_checkpoint(opt_.checkpoint.directory, base_fp);
      recovery_.checkpoints_discarded =
          static_cast<std::size_t>(scan.discarded);
      if (scan.state) blob = serialize_checkpoint(*scan.state);
    }
    comm_.bcast(blob);
    require_input(!blob.empty(),
                  "append: no valid final checkpoint for the base data under " +
                      opt_.checkpoint.directory +
                      " (run a checkpointed cluster first, with matching "
                      "options)");
    append_base_ = deserialize_checkpoint(blob.data(), blob.size());
  }

  /// Grid phase of an append run.  Domains and the fine histogram are
  /// exact under concatenation (min/max and integer sums are associative),
  /// so when the stored state carries them only the batch is scanned;
  /// otherwise the full concatenated data is — either way the inputs to
  /// compute_adaptive_grids are bit-identical to a fresh run's, and so are
  /// the grids.  The level-reuse chain is then armed only if the fresh
  /// grids bin records exactly like the stored ones.
  void build_grids_append() {
    const std::size_t d = data_.num_dims();
    const auto n = static_cast<Count>(data_.num_records());
    const CheckpointState& base = *append_base_;
    const bool have_base_domain =
        base.domain_lo.size() == d && base.domain_hi.size() == d;

    std::vector<Value> lo(d);
    std::vector<Value> hi(d);
    if (opt_.fixed_domain) {
      std::fill(lo.begin(), lo.end(), opt_.fixed_domain->first);
      std::fill(hi.begin(), hi.end(), opt_.fixed_domain->second);
    } else {
      PhaseTracer::Scope sp(tracer_, "histogram");
      MinMaxAccumulator mm(d);
      if (have_base_domain) {
        scan_batch("histogram", [&](const Value* rows, std::size_t nrows) {
          mm.accumulate(rows, nrows);
        });
      } else {
        scan_local("histogram", [&](const Value* rows, std::size_t nrows) {
          mm.accumulate(rows, nrows);
        });
      }
      comm_.allreduce_min(mm.mins());
      comm_.allreduce_max(mm.maxs());
      lo = mm.mins();
      hi = mm.maxs();
      if (have_base_domain) {
        // Fold the stored base extrema in: min/max are exact, so this
        // equals a full scan of the concatenated data.
        for (std::size_t j = 0; j < d; ++j) {
          lo[j] = std::min(lo[j], base.domain_lo[j]);
          hi[j] = std::max(hi[j], base.domain_hi[j]);
        }
      }
    }

    if (opt_.uniform_grid) {
      PhaseTracer::Scope sp(tracer_, "grid");
      const auto& ug = *opt_.uniform_grid;
      if (!ug.bins_per_dim.empty()) {
        require(ug.bins_per_dim.size() == d,
                "MafiaOptions: bins_per_dim size mismatch");
        grids_ = compute_uniform_grids(lo, hi, ug.bins_per_dim,
                                       ug.tau_fraction, n);
      } else {
        grids_ = compute_uniform_grids(lo, hi, ug.xi, ug.tau_fraction, n);
      }
      domain_lo_ = lo;
      domain_hi_ = hi;
      arm_append_chain();
      return;
    }

    HistogramBuilder hist(lo, hi, opt_.grid.fine_bins);
    // Stored fine counts are reusable only if the histogram geometry is
    // unchanged: same domains (cell widths) and same cell count.
    const bool hist_incremental =
        have_base_domain && lo == base.domain_lo && hi == base.domain_hi &&
        base.hist_counts.size() == d * opt_.grid.fine_bins;
    {
      PhaseTracer::Scope sp(tracer_, "histogram");
      if (hist_incremental) {
        scan_batch("histogram", [&](const Value* rows, std::size_t nrows) {
          hist.accumulate(rows, nrows);
        });
      } else {
        scan_local("histogram", [&](const Value* rows, std::size_t nrows) {
          hist.accumulate(rows, nrows);
        });
      }
      comm_.allreduce_sum(hist.counts());
      // Seed after the allreduce: the base counts are already global, so
      // they must enter the sum exactly once, not once per rank.
      if (hist_incremental) hist.seed_counts(base.hist_counts);
    }
    domain_lo_ = lo;
    domain_hi_ = hi;
    hist_counts_ = hist.counts();
    {
      PhaseTracer::Scope sp(tracer_, "grid");
      grids_ = compute_adaptive_grids(lo, hi, hist, n, opt_.grid);
    }
    arm_append_chain();
  }

  /// Arms the level-reuse chain: stored per-level counts are valid only
  /// when the fresh grids bin records exactly like the stored ones, and
  /// the memo must cover the run from level 1 (resumed base runs don't).
  void arm_append_chain() {
    append_chain_ = !append_base_->memo.empty() &&
                    append_base_->memo.front().level == 1 &&
                    grids_binning_equal(grids_, append_base_->grids);
  }

  /// The stored memo entry for `level`, or nullptr.  Entries are pushed
  /// once per executed level, so entry i covers level i + 1; the byte-level
  /// store comparison is a defensive invariant check (the chain logic
  /// guarantees it, corruption or a logic regression breaks the chain
  /// instead of corrupting counts).
  const AppendLevelMemo* base_memo(std::size_t level, const UnitStore& cdus) {
    if (!append_chain_) return nullptr;
    const auto& memo = append_base_->memo;
    if (level > memo.size() || memo[level - 1].level != level) return nullptr;
    const AppendLevelMemo* m = &memo[level - 1];
    if (m->counts.size() != cdus.size() || !stores_equal(m->cdus, cdus)) {
      append_chain_ = false;
      return nullptr;
    }
    return m;
  }

  /// Writes the final (complete) checkpoint after the level loop: the
  /// run's full outputs plus the append-base sections (domains, global
  /// fine histogram, per-level memo, provenance).  Atomic rename, so a
  /// kill at any point — including mid-append — leaves the previous final
  /// state intact and the operation simply reruns.
  void write_final_state() {
    if (!opt_.checkpoint.enabled()) return;
    PhaseTracer::Scope sp(tracer_, "checkpoint");
    if (!comm_.is_parent()) return;
    CheckpointState st;
    st.fingerprint = fingerprint_;
    st.num_records = static_cast<std::uint64_t>(data_.num_records());
    st.num_dims = static_cast<std::uint32_t>(data_.num_dims());
    st.level = trace_.empty() ? 1 : trace_.back().level;
    st.grids = grids_;
    st.levels = trace_;
    st.registered = registered_;
    st.populate = populate_stats_;
    st.join_kernel = join_stats_;
    st.complete = 1;
    st.domain_lo = domain_lo_;
    st.domain_hi = domain_hi_;
    st.hist_counts = hist_counts_;
    st.memo = memo_;
    st.provenance.reserve(opt_.checkpoint.provenance.size());
    for (const auto& [path, records] : opt_.checkpoint.provenance) {
      st.provenance.push_back({path, records});
    }
    write_final_checkpoint(opt_.checkpoint.directory, st);
    ++recovery_.checkpoints_written;
  }

  // ----------------------------------------------------------- level loop

  void level_loop(CheckpointState* restored) {
    const int p = comm_.size();
    const int rank = comm_.rank();
    const auto n = static_cast<Count>(data_.num_records());
    const DensityContext dctx{opt_.grid.alpha, n};

    UnitStore cdus(1);
    UnitStore prev_dense(1);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> parents;
    std::vector<std::uint32_t> raw_to_unique;
    std::size_t pending_raw_count = 0;
    // Stats of the join that produced the current `cdus` (pushed into the
    // LevelTrace once the level's counts are known, then folded into the
    // run totals).  Kernel: 0 = no join yet (level 1), 1 = pairwise,
    // 2 = bucketed.
    JoinStats pending_join;
    std::uint8_t pending_join_kernel = 0;
    std::size_t level = 1;
    // Packed and Memcmp rescan the records every level; Auto and Bitmap
    // count every level from the run index.
    const bool rescan_kernel = opt_.populate.kernel == PopulateKernel::Packed ||
                               opt_.populate.kernel == PopulateKernel::Memcmp;

    if (restored != nullptr) {
      // Continue from the restored level boundary — the state here is
      // exactly what the uninterrupted run carried into this iteration.
      level = static_cast<std::size_t>(restored->level);
      pending_raw_count = static_cast<std::size_t>(restored->pending_raw_count);
      pending_join = restored->pending_join;
      pending_join_kernel = restored->pending_join_kernel;
      cdus = std::move(restored->cdus);
      prev_dense = std::move(restored->prev_dense);
      parents = std::move(restored->parents);
      raw_to_unique = std::move(restored->raw_to_unique);
    } else {
      // "Set candidate dense units to the bins found in each dimension."
      for (std::size_t j = 0; j < grids_.num_dims(); ++j) {
        for (std::size_t b = 0; b < grids_[j].num_bins(); ++b) {
          const auto dj = static_cast<DimId>(j);
          const auto bb = static_cast<BinId>(b);
          cdus.push_unchecked(&dj, &bb);
        }
      }
      pending_raw_count = cdus.size();
    }

    while (true) {
      check_cdu_budget(level, cdus.size(), cdus.k(), /*with_counts=*/true);
      // Fresh memo entry: the entering state of this iteration (counts and
      // flags are filled in once computed below).  This is what the final
      // checkpoint hands to a future append run.
      if (collect_memo_) {
        AppendLevelMemo fm;
        fm.level = level;
        fm.cdus = cdus;
        fm.parents = parents;
        fm.raw_to_unique = raw_to_unique;
        fm.pending_raw_count = pending_raw_count;
        fm.pending_join = pending_join;
        fm.pending_join_kernel = pending_join_kernel;
        memo_.push_back(std::move(fm));
      }
      // Append reuse: with the chain intact this level's candidate set is
      // provably the stored one, so its counts are the stored global
      // counts plus a batch-only populate pass.
      const AppendLevelMemo* base = base_memo(level, cdus);
      // ---- Populate candidates (data parallel): each rank counts its N/p
      // records — from the run index, or by rescanning them in B-record
      // chunks — then Reduce globalizes the counts.
      const BitmapIndex* index =
          rescan_kernel ? nullptr : &run_index(level, base != nullptr);
      UnitPopulator populator(grids_, cdus, opt_.populate, index);
      if (rescan_kernel) {
        // The lookup tables join the budget, sized for the worst-case
        // partition, not this rank's, so the collective guard throws on
        // every rank or none.
        check_budget(level, populator.auxiliary_component(),
                     populator.auxiliary_bytes(ceil_div(
                         static_cast<std::size_t>(n),
                         static_cast<std::size_t>(p))));
      }
      {
        PhaseTracer::Scope sp(tracer_, "populate");
        if (rescan_kernel) {
          const ChunkFn accumulate = [&](const Value* rows, std::size_t nrows) {
            populator.accumulate(rows, nrows);
          };
          if (base != nullptr) {
            scan_batch("populate", accumulate);
          } else {
            scan_local("populate", accumulate);
          }
        }
        comm_.allreduce_sum(populator.counts());
        // Seed AFTER the allreduce: the stored counts are already global,
        // so they must enter the sum exactly once, not once per rank.
        if (base != nullptr) populator.seed_counts(base->counts);
      }
      if (opt_.append) {
        ++(base != nullptr ? append_stats_.levels_reused
                           : append_stats_.levels_rerun);
      }
      // Merge kernel stats only after counts() finalized the scan (the
      // bitmap kernel's AND-work counter is filled by that finalization).
      populate_stats_.merge(populator.kernel_stats());

      // ---- Identify dense units (task parallel, Algorithm 5).
      std::vector<std::uint8_t> flags(cdus.size(), 0);
      {
        PhaseTracer::Scope sp(tracer_, "identify");
        if (cdus.size() > opt_.tau && p > 1) {
          const BlockRange r = block_partition(cdus.size(),
                                               static_cast<std::size_t>(p),
                                               static_cast<std::size_t>(rank));
          identify_dense_units(cdus, populator.counts(), grids_, opt_.density,
                               dctx, r.begin, r.end, flags);
          comm_.allreduce_or(flags);
        } else {
          identify_dense_units(cdus, populator.counts(), grids_, opt_.density,
                               dctx, 0, cdus.size(), flags);
        }
      }
      if (opt_.mdl_pruning) apply_mdl_pruning(cdus, populator.counts(), flags);

      // Append: compare the fresh dense flags against the stored ones.  Any
      // divergence means the next level's candidate set differs from the
      // stored run's, so the reuse chain ends here — every later level runs
      // the real join and full scans.  Identical flags keep the chain
      // intact (the join is a pure function of the dense set).
      if (base != nullptr) {
        for (std::size_t i = 0; i < flags.size(); ++i) {
          append_stats_.units_promoted += (flags[i] != 0 && base->flags[i] == 0);
          append_stats_.units_demoted += (flags[i] == 0 && base->flags[i] != 0);
        }
        if (flags != base->flags) append_chain_ = false;
      }
      if (collect_memo_) {
        memo_.back().counts = populator.counts();
        memo_.back().flags = flags;
      }

      std::size_t ndu = 0;
      for (const std::uint8_t f : flags) ndu += (f != 0);

      {
        LevelTrace t;
        t.level = level;
        t.ncdu_raw = pending_raw_count;
        t.ncdu = cdus.size();
        t.ndu = ndu;
        t.count_checksum = count_vector_checksum(populator.counts());
        t.join_buckets = pending_join.buckets;
        t.join_probes = pending_join.probes;
        t.join_emitted = pending_join.emitted;
        t.join_repeats_fused = pending_join.repeats_fused;
        switch (populator.effective_kernel()) {
          case PopulateKernel::Bitmap: t.populate_kernel = kPopulateKernelBitmap; break;
          case PopulateKernel::Memcmp: t.populate_kernel = kPopulateKernelMemcmp; break;
          default: t.populate_kernel = kPopulateKernelPacked; break;
        }
        t.bitmap_bytes = populator.kernel_stats().bitmap_bytes;
        t.bitmap_words_anded = populator.kernel_stats().bitmap_words_anded;
        trace_.push_back(std::move(t));
      }
      if (pending_join_kernel != 0) {
        join_stats_.bucketed_levels += (pending_join_kernel == 2);
        join_stats_.pairwise_levels += (pending_join_kernel == 1);
        join_stats_.buckets += pending_join.buckets;
        join_stats_.probes += pending_join.probes;
        join_stats_.emitted += pending_join.emitted;
        join_stats_.repeats_fused += pending_join.repeats_fused;
        pending_join = JoinStats{};
        pending_join_kernel = 0;
      }

      // ---- Register maximal units of the previous level: a (k−1)-dim
      // dense unit whose every candidate child failed the density test (or
      // that produced no candidates) is a maximal dense region.
      if (level > 1) {
        std::vector<std::uint8_t> marked(prev_dense.size(), 0);
        for (std::size_t r = 0; r < parents.size(); ++r) {
          if (flags[raw_to_unique[r]]) {
            marked[parents[r].first] = 1;
            marked[parents[r].second] = 1;
          }
        }
        register_unmarked(prev_dense, marked);
      }

      if (ndu == 0) break;  // "while (no more dense units are found)"

      // ---- Build dense-unit data structures (task parallel, Algorithm 6).
      UnitStore dense(cdus.k());
      {
        PhaseTracer::Scope sp(tracer_, "identify");
        if (ndu > opt_.tau && p > 1) {
          // "A linear search over the dense unit array is required to
          // determine the start and end indices ... for equal task
          // distribution" — then ranks' pieces concatenate in rank order.
          const auto bounds = flag_balanced_partition(flags,
                                                      static_cast<std::size_t>(p));
          const UnitStore local = build_dense_store(
              cdus, flags, bounds[static_cast<std::size_t>(rank)],
              bounds[static_cast<std::size_t>(rank) + 1]);
          auto dim_bytes = comm_.gatherv(local.dim_bytes());
          auto bin_bytes = comm_.gatherv(local.bin_bytes());
          comm_.bcast(dim_bytes);
          comm_.bcast(bin_bytes);
          dense = UnitStore::from_bytes(cdus.k(), std::move(dim_bytes),
                                        std::move(bin_bytes));
        } else {
          dense = build_dense_store(cdus, flags);
        }
      }

      if (level >= opt_.max_level) {
        register_all(dense);
        break;
      }

      // ---- Find candidate dense units for the next level (Algorithm 3).
      prev_dense = std::move(dense);
      ++level;
      // Append: with the chain still intact the stored run generated this
      // level from the identical dense set, so the join's entering state
      // (unique CDUs, parents, dedup map, work counters) is replayed from
      // the memo instead of recomputed — the join is a pure function of the
      // dense set and the join rule, both unchanged.  The skipped
      // record_unjoined is restored from the stored trace for the same
      // reason.  When the memo has no entry for this level the stored run
      // terminated here, and the real join below reproduces that
      // termination identically.
      if (append_chain_ && level <= append_base_->memo.size() &&
          append_base_->memo[level - 1].level == level) {
        const AppendLevelMemo& m = append_base_->memo[level - 1];
        cdus = m.cdus;
        parents = m.parents;
        raw_to_unique = m.raw_to_unique;
        pending_raw_count = m.pending_raw_count;
        pending_join = m.pending_join;
        pending_join_kernel = m.pending_join_kernel;
        for (const LevelTrace& t : append_base_->levels) {
          if (t.level == level - 1) {
            trace_.back().unjoined_dus = t.unjoined_dus;
            trace_.back().unjoined_units = t.unjoined_units;
            break;
          }
        }
        continue;
      }
      // Kernel selection: the bucketed index needs a non-empty
      // sub-signature, so (k−1)-dim parents with k−1 == 1 (one global
      // bucket — all pair work on one rank) fall back to the pairwise
      // triangular scan, which Eq. 1 balances exactly.
      const bool bucketed =
          opt_.join.kernel == JoinKernel::Bucketed && prev_dense.k() >= 2;
      if (bucketed) {
        // The bucket index is the join's auxiliary memory; budget it before
        // any rank starts building (the estimate is deterministic, so the
        // guard stays collective).
        check_budget(level, "join bucket index",
                     JoinBucketIndex::estimate_bytes(
                         prev_dense.size(), prev_dense.k(), opt_.join_rule));
      }
      UnitStore raw(level);
      std::vector<std::uint8_t> combined;
      {
        PhaseTracer::Scope sp(tracer_, "join");
        if (prev_dense.size() > opt_.tau && p > 1) {
          JoinResult jr;
          if (bucketed) {
            // Every rank builds the identical index over the replicated
            // dense store; bucket ranges are balanced by per-bucket pair
            // work, the bucketed analogue of Eq. 1's row ranges.
            const JoinBucketIndex index(prev_dense, opt_.join_rule);
            const auto bounds = weight_balanced_partition(
                index.bucket_work(), static_cast<std::size_t>(p));
            jr = index.join_range(bounds[static_cast<std::size_t>(rank)],
                                  bounds[static_cast<std::size_t>(rank) + 1]);
          } else {
            const auto bounds =
                opt_.optimal_task_partition
                    ? triangular_partition(prev_dense.size(),
                                           static_cast<std::size_t>(p))
                    : block_bounds(prev_dense.size(), p);
            jr = join_dense_units(prev_dense, opt_.join_rule,
                                  bounds[static_cast<std::size_t>(rank)],
                                  bounds[static_cast<std::size_t>(rank) + 1]);
          }
          // "CDUs generated by the processors are communicated to the
          // parent processor which concatenates the CDU dimension and bin
          // arrays in the rank order ... This information is broadcast."
          auto dim_bytes = comm_.gatherv(jr.cdus.dim_bytes());
          auto bin_bytes = comm_.gatherv(jr.cdus.bin_bytes());
          std::vector<std::uint64_t> packed(jr.parents.size());
          for (std::size_t i = 0; i < jr.parents.size(); ++i) {
            packed[i] = (static_cast<std::uint64_t>(jr.parents[i].first) << 32) |
                        jr.parents[i].second;
          }
          auto parent_bytes = comm_.gatherv(packed);
          comm_.bcast(dim_bytes);
          comm_.bcast(bin_bytes);
          comm_.bcast(parent_bytes);
          raw = UnitStore::from_bytes(level, std::move(dim_bytes),
                                      std::move(bin_bytes));
          parents.resize(parent_bytes.size());
          for (std::size_t i = 0; i < parent_bytes.size(); ++i) {
            parents[i] = {static_cast<std::uint32_t>(parent_bytes[i] >> 32),
                          static_cast<std::uint32_t>(parent_bytes[i])};
          }
          // Globalize the work counters (bucket ranges partition the index,
          // so the bucket sum is the index's bucket count).
          std::vector<std::uint64_t> sv{jr.stats.buckets, jr.stats.probes,
                                        jr.stats.emitted};
          comm_.allreduce_sum(sv);
          pending_join = JoinStats{sv[0], sv[1], sv[2], 0};
          // Globalize the combined flags: a dense unit is unjoined only if
          // no rank's join range paired it.
          combined = std::move(jr.combined);
          comm_.allreduce_or(combined);
          // The bucketed ranks emitted in bucket-major order; restoring the
          // packed-parent order makes the concatenated sequence exactly the
          // pairwise scan's, so everything downstream (dedup order, parent
          // marking, checksums) is bit-identical across kernels.
          if (bucketed) sort_cdus_by_parents(raw, parents);
        } else {
          JoinResult jr = bucketed
                              ? bucket_join_dense_units(prev_dense, opt_.join_rule)
                              : join_dense_units(prev_dense, opt_.join_rule);
          raw = std::move(jr.cdus);
          parents = std::move(jr.parents);
          pending_join = jr.stats;
          combined = std::move(jr.combined);
        }
        pending_join_kernel = bucketed ? 2 : 1;
      }

      // gpumafia's find_unjoined_dus: record, on the level the dense units
      // came from, every unit the join paired into no candidate (the
      // paper's "dense units which could not be combined" — they are also
      // registered as maximal below, since no child can mark them).
      record_unjoined(prev_dense, combined);

      if (raw.empty()) {
        // No unit could combine: every previous dense unit is maximal.
        register_all(prev_dense);
        break;
      }
      pending_raw_count = raw.size();
      check_cdu_budget(level, raw.size(), raw.k(), /*with_counts=*/false);

      // ---- Eliminate repeated CDUs (Algorithm 4).
      {
        PhaseTracer::Scope sp(tracer_, "dedup");
        DedupResult dd;
        if (bucketed || opt_.dedup == DedupPolicy::Hash) {
          // Under the bucketed kernel repeat elimination is fused: one hash
          // pass over the parent-ordered emissions replaces the pairwise
          // O(Ncdu²) repeat scan regardless of DedupPolicy (which stays
          // meaningful for the pairwise kernel's fidelity/ablation runs).
          dd = dedup_hash(raw);
          if (bucketed) pending_join.repeats_fused = dd.num_repeats;
        } else if (raw.size() > opt_.tau && p > 1) {
          const auto bounds =
              opt_.optimal_task_partition
                  ? triangular_partition(raw.size(), static_cast<std::size_t>(p))
                  : block_bounds(raw.size(), p);
          auto repeat = pairwise_repeat_flags(
              raw, bounds[static_cast<std::size_t>(rank)],
              bounds[static_cast<std::size_t>(rank) + 1]);
          comm_.allreduce_or(repeat);
          dd = dedup_from_flags(raw, repeat);
        } else {
          dd = dedup_from_flags(raw,
                                pairwise_repeat_flags(raw, 0, raw.size()));
        }
        cdus = std::move(dd.unique);
        raw_to_unique = std::move(dd.raw_to_unique);
      }

      // ---- Level boundary: the loop-carried state above is everything the
      // next iteration needs, so this is the recovery point.  Rank 0 writes;
      // every rank opens the phase scope (the trace exchange requires
      // identical phase sets on all ranks).  Append runs skip per-level
      // writes — they publish one final checkpoint atomically at the end,
      // so a crash mid-append leaves the base state untouched.
      if (opt_.checkpoint.enabled() && !opt_.append) {
        PhaseTracer::Scope sp(tracer_, "checkpoint");
        if (comm_.is_parent()) {
          CheckpointState state;
          state.fingerprint = fingerprint_;
          state.num_records = static_cast<std::uint64_t>(n);
          state.num_dims = static_cast<std::uint32_t>(data_.num_dims());
          state.level = level;
          state.pending_raw_count = pending_raw_count;
          state.pending_join = pending_join;
          state.pending_join_kernel = pending_join_kernel;
          state.join_kernel = join_stats_;
          state.cdus = cdus;
          state.prev_dense = prev_dense;
          state.parents = parents;
          state.raw_to_unique = raw_to_unique;
          state.grids = grids_;
          state.levels = trace_;
          state.registered = registered_;
          state.populate = populate_stats_;
          write_checkpoint_file(opt_.checkpoint.directory, state);
          ++recovery_.checkpoints_written;
        }
      }
    }
  }

  /// The run index `level` counts from: over this rank's append batch
  /// while the level reuses stored counts, over its whole partition
  /// otherwise.  Built on first use with one record pass, and charged to
  /// the budget then, sized for the worst-case partition so the guard
  /// throws on every rank or none.  An append whose reuse chain breaks
  /// swaps the batch index for the full one once; the chain never resumes.
  const BitmapIndex& run_index(std::size_t level, bool batch_only) {
    if (index_ && index_batch_only_ == batch_only) return *index_;
    PhaseTracer::Scope sp(tracer_, "populate");
    const BlockRange& range = batch_only ? my_batch_ : my_records_;
    const std::size_t records =
        static_cast<std::size_t>(data_.num_records()) -
        (batch_only ? static_cast<std::size_t>(opt_.append->base_records) : 0);
    check_budget(level, "populate bitmap index",
                 BitmapIndex::bytes_for(
                     grids_.total_bins(),
                     ceil_div(records, static_cast<std::size_t>(comm_.size()))));
    index_.emplace(grids_, range.end - range.begin);
    index_batch_only_ = batch_only;
    const ChunkFn add = [this](const Value* rows, std::size_t nrows) {
      index_->add(rows, nrows);
    };
    if (batch_only) {
      scan_batch("populate", add);
    } else {
      scan_local("populate", add);
    }
    return *index_;
  }

  // ----------------------------------------------------- checkpoint/resume

  /// Collective resume decision.  Rank 0 scans the checkpoint directory for
  /// the latest valid state and broadcasts its serialized form; an empty
  /// blob means "start fresh".  Either way every rank leaves with the same
  /// answer, so the level loop stays in lockstep.
  std::optional<CheckpointState> maybe_resume() {
    if (!opt_.checkpoint.enabled()) return std::nullopt;
    PhaseTracer::Scope sp(tracer_, "checkpoint");
    recovery_.checkpoint_enabled = true;
    fingerprint_ = checkpoint_fingerprint(
        opt_, static_cast<std::uint64_t>(data_.num_records()),
        static_cast<std::uint32_t>(data_.num_dims()));
    if (!opt_.checkpoint.resume) return std::nullopt;

    std::vector<std::uint8_t> blob;
    if (comm_.is_parent()) {
      const CheckpointScan scan =
          load_latest_checkpoint(opt_.checkpoint.directory, fingerprint_);
      recovery_.checkpoints_discarded =
          static_cast<std::size_t>(scan.discarded);
      if (scan.state) blob = serialize_checkpoint(*scan.state);
    }
    comm_.bcast(blob);
    if (blob.empty()) return std::nullopt;

    CheckpointState state = deserialize_checkpoint(blob.data(), blob.size());
    recovery_.resumed = true;
    recovery_.resume_level = static_cast<std::size_t>(state.level);
    return state;
  }

  /// Graceful degradation: fail fast with a structured error naming the
  /// level and the memory component instead of OOM-ing once a level's
  /// state outgrows the configured budget.  Every byte count checked is
  /// derived from globally replicated state (or the worst-case partition
  /// size), so every rank throws the same error and the job unwinds
  /// cleanly.
  void check_budget(std::size_t level, const std::string& component,
                    std::size_t bytes) const {
    if (opt_.max_cdu_bytes == 0 || bytes <= opt_.max_cdu_bytes) return;
    throw ResourceError(
        "CDU budget exceeded at level " + std::to_string(level) + ": " +
        component + " needs " + std::to_string(bytes) +
        " bytes > max_cdu_bytes " + std::to_string(opt_.max_cdu_bytes));
  }

  /// The candidate store itself (dim + bin byte arrays, plus the count
  /// vector once populated) — the component the budget originally covered.
  void check_cdu_budget(std::size_t level, std::size_t units, std::size_t k,
                        bool with_counts) const {
    std::size_t bytes = units * k * 2;  // dim bytes + bin bytes
    if (with_counts) bytes += units * sizeof(Count);
    check_budget(level,
                 "candidate store (" + std::to_string(units) + " units)",
                 bytes);
  }

  /// Records the unjoined dense units of the level `dense` came from into
  /// its (already pushed) trace entry: the exact count plus at most
  /// kMaxUnjoinedListed printable units.  `combined` must be globalized.
  void record_unjoined(const UnitStore& dense,
                       const std::vector<std::uint8_t>& combined) {
    LevelTrace& t = trace_.back();
    for (std::size_t u = 0; u < dense.size(); ++u) {
      if (combined[u]) continue;
      ++t.unjoined_dus;
      if (t.unjoined_units.size() < kMaxUnjoinedListed) {
        t.unjoined_units.push_back(dense.to_string(u));
      }
    }
  }

  // -------------------------------------------------------------- helpers

  /// CLIQUE-style MDL pruning: groups the level's dense units by subspace,
  /// scores subspaces by coverage (records inside their dense units), and
  /// clears the dense flags of units in the MDL low-coverage group.
  /// Deterministic given global flags/counts, so every rank prunes alike.
  void apply_mdl_pruning(const UnitStore& cdus, const std::vector<Count>& counts,
                         std::vector<std::uint8_t>& flags) {
    std::map<std::vector<DimId>, std::uint64_t> coverage;
    for (std::size_t u = 0; u < cdus.size(); ++u) {
      if (!flags[u]) continue;
      const auto d = cdus.dims(u);
      coverage[std::vector<DimId>(d.begin(), d.end())] += counts[u];
    }
    if (coverage.size() < 2) return;

    std::vector<std::uint64_t> values;
    values.reserve(coverage.size());
    for (const auto& [dims, cov] : coverage) values.push_back(cov);
    const auto keep_mask = mdl_select_subspaces(values);

    std::map<std::vector<DimId>, bool> keep;
    std::size_t i = 0;
    for (const auto& [dims, cov] : coverage) keep[dims] = keep_mask[i++] != 0;
    for (std::size_t u = 0; u < cdus.size(); ++u) {
      if (!flags[u]) continue;
      const auto d = cdus.dims(u);
      if (!keep[std::vector<DimId>(d.begin(), d.end())]) flags[u] = 0;
    }
  }

  /// Chunked scan of this rank's record partition, pipelined when
  /// opt_.io.prefetch is set and timed either way: the scan's I/O split
  /// (read vs wait vs compute) is attributed to `phase` in the run trace.
  void scan_local(const char* phase, const ChunkFn& fn) {
    IoScanStats stats;
    if (pipelined_) {
      pipelined_->scan_with_stats(my_records_.begin, my_records_.end,
                                  opt_.chunk_records, fn, stats);
    } else {
      timed_scan(data_, my_records_.begin, my_records_.end,
                 opt_.chunk_records, fn, stats);
    }
    tracer_.add_io(phase, stats);
  }

  /// scan_local over this rank's slice of the append batch only (the
  /// records past base_records).  Used by every append-mode pass that
  /// seeds from stored global state instead of rescanning the base data.
  void scan_batch(const char* phase, const ChunkFn& fn) {
    IoScanStats stats;
    if (pipelined_) {
      pipelined_->scan_with_stats(my_batch_.begin, my_batch_.end,
                                  opt_.chunk_records, fn, stats);
    } else {
      timed_scan(data_, my_batch_.begin, my_batch_.end,
                 opt_.chunk_records, fn, stats);
    }
    tracer_.add_io(phase, stats);
  }

  /// Naive block boundaries (ablation alternative to Eq. 1).
  static std::vector<std::size_t> block_bounds(std::size_t total, int p) {
    std::vector<std::size_t> bounds(static_cast<std::size_t>(p) + 1);
    for (int r = 0; r <= p; ++r) {
      bounds[static_cast<std::size_t>(r)] =
          block_partition(total, static_cast<std::size_t>(p),
                          static_cast<std::size_t>(std::min(r, p - 1)))
              .begin;
    }
    bounds[static_cast<std::size_t>(p)] = total;
    return bounds;
  }

  void register_unmarked(const UnitStore& dense,
                         const std::vector<std::uint8_t>& marked) {
    UnitStore reg(dense.k());
    for (std::size_t u = 0; u < dense.size(); ++u) {
      if (!marked[u]) reg.push_unchecked(dense.dims(u).data(), dense.bins(u).data());
    }
    if (!reg.empty()) registered_.push_back(std::move(reg));
  }

  void register_all(const UnitStore& dense) {
    if (!dense.empty()) registered_.push_back(dense);
  }

  const DataSource& data_;
  const MafiaOptions& opt_;
  mp::Comm& comm_;
  PhaseTracer tracer_;
  std::optional<PipelinedSource> pipelined_;
  BlockRange my_records_;
  std::uint64_t fingerprint_ = 0;

  // The run index (see run_index) and whether it covers only the batch.
  std::optional<BitmapIndex> index_;
  bool index_batch_only_ = false;

  // Append-base sections recorded for the final checkpoint (checkpointed
  // runs only): attribute domains, the global fine histogram, and the
  // per-level memo a future append run seeds from.
  bool collect_memo_ = false;
  std::vector<Value> domain_lo_;
  std::vector<Value> domain_hi_;
  std::vector<Count> hist_counts_;
  std::vector<AppendLevelMemo> memo_;

  // Append-run state: this rank's slice of the new batch, the base run's
  // final checkpoint, and whether the level-reuse chain is still intact.
  BlockRange my_batch_;
  std::optional<CheckpointState> append_base_;
  bool append_chain_ = false;
};

}  // namespace

MafiaResult run_pmafia(const DataSource& data, const MafiaOptions& options,
                       int p) {
  options.validate();
  require(p >= 1, "run_pmafia: need at least one rank");
  require(data.num_records() > 0, "run_pmafia: empty data set");
  require(data.num_dims() >= 1, "run_pmafia: data has no dimensions");
  require(!options.append ||
              options.append->base_records <=
                  static_cast<std::uint64_t>(data.num_records()),
          "run_pmafia: append.base_records exceeds the data set");

  Timer total;
  MafiaResult result;

  mp::RunOptions run_options;
  run_options.network = options.simulate_network.value_or(mp::NetworkSimulation{});
  run_options.faults = options.fault_plan;
  run_options.backend = options.mp.backend;
  run_options.deadline_seconds = options.mp.deadline_seconds;
  run_options.shm_slot_bytes = options.mp.shm_slot_bytes;
  const mp::JobStats job = mp::run(p, [&](mp::Comm& comm) {
    MafiaWorker worker(data, options, comm);
    worker.run();
    if (!comm.is_parent()) return;
    // Rank 0 is the paper's parent processor: it owns the printable
    // result.  Sibling ranks computed identical clusters redundantly.
    if (comm.backend() == mp::MpBackend::Process) {
      // Rank 0 is a forked child here: the result must cross the process
      // boundary as bytes (mp result blob, core/result_codec.hpp).  The
      // cluster set is not shipped — the parent reassembles it from the
      // registered maximal units below, bit-identically.
      WorkerResult wr;
      wr.grids = std::move(worker.grids_);
      wr.levels = std::move(worker.trace_);
      wr.registered = std::move(worker.registered_);
      wr.trace = std::move(worker.run_trace_);
      wr.populate = worker.populate_stats_;
      wr.join_kernel = worker.join_stats_;
      wr.recovery = worker.recovery_;
      wr.append = worker.append_stats_;
      comm.set_result(serialize_worker_result(wr));
      return;
    }
    result.grids = std::move(worker.grids_);
    result.levels = std::move(worker.trace_);
    result.clusters = std::move(worker.clusters_);
    result.trace = std::move(worker.run_trace_);
    result.populate_kernel = worker.populate_stats_;
    result.join_kernel = worker.join_stats_;
    result.recovery = worker.recovery_;
    result.append = worker.append_stats_;
  }, run_options);

  if (options.mp.backend == mp::MpBackend::Process) {
    if (job.result.empty()) {
      throw Error("run_pmafia: process backend returned no worker result",
                  ErrorClass::Internal);
    }
    WorkerResult wr =
        deserialize_worker_result(job.result.data(), job.result.size());
    result.grids = std::move(wr.grids);
    result.levels = std::move(wr.levels);
    result.trace = std::move(wr.trace);
    result.populate_kernel = wr.populate;
    result.join_kernel = wr.join_kernel;
    result.recovery = wr.recovery;
    result.append = wr.append;
    result.clusters = assemble_clusters(wr.registered);
    std::erase_if(result.clusters, [&options](const Cluster& c) {
      return c.dims.size() < options.min_cluster_dims;
    });
  }
  result.mp_backend = options.mp.backend;
  result.rank_exits = job.rank_exits;

  // Both views derive from the gathered trace: phase seconds are the true
  // cross-rank maxima, and the comm totals are the sum of the per-rank
  // snapshots (so per-phase deltas add up to them exactly).
  result.phases = result.trace.max_phases;
  result.comm = result.trace.comm_total();
  result.io = options.io;
  result.total_seconds = total.seconds();
  result.num_records = static_cast<std::size_t>(data.num_records());
  result.num_dims = data.num_dims();
  result.num_ranks = p;
  return result;
}

}  // namespace mafia
