#include "core/mafia.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <span>

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
    // Each rank owns its pipeline decorator: every scan then spawns
    // its own producer thread over its own ring, so p ranks prefetch their
    // p partitions independently (the paper's p local disks).
    if (opt_.io.prefetch) pipelined_.emplace(data_, opt_.io.buffers);
  }

  void run() {
    const auto p = static_cast<std::size_t>(comm_.size());
    const auto rank = static_cast<std::size_t>(comm_.rank());
    const auto n = static_cast<std::size_t>(data_.num_records());
    my_records_ = block_partition(n, p, rank);

    // Fresh, resumed and appended runs differ only in their start state
    // and in the rows it does not cover: all of them when fresh, none on
    // resume, the batch on append.  Every rank loads the same state, builds
    // the grids from it plus those rows, and replays its level records in
    // the one level loop — so the result is bit-identical to a fresh run
    // on the same data whether or not anything is reused.
    start_ = load_start_state();
    covered_ = start_ ? static_cast<std::size_t>(start_->num_records) : 0;
    const BlockRange fresh = block_partition(n - covered_, p, rank);
    my_new_ = {covered_ + fresh.begin, covered_ + fresh.end};
    build_grids();
    level_loop();
    write_final_state();
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
  // ------------------------------------------------------- start state

  /// Collective start-state load.  Rank 0 reads the start file — the
  /// level chain for --resume, the base run's final checkpoint
  /// (fingerprinted for the base record count) for append — and keeps it;
  /// with more ranks it broadcasts the state's bytes, so every rank starts
  /// from the same records.  No state means a fresh start, which is an
  /// input error for append: it cannot proceed without the thing it
  /// appends to.
  std::optional<CheckpointState> load_start_state() {
    if (!opt_.checkpoint.enabled()) return std::nullopt;
    PhaseTracer::Scope sp(tracer_, "checkpoint");
    recovery_.checkpoint_enabled = true;
    append_stats_.performed = opt_.append.has_value();
    const auto dims = static_cast<std::uint32_t>(data_.num_dims());
    fingerprint_ = checkpoint_fingerprint(
        opt_, static_cast<std::uint64_t>(data_.num_records()), dims);

    std::optional<CheckpointState> state;
    if (opt_.append || opt_.checkpoint.resume) {
      if (comm_.is_parent()) {
        CheckpointScan scan =
            opt_.append
                ? load_final_checkpoint(
                      opt_.checkpoint.directory,
                      checkpoint_fingerprint(opt_, opt_.append->base_records,
                                             dims))
                : load_latest_checkpoint(opt_.checkpoint.directory,
                                         fingerprint_);
        recovery_.checkpoints_discarded =
            static_cast<std::size_t>(scan.discarded);
        state = std::move(scan.state);
      }
      if (comm_.size() > 1) {
        std::vector<std::uint8_t> blob;
        if (state) blob = serialize_checkpoint(*state);
        comm_.bcast(blob);
        if (!comm_.is_parent() && !blob.empty()) {
          state = deserialize_checkpoint(blob.data(), blob.size());
        }
      }
    }
    require_input(!opt_.append || state.has_value(),
                  "append: no valid final checkpoint for the base data under " +
                      opt_.checkpoint.directory +
                      " (run a checkpointed cluster first, with matching "
                      "options)");
    if (!state) {
      // A run without a start state writes its level chain from scratch;
      // an earlier run's level files must not extend it for a later resume.
      if (comm_.is_parent()) {
        remove_level_checkpoints(opt_.checkpoint.directory);
      }
      return std::nullopt;
    }
    recovery_.resumed = opt_.checkpoint.resume;
    if (recovery_.resumed) recovery_.resume_level = state->records.size() + 1;
    return state;
  }

  // ----------------------------------------------------------- grid phase

  /// Domains and the fine histogram are exact under concatenation (min/max
  /// and integer sums are associative), so the start state's stored ones
  /// plus a pass over the new rows equal a pass over every row — and so
  /// do the grids built from them.
  void build_grids() {
    const std::size_t d = data_.num_dims();
    const auto n = static_cast<Count>(data_.num_records());

    // Attribute domains: fixed, or learned with a min/max pass + Reduce.
    if (opt_.fixed_domain) {
      domain_lo_.assign(d, opt_.fixed_domain->first);
      domain_hi_.assign(d, opt_.fixed_domain->second);
    } else {
      PhaseTracer::Scope sp(tracer_, "histogram");
      MinMaxAccumulator mm(d);
      scan(my_new_, "histogram", [&](const Value* rows, std::size_t nrows) {
        mm.accumulate(rows, nrows);
      });
      comm_.allreduce_min(mm.mins());
      comm_.allreduce_max(mm.maxs());
      domain_lo_ = std::move(mm.mins());
      domain_hi_ = std::move(mm.maxs());
      if (start_) {
        // Fold the stored extrema in: min/max are exact, so this equals a
        // scan of every row.
        for (std::size_t j = 0; j < d; ++j) {
          domain_lo_[j] = std::min(domain_lo_[j], start_->domain_lo[j]);
          domain_hi_[j] = std::max(domain_hi_[j], start_->domain_hi[j]);
        }
      }
    }

    if (opt_.uniform_grid) {
      // CLIQUE-style grid: no histogram needed.
      PhaseTracer::Scope sp(tracer_, "grid");
      const auto& ug = *opt_.uniform_grid;
      if (!ug.bins_per_dim.empty()) {
        require(ug.bins_per_dim.size() == d,
                "MafiaOptions: bins_per_dim size mismatch");
        grids_ = compute_uniform_grids(domain_lo_, domain_hi_, ug.bins_per_dim,
                                       ug.tau_fraction, n);
      } else {
        grids_ = compute_uniform_grids(domain_lo_, domain_hi_, ug.xi,
                                       ug.tau_fraction, n);
      }
      return;
    }

    // Algorithm 2: "build a histogram in each dimension; Reduce
    // communication to get the global histogram; determine adaptive
    // intervals ... and also fix the threshold level."
    HistogramBuilder hist(domain_lo_, domain_hi_, opt_.grid.fine_bins);
    // Stored fine counts are reusable only if the histogram geometry is
    // unchanged: same domains (cell widths) and same cell count.
    const bool seeded = start_ && domain_lo_ == start_->domain_lo &&
                        domain_hi_ == start_->domain_hi &&
                        start_->hist_counts.size() == hist.counts().size();
    {
      PhaseTracer::Scope sp(tracer_, "histogram");
      scan(seeded ? my_new_ : my_records_, "histogram",
           [&](const Value* rows, std::size_t nrows) {
             hist.accumulate(rows, nrows);
           });
      comm_.allreduce_sum(hist.counts());
      // Seed after the allreduce: the stored counts are already global, so
      // they must enter the sum exactly once, not once per rank.
      if (seeded) hist.seed_counts(start_->hist_counts);
    }
    hist_counts_ = hist.counts();
    {
      PhaseTracer::Scope sp(tracer_, "grid");
      grids_ = compute_adaptive_grids(domain_lo_, domain_hi_, hist, n,
                                      opt_.grid);
    }
  }

  // ----------------------------------------------------------- checkpoints

  /// A checkpoint of this run's shape, carrying the grid phase if asked.
  [[nodiscard]] CheckpointState checkpoint_state(bool with_grid_phase) const {
    CheckpointState st;
    st.fingerprint = fingerprint_;
    st.num_records = static_cast<std::uint64_t>(data_.num_records());
    st.num_dims = static_cast<std::uint32_t>(data_.num_dims());
    if (with_grid_phase) {
      st.grids = grids_;
      st.domain_lo = domain_lo_;
      st.domain_hi = domain_hi_;
      st.hist_counts = hist_counts_;
    }
    return st;
  }

  /// Files a completed level's record for the final checkpoint, first
  /// writing it as its level file when this run computed the level rather
  /// than replaying it (rank 0 writes; every rank opens the phase scope,
  /// since the trace exchange requires identical phase sets on all ranks).
  /// Append runs write no level files: they publish one final checkpoint
  /// atomically at the end, so a crash mid-append leaves the base state
  /// untouched.
  void keep_record(LevelRecord&& rec, bool computed) {
    if (!opt_.checkpoint.enabled()) return;
    PhaseTracer::Scope sp(tracer_, "checkpoint");
    if (!comm_.is_parent()) return;
    rec.unjoined_dus = trace_.back().unjoined_dus;
    rec.unjoined_units = trace_.back().unjoined_units;
    if (computed && !opt_.append) {
      CheckpointState st = checkpoint_state(/*with_grid_phase=*/rec.level == 1);
      st.records.push_back(std::move(rec));
      write_checkpoint_file(opt_.checkpoint.directory, st);
      ++recovery_.checkpoints_written;
      rec = std::move(st.records.front());
    }
    records_.push_back(std::move(rec));
  }

  /// Writes the final checkpoint after the level loop: the grid phase,
  /// every level's record, and the data provenance.  Atomic rename, so a
  /// kill at any point — including mid-append — leaves the previous final
  /// state intact and the operation simply reruns.
  void write_final_state() {
    if (!opt_.checkpoint.enabled()) return;
    PhaseTracer::Scope sp(tracer_, "checkpoint");
    if (!comm_.is_parent()) return;
    CheckpointState st = checkpoint_state(/*with_grid_phase=*/true);
    st.records = std::move(records_);
    st.provenance.reserve(opt_.checkpoint.provenance.size());
    for (const auto& [path, records] : opt_.checkpoint.provenance) {
      st.provenance.push_back({path, records});
    }
    write_final_checkpoint(opt_.checkpoint.directory, st);
    ++recovery_.checkpoints_written;
  }

  // ----------------------------------------------------------- level loop

  void level_loop() {
    const int p = comm_.size();
    const int rank = comm_.rank();
    const auto n = static_cast<Count>(data_.num_records());
    const DensityContext dctx{opt_.grid.alpha, n};
    std::span<const LevelRecord> stored;
    if (start_) stored = start_->records;

    // The entering state of the level about to run, completed into its
    // level record as the level runs.  "Set candidate dense units to the
    // bins found in each dimension."
    LevelRecord rec;
    for (std::size_t j = 0; j < grids_.num_dims(); ++j) {
      for (std::size_t b = 0; b < grids_[j].num_bins(); ++b) {
        const auto dj = static_cast<DimId>(j);
        const auto bb = static_cast<BinId>(b);
        rec.cdus.push_unchecked(&dj, &bb);
      }
    }
    rec.pending_raw_count = rec.cdus.size();
    // The stored records replay only while the fresh grids bin records
    // exactly like the stored ones — level 1's candidates are then the
    // stored ones — and, level by level, while the fresh dense flags match
    // the stored flags (the join is a pure function of the dense set).
    chain_ = !stored.empty() && grids_binning_equal(grids_, start_->grids) &&
             stores_equal(stored.front().cdus, rec.cdus);
    UnitStore prev_dense(1);
    choose_populate_regime();

    while (true) {
      const std::size_t level = rec.level;
      UnitStore& cdus = rec.cdus;
      check_cdu_budget(level, cdus.size(), cdus.k(), /*with_counts=*/true);
      // A stored level: its candidate set is provably the stored one, so
      // its counts are the stored global counts plus a pass over the new
      // rows.
      const LevelRecord* base =
          chain_ && level <= stored.size() ? &stored[level - 1] : nullptr;
      LevelTrace t;
      t.level = level;
      t.ncdu_raw = rec.pending_raw_count;
      t.ncdu = cdus.size();
      t.join_buckets = rec.pending_join.buckets;
      t.join_probes = rec.pending_join.probes;
      t.join_emitted = rec.pending_join.emitted;
      t.join_repeats_fused = rec.pending_join.repeats_fused;
      rec.counts = populate(level, cdus, base, t);
      const std::vector<Count>& counts = rec.counts;
      if (opt_.append) {
        ++(base != nullptr ? append_stats_.levels_reused
                           : append_stats_.levels_rerun);
      }

      // ---- Identify dense units (task parallel, Algorithm 5).
      std::vector<std::uint8_t>& flags = rec.flags;
      flags.assign(cdus.size(), 0);
      {
        PhaseTracer::Scope sp(tracer_, "identify");
        if (cdus.size() > opt_.tau && p > 1) {
          const BlockRange r = block_partition(cdus.size(),
                                               static_cast<std::size_t>(p),
                                               static_cast<std::size_t>(rank));
          identify_dense_units(cdus, counts, grids_, opt_.density, dctx,
                               r.begin, r.end, flags);
          comm_.allreduce_or(flags);
        } else {
          identify_dense_units(cdus, counts, grids_, opt_.density, dctx, 0,
                               cdus.size(), flags);
        }
      }
      if (opt_.mdl_pruning) apply_mdl_pruning(cdus, counts, flags);

      // Compare the fresh dense flags against the stored ones.  Any
      // divergence means the next level's candidate set differs from the
      // stored run's, so the chain ends here — every later level runs the
      // real join and full scans.
      if (base != nullptr) {
        for (std::size_t i = 0; i < flags.size(); ++i) {
          append_stats_.units_promoted += (flags[i] != 0 && base->flags[i] == 0);
          append_stats_.units_demoted += (flags[i] == 0 && base->flags[i] != 0);
        }
        if (flags != base->flags) chain_ = false;
      }

      std::size_t ndu = 0;
      for (const std::uint8_t f : flags) ndu += (f != 0);

      t.ndu = ndu;
      trace_.push_back(std::move(t));
      if (rec.pending_join_kernel != 0) {
        join_stats_.bucketed_levels += (rec.pending_join_kernel == 2);
        join_stats_.pairwise_levels += (rec.pending_join_kernel == 1);
        join_stats_.buckets += rec.pending_join.buckets;
        join_stats_.probes += rec.pending_join.probes;
        join_stats_.emitted += rec.pending_join.emitted;
        join_stats_.repeats_fused += rec.pending_join.repeats_fused;
      }

      // ---- Register maximal units of the previous level: a (k−1)-dim
      // dense unit whose every candidate child failed the density test (or
      // that produced no candidates) is a maximal dense region.
      if (level > 1) {
        register_unmarked(prev_dense, mark_dense_parents(prev_dense, cdus, flags,
                                                         opt_.join_rule));
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
      if (chain_ && level < stored.size()) {
        // With the chain intact the stored run generated the next level
        // from the identical dense set, so the join's output (unique CDUs
        // and work counters) and this level's unjoined units are replayed
        // from the stored records; the next level recomputes the rest of
        // its record.  Where the records end, the real join below
        // continues — or reproduces the stored run's termination
        // identically.
        trace_.back().unjoined_dus = stored[level - 1].unjoined_dus;
        trace_.back().unjoined_units = stored[level - 1].unjoined_units;
        keep_record(std::move(rec), /*computed=*/false);
        rec = stored[level];
        continue;
      }
      LevelRecord next;
      next.level = level + 1;
      const bool bucketed = opt_.join.kernel == JoinKernel::Bucketed;
      if (bucketed) {
        // The signature index is the join's auxiliary memory; budget it
        // before any rank starts building (the estimate is deterministic,
        // so the guard stays collective).
        check_budget(next.level, "join bucket index",
                     JoinBucketIndex::estimate_bytes(
                         prev_dense.size(), prev_dense.k(), opt_.join_rule));
      }
      JoinResult jr;
      {
        PhaseTracer::Scope sp(tracer_, "join");
        const bool parallel = prev_dense.size() > opt_.tau && p > 1;
        const auto r = static_cast<std::size_t>(rank);
        if (bucketed) {
          // Every rank builds the identical index over the replicated dense
          // store and walks a unit range balanced by member visits; the
          // ranges' outputs are contiguous in the global candidate order.
          const JoinBucketIndex index(prev_dense, opt_.join_rule);
          if (parallel) {
            const auto bounds = weight_balanced_partition(
                index.unit_work(), static_cast<std::size_t>(p));
            jr = index.join_unique(bounds[r], bounds[r + 1]);
          } else {
            jr = index.join_unique(0, prev_dense.size());
          }
        } else if (parallel) {
          const auto bounds =
              opt_.optimal_task_partition
                  ? triangular_partition(prev_dense.size(),
                                         static_cast<std::size_t>(p))
                  : block_bounds(prev_dense.size(), p);
          jr = join_dense_units(prev_dense, opt_.join_rule, bounds[r],
                                bounds[r + 1]);
        } else {
          jr = join_dense_units(prev_dense, opt_.join_rule);
        }
        if (parallel) {
          // "CDUs generated by the processors are communicated to the
          // parent processor which concatenates the CDU dimension and bin
          // arrays in the rank order ... This information is broadcast."
          auto dim_bytes = comm_.gatherv(jr.cdus.dim_bytes());
          auto bin_bytes = comm_.gatherv(jr.cdus.bin_bytes());
          comm_.bcast(dim_bytes);
          comm_.bcast(bin_bytes);
          jr.cdus = UnitStore::from_bytes(next.level, std::move(dim_bytes),
                                          std::move(bin_bytes));
          // Globalize the work counters and the combined flags: a dense
          // unit is unjoined only if no rank's range paired it.
          std::vector<std::uint64_t> sv{jr.stats.buckets, jr.stats.probes,
                                        jr.stats.emitted,
                                        jr.stats.repeats_fused};
          comm_.allreduce_sum(sv);
          jr.stats = JoinStats{sv[0], sv[1], sv[2], sv[3]};
          comm_.allreduce_or(jr.combined);
        }
      }
      next.pending_join = jr.stats;
      next.pending_join_kernel = bucketed ? 2 : 1;
      // The joining pairs: the pairwise scan's raw emission count, which
      // the canonical walk counts without emitting the repeats.
      next.pending_raw_count = jr.stats.emitted;

      // gpumafia's find_unjoined_dus: record, on the level the dense units
      // came from, every unit the join paired into no candidate (the
      // paper's "dense units which could not be combined" — they are also
      // registered as maximal below, since no child can mark them).
      record_unjoined(prev_dense, jr.combined);

      if (jr.cdus.empty()) {
        // No unit could combine: every previous dense unit is maximal.
        register_all(prev_dense);
        break;
      }
      check_cdu_budget(next.level, jr.cdus.size(), jr.cdus.k(),
                       /*with_counts=*/false);

      if (bucketed) {
        next.cdus = std::move(jr.cdus);
      } else {
        // ---- Eliminate repeated CDUs (Algorithm 4), on the paper path.
        PhaseTracer::Scope sp(tracer_, "dedup");
        const UnitStore& raw = jr.cdus;
        DedupResult dd;
        if (opt_.dedup == DedupPolicy::Hash) {
          dd = dedup_hash(raw);
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
        next.cdus = std::move(dd.unique);
      }

      // ---- Level boundary: the record completed here is everything a
      // later run needs to replay this level, so this is the recovery
      // point.
      keep_record(std::move(rec), /*computed=*/base == nullptr);
      rec = std::move(next);
    }
    keep_record(std::move(rec), /*computed=*/false);
  }

  /// Picks the populate regime once per run, from the run index over the
  /// worst-case partition — the one the budget would be charged — so every
  /// rank picks alike: that index when it fits --max-cdu-bytes (or there
  /// is no budget), else Algorithm 2's out-of-core pass, which rescans
  /// every level's rows in chunks through an index of one chunk.
  void choose_populate_regime() {
    const std::size_t worst =
        ceil_div(static_cast<std::size_t>(data_.num_records()),
                 static_cast<std::size_t>(comm_.size()));
    rescan_ = opt_.max_cdu_bytes != 0 &&
              BitmapIndex::bytes_for(grids_.total_bins(), worst) >
                  opt_.max_cdu_bytes;
    batch_index_bytes_ = BitmapIndex::bytes_for(
        grids_.total_bins(), std::min(opt_.chunk_records, worst));
  }

  /// Populate phase of one level (data parallel): each rank counts its
  /// N/p records — from the run index, or by rescanning them in B-record
  /// chunks — then Reduce globalizes the counts.  A level that replays a
  /// stored record counts only the new rows and adds the stored counts.
  /// Fills the populate fields of `t`; returns the global counts.
  std::vector<Count> populate(std::size_t level, const UnitStore& cdus,
                              const LevelRecord* base, LevelTrace& t) {
    PhaseTracer::Scope sp(tracer_, "populate");
    const bool new_rows_only = base != nullptr;
    UnitPopulator populator(
        grids_, cdus, opt_.populate,
        rescan_ ? nullptr : &run_index(level, new_rows_only));
    if (rescan_) {
      check_budget(level, "populate bitmap index", batch_index_bytes_);
      scan(new_rows_only ? my_new_ : my_records_, "populate",
           [&populator](const Value* rows, std::size_t nrows) {
             populator.accumulate(rows, nrows);
           });
    }
    comm_.allreduce_sum(populator.counts());
    // Seed AFTER the allreduce: the stored counts are already global, so
    // they must enter the sum exactly once, not once per rank.
    if (base != nullptr) populator.seed_counts(base->counts);
    populate_stats_.merge(populator.kernel_stats());
    t.count_checksum = count_vector_checksum(populator.counts());
    t.populate_rescan = rescan_;
    t.bitmap_bytes = populator.kernel_stats().bitmap_bytes;
    t.bitmap_words_anded = populator.kernel_stats().bitmap_words_anded;
    return std::move(populator.counts());
  }

  /// The run index `level` counts from: over this rank's new rows while
  /// the level replays stored counts, over its whole partition otherwise.
  /// Built on first use with one record pass, and charged to the budget
  /// then, sized for the worst-case partition so the guard throws on every
  /// rank or none.  A run whose chain ends swaps the new-row index for the
  /// full one once; the chain never resumes.
  const BitmapIndex& run_index(std::size_t level, bool new_rows_only) {
    if (index_ && index_new_rows_only_ == new_rows_only) return *index_;
    const BlockRange& range = new_rows_only ? my_new_ : my_records_;
    const std::size_t records =
        static_cast<std::size_t>(data_.num_records()) -
        (new_rows_only ? covered_ : 0);
    check_budget(level, "populate bitmap index",
                 BitmapIndex::bytes_for(
                     grids_.total_bins(),
                     ceil_div(records, static_cast<std::size_t>(comm_.size()))));
    index_.emplace(grids_, range.end - range.begin);
    index_new_rows_only_ = new_rows_only;
    scan(range, "populate", [this](const Value* rows, std::size_t nrows) {
      index_->add(rows, nrows);
    });
    return *index_;
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

  /// Chunked scan of `rows` (this rank's partition, or its new rows),
  /// pipelined when opt_.io.prefetch is set and timed either way: the
  /// scan's I/O split (read vs wait vs compute) is attributed to `phase` in
  /// the run trace.
  void scan(const BlockRange& rows, const char* phase, const ChunkFn& fn) {
    IoScanStats stats;
    if (pipelined_) {
      pipelined_->scan_with_stats(rows.begin, rows.end, opt_.chunk_records,
                                  fn, stats);
    } else {
      timed_scan(data_, rows.begin, rows.end, opt_.chunk_records, fn, stats);
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

  // The populate regime (see choose_populate_regime) with the bytes of the
  // rescan's chunk index, and the run index (see run_index) with whether
  // it covers only new rows.
  bool rescan_ = false;
  std::size_t batch_index_bytes_ = 0;
  std::optional<BitmapIndex> index_;
  bool index_new_rows_only_ = false;

  // The start state (see load_start_state), the rows it covers, this
  // rank's slice of the rows it does not, and whether its level records
  // still replay.
  std::optional<CheckpointState> start_;
  std::size_t covered_ = 0;
  BlockRange my_new_;
  bool chain_ = false;

  // This run's grid phase and level records, for its checkpoints.
  std::vector<Value> domain_lo_;
  std::vector<Value> domain_hi_;
  std::vector<Count> hist_counts_;
  std::vector<LevelRecord> records_;
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
