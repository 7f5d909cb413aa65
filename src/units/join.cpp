#include "units/join.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>

namespace mafia {

namespace {

/// Sorted-merge join for the MAFIA rule: units `a`, `b` of dimensionality
/// km1 = k−1 combine iff they share exactly km1−1 dimensions with equal bins
/// on every shared dimension (union therefore has km1+1 = k dimensions).
/// Writes the merged (sorted) dims/bins into the output arrays and returns
/// true on success.
bool merge_mafia(std::span<const DimId> da, std::span<const BinId> ba,
                 std::span<const DimId> db, std::span<const BinId> bb,
                 DimId* out_dims, BinId* out_bins) {
  const std::size_t km1 = da.size();
  const std::size_t k = km1 + 1;
  std::size_t ia = 0;
  std::size_t ib = 0;
  std::size_t out = 0;
  std::size_t shared = 0;
  while (ia < km1 || ib < km1) {
    if (out >= k) return false;  // union larger than k: too few shared dims
    if (ib == km1 || (ia < km1 && da[ia] < db[ib])) {
      out_dims[out] = da[ia];
      out_bins[out] = ba[ia];
      ++ia;
      ++out;
    } else if (ia == km1 || db[ib] < da[ia]) {
      out_dims[out] = db[ib];
      out_bins[out] = bb[ib];
      ++ib;
      ++out;
    } else {
      // Shared dimension: bins must agree for the units to be compatible.
      if (ba[ia] != bb[ib]) return false;
      out_dims[out] = da[ia];
      out_bins[out] = ba[ia];
      ++ia;
      ++ib;
      ++out;
      ++shared;
    }
  }
  return out == k && shared == km1 - 1;
}

/// CLIQUE prefix join: units combine iff their first km1−1 (dim, bin) pairs
/// are identical and their last dimensions differ.  The result is the
/// shared prefix plus both last dimensions in ascending order (each unit's
/// dims are ascending, so both last dims exceed every prefix dim).
bool merge_clique(std::span<const DimId> da, std::span<const BinId> ba,
                  std::span<const DimId> db, std::span<const BinId> bb,
                  DimId* out_dims, BinId* out_bins) {
  const std::size_t km1 = da.size();
  for (std::size_t i = 0; i + 1 < km1; ++i) {
    if (da[i] != db[i] || ba[i] != bb[i]) return false;
  }
  const DimId last_a = da[km1 - 1];
  const DimId last_b = db[km1 - 1];
  if (last_a == last_b) return false;
  for (std::size_t i = 0; i + 1 < km1; ++i) {
    out_dims[i] = da[i];
    out_bins[i] = ba[i];
  }
  if (last_a < last_b) {
    out_dims[km1 - 1] = last_a;
    out_bins[km1 - 1] = ba[km1 - 1];
    out_dims[km1] = last_b;
    out_bins[km1] = bb[km1 - 1];
  } else {
    out_dims[km1 - 1] = last_b;
    out_bins[km1 - 1] = bb[km1 - 1];
    out_dims[km1] = last_a;
    out_bins[km1] = ba[km1 - 1];
  }
  return true;
}

/// Dispatches on the rule; shared verifier of both kernels, so bucketed
/// emission correctness reduces to "does the pair meet in some bucket".
bool merge_pair(const UnitStore& dense, std::size_t a, std::size_t b,
                JoinRule rule, DimId* out_dims, BinId* out_bins) {
  return rule == JoinRule::MafiaAnyShared
             ? merge_mafia(dense.dims(a), dense.bins(a), dense.dims(b),
                           dense.bins(b), out_dims, out_bins)
             : merge_clique(dense.dims(a), dense.bins(a), dense.dims(b),
                            dense.bins(b), out_dims, out_bins);
}

}  // namespace

bool try_join(const UnitStore& dense, std::size_t a, std::size_t b, JoinRule rule,
              UnitStore& out) {
  require(out.k() == dense.k() + 1, "try_join: output store has wrong k");
  std::array<DimId, kMaxDims> dims;
  std::array<BinId, kMaxDims> bins;
  const bool ok = merge_pair(dense, a, b, rule, dims.data(), bins.data());
  if (ok) out.push_unchecked(dims.data(), bins.data());
  return ok;
}

JoinResult join_dense_units(const UnitStore& dense, JoinRule rule,
                            std::size_t i_begin, std::size_t i_end) {
  require(i_begin <= i_end && i_end <= dense.size(), "join_dense_units: bad range");
  const std::size_t n = dense.size();
  const std::size_t k = dense.k() + 1;

  JoinResult result;
  result.cdus = UnitStore(k);
  result.combined.assign(n, 0);

  std::array<DimId, kMaxDims> dims;
  std::array<BinId, kMaxDims> bins;

  for (std::size_t i = i_begin; i < i_end; ++i) {
    const auto da = dense.dims(i);
    const auto ba = dense.bins(i);
    for (std::size_t j = i + 1; j < n; ++j) {
      ++result.stats.probes;
      const bool ok =
          rule == JoinRule::MafiaAnyShared
              ? merge_mafia(da, ba, dense.dims(j), dense.bins(j), dims.data(),
                            bins.data())
              : merge_clique(da, ba, dense.dims(j), dense.bins(j), dims.data(),
                             bins.data());
      if (ok) {
        result.cdus.push_unchecked(dims.data(), bins.data());
        result.parents.emplace_back(static_cast<std::uint32_t>(i),
                                    static_cast<std::uint32_t>(j));
        result.combined[i] = 1;
        result.combined[j] = 1;
        ++result.stats.emitted;
      }
    }
  }
  return result;
}

// --------------------------------------------------------- bucketed kernel

JoinBucketIndex::JoinBucketIndex(const UnitStore& dense, JoinRule rule)
    : dense_(&dense), rule_(rule) {
  const std::size_t km1 = dense.k();
  const std::size_t n = dense.size();
  // A sub-signature is km1−1 (dim, bin) pairs.  Under the MAFIA rule every
  // unit contributes one entry per dropped dimension (km1 entries); under
  // CLIQUE's prefix rule exactly one (its first km1−1 pairs).  km1 == 1
  // degenerates to the empty signature: one global bucket, where the
  // in-bucket pair loop IS the pairwise scan.
  const std::size_t sig_pairs = km1 - 1;
  const std::size_t per_unit = rule == JoinRule::MafiaAnyShared ? km1 : 1;
  const std::size_t entries = n * per_unit;
  entry_unit_.resize(entries);
  if (entries == 0) {
    bucket_begin_ = {0};
    return;
  }

  const std::size_t sig_bytes = 2 * sig_pairs;
  std::vector<std::size_t> boundaries;  // entry indices where a bucket starts
  if (sig_bytes <= sizeof(std::uint64_t)) {
    // Fast path: the signature packs into one integer, (dim, bin) bytes
    // interleaved most-significant-first, so key order equals
    // lexicographic signature-byte order.  Sorting
    // (key, unit) pairs also sorts units ascending inside each bucket,
    // which is what makes every in-bucket pair (lo, hi) with lo < hi.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed;
    keyed.reserve(entries);
    for (std::size_t u = 0; u < n; ++u) {
      const auto dims = dense.dims(u);
      const auto bins = dense.bins(u);
      for (std::size_t drop = 0; drop < per_unit; ++drop) {
        std::uint64_t key = 0;
        if (rule_ == JoinRule::MafiaAnyShared) {
          for (std::size_t i = 0; i < km1; ++i) {
            if (i == drop) continue;
            key = (key << 8) | static_cast<std::uint64_t>(dims[i]);
            key = (key << 8) | static_cast<std::uint64_t>(bins[i]);
          }
        } else {
          for (std::size_t i = 0; i < sig_pairs; ++i) {
            key = (key << 8) | static_cast<std::uint64_t>(dims[i]);
            key = (key << 8) | static_cast<std::uint64_t>(bins[i]);
          }
        }
        keyed.emplace_back(key, static_cast<std::uint32_t>(u));
      }
    }
    std::sort(keyed.begin(), keyed.end());
    for (std::size_t e = 0; e < entries; ++e) {
      entry_unit_[e] = keyed[e].second;
      if (e == 0 || keyed[e].first != keyed[e - 1].first) boundaries.push_back(e);
    }
  } else {
    // Wide signatures (km1 > 5): keep the byte rows in a flat buffer and
    // sort entry indices by memcmp, tiebreaking on the unit index so the
    // in-bucket unit order matches the packed path.
    std::vector<std::uint8_t> sig(entries * sig_bytes);
    std::vector<std::uint32_t> owner(entries);
    std::size_t e = 0;
    for (std::size_t u = 0; u < n; ++u) {
      const auto dims = dense.dims(u);
      const auto bins = dense.bins(u);
      for (std::size_t drop = 0; drop < per_unit; ++drop, ++e) {
        std::uint8_t* row = sig.data() + e * sig_bytes;
        std::size_t at = 0;
        for (std::size_t i = 0; i < km1 && at < sig_bytes; ++i) {
          if (rule_ == JoinRule::MafiaAnyShared && i == drop) continue;
          row[at++] = static_cast<std::uint8_t>(dims[i]);
          row[at++] = static_cast<std::uint8_t>(bins[i]);
        }
        owner[e] = static_cast<std::uint32_t>(u);
      }
    }
    std::vector<std::uint32_t> order(entries);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const int c = std::memcmp(sig.data() + a * sig_bytes,
                                          sig.data() + b * sig_bytes, sig_bytes);
                if (c != 0) return c < 0;
                return owner[a] < owner[b];
              });
    for (std::size_t i = 0; i < entries; ++i) {
      entry_unit_[i] = owner[order[i]];
      if (i == 0 || std::memcmp(sig.data() + order[i] * sig_bytes,
                                sig.data() + order[i - 1] * sig_bytes,
                                sig_bytes) != 0) {
        boundaries.push_back(i);
      }
    }
  }

  bucket_begin_ = std::move(boundaries);
  bucket_begin_.push_back(entries);
  work_.resize(bucket_begin_.size() - 1);
  for (std::size_t b = 0; b + 1 < bucket_begin_.size(); ++b) {
    const std::uint64_t c = bucket_begin_[b + 1] - bucket_begin_[b];
    work_[b] = c * (c - 1) / 2;
  }
}

JoinResult JoinBucketIndex::join_range(std::size_t bucket_begin,
                                       std::size_t bucket_end) const {
  require(bucket_begin <= bucket_end && bucket_end <= num_buckets(),
          "JoinBucketIndex::join_range: bad bucket range");
  const UnitStore& dense = *dense_;
  const std::size_t k = dense.k() + 1;

  JoinResult result;
  result.cdus = UnitStore(k);
  result.combined.assign(dense.size(), 0);
  result.stats.buckets = bucket_end - bucket_begin;

  std::array<DimId, kMaxDims> dims;
  std::array<BinId, kMaxDims> bins;
  for (std::size_t b = bucket_begin; b < bucket_end; ++b) {
    const std::size_t begin = bucket_begin_[b];
    const std::size_t end = bucket_begin_[b + 1];
    for (std::size_t ei = begin; ei < end; ++ei) {
      const std::size_t lo = entry_unit_[ei];
      for (std::size_t ej = ei + 1; ej < end; ++ej) {
        const std::size_t hi = entry_unit_[ej];
        ++result.stats.probes;
        if (merge_pair(dense, lo, hi, rule_, dims.data(), bins.data())) {
          result.cdus.push_unchecked(dims.data(), bins.data());
          result.parents.emplace_back(static_cast<std::uint32_t>(lo),
                                      static_cast<std::uint32_t>(hi));
          result.combined[lo] = 1;
          result.combined[hi] = 1;
          ++result.stats.emitted;
        }
      }
    }
  }
  return result;
}

void sort_cdus_by_parents(
    UnitStore& raw,
    std::vector<std::pair<std::uint32_t, std::uint32_t>>& parents) {
  require(parents.size() == raw.size(),
          "sort_cdus_by_parents: parents/store size mismatch");
  const std::size_t n = raw.size();
  if (n < 2) return;
  const auto packed = [&parents](std::size_t i) {
    return (static_cast<std::uint64_t>(parents[i].first) << 32) |
           parents[i].second;
  };
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) { return packed(a) < packed(b); });

  UnitStore sorted(raw.k());
  sorted.reserve(n);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sorted_parents(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t from = order[i];
    sorted.push_unchecked(raw.dims(from).data(), raw.bins(from).data());
    sorted_parents[i] = parents[from];
  }
  raw = std::move(sorted);
  parents = std::move(sorted_parents);
}

JoinResult bucket_join_dense_units(const UnitStore& dense, JoinRule rule) {
  const JoinBucketIndex index(dense, rule);
  JoinResult result = index.join_range(0, index.num_buckets());
  sort_cdus_by_parents(result.cdus, result.parents);
  return result;
}

}  // namespace mafia
