#include "units/join.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>

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

/// 64-bit mix of one (dim, bin) coordinate (splitmix64's finalizer).  A
/// unit hashes to the wrapping sum of its coordinates' mixes, so the hash
/// of the unit minus one coordinate is one subtraction.
std::uint64_t coord_mix(DimId dim, BinId bin) {
  std::uint64_t x = ((std::uint64_t{dim} << 8) | bin) + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Fills mix[i] for each coordinate of `store`'s unit `u`; returns the
/// unit's hash (their wrapping sum).
std::uint64_t unit_mixes(const UnitStore& store, std::size_t u,
                         std::uint64_t* mix) {
  const auto dims = store.dims(u);
  const auto bins = store.bins(u);
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    mix[i] = coord_mix(dims[i], bins[i]);
    h += mix[i];
  }
  return h;
}

/// True when unit `u` of `a` without its coordinate `du` equals unit `v` of
/// `b` without its coordinate `dv` (both stores' units ascending by dim).
/// `b` may hold units one coordinate shorter and drop none (dv = b.k()).
bool same_without(const UnitStore& a, std::size_t u, std::size_t du,
                  const UnitStore& b, std::size_t v, std::size_t dv) {
  const auto ad = a.dims(u);
  const auto ab = a.bins(u);
  const auto bd = b.dims(v);
  const auto bb = b.bins(v);
  for (std::size_t t = 0, iu = 0, iv = 0; t + 1 < ad.size(); ++t, ++iu, ++iv) {
    if (iu == du) ++iu;
    if (iv == dv) ++iv;
    if (ad[iu] != bd[iv] || ab[iu] != bb[iv]) return false;
  }
  return true;
}

/// Open-addressing slot count for `entries` keys at load factor ≤ 1/2.
std::size_t table_slots(std::size_t entries) {
  return std::bit_ceil(std::max<std::size_t>(2 * entries, 2));
}

/// Appends unit `a` of `dense` plus coordinate (y_dim, y_bin) — a dim `a`
/// does not hold — to `out`, keeping dims ascending.
void push_with(const UnitStore& dense, std::size_t a, DimId y_dim, BinId y_bin,
               UnitStore& out) {
  std::array<DimId, kMaxDims> dims;
  std::array<BinId, kMaxDims> bins;
  const auto ad = dense.dims(a);
  const auto ab = dense.bins(a);
  std::size_t o = 0;
  std::size_t i = 0;
  for (; i < ad.size() && ad[i] < y_dim; ++i, ++o) {
    dims[o] = ad[i];
    bins[o] = ab[i];
  }
  dims[o] = y_dim;
  bins[o] = y_bin;
  for (++o; i < ad.size(); ++i, ++o) {
    dims[o] = ad[i];
    bins[o] = ab[i];
  }
  out.push_unchecked(dims.data(), bins.data());
}

}  // namespace

bool try_join(const UnitStore& dense, std::size_t a, std::size_t b, JoinRule rule,
              UnitStore& out) {
  require(out.k() == dense.k() + 1, "try_join: output store has wrong k");
  std::array<DimId, kMaxDims> dims;
  std::array<BinId, kMaxDims> bins;
  const bool ok = rule == JoinRule::MafiaAnyShared
                      ? merge_mafia(dense.dims(a), dense.bins(a), dense.dims(b),
                                    dense.bins(b), dims.data(), bins.data())
                      : merge_clique(dense.dims(a), dense.bins(a), dense.dims(b),
                                     dense.bins(b), dims.data(), bins.data());
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

// ------------------------------------------------------ signature index

JoinBucketIndex::JoinBucketIndex(const UnitStore& dense, JoinRule rule)
    : dense_(&dense) {
  const std::size_t km1 = dense.k();
  const std::size_t n = dense.size();
  // Under the MAFIA rule every unit carries one signature per dropped
  // coordinate; under CLIQUE's prefix rule only the one dropping its last.
  // km1 == 1 degenerates to the empty signature: one global bucket.
  per_unit_ = rule == JoinRule::MafiaAnyShared ? km1 : 1;
  const std::size_t entries = n * per_unit_;
  require(entries < std::numeric_limits<std::uint32_t>::max(),
          "JoinBucketIndex: too many signature entries");
  unit_bucket_.resize(entries);
  work_.assign(n, 0);
  offsets_.assign(1, 0);
  if (entries == 0) return;

  // Bucket ids in order of first appearance.  A slot holds id + 1 (0 is
  // empty); a bucket keeps its signature hash and its first member, which
  // a colliding entry's content is compared against.
  const std::size_t mask = table_slots(entries) - 1;
  std::vector<std::uint32_t> slots(mask + 1, 0);
  std::vector<std::uint64_t> bucket_hash;
  std::vector<Member> bucket_rep;
  std::vector<std::uint32_t> sizes;
  std::array<std::uint64_t, kMaxDims> mix;
  for (std::size_t u = 0; u < n; ++u) {
    const std::uint64_t h = unit_mixes(dense, u, mix.data());
    for (std::size_t s = 0; s < per_unit_; ++s) {
      const std::size_t drop = drop_of(s);
      const std::uint64_t sig = h - mix[drop];
      std::size_t slot = sig & mask;
      std::uint32_t id = 0;
      while (true) {
        if (slots[slot] == 0) {
          id = static_cast<std::uint32_t>(bucket_hash.size());
          slots[slot] = id + 1;
          bucket_hash.push_back(sig);
          bucket_rep.push_back({static_cast<std::uint32_t>(u),
                                static_cast<std::uint32_t>(drop)});
          sizes.push_back(0);
          break;
        }
        id = slots[slot] - 1;
        if (bucket_hash[id] == sig &&
            same_without(dense, u, drop, dense, bucket_rep[id].unit,
                         bucket_rep[id].drop)) {
          break;
        }
        slot = (slot + 1) & mask;
      }
      unit_bucket_[u * per_unit_ + s] = id;
      ++sizes[id];
    }
  }

  // CSR layout; filling in unit order keeps each bucket's members
  // ascending.  The sizes become the fill cursors.
  offsets_.resize(sizes.size() + 1);
  for (std::size_t b = 0; b < sizes.size(); ++b) {
    offsets_[b + 1] = offsets_[b] + sizes[b];
    sizes[b] = offsets_[b];
  }
  members_.resize(entries);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t s = 0; s < per_unit_; ++s) {
      const std::uint32_t b = unit_bucket_[u * per_unit_ + s];
      members_[sizes[b]++] = {static_cast<std::uint32_t>(u),
                              static_cast<std::uint32_t>(drop_of(s))};
      work_[u] += offsets_[b + 1] - offsets_[b] - 1;
    }
  }
}

void JoinBucketIndex::partners_of(std::size_t a, std::vector<Partner>& out,
                                  JoinStats& stats) const {
  const UnitStore& dense = *dense_;
  out.clear();
  const auto a_dims = dense.dims(a);
  for (std::size_t s = 0; s < per_unit_; ++s) {
    const DimId dropped = a_dims[drop_of(s)];
    const std::uint32_t b = unit_bucket_[a * per_unit_ + s];
    stats.buckets += members_[offsets_[b]].unit == a;
    for (std::uint32_t i = offsets_[b]; i < offsets_[b + 1]; ++i) {
      const Member& m = members_[i];
      stats.probes += m.unit > a;
      // A member whose extra coordinate lies on the dim `a` dropped holds
      // a's dims with another bin there (or is a itself): never joins.
      const DimId y_dim = dense.dims(m.unit)[m.drop];
      if (y_dim == dropped) continue;
      out.push_back({(std::uint32_t{y_dim} << 8) | dense.bins(m.unit)[m.drop],
                     m.unit});
    }
  }
}

JoinResult JoinBucketIndex::join_unique(std::size_t unit_begin,
                                        std::size_t unit_end) const {
  const UnitStore& dense = *dense_;
  require(unit_begin <= unit_end && unit_end <= dense.size(),
          "JoinBucketIndex::join_unique: bad unit range");
  JoinResult result;
  result.cdus = UnitStore(dense.k() + 1);
  result.combined.assign(dense.size(), 0);

  // Per unit a: its partners; a grouping table sized to their count that
  // maps each extra coordinate y to its group's lowest unit, as
  // (y + 1) << 32 | unit (0 = empty); and the candidates a emits, as
  // (second-lowest face) << 16 | y.
  std::vector<Partner> partners;
  std::vector<std::uint64_t> group;
  std::vector<std::uint64_t> firsts;
  for (std::size_t a = unit_begin; a < unit_end; ++a) {
    partners_of(a, partners, result.stats);
    if (partners.empty()) continue;
    result.combined[a] = 1;
    firsts.clear();
    for (const Partner& pt : partners) result.stats.emitted += pt.unit > a;
    if (per_unit_ == 1) {
      // One bucket: every group is a single member, already ascending.
      for (const Partner& pt : partners) {
        if (pt.unit > a) firsts.push_back(std::uint64_t{pt.unit} << 16 | pt.y);
      }
    } else {
      const std::size_t slots = table_slots(partners.size());
      const std::size_t mask = slots - 1;
      const int shift = 64 - std::countr_zero(slots);
      group.assign(slots, 0);
      for (const Partner& pt : partners) {
        std::size_t slot = (pt.y * 0x9e3779b97f4a7c15ull) >> shift;
        while (group[slot] != 0 && (group[slot] >> 32) != pt.y + 1) {
          slot = (slot + 1) & mask;
        }
        if (group[slot] == 0 ||
            pt.unit < static_cast<std::uint32_t>(group[slot])) {
          group[slot] = (std::uint64_t{pt.y} + 1) << 32 | pt.unit;
        }
      }
      for (const std::uint64_t g : group) {
        const auto lowest = static_cast<std::uint32_t>(g);
        if (g != 0 && lowest > a) {
          firsts.push_back(std::uint64_t{lowest} << 16 | ((g >> 32) - 1));
        }
      }
      std::sort(firsts.begin(), firsts.end());
    }
    for (const std::uint64_t f : firsts) {
      push_with(dense, a, static_cast<DimId>(f >> 8), static_cast<BinId>(f),
                result.cdus);
    }
  }
  result.stats.repeats_fused = result.stats.emitted - result.cdus.size();
  return result;
}

JoinResult JoinBucketIndex::join_raw(std::size_t unit_begin,
                                     std::size_t unit_end) const {
  const UnitStore& dense = *dense_;
  require(unit_begin <= unit_end && unit_end <= dense.size(),
          "JoinBucketIndex::join_raw: bad unit range");
  JoinResult result;
  result.cdus = UnitStore(dense.k() + 1);
  result.combined.assign(dense.size(), 0);

  std::vector<Partner> partners;
  for (std::size_t a = unit_begin; a < unit_end; ++a) {
    partners_of(a, partners, result.stats);
    std::erase_if(partners, [a](const Partner& pt) { return pt.unit <= a; });
    // A unit meets each partner in one bucket only, so ascending unit
    // order is the pairwise scan's order for row a.
    std::sort(partners.begin(), partners.end(),
              [](const Partner& x, const Partner& y) { return x.unit < y.unit; });
    for (const Partner& pt : partners) {
      push_with(dense, a, static_cast<DimId>(pt.y >> 8),
                static_cast<BinId>(pt.y), result.cdus);
      result.parents.emplace_back(static_cast<std::uint32_t>(a), pt.unit);
      result.combined[a] = 1;
      result.combined[pt.unit] = 1;
    }
    result.stats.emitted += partners.size();
  }
  return result;
}

JoinResult bucket_join_dense_units(const UnitStore& dense, JoinRule rule) {
  const JoinBucketIndex index(dense, rule);
  return index.join_raw(0, dense.size());
}

std::vector<std::uint8_t> mark_dense_parents(const UnitStore& dense,
                                             const UnitStore& cdus,
                                             std::span<const std::uint8_t> flags,
                                             JoinRule rule) {
  require(cdus.k() == dense.k() + 1 && flags.size() == cdus.size(),
          "mark_dense_parents: candidates do not match the dense store");
  std::vector<std::uint8_t> marked(dense.size(), 0);
  if (dense.empty()) return marked;

  // Content -> index lookup over the dense units, keyed by the additive
  // unit hash, so a candidate's face hashes in one subtraction.
  const std::size_t mask = table_slots(dense.size()) - 1;
  std::vector<std::uint32_t> slots(mask + 1, 0);  // index + 1; 0 = empty
  std::vector<std::uint64_t> hashes(dense.size());
  std::array<std::uint64_t, kMaxDims> mix;
  for (std::size_t u = 0; u < dense.size(); ++u) {
    hashes[u] = unit_mixes(dense, u, mix.data());
    std::size_t slot = hashes[u] & mask;
    while (slots[slot] != 0) slot = (slot + 1) & mask;
    slots[slot] = static_cast<std::uint32_t>(u + 1);
  }

  const std::size_t k = cdus.k();
  const std::size_t first_face = rule == JoinRule::MafiaAnyShared ? 0 : k - 2;
  for (std::size_t c = 0; c < cdus.size(); ++c) {
    if (!flags[c]) continue;
    const std::uint64_t h = unit_mixes(cdus, c, mix.data());
    for (std::size_t z = first_face; z < k; ++z) {
      const std::uint64_t face = h - mix[z];
      for (std::size_t slot = face & mask; slots[slot] != 0;
           slot = (slot + 1) & mask) {
        const std::size_t u = slots[slot] - 1;
        if (hashes[u] == face && same_without(cdus, c, z, dense, u, k - 1)) {
          marked[u] = 1;
          break;
        }
      }
    }
  }
  return marked;
}

}  // namespace mafia
