#include "units/dedup.hpp"

#include <unordered_map>

namespace mafia {

namespace {

/// Hash-map key view over a unit: the store plus a unit index, hashed and
/// compared by content.  Avoids materializing per-unit key strings.
struct UnitKey {
  const UnitStore* store;
  std::size_t index;
};

struct UnitKeyHash {
  std::size_t operator()(const UnitKey& k) const {
    return static_cast<std::size_t>(k.store->hash(k.index));
  }
};

struct UnitKeyEq {
  bool operator()(const UnitKey& a, const UnitKey& b) const {
    return a.store->equal(a.index, *b.store, b.index);
  }
};

/// First-occurrence map: unit content -> index in the unique store.
using UnitIndexMap =
    std::unordered_map<UnitKey, std::uint32_t, UnitKeyHash, UnitKeyEq>;

}  // namespace

std::vector<std::uint8_t> pairwise_repeat_flags(const UnitStore& raw,
                                                std::size_t i_begin,
                                                std::size_t i_end) {
  require(i_begin <= i_end && i_end <= raw.size(), "pairwise_repeat_flags: bad range");
  std::vector<std::uint8_t> repeat(raw.size(), 0);
  for (std::size_t i = i_begin; i < i_end; ++i) {
    for (std::size_t j = i + 1; j < raw.size(); ++j) {
      if (!repeat[j] && raw.equal(i, j)) repeat[j] = 1;
    }
  }
  return repeat;
}

DedupResult dedup_hash(const UnitStore& raw) {
  DedupResult result;
  result.unique = UnitStore(raw.k());
  result.raw_to_unique.resize(raw.size());

  UnitIndexMap first_occurrence;
  first_occurrence.reserve(raw.size());
  for (std::size_t u = 0; u < raw.size(); ++u) {
    const auto [it, inserted] = first_occurrence.try_emplace(
        UnitKey{&raw, u}, static_cast<std::uint32_t>(result.unique.size()));
    if (inserted) {
      result.unique.push_unchecked(raw.dims(u).data(), raw.bins(u).data());
    } else {
      ++result.num_repeats;
    }
    result.raw_to_unique[u] = it->second;
  }
  return result;
}

DedupResult dedup_from_flags(const UnitStore& raw,
                             const std::vector<std::uint8_t>& repeat_flags) {
  require(repeat_flags.size() == raw.size(), "dedup_from_flags: flag size mismatch");
  DedupResult result;
  result.unique = UnitStore(raw.k());
  result.raw_to_unique.resize(raw.size());

  // Non-repeats become uniques in order; repeats look up their
  // representative (its first occurrence is by construction a non-repeat).
  UnitIndexMap representative;
  representative.reserve(raw.size());
  for (std::size_t u = 0; u < raw.size(); ++u) {
    if (!repeat_flags[u]) {
      const auto id = static_cast<std::uint32_t>(result.unique.size());
      result.unique.push_unchecked(raw.dims(u).data(), raw.bins(u).data());
      representative.emplace(UnitKey{&raw, u}, id);
      result.raw_to_unique[u] = id;
    } else {
      ++result.num_repeats;
      const auto it = representative.find(UnitKey{&raw, u});
      require(it != representative.end(),
              "dedup_from_flags: repeat flagged before its first occurrence");
      result.raw_to_unique[u] = it->second;
    }
  }
  return result;
}

}  // namespace mafia
