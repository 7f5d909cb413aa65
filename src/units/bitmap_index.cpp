#include "units/bitmap_index.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <string>

#include "common/error.hpp"

#if defined(__x86_64__) && !defined(PMAFIA_DISABLE_SIMD)
#include <immintrin.h>
#elif defined(__aarch64__) && !defined(PMAFIA_DISABLE_SIMD)
#include <arm_neon.h>
#endif

namespace mafia {

namespace {

/// first_ entry of a dimension the index does not cover.
constexpr std::size_t kNotIndexed = std::numeric_limits<std::size_t>::max();

/// Words per bitset in one counting block: 4 KiB, so one block of a
/// hundred-odd bitsets fits in L2.
constexpr std::size_t kBlockWords = 512;

/// Rows per index word, and so per add() block.
constexpr std::size_t kWordBits = 64;

// ------------------------------------------------ block binning
//
// Bit i of a lane mask tells whether lane i of one 64-lane block column
// passes a compare: not_nan_lanes (the value equals itself) and
// at_least_lanes (the value is >= an edge).  The SSE2 path — part of the
// x86-64 baseline, so it needs no dispatch — compares 4 lanes at once and
// packs 16 compare results per movemask.  The portable path fills a byte
// per lane, a loop compilers vectorize, and one multiply packs each 8
// bytes of 0/1 into 8 bits (byte j lands in bit 56 + j; the partial
// products never overlap).  Both give identical masks; building with
// PMAFIA_DISABLE_SIMD compiles only the portable path.
//
// kSweepMaxBins is the most bins per dimension add() bins by the edge
// sweep: one lane mask per edge beats one bin_of per value up to about
// that many bins, a crossover bench_kernels' BM_BitmapIndexAdd measures
// (~56 bins with SSE2 and ~30 portable, on a 4-vCPU x86-64 host).

#if defined(__x86_64__) && !defined(PMAFIA_DISABLE_SIMD)

constexpr std::size_t kSweepMaxBins = 48;

template <class Cmp>
std::uint64_t lane_mask(const Value* col, Cmp cmp) {
  const auto lanes4 = [&](std::size_t i) {
    return _mm_castps_si128(cmp(_mm_loadu_ps(col + i)));
  };
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < kWordBits; i += 16) {
    const __m128i lo = _mm_packs_epi32(lanes4(i), lanes4(i + 4));
    const __m128i hi = _mm_packs_epi32(lanes4(i + 8), lanes4(i + 12));
    const auto bits16 =
        static_cast<std::uint16_t>(_mm_movemask_epi8(_mm_packs_epi16(lo, hi)));
    mask |= std::uint64_t{bits16} << i;
  }
  return mask;
}

std::uint64_t not_nan_lanes(const Value* col) {
  return lane_mask(col, [](__m128 v) { return _mm_cmpord_ps(v, v); });
}

std::uint64_t at_least_lanes(const Value* col, Value edge) {
  const __m128 e = _mm_set1_ps(edge);
  return lane_mask(col, [e](__m128 v) { return _mm_cmpge_ps(v, e); });
}

#else

constexpr std::size_t kSweepMaxBins = 32;

template <class Pred>
std::uint64_t lane_mask(const Value* col, Pred pred) {
  std::uint8_t hit[kWordBits];
  for (std::size_t i = 0; i < kWordBits; ++i) hit[i] = pred(col[i]) ? 1 : 0;
  std::uint64_t mask = 0;
  for (std::size_t g = 0; g < kWordBits / 8; ++g) {
    std::uint64_t bytes = 0;
    std::memcpy(&bytes, hit + 8 * g, sizeof bytes);
    if constexpr (std::endian::native == std::endian::big) {
      bytes = __builtin_bswap64(bytes);
    }
    mask |= ((bytes * 0x0102040810204080ull) >> 56) << (8 * g);
  }
  return mask;
}

std::uint64_t not_nan_lanes(const Value* col) {
  return lane_mask(col, [](Value v) { return v == v; });
}

std::uint64_t at_least_lanes(const Value* col, Value edge) {
  return lane_mask(col, [edge](Value v) { return v >= edge; });
}

#endif

// ------------------------------------------------ AND + popcount
//
// popcount(bm[0][w] & ... & bm[k-1][w]) summed over the word range
// [w0, w1).  The portable path is the semantic definition; the SIMD paths
// widen the AND to 256 bits (AVX2) or 128 bits (NEON) and must produce
// identical sums.  Building with PMAFIA_DISABLE_SIMD compiles only the
// portable path (the sanitizer CI leg exercises it on every host).

using BitsetPtrs = const std::uint64_t* const*;

Count and_popcount_portable(BitsetPtrs bm, std::size_t k, std::size_t w0,
                            std::size_t w1) {
  Count c = 0;
  for (std::size_t w = w0; w < w1; ++w) {
    std::uint64_t x = bm[0][w];
    for (std::size_t i = 1; i < k; ++i) x &= bm[i][w];
    c += static_cast<Count>(std::popcount(x));
  }
  return c;
}

#if defined(__x86_64__) && !defined(PMAFIA_DISABLE_SIMD)

__attribute__((target("avx2,popcnt"))) Count and_popcount_avx2(
    BitsetPtrs bm, std::size_t k, std::size_t w0, std::size_t w1) {
  Count c = 0;
  std::size_t w = w0;
  for (; w + 4 <= w1; w += 4) {
    __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bm[0] + w));
    for (std::size_t i = 1; i < k; ++i) {
      x = _mm256_and_si256(
          x, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bm[i] + w)));
    }
    alignas(32) std::uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), x);
    c += static_cast<Count>(
        _mm_popcnt_u64(lanes[0]) + _mm_popcnt_u64(lanes[1]) +
        _mm_popcnt_u64(lanes[2]) + _mm_popcnt_u64(lanes[3]));
  }
  for (; w < w1; ++w) {
    std::uint64_t x = bm[0][w];
    for (std::size_t i = 1; i < k; ++i) x &= bm[i][w];
    c += static_cast<Count>(_mm_popcnt_u64(x));
  }
  return c;
}

#elif defined(__aarch64__) && !defined(PMAFIA_DISABLE_SIMD)

Count and_popcount_neon(BitsetPtrs bm, std::size_t k, std::size_t w0,
                        std::size_t w1) {
  Count c = 0;
  std::size_t w = w0;
  for (; w + 2 <= w1; w += 2) {
    uint64x2_t x = vld1q_u64(bm[0] + w);
    for (std::size_t i = 1; i < k; ++i) x = vandq_u64(x, vld1q_u64(bm[i] + w));
    // vcntq_u8 counts per byte; the 16 byte-counts sum to at most 128, so
    // the across-vector byte add cannot wrap.
    c += static_cast<Count>(vaddvq_u8(vcntq_u8(vreinterpretq_u8_u64(x))));
  }
  for (; w < w1; ++w) {
    std::uint64_t x = bm[0][w];
    for (std::size_t i = 1; i < k; ++i) x &= bm[i][w];
    c += static_cast<Count>(std::popcount(x));
  }
  return c;
}

#endif

using AndPopcountFn = Count (*)(BitsetPtrs, std::size_t, std::size_t,
                                std::size_t);

/// Resolves the AND+popcount implementation once per process: AVX2+POPCNT
/// when the host supports it, NEON on AArch64, std::popcount otherwise.
AndPopcountFn resolve_and_popcount() {
#if defined(__x86_64__) && !defined(PMAFIA_DISABLE_SIMD)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt")) {
    return &and_popcount_avx2;
  }
#elif defined(__aarch64__) && !defined(PMAFIA_DISABLE_SIMD)
  return &and_popcount_neon;
#endif
  return &and_popcount_portable;
}

}  // namespace

// ------------------------------------------------------------ BitmapIndex

BitmapIndex::BitmapIndex(const GridSet& grids, std::size_t capacity_rows,
                         std::span<const std::uint8_t> dim_used)
    : grids_(&grids), first_(grids.num_dims(), kNotIndexed) {
  require(dim_used.empty() || dim_used.size() == grids.num_dims(),
          "BitmapIndex: dimension mask size mismatch");
  for (std::size_t j = 0; j < grids.num_dims(); ++j) {
    if (!dim_used.empty() && dim_used[j] == 0) continue;
    dims_.push_back(static_cast<DimId>(j));
    first_[j] = num_bitsets_;
    num_bitsets_ += grids[j].num_bins();
  }
  stride_ = (capacity_rows + 63) / 64;
  words_ = MappedArray<std::uint64_t>(num_bitsets_ * stride_);
}

void BitmapIndex::add(const Value* rows, std::size_t nrows) {
  require(nrows <= capacity() - rows_,
          "BitmapIndex::add: rows past the index capacity");
  // Per-dimension targets in locals: the word stores below have the type
  // of the size_t members, so the compiler would otherwise reload those
  // members after every store.
  struct Target {
    const DimensionGrid* grid;
    std::uint64_t* words;  // bitset of the dimension's bin 0
    bool sweep;            // edge sweep, else per-value bin_of
  };
  std::vector<Target> targets;
  targets.reserve(dims_.size());
  for (const DimId j : dims_) {
    const DimensionGrid& g = (*grids_)[j];
    targets.push_back({&g, words_.data() + first_[j] * stride_,
                       g.num_bins() <= kSweepMaxBins});
  }
  const std::size_t d = grids_->num_dims();
  const std::size_t nd = dims_.size();
  const std::size_t stride = stride_;
  // The block's indexed columns, column-major: cols[t * 64 + i] is row i's
  // value of dimension dims_[t].  Zeroed once so the lanes past a short
  // block read a determinate value; the valid mask drops their bits.
  std::vector<Value> cols(nd * kWordBits, 0.0f);
  // Per-value strategy's block-local words, all zero between stores.
  std::uint64_t local[kMaxBinsPerDim] = {};
  BinId bins[kWordBits] = {};
  const DimId* dims = dims_.data();

  for (std::size_t r = 0; r < nrows;) {
    // A block ends on an index word boundary; only a call's first block
    // can start mid-word, so its masks shift by the in-word offset.
    const std::size_t word = (rows_ + r) / kWordBits;
    const std::size_t off = (rows_ + r) % kWordBits;
    const std::size_t n = std::min(kWordBits - off, nrows - r);
    const std::uint64_t valid =
        n == kWordBits ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
    const Value* block = rows + r * d;
    for (std::size_t i = 0; i < n; ++i) {
      const Value* v = block + i * d;
      for (std::size_t t = 0; t < nd; ++t) cols[t * kWordBits + i] = v[dims[t]];
    }

    for (std::size_t t = 0; t < nd; ++t) {
      const Target& tg = targets[t];
      const Value* col = cols.data() + t * kWordBits;
      std::uint64_t* at = tg.words + word;
      // Every (dim, bin) word this block sets is written once.
      const auto store = [&](std::size_t bin, std::uint64_t mask) {
        mask &= valid;
        if (mask != 0) at[bin * stride] |= mask << off;
      };
      const std::size_t nb = tg.grid->num_bins();
      if (tg.sweep) {
        // ge_b: rows with v >= edges[b] (ge_0: every non-NaN row, ge_nb:
        // none); bin b holds ge_b & ~ge_{b+1}.  This is bin_of's mapping,
        // clamping included, for every non-NaN value.
        const Value* e = tg.grid->edges.data();
        std::uint64_t ge = not_nan_lanes(col);
        for (std::size_t b = 0; b < nb; ++b) {
          const std::uint64_t next =
              b + 1 < nb ? at_least_lanes(col, e[b + 1]) : 0;
          store(b, ge & ~next);
          ge = next;
        }
      } else {
        // One bin_of per value into block-local words; a NaN sets no bit.
        for (std::size_t i = 0; i < n; ++i) {
          const Value v = col[i];
          bins[i] = tg.grid->bin_of(v);
          local[bins[i]] |= std::uint64_t{v == v} << i;
        }
        for (std::size_t i = 0; i < n; ++i) {
          if (local[bins[i]] == 0) continue;
          store(bins[i], local[bins[i]]);
          local[bins[i]] = 0;
        }
      }
    }
    r += n;
  }
  rows_ += nrows;
}

std::uint64_t BitmapIndex::count(const UnitStore& cdus,
                                 std::span<Count> counts) const {
  require(counts.size() == cdus.size(),
          "BitmapIndex::count: counts size mismatch");
  if (rows_ == 0) return 0;
  static const AndPopcountFn and_popcount = resolve_and_popcount();

  // Bits past rows_ are never set, so whole words are counted.
  const std::size_t k = cdus.k();
  const std::size_t words = (rows_ + 63) / 64;

  // Checked once: every dimension indexed; a bin past its grid holds no
  // row (bin_of never returns it), so that CDU keeps its count.
  std::vector<std::uint8_t> live(cdus.size(), 1);
  std::size_t num_live = 0;
  for (std::size_t u = 0; u < cdus.size(); ++u) {
    const auto dims = cdus.dims(u);
    const auto bins = cdus.bins(u);
    for (std::size_t i = 0; i < k; ++i) {
      if (dims[i] >= first_.size() || first_[dims[i]] == kNotIndexed) {
        throw Error("BitmapIndex::count: dimension " +
                        std::to_string(dims[i]) + " is not indexed",
                    ErrorClass::Internal);
      }
      if (bins[i] >= (*grids_)[dims[i]].num_bins()) live[u] = 0;
    }
    num_live += live[u];
  }

  // Word blocks, all CDUs per block: one block's slice of every bitset
  // stays in cache while the CDUs sharing those bitsets sweep it.
  std::vector<const std::uint64_t*> ptrs(k);
  for (std::size_t b0 = 0; b0 < words; b0 += kBlockWords) {
    const std::size_t b1 = std::min(words, b0 + kBlockWords);
    for (std::size_t u = 0; u < cdus.size(); ++u) {
      if (live[u] == 0) continue;
      const auto dims = cdus.dims(u);
      const auto bins = cdus.bins(u);
      for (std::size_t i = 0; i < k; ++i) ptrs[i] = bitset(dims[i], bins[i]);
      counts[u] += and_popcount(ptrs.data(), k, b0, b1);
    }
  }
  return num_live * words * k;
}

void BitmapIndex::clear() {
  const std::size_t used = (rows_ + 63) / 64;
  for (std::size_t b = 0; b < num_bitsets_; ++b) {
    std::memset(words_.data() + b * stride_, 0, used * sizeof(std::uint64_t));
  }
  rows_ = 0;
}

}  // namespace mafia
