#include "units/bitmap_index.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

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

// ------------------------------------------------------------ WordMapping

BitmapIndex::WordMapping::WordMapping(std::size_t words) {
  if (words == 0) return;
  if (words > std::numeric_limits<std::size_t>::max() / sizeof(std::uint64_t)) {
    throw ResourceError("populate bitmap index: " + std::to_string(words) +
                        " words exceed the address space");
  }
  void* p = ::mmap(nullptr, words * sizeof(std::uint64_t),
                   PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    throw ResourceError("populate bitmap index: cannot map " +
                        std::to_string(words * sizeof(std::uint64_t)) +
                        " bytes");
  }
  data_ = static_cast<std::uint64_t*>(p);
  size_ = words;
}

BitmapIndex::WordMapping::~WordMapping() {
  if (data_ != nullptr) ::munmap(data_, size_ * sizeof(std::uint64_t));
}

BitmapIndex::WordMapping::WordMapping(WordMapping&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

BitmapIndex::WordMapping& BitmapIndex::WordMapping::operator=(
    WordMapping&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) ::munmap(data_, size_ * sizeof(std::uint64_t));
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

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
  words_ = WordMapping(num_bitsets_ * stride_);
}

void BitmapIndex::add(const Value* rows, std::size_t nrows) {
  require(nrows <= capacity() - rows_,
          "BitmapIndex::add: rows past the index capacity");
  // Per-dimension targets in locals: the word stores below have the type
  // of the size_t members, so the compiler would otherwise reload those
  // members after every store.
  struct Target {
    std::size_t column;
    const DimensionGrid* grid;
    std::uint64_t* words;  // bitset of the dimension's bin 0
  };
  std::vector<Target> targets;
  targets.reserve(dims_.size());
  for (const DimId j : dims_) {
    targets.push_back({j, &(*grids_)[j], words_.data() + first_[j] * stride_});
  }
  const std::size_t d = grids_->num_dims();
  const std::size_t stride = stride_;
  for (std::size_t r = 0; r < nrows; ++r) {
    const std::size_t row = rows_ + r;
    const std::size_t word = row >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (row & 63);
    const Value* v = rows + r * d;
    for (const Target& t : targets) {
      const BinId bin = t.grid->bin_of(v[t.column]);
      // Only a NaN bins past the grid; no CDU counts it.
      if (bin < t.grid->num_bins()) t.words[bin * stride + word] |= bit;
    }
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
