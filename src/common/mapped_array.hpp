// Owning array of trivially copyable elements on an anonymous page mapping
// of its own.
//
// The elements live in pages the array maps itself, never in the malloc
// heap:
//   * growth remaps the pages (mremap on Linux) instead of allocating a
//     second buffer and copying into it, so appending a batch to a large
//     data set copies no element and never holds two resident copies;
//   * destruction unmaps them, so a freed array returns its pages to the
//     kernel at once, whatever its size, instead of leaving them in a
//     malloc arena;
//   * the kernel hands out zero pages and the array never shrinks, so every
//     element past size() is zero and growing writes nothing.
// A mapping of at least kHugePageBytes is advised MADV_HUGEPAGE, so a bulk
// load faults a 2 MiB page at a time instead of 512 small ones.  Elsewhere
// than Linux, growth maps new pages, copies and unmaps the old ones.
//
// AddressSanitizer does not track a mapping's bytes, so under it the
// unused tail of the mapping — always at least kGuardBytes past the last
// element — is poisoned: a read past size() reports as it would on a heap
// vector.  LeakSanitizer cannot see a leaked mapping; the tests count the
// process's mappings instead.
//
// The data set (io/dataset.hpp) keeps its values and labels in one, and the
// populate bitmap index (units/bitmap_index.hpp) its bitset words.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>

namespace mafia {

namespace page_mapping {

/// Mappings of at least this many bytes are advised MADV_HUGEPAGE.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Poisoned bytes kept past the last element under AddressSanitizer.
#if defined(__SANITIZE_ADDRESS__)
inline constexpr std::size_t kGuardBytes = 64;
#else
inline constexpr std::size_t kGuardBytes = 0;
#endif

/// Bytes to map for `count` elements of `elem_bytes` each plus the guard,
/// rounded up to whole pages; throws ResourceError past the address space.
[[nodiscard]] std::size_t bytes_for(std::size_t count, std::size_t elem_bytes);

/// Maps `bytes` (from bytes_for) of zero pages, all of them poisoned.
[[nodiscard]] void* map(std::size_t bytes);

/// Grows the mapping at `p` from `old_bytes` to `new_bytes`, keeping its
/// contents, and returns its address, which may have moved.  The first
/// `used` bytes stay addressable and the rest is poisoned.
[[nodiscard]] void* grow(void* p, std::size_t old_bytes, std::size_t new_bytes,
                         std::size_t used);

/// Unmaps a mapping made by map() or grow().
void unmap(void* p, std::size_t bytes) noexcept;

/// Makes `bytes` at `p` addressable for AddressSanitizer (no-op without it).
void expose(void* p, std::size_t bytes) noexcept;

}  // namespace page_mapping

template <class T>
class MappedArray {
  static_assert(std::is_trivially_copyable_v<T>,
                "MappedArray holds trivially copyable elements");

 public:
  MappedArray() = default;

  /// `n` zero elements.
  explicit MappedArray(std::size_t n) { extend(n); }

  MappedArray(const MappedArray& other) { append(other.data(), other.size()); }
  MappedArray(MappedArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)),
        mapped_(std::exchange(other.mapped_, 0)) {}
  MappedArray& operator=(MappedArray other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(capacity_, other.capacity_);
    std::swap(mapped_, other.mapped_);
    return *this;
  }
  ~MappedArray() {
    if (data_ != nullptr) page_mapping::unmap(data_, mapped_);
  }

  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  [[nodiscard]] T& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }

  [[nodiscard]] std::span<const T> span() const { return {data_, size_}; }

  /// Makes room for `n` elements without changing size().
  void reserve(std::size_t n) {
    if (n <= capacity_) return;
    const std::size_t bytes = page_mapping::bytes_for(n, sizeof(T));
    void* p = data_ == nullptr
                  ? page_mapping::map(bytes)
                  : page_mapping::grow(data_, mapped_, bytes, size_ * sizeof(T));
    data_ = static_cast<T*>(p);
    mapped_ = bytes;
    capacity_ = (bytes - page_mapping::kGuardBytes) / sizeof(T);
  }

  /// Appends `n` zero elements and returns the first of them, for the
  /// caller to fill in place.
  T* extend(std::size_t n) {
    if (n > capacity_ - size_) {
      // An impossible count saturates, and bytes_for() then refuses it.
      const std::size_t need =
          n > std::numeric_limits<std::size_t>::max() - size_ ? n : size_ + n;
      reserve(std::max(need, 2 * capacity_));
    }
    T* first = data_ + size_;
    page_mapping::expose(first, n * sizeof(T));
    size_ += n;
    return first;
  }

  /// Appends `n` elements copied from `src`, which may point into this
  /// array: it is read again after the mapping moves.
  void append(const T* src, std::size_t n) {
    if (n == 0) return;
    const bool inside = std::greater_equal<const T*>{}(src, data_) &&
                        std::less<const T*>{}(src, data_ + size_);
    const std::size_t offset = inside ? static_cast<std::size_t>(src - data_) : 0;
    T* to = extend(n);
    std::copy_n(inside ? data_ + offset : src, n, to);
  }

  void push_back(const T& value) {
    const T copy = value;  // `value` may live in the mapping extend() moves
    *extend(1) = copy;
  }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;  // elements that fit before the guard
  std::size_t mapped_ = 0;    // bytes mapped
};

}  // namespace mafia
