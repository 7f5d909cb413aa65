// Tests for MappedArray (common/mapped_array.hpp), the page-mapped array the
// data set and the bitmap index keep their storage in: growth against a
// std::vector oracle, deep copies and emptying moves, appends whose source
// is the array itself while its mapping moves, and that no mapping outlives
// its array — LeakSanitizer cannot see a leaked mapping, so the tests read
// /proc/self/maps.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/mapped_array.hpp"
#include "io/dataset.hpp"

namespace mafia {
namespace {

struct AddressRange {
  std::uintptr_t begin = 0;
  std::uintptr_t end = 0;
};

/// The process's mappings, one per line of /proc/self/maps.
std::vector<AddressRange> mappings() {
  std::ifstream maps("/proc/self/maps");
  std::vector<AddressRange> out;
  std::string line;
  while (std::getline(maps, line)) {
    std::istringstream in(line);
    AddressRange r;
    char dash = 0;
    in >> std::hex >> r.begin >> dash >> r.end;
    out.push_back(r);
  }
  return out;
}

/// The mapping holding `p`, or an empty range when none does.
AddressRange mapping_of(const void* p) {
  const auto a = reinterpret_cast<std::uintptr_t>(p);
  for (const AddressRange& r : mappings()) {
    if (a >= r.begin && a < r.end) return r;
  }
  return {};
}

/// One inaccessible page mapped at `at` while it lives, so a mapping that
/// ends there cannot grow in place and must move.  placed() is false when
/// the address was already taken, which forces the move just the same.
class PageBlocker {
 public:
  explicit PageBlocker(std::uintptr_t at)
      : bytes_(static_cast<std::size_t>(::sysconf(_SC_PAGESIZE))) {
    void* p = ::mmap(reinterpret_cast<void*>(at), bytes_, PROT_NONE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED_NOREPLACE, -1, 0);
    if (p == MAP_FAILED) return;
    if (reinterpret_cast<std::uintptr_t>(p) != at) {
      // A kernel without MAP_FIXED_NOREPLACE takes the address as a hint.
      ::munmap(p, bytes_);
      return;
    }
    page_ = p;
  }
  ~PageBlocker() {
    if (page_ != nullptr) ::munmap(page_, bytes_);
  }
  PageBlocker(const PageBlocker&) = delete;
  PageBlocker& operator=(const PageBlocker&) = delete;

  [[nodiscard]] bool placed() const { return page_ != nullptr; }

 private:
  std::size_t bytes_;
  void* page_ = nullptr;
};

TEST(MappedArray, GrowthMatchesAVectorOracle) {
  // From empty, through the huge-page advice size and several doublings,
  // by single elements and by runs of many sizes; every remap must keep
  // every element.
  MappedArray<std::uint32_t> array;
  std::vector<std::uint32_t> oracle;
  const std::size_t target =
      4 * page_mapping::kHugePageBytes / sizeof(std::uint32_t);
  std::uint32_t next = 1;
  std::size_t run = 1;
  std::size_t remaps = 0;
  while (oracle.size() < target) {
    const std::size_t capacity = array.capacity();
    if (run == 1) {
      array.push_back(next);
      oracle.push_back(next++);
    } else {
      std::vector<std::uint32_t> chunk(run);
      std::iota(chunk.begin(), chunk.end(), next);
      next += static_cast<std::uint32_t>(run);
      array.append(chunk.data(), chunk.size());
      oracle.insert(oracle.end(), chunk.begin(), chunk.end());
    }
    ASSERT_EQ(array.size(), oracle.size());
    ASSERT_GE(array.capacity(), array.size());
    if (array.capacity() != capacity) {
      ++remaps;
      ASSERT_TRUE(std::ranges::equal(array.span(), oracle))
          << "after growing to " << array.capacity() << " elements";
    }
    run = run < 100000 ? run * 3 + 1 : 1;
  }
  EXPECT_GE(remaps, 5u);
  EXPECT_GE(array.capacity() * sizeof(std::uint32_t),
            page_mapping::kHugePageBytes);
  EXPECT_TRUE(std::ranges::equal(array.span(), oracle));

  // Growing writes nothing: the new elements are the kernel's zero pages.
  const std::uint32_t* tail = array.extend(5000);
  EXPECT_TRUE(std::all_of(tail, tail + 5000,
                          [](std::uint32_t v) { return v == 0; }));
  EXPECT_EQ(array.size(), oracle.size() + 5000);
}

TEST(MappedArray, CopyIsDeepAndMoveEmptiesTheSource) {
  MappedArray<std::int32_t> a;
  for (std::int32_t i = 0; i < 5000; ++i) a.push_back(i);

  MappedArray<std::int32_t> copy(a);
  ASSERT_NE(copy.data(), a.data());
  EXPECT_TRUE(std::ranges::equal(copy.span(), a.span()));
  copy[0] = -7;
  EXPECT_EQ(a[0], 0);

  MappedArray<std::int32_t> assigned(3);
  assigned = a;
  ASSERT_NE(assigned.data(), a.data());
  EXPECT_TRUE(std::ranges::equal(assigned.span(), a.span()));
  assigned[1] = -9;
  EXPECT_EQ(a[1], 1);

  const std::int32_t* storage = a.data();
  MappedArray<std::int32_t> moved(std::move(a));
  EXPECT_EQ(moved.data(), storage);
  EXPECT_EQ(moved.size(), 5000u);
  EXPECT_EQ(a.data(), nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.capacity(), 0u);

  MappedArray<std::int32_t> target(10);
  target = std::move(moved);
  EXPECT_EQ(target.data(), storage);
  EXPECT_EQ(target.size(), 5000u);
  EXPECT_EQ(moved.size(), 0u);  // NOLINT(bugprone-use-after-move)

  // A moved-from array is empty and usable.
  a.push_back(42);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0], 42);
}

TEST(MappedArray, AppendFromItselfReadsTheSourceAfterTheMappingMoves) {
  MappedArray<std::uint64_t> array(100000);
  std::iota(array.data(), array.data() + array.size(), std::uint64_t{1});
  array.extend(array.capacity() - array.size());  // full: the next append grows
  const std::size_t n = array.size();
  const std::uint64_t* before = array.data();
  const PageBlocker blocker(mapping_of(before).end);

  array.append(array.data(), n);
  ASSERT_EQ(array.size(), 2 * n);
  if (blocker.placed()) {
    EXPECT_NE(array.data(), before);
  }
  for (std::size_t i = 0; i < 2 * n; ++i) {
    const std::size_t src = i % n;
    ASSERT_EQ(array[i], src < 100000 ? src + 1 : 0) << "element " << i;
  }
}

TEST(MappedArray, DatasetAppendRowsOfItselfDoublesTheRows) {
  // The append-batch path with the batch being the base itself: the source
  // rows must be read again once the base's mapping has moved.
  constexpr std::size_t kRows = 10000;
  constexpr std::size_t kDims = 10;
  MappedArray<Value> values(kRows * kDims);
  MappedArray<std::int32_t> labels(kRows);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<Value>(i);
  }
  for (std::size_t r = 0; r < kRows; ++r) {
    labels[r] = static_cast<std::int32_t>(r % 7) - 1;
  }
  Dataset data(kDims, std::move(values), std::move(labels));
  const Value* before = data.values().data();
  const PageBlocker blocker(mapping_of(before).end);

  data.append_rows(data);
  ASSERT_EQ(data.num_records(), 2 * kRows);
  if (blocker.placed()) {
    EXPECT_NE(data.values().data(), before);
  }
  for (std::size_t r = 0; r < 2 * kRows; ++r) {
    const std::size_t src = r % kRows;
    for (std::size_t j = 0; j < kDims; ++j) {
      ASSERT_EQ(data.at(r, j), static_cast<Value>(src * kDims + j))
          << "record " << r << " dim " << j;
    }
    ASSERT_EQ(data.label(r), static_cast<std::int32_t>(src % 7) - 1)
        << "record " << r;
  }
}

TEST(MappedArray, DestroyedArraysLeaveNoMapping) {
  (void)mappings();  // the reader's own first allocations happen here
  [[maybe_unused]] const std::size_t before = mappings().size();
  std::vector<const void*> released;
  {
    MappedArray<float> small(10);
    MappedArray<float> big(page_mapping::kHugePageBytes);
    MappedArray<float> grown;
    for (int i = 0; i < 300000; ++i) grown.push_back(static_cast<float>(i));
    MappedArray<float> copy(big);
    copy = small;  // releases the copy of `big`
    MappedArray<float> moved(std::move(grown));
    released = {small.data(), big.data(), copy.data(), moved.data()};
  }
  for (const void* p : released) {
    EXPECT_EQ(mapping_of(p).end, 0u) << p << " is still mapped";
  }
#if !defined(__SANITIZE_THREAD__)
  // ThreadSanitizer maps shadow memory of its own for the ranges the test
  // touched, so the count is only stable without it.
  EXPECT_EQ(mappings().size(), before);
#endif
}

#if defined(__SANITIZE_ADDRESS__)
// Only an AddressSanitizer build poisons the mapping's unused tail.
TEST(MappedArray, ReadingPastTheEndIsAnAddressSanitizerReport) {
  MappedArray<float> array;
  for (int i = 0; i < 1000; ++i) array.push_back(static_cast<float>(i));
  const float* past = array.data() + array.size();
  EXPECT_DEATH(
      {
        volatile float sink = *past;
        (void)sink;
      },
      "AddressSanitizer");
}
#endif

}  // namespace
}  // namespace mafia
