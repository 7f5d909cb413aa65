#include "common/mapped_array.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <limits>
#include <string>

#include "common/error.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace mafia::page_mapping {

namespace {

void poison(void* p, std::size_t bytes) noexcept {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(p, bytes);
#else
  (void)p;
  (void)bytes;
#endif
}

/// Advises huge pages on a mapping large enough to hold one.
void advise(void* p, std::size_t bytes) noexcept {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  // Advice only: a kernel without transparent huge pages refuses it and
  // the mapping keeps small pages.
  if (bytes >= kHugePageBytes) (void)::madvise(p, bytes, MADV_HUGEPAGE);
#else
  (void)p;
  (void)bytes;
#endif
}

[[noreturn]] void fail(const char* what, std::size_t bytes) {
  throw ResourceError(std::string("mapped array: cannot ") + what + " " +
                      std::to_string(bytes) + " bytes");
}

}  // namespace

std::size_t bytes_for(std::size_t count, std::size_t elem_bytes) {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  if (count > (kMax - kGuardBytes - page) / elem_bytes) {
    throw ResourceError("mapped array: " + std::to_string(count) +
                        " elements exceed the address space");
  }
  const std::size_t bytes = count * elem_bytes + kGuardBytes;
  return (bytes + page - 1) / page * page;
}

void* map(std::size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) fail("map", bytes);
  advise(p, bytes);
  poison(p, bytes);
  return p;
}

void* grow(void* p, std::size_t old_bytes, std::size_t new_bytes,
           std::size_t used) {
#if defined(__linux__)
  // The poison stays with the addresses, not the pages: clear it before
  // the pages may move away from them.
  expose(p, old_bytes);
  void* q = ::mremap(p, old_bytes, new_bytes, MREMAP_MAYMOVE);
  if (q == MAP_FAILED) {
    poison(static_cast<char*>(p) + used, old_bytes - used);
    fail("grow to", new_bytes);
  }
  advise(q, new_bytes);
#else
  void* q = map(new_bytes);
  expose(q, used);
  std::memcpy(q, p, used);
  unmap(p, old_bytes);
#endif
  poison(static_cast<char*>(q) + used, new_bytes - used);
  return q;
}

void unmap(void* p, std::size_t bytes) noexcept {
  expose(p, bytes);
  ::munmap(p, bytes);
}

void expose(void* p, std::size_t bytes) noexcept {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#else
  (void)p;
  (void)bytes;
#endif
}

}  // namespace mafia::page_mapping
