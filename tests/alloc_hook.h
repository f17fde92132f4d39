// Counting replacement of the global operator new/delete, for the tests
// that prove a code path performs no heap allocation: read g_alloc_count
// before and after the measured region.
//
// The replacements are ordinary (non-inline) definitions, as the standard
// requires, so include this header in exactly one translation unit of a
// test binary. The counter is not atomic: the simulator under test is
// single-threaded, and gtest does not allocate concurrently with a test
// body.
#ifndef LEAP_TESTS_ALLOC_HOOK_H_
#define LEAP_TESTS_ALLOC_HOOK_H_

#include <cstddef>
#include <cstdlib>
#include <new>

// operator new / new[] calls since start-up.
inline size_t g_alloc_count = 0;

// Every replacement stays out of line. Inlined, the malloc() in new or
// the free() in delete meets its partner at a call site, and gcc 12 flags
// the pair under -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](size_t size) {
  return ::operator new(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, size_t) noexcept {
  std::free(p);
}

#endif  // LEAP_TESTS_ALLOC_HOOK_H_
