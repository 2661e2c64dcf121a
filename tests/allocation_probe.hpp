// Records the largest single operator-new request, and the number of
// requests, the calling thread makes while an AllocationProbe is alive, so
// a test can assert that a decoder refused a lying count before allocating
// for it, or that a path allocates nothing per event. This header replaces
// the global allocation functions: include it from exactly one source file
// of a test binary.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>

namespace cmarkov::test_support {

inline thread_local bool probe_armed = false;
inline thread_local std::size_t probe_largest = 0;
inline thread_local std::size_t probe_calls = 0;

class AllocationProbe {
 public:
  AllocationProbe() {
    probe_largest = 0;
    probe_calls = 0;
    probe_armed = true;
  }
  ~AllocationProbe() { probe_armed = false; }
  AllocationProbe(const AllocationProbe&) = delete;
  AllocationProbe& operator=(const AllocationProbe&) = delete;

  std::size_t largest() const { return probe_largest; }
  /// operator new calls so far.
  std::size_t calls() const { return probe_calls; }
};

}  // namespace cmarkov::test_support

// Every block comes from malloc and goes back to free; the compiler cannot
// see that pairing through inlined replacements and would warn.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  if (cmarkov::test_support::probe_armed) {
    ++cmarkov::test_support::probe_calls;
    if (size > cmarkov::test_support::probe_largest) {
      cmarkov::test_support::probe_largest = size;
    }
  }
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete(void* block, const std::nothrow_t&) noexcept {
  std::free(block);
}

#pragma GCC diagnostic pop
