// Global operator new/delete instrumentation for the zero-allocation
// guards (tests/test_primitives_scratch.cpp, tests/test_svc_reuse.cpp,
// bench/bench_serving.cpp).
//
// Including this header REPLACES the global allocation operators for the
// whole binary: every operator new (array and align_val_t forms included)
// bumps a counter and falls through to malloc/aligned_alloc. Include it
// from exactly ONE translation unit per binary — i.e. only from
// single-file test/bench binaries, never from library code.
#pragma once

#include <atomic>
#include <cstdlib>
#include <new>

namespace ccg {
namespace alloc_count_detail {
inline std::atomic<long long> count{0};
}  // namespace alloc_count_detail

// Number of global operator-new invocations since process start.
inline long long alloc_count() {
  return alloc_count_detail::count.load();
}
}  // namespace ccg

// The replacements pair new with malloc on purpose (count + fall
// through); GCC's -Wmismatched-new-delete can't see that the operators
// are replaced consistently, so silence it for the definitions only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  ++ccg::alloc_count_detail::count;
  void* p = std::malloc(size);
  if (!p) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  ++ccg::alloc_count_detail::count;
  void* p = std::malloc(size);
  if (!p) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, std::align_val_t al) {
  ++ccg::alloc_count_detail::count;
  const auto a = static_cast<std::size_t>(al);
  void* p = std::aligned_alloc(a, (size + a - 1) / a * a);
  if (!p) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t al) {
  ++ccg::alloc_count_detail::count;
  const auto a = static_cast<std::size_t>(al);
  void* p = std::aligned_alloc(a, (size + a - 1) / a * a);
  if (!p) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop
