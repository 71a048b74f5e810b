// Portable single-word bit primitives for the palette layer and the
// oracle ACD.
//
// The word-parallel color sets (color/color_set.hpp) reduce every
// free-color scan to ctz/popcount over 64-bit words, and the oracle buddy
// test (acd/acd.cpp) intersects packed neighborhoods by popcount. GCC and
// clang map these to __builtin_ctzll/__builtin_popcountll. The popcount
// builtin is one instruction only where the target has one: libccg is
// built with -mpopcnt where the compiler accepts it (CMakeLists.txt);
// without it, GCC on x86-64 calls libgcc's __popcountdi2. Other compilers
// (or -DCCG_BITS_FORCE_FALLBACK for testing) get the plain-loop fallbacks
// below. The fallbacks are always compiled and unit tested against the
// builtin path so they cannot rot.
#pragma once

#include <cstdint>

namespace ccg::bits {

inline constexpr int kWordBits = 64;

// Plain-loop implementations. Correct on every conforming compiler; the
// wrappers below select them when no intrinsic is available.
namespace fallback {

constexpr int popcount64(std::uint64_t x) noexcept {
  int n = 0;
  while (x != 0) {
    x &= x - 1;  // clear lowest set bit
    ++n;
  }
  return n;
}

// Index of the lowest set bit; kWordBits when x == 0 (so callers can use
// the result as "no bit in this word" without a pre-check).
constexpr int ctz64(std::uint64_t x) noexcept {
  if (x == 0) return kWordBits;
  int n = 0;
  while ((x & 1u) == 0) {
    x >>= 1;
    ++n;
  }
  return n;
}

}  // namespace fallback

#if !defined(CCG_BITS_FORCE_FALLBACK) && \
    (defined(__GNUC__) || defined(__clang__))
#define CCG_BITS_HAVE_BUILTINS 1
#else
#define CCG_BITS_HAVE_BUILTINS 0
#endif

// Number of set bits in x.
constexpr int popcount64(std::uint64_t x) noexcept {
#if CCG_BITS_HAVE_BUILTINS
  return __builtin_popcountll(x);
#else
  return fallback::popcount64(x);
#endif
}

// Index of the lowest set bit; kWordBits when x == 0. (__builtin_ctzll
// is undefined at 0, so the zero case is handled before dispatch.)
constexpr int ctz64(std::uint64_t x) noexcept {
  if (x == 0) return kWordBits;
#if CCG_BITS_HAVE_BUILTINS
  return __builtin_ctzll(x);
#else
  return fallback::ctz64(x);
#endif
}

// 1-based find-first-set (POSIX ffs convention): 0 when x == 0.
constexpr int ffs64(std::uint64_t x) noexcept {
  return x == 0 ? 0 : ctz64(x) + 1;
}

}  // namespace ccg::bits
