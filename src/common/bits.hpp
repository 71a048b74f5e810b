// Single-word bit primitives for the palette layer and the oracle ACD.
//
// The word-parallel color sets (color/color_set.hpp) reduce every
// free-color scan to ctz/popcount over 64-bit words, and the oracle buddy
// test (acd/acd.cpp) intersects packed neighborhoods by popcount. Both map
// to the GCC/clang builtins, which the library already requires
// (common/hashing.cpp multiplies unsigned __int128). The popcount builtin
// is one instruction only where the target has one: libccg is built with
// -mpopcnt where the compiler accepts it (CMakeLists.txt); without it, GCC
// on x86-64 calls libgcc's __popcountdi2. tests/test_color_set.cpp checks
// both against plain-loop references.
#pragma once

#include <cstdint>

namespace ccg::bits {

inline constexpr int kWordBits = 64;

// Number of set bits in x.
constexpr int popcount64(std::uint64_t x) noexcept {
  return __builtin_popcountll(x);
}

// Index of the lowest set bit; kWordBits when x == 0, so callers can use
// the result as "no bit in this word" without a pre-check
// (__builtin_ctzll is undefined at 0).
constexpr int ctz64(std::uint64_t x) noexcept {
  return x == 0 ? kWordBits : __builtin_ctzll(x);
}

}  // namespace ccg::bits
