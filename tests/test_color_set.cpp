// Property tests for the word-parallel palette layer: common/bits.hpp
// single-word primitives against plain-loop references, and
// color/color_set.hpp against a bool-vector reference model at
// word-boundary universe sizes. A pipeline sweep rides along so the TSan
// CI job (CCG_TEST_THREADS=4) exercises every ColorSet consumer on the
// parallel round engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "cluster/validate.hpp"
#include "color/clique_palette.hpp"
#include "color/color_set.hpp"
#include "common/bits.hpp"
#include "helpers.hpp"

namespace ccg {
namespace {

// ---- bits.hpp: builtins vs plain loops ----

// Reference implementations: clear the lowest set bit / shift until it
// is found. kWordBits for ctz of 0, as bits::ctz64.
constexpr int ref_popcount64(std::uint64_t x) {
  int n = 0;
  for (; x != 0; x &= x - 1) ++n;
  return n;
}

constexpr int ref_ctz64(std::uint64_t x) {
  if (x == 0) return bits::kWordBits;
  int n = 0;
  for (; (x & 1u) == 0; x >>= 1) ++n;
  return n;
}

// Both paths are constexpr; pin the contract at compile time.
static_assert(bits::popcount64(0) == 0);
static_assert(bits::popcount64(~std::uint64_t{0}) == 64);
static_assert(bits::ctz64(0) == bits::kWordBits);
static_assert(bits::ctz64(std::uint64_t{1} << 63) == 63);
static_assert(ref_popcount64(0x5555555555555555ull) == 32);
static_assert(ref_ctz64(0x80ull) == 7);

TEST(Bits, BuiltinsMatchReferenceOnEdgePatterns) {
  const std::uint64_t patterns[] = {
      0,
      1,
      2,
      std::uint64_t{1} << 31,
      std::uint64_t{1} << 32,
      std::uint64_t{1} << 63,
      ~std::uint64_t{0},
      ~std::uint64_t{0} - 1,
      0x5555555555555555ull,
      0xAAAAAAAAAAAAAAAAull,
      0x8000000000000001ull,
  };
  for (const std::uint64_t x : patterns) {
    EXPECT_EQ(ref_popcount64(x), bits::popcount64(x)) << x;
    EXPECT_EQ(ref_ctz64(x), bits::ctz64(x)) << x;
  }
}

TEST(Bits, BuiltinsMatchReferenceOnRandomWords) {
  Rng rng(91);
  for (int i = 0; i < 20000; ++i) {
    // Mix densities: raw draws are ~50% fill; AND two for sparse, OR for
    // dense, so low-population ctz cases show up too.
    std::uint64_t x = rng.next_u64();
    if (i % 3 == 1) x &= rng.next_u64();
    if (i % 3 == 2) x |= rng.next_u64();
    EXPECT_EQ(ref_popcount64(x), bits::popcount64(x)) << x;
    EXPECT_EQ(ref_ctz64(x), bits::ctz64(x)) << x;
  }
}

// ---- ColorSet vs bool-vector reference model ----

// Reference-model counterparts of every query, by color-by-color scan.
int ref_count_in(const std::vector<char>& m, int lo, int hi, bool member) {
  int s = 0;
  for (int c = lo; c <= hi; ++c) {
    if ((m[static_cast<std::size_t>(c)] != 0) == member) ++s;
  }
  return s;
}

int ref_select_free_in(const std::vector<char>& m, int lo, int hi, int i) {
  for (int c = lo; c <= hi; ++c) {
    if (m[static_cast<std::size_t>(c)] == 0 && i-- == 0) return c;
  }
  return -1;
}

int ref_next_free(const std::vector<char>& m, int from) {
  for (int c = from; c < static_cast<int>(m.size()); ++c) {
    if (m[static_cast<std::size_t>(c)] == 0) return c;
  }
  return -1;
}

void check_all_queries(const color::ColorSet& set,
                       const std::vector<char>& m, Rng& rng) {
  const int nc = static_cast<int>(m.size());
  ASSERT_EQ(set.num_colors(), nc);
  EXPECT_EQ(set.count(), ref_count_in(m, 0, nc - 1, true));
  EXPECT_EQ(set.first_free(), ref_next_free(m, 0));
  for (int c = 0; c < nc; ++c) {
    EXPECT_EQ(set.contains(c), m[static_cast<std::size_t>(c)] != 0) << c;
  }
  // Random ranges; always include the full range and the word-boundary
  // straddles when they exist.
  std::vector<std::pair<int, int>> ranges = {{0, nc - 1}};
  if (nc > 64) ranges.push_back({63, 64});
  if (nc > 128) ranges.push_back({64, 127});
  for (int q = 0; q < 50; ++q) {
    const int lo = static_cast<int>(rng.next_below(nc));
    const int hi = lo + static_cast<int>(rng.next_below(nc - lo));
    ranges.push_back({lo, hi});
  }
  for (const auto& [lo, hi] : ranges) {
    const int used = ref_count_in(m, lo, hi, true);
    const int free = ref_count_in(m, lo, hi, false);
    EXPECT_EQ(set.count_in(lo, hi), used) << lo << ".." << hi;
    EXPECT_EQ(set.free_count_in(lo, hi), free) << lo << ".." << hi;
    // Every valid index plus one past the end (-1 expected) — capped so
    // wide ranges stay cheap.
    for (int i = 0; i <= std::min(free, 70); ++i) {
      EXPECT_EQ(set.select_free_in(lo, hi, i),
                ref_select_free_in(m, lo, hi, i));
    }
  }
  for (int q = 0; q < 60; ++q) {
    const int from = static_cast<int>(rng.next_below(nc));
    EXPECT_EQ(set.next_free(from), ref_next_free(m, from)) << from;
  }
  EXPECT_EQ(set.next_free(nc), -1);
}

// Word-boundary universe sizes: 1 (degenerate), 63/64/65 (single word /
// exact word / straddle), 127/128 (two-word tail edges), 256/300.
const int kUniverses[] = {1, 63, 64, 65, 127, 128, 256, 300};

TEST(ColorSet, EmptyAndFullEdges) {
  for (const int nc : kUniverses) {
    Rng rng(static_cast<std::uint64_t>(nc));
    color::ColorSet set;
    set.rebind(nc);
    std::vector<char> m(static_cast<std::size_t>(nc), 0);
    check_all_queries(set, m, rng);  // empty
    EXPECT_EQ(set.first_free(), 0);
    EXPECT_EQ(set.count(), 0);
    for (int c = 0; c < nc; ++c) {
      set.add(c);
      m[static_cast<std::size_t>(c)] = 1;
    }
    check_all_queries(set, m, rng);  // full
    EXPECT_EQ(set.first_free(), -1) << nc;  // tail bits must not leak in
    EXPECT_EQ(set.count(), nc);
    set.remove(nc - 1);
    m[static_cast<std::size_t>(nc - 1)] = 0;
    EXPECT_EQ(set.first_free(), nc - 1);  // last-color free, via tail word
    set.clear();
    EXPECT_EQ(set.count(), 0);
    EXPECT_EQ(set.first_free(), 0);
  }
}

TEST(ColorSet, RandomWorkloadMatchesReference) {
  for (const int nc : kUniverses) {
    Rng rng(1000 + static_cast<std::uint64_t>(nc));
    color::ColorSet set;
    set.rebind(nc);
    std::vector<char> m(static_cast<std::size_t>(nc), 0);
    for (int step = 0; step < 400; ++step) {
      const int c = static_cast<int>(rng.next_below(nc));
      if (m[static_cast<std::size_t>(c)] != 0 && rng.next_bool(0.4)) {
        set.remove(c);
        m[static_cast<std::size_t>(c)] = 0;
      } else {
        set.add(c);
        m[static_cast<std::size_t>(c)] = 1;
      }
      if (step % 80 == 79) check_all_queries(set, m, rng);
    }
    check_all_queries(set, m, rng);
  }
}

TEST(ColorSet, SetAlgebraMatchesReference) {
  for (const int nc : {63, 64, 65, 128, 300}) {
    Rng rng(2000 + static_cast<std::uint64_t>(nc));
    for (int trial = 0; trial < 20; ++trial) {
      color::ColorSet a, b;
      a.rebind(nc);
      b.rebind(nc);
      std::vector<char> ma(static_cast<std::size_t>(nc), 0);
      std::vector<char> mb(static_cast<std::size_t>(nc), 0);
      for (int c = 0; c < nc; ++c) {
        if (rng.next_bool(0.5)) {
          a.add(c);
          ma[static_cast<std::size_t>(c)] = 1;
        }
        if (rng.next_bool(0.5)) {
          b.add(c);
          mb[static_cast<std::size_t>(c)] = 1;
        }
      }
      int want_inter = 0;
      for (int c = 0; c < nc; ++c) {
        if (ma[static_cast<std::size_t>(c)] &&
            mb[static_cast<std::size_t>(c)]) {
          ++want_inter;
        }
      }
      EXPECT_EQ(a.intersect_count(b), want_inter);
      EXPECT_EQ(b.intersect_count(a), want_inter);
    }
  }
}

TEST(ColorSet, RebindClearsAndStraddlesWordBoundaries) {
  color::ColorSet set;
  set.rebind(300);
  for (int c = 0; c < 300; ++c) set.add(c);
  // Shrink: the universe narrows, queries must respect the new bound even
  // though wider storage persists (grow-only allocation contract).
  set.rebind(65);
  EXPECT_EQ(set.num_colors(), 65);
  EXPECT_EQ(set.count(), 0);
  EXPECT_EQ(set.first_free(), 0);
  set.add(64);
  EXPECT_EQ(set.count(), 1);
  EXPECT_EQ(set.count_in(0, 63), 0);
  EXPECT_TRUE(set.contains(64));
  // Grow again: previously-set high words must have been cleared by the
  // intermediate rebind, not resurrected.
  set.rebind(300);
  EXPECT_EQ(set.count(), 0);
  EXPECT_EQ(set.next_free(64), 64);
}

// CliquePalette is a multiplicity counter over a ColorSet; re-check its
// query surface against brute force at a universe that straddles words
// (the pre-existing unit test covers a single-word universe).
TEST(ColorSet, CliquePaletteMultiWordMatchesBruteForce) {
  Rng rng(77);
  const int colors = 129;
  color::CliquePalette pal(colors);
  std::vector<int> mult(static_cast<std::size_t>(colors), 0);
  for (int step = 0; step < 3000; ++step) {
    const int c = static_cast<int>(rng.next_below(colors));
    if (mult[static_cast<std::size_t>(c)] > 0 && rng.next_bool(0.45)) {
      pal.remove(c);
      --mult[static_cast<std::size_t>(c)];
    } else {
      pal.add(c);
      ++mult[static_cast<std::size_t>(c)];
    }
    if (step % 100 != 99) continue;
    const int lo = static_cast<int>(rng.next_below(colors));
    const int hi = lo + static_cast<int>(rng.next_below(colors - lo));
    int used = 0;
    for (int c2 = lo; c2 <= hi; ++c2) {
      if (mult[static_cast<std::size_t>(c2)] > 0) ++used;
    }
    ASSERT_EQ(pal.used_distinct(lo, hi), used);
    ASSERT_EQ(pal.free_count(lo, hi), hi - lo + 1 - used);
    const int free = hi - lo + 1 - used;
    if (free > 0) {
      const int i = static_cast<int>(rng.next_below(free));
      int cnt = 0, want = -1;
      for (int c2 = lo; c2 <= hi; ++c2) {
        if (mult[static_cast<std::size_t>(c2)] == 0 && cnt++ == i) {
          want = c2;
          break;
        }
      }
      ASSERT_EQ(pal.select_free(lo, hi, i), want);
    }
  }
}

// End-to-end sweep over every ColorSet consumer (MCT adoption, SCT batch
// enumeration, clique palettes, fallback first_free). force_threads=0, so
// the TSan job's CCG_TEST_THREADS=4 runs it on the parallel engine; the
// result is bit-identical for any thread count.
TEST(ColorSet, PipelineConsumersColorProperlyUnderTestThreads) {
  Rng rng(5);
  graph::PlantedSpec spec;
  spec.delta = 160;
  spec.num_cliques = 4;
  spec.anti_deg = 2;
  spec.external_deg = 20;
  spec.num_sparse = 300;
  spec.sparse_avg_deg = 40.0;
  spec.external_to_sparse = 0.3;
  auto params = color::Params::defaults_for(2000, 19);
  params.eps = 0.2;
  params.use_fingerprint_acd = false;
  params.measure_bits = false;
  auto f = testing::make_planted_fixture(spec, params, 5);
  // A fresh State on the fixture's Runtime, with the fixture's effective
  // Params (its thread count honors CCG_TEST_THREADS).
  color::State st(*f->rt, f->st->params);
  color::run_high_degree(st);
  const auto res = color::finalize_result(st);
  cluster::check_proper_total(f->planted.g, res.colors, res.num_colors);
  EXPECT_EQ(res.num_colors, f->planted.delta + 1);
}

}  // namespace
}  // namespace ccg
