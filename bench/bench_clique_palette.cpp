// E17 — Lemma 4.8: clique-palette queries (count / select the i-th free
// color of a range) answer in O(1) H-rounds for any adversarial coloring
// of the clique. This bench stresses query correctness against brute
// force over adversarial occupancy patterns, reports the charged cost,
// and times the word-parallel palette queries against the same
// color-by-color brute force they replaced.
#include <algorithm>
#include <cstdio>

#include "color/clique_palette.hpp"
#include "util.hpp"

using namespace ccg;

int main() {
  bench::header("E17 / Lemma 4.8: clique palette distributed queries",
                "count + i-th-free in O(1) rounds; exact against brute "
                "force on adversarial occupancies");
  bench::row({"colors", "pattern", "queries", "mismatches", "rounds/query"});
  struct TimingRow {
    int colors;
    const char* pattern;
    double scan_ns;
    double pal_ns;
  };
  std::vector<TimingRow> timings;
  Rng rng(1357);
  for (const int colors : {257, 1025, 4097}) {
    struct Pattern {
      const char* name;
      double fill;
      bool blocky;
    };
    for (const auto& pat : {Pattern{"uniform50", 0.5, false},
                            Pattern{"dense95", 0.95, false},
                            Pattern{"blocks", 0.7, true}}) {
      color::CliquePalette pal(colors);
      std::vector<char> used(static_cast<std::size_t>(colors), 0);
      for (int c = 0; c < colors; ++c) {
        const bool fill =
            pat.blocky ? ((c / 64) % 2 == 0 && rng.next_bool(0.95))
                       : rng.next_bool(pat.fill);
        if (fill) {
          pal.add(c);
          used[static_cast<std::size_t>(c)] = 1;
        }
      }
      const int queries = 20000;
      std::vector<std::pair<int, int>> ranges;
      ranges.reserve(static_cast<std::size_t>(queries));
      int mismatches = 0;
      for (int q = 0; q < queries; ++q) {
        int lo = static_cast<int>(rng.next_below(colors));
        int hi = lo + static_cast<int>(rng.next_below(colors - lo));
        ranges.emplace_back(lo, hi);
        int free_cnt = 0;
        for (int c = lo; c <= hi; ++c) {
          if (!used[static_cast<std::size_t>(c)]) ++free_cnt;
        }
        if (pal.free_count(lo, hi) != free_cnt) ++mismatches;
        if (free_cnt > 0) {
          const int i = static_cast<int>(rng.next_below(free_cnt));
          const int got = pal.select_free(lo, hi, i);
          int cnt = 0, want = -1;
          for (int c = lo; c <= hi; ++c) {
            if (!used[static_cast<std::size_t>(c)] && cnt++ == i) {
              want = c;
              break;
            }
          }
          if (got != want) ++mismatches;
        }
      }
      // Each query = broadcast index + tree aggregation: 2 H-rounds.
      bench::row({bench::fmt(colors), pat.name, bench::fmt(queries),
                  bench::fmt(mismatches), "2"});

      // Timing: free_count over the same query ranges — the per-color
      // scan the palette used to imply vs. the masked-popcount walk it
      // performs now. Accumulate into a sink so neither loop folds away.
      long long sink = 0;
      const auto scan_stats = ccg::timed(
          [&] {
            for (const auto& [lo, hi] : ranges) {
              int free_cnt = 0;
              for (int c = lo; c <= hi; ++c) {
                if (!used[static_cast<std::size_t>(c)]) ++free_cnt;
              }
              sink += free_cnt;
            }
          },
          1, 3, static_cast<std::int64_t>(ranges.size()));
      const auto pal_stats = ccg::timed(
          [&] {
            for (const auto& [lo, hi] : ranges) {
              sink += pal.free_count(lo, hi);
            }
          },
          1, 3, static_cast<std::int64_t>(ranges.size()));
      if (sink == 42) std::printf("sink %lld\n", sink);
      timings.push_back({colors, pat.name, scan_stats.ns_per_op(),
                         pal_stats.ns_per_op()});
    }
  }
  bench::header("palette free_count: color-by-color scan vs word-parallel",
                "same ranges, same occupancy; ns per range query");
  bench::row({"colors", "pattern", "scan ns/q", "palette ns/q", "speedup"});
  for (const auto& t : timings) {
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.1fx",
                  t.scan_ns / t.pal_ns);
    bench::row({bench::fmt(t.colors), t.pattern,
                bench::fmt(t.scan_ns, 1), bench::fmt(t.pal_ns, 1),
                speedup});
  }
  return 0;
}
