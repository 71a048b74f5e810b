// Wall-clock microbenchmarks (google-benchmark) of the hot primitives:
// geometric sampling, fingerprint combine/encode/estimate, palette
// queries, Feistel permutation, the round engine's fork/join. These
// dominate simulation runtime; they are the "substrate" cost behind every
// experiment table.
#include <benchmark/benchmark.h>

#include "ccg/ccg.hpp"
#include "color/clique_palette.hpp"
#include "color/color_set.hpp"
#include "color/primitives.hpp"
#include "gk/candidate_family.hpp"
#include "gk/rounding.hpp"

using namespace ccg;

static void BM_GeometricHalf(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_geometric_half());
  }
}
BENCHMARK(BM_GeometricHalf);

static void BM_FingerprintCombine(benchmark::State& state) {
  const int t = static_cast<int>(state.range(0));
  Rng rng(2);
  sketch::Fingerprint a, b;
  sketch::sample_fingerprint_into(t, rng, &a);
  sketch::sample_fingerprint_into(t, rng, &b);
  for (auto _ : state) {
    sketch::combine_into(a, b);
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(state.iterations() * t);
}
BENCHMARK(BM_FingerprintCombine)->Arg(64)->Arg(256)->Arg(1024);

static void BM_FingerprintEncode(benchmark::State& state) {
  const int t = static_cast<int>(state.range(0));
  Rng rng(3);
  sketch::Fingerprint fp, x;
  sketch::reset_empty(t, &fp);
  for (int j = 0; j < 1000; ++j) {
    sketch::sample_fingerprint_into(t, rng, &x);
    sketch::combine_into(fp, x);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch::encoded_bits(fp));
  }
}
BENCHMARK(BM_FingerprintEncode)->Arg(64)->Arg(256)->Arg(1024);

static void BM_FingerprintEstimate(benchmark::State& state) {
  const int t = static_cast<int>(state.range(0));
  Rng rng(4);
  sketch::Fingerprint fp, x;
  sketch::reset_empty(t, &fp);
  for (int j = 0; j < 1000; ++j) {
    sketch::sample_fingerprint_into(t, rng, &x);
    sketch::combine_into(fp, x);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch::estimate_count(fp));
  }
}
BENCHMARK(BM_FingerprintEstimate)->Arg(64)->Arg(256)->Arg(1024);

static void BM_PaletteSelectFree(benchmark::State& state) {
  const int colors = static_cast<int>(state.range(0));
  color::CliquePalette pal(colors);
  Rng rng(5);
  for (int c = 0; c < colors; ++c) {
    if (rng.next_bool(0.7)) pal.add(c);
  }
  const int free = pal.free_count(0, colors - 1);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pal.select_free(0, colors - 1, i++ % std::max(1, free)));
  }
}
BENCHMARK(BM_PaletteSelectFree)->Arg(256)->Arg(4096)->Arg(65536);

// First-free-color lookup, the inner step of fallback_finish and every
// palette replenish: the pre-ColorSet color-by-color scan vs. the
// word-parallel complement walk, on the same occupancy pattern (a solid
// used prefix ending at a rotating first-free position, 70% fill above).
namespace {
void fill_first_free_pattern(int colors, int first_free, Rng& rng,
                             std::vector<char>* marks,
                             color::ColorSet* set) {
  marks->assign(static_cast<std::size_t>(colors), 0);
  set->rebind(colors);
  for (int c = 0; c < colors; ++c) {
    const bool used =
        c < first_free || (c > first_free && rng.next_bool(0.7));
    if (used) {
      (*marks)[static_cast<std::size_t>(c)] = 1;
      set->add(c);
    }
  }
}
}  // namespace

static void BM_FirstFreeScan(benchmark::State& state) {
  const int colors = static_cast<int>(state.range(0));
  Rng rng(21);
  std::vector<char> marks;
  color::ColorSet set;
  fill_first_free_pattern(colors, colors / 2, rng, &marks, &set);
  for (auto _ : state) {
    int c = 0;
    while (c < colors && marks[static_cast<std::size_t>(c)]) ++c;
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_FirstFreeScan)->Arg(257)->Arg(4097);

static void BM_FirstFreeColorSet(benchmark::State& state) {
  const int colors = static_cast<int>(state.range(0));
  Rng rng(21);
  std::vector<char> marks;
  color::ColorSet set;
  fill_first_free_pattern(colors, colors / 2, rng, &marks, &set);
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.first_free());
  }
}
BENCHMARK(BM_FirstFreeColorSet)->Arg(257)->Arg(4097);

// Palette intersection (|A ∩ B| over the color universe), the shape of
// list-pruning and donation checks: per-color AND loop vs. word-wise
// popcount.
static void BM_PaletteIntersectScan(benchmark::State& state) {
  const int colors = static_cast<int>(state.range(0));
  Rng rng(22);
  std::vector<char> a(static_cast<std::size_t>(colors), 0);
  std::vector<char> b(static_cast<std::size_t>(colors), 0);
  for (int c = 0; c < colors; ++c) {
    a[static_cast<std::size_t>(c)] = rng.next_bool(0.5) ? 1 : 0;
    b[static_cast<std::size_t>(c)] = rng.next_bool(0.5) ? 1 : 0;
  }
  for (auto _ : state) {
    int cnt = 0;
    for (int c = 0; c < colors; ++c) {
      if (a[static_cast<std::size_t>(c)] &&
          b[static_cast<std::size_t>(c)]) {
        ++cnt;
      }
    }
    benchmark::DoNotOptimize(cnt);
  }
}
BENCHMARK(BM_PaletteIntersectScan)->Arg(257)->Arg(4097);

static void BM_PaletteIntersectColorSet(benchmark::State& state) {
  const int colors = static_cast<int>(state.range(0));
  Rng rng(22);
  color::ColorSet a, b;
  a.rebind(colors);
  b.rebind(colors);
  for (int c = 0; c < colors; ++c) {
    if (rng.next_bool(0.5)) a.add(c);
    if (rng.next_bool(0.5)) b.add(c);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.intersect_count(b));
  }
}
BENCHMARK(BM_PaletteIntersectColorSet)->Arg(257)->Arg(4097);

static void BM_FeistelPermutation(benchmark::State& state) {
  FeistelPermutation pi(100000, 99);
  std::uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pi(x));
    x = (x + 1) % 100000;
  }
}
BENCHMARK(BM_FeistelPermutation);

static void BM_TryColorRoundPerVertex(benchmark::State& state) {
  Rng rng(6);
  const auto g = graph::gnm(2000, 20000, rng);
  const auto cg = cluster::ClusterGraph::singleton(g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  for (auto _ : state) {
    state.PauseTiming();
    color::State st(rt, color::Params::defaults_for(g.n(), 7));
    std::vector<int> all(static_cast<std::size_t>(g.n()));
    for (int v = 0; v < g.n(); ++v) all[static_cast<std::size_t>(v)] = v;
    state.ResumeTiming();
    color::try_color_round(
        st, all, color::uniform_sampler(g.max_degree() + 1, 0), 0.5);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_TryColorRoundPerVertex);

static void BM_CandidateFamilyEval(benchmark::State& state) {
  const int q = static_cast<int>(state.range(0));
  const gk::CandidateFamily fam(q, 4);
  int c = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fam.element(c % q, c % fam.set_size()));
    ++c;
  }
}
BENCHMARK(BM_CandidateFamilyEval)->Arg(256)->Arg(4096)->Arg(65536);

static void BM_RepresentativeSetMaterialize(benchmark::State& state) {
  const int s = static_cast<int>(state.range(0));
  const RepresentativeFamily fam(1024, s, 1 << 16, 7);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fam.set(i % fam.family_size()));
    ++i;
  }
  state.SetItemsProcessed(state.iterations() * s);
}
BENCHMARK(BM_RepresentativeSetMaterialize)->Arg(64)->Arg(256);

static void BM_DuplicatedSumEstimate(benchmark::State& state) {
  const long long total = state.range(0);
  Rng rng(11);
  const std::vector<long long> dups{total / 2, total / 3,
                                    total - total / 2 - total / 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(gk::estimate_duplicated_sum(dups, 96, rng));
  }
}
BENCHMARK(BM_DuplicatedSumEstimate)->Arg(100)->Arg(100000);

static void BM_ChungLuGenerate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::chung_lu(n, 16.0, 2.5, rng));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ChungLuGenerate)->Arg(1000)->Arg(10000);

// Round-engine fork/joins (ParallelRound::shards, as every sharded phase
// calls it) back to back, over `items` mix64 steps split across the
// workers. With one item per worker a fork/join times the dispatch round
// trip alone; 20000 items are about 100 us of work inline (workers = 1),
// the base that a 2-worker dispatch of the same items has to beat.
static void BM_ForkJoin(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const std::int64_t items = state.range(1);
  exec::ParallelRound par(workers);
  const std::uint64_t seed = mix64(static_cast<std::uint64_t>(items));
  for (auto _ : state) {
    par.shards(items, [&](int w, std::int64_t b, std::int64_t e) {
      std::uint64_t x = seed;
      for (std::int64_t i = b; i < e; ++i) {
        x = mix64(x ^ static_cast<std::uint64_t>(i));
      }
      par.acc(w) = static_cast<std::int64_t>(x);
    });
    benchmark::DoNotOptimize(par.acc(0));
  }
  state.SetItemsProcessed(state.iterations() * items);
}
BENCHMARK(BM_ForkJoin)
    ->ArgNames({"workers", "items"})
    ->Args({2, 2})
    ->Args({4, 4})
    ->Args({1, 20000})
    ->Args({2, 20000})
    ->UseRealTime();
