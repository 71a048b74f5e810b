// E2 — Theorem 1.1: O(d * log^7 log n) rounds for any Delta.
//
// Series: H-rounds vs n for the low-degree path in both regimes
// (Delta = O(log n): direct palette bitmaps; Delta = polylog(n): the
// ACD + shatter pipeline). Expected shape: slow polyloglog growth — orders
// of magnitude below the O(log^2 n) prior cluster-graph bound.
// Substitution note: shattered components are finished by the randomized
// deg+1-list finisher; measured rounds reflect it.
#include <cmath>

#include "util.hpp"

using namespace ccg;

int main() {
  bench::header("E2 / Theorem 1.1: low-degree pipeline rounds vs n",
                "H-rounds = O(polyloglog n); compare the log2^2(n) column "
                "(prior cluster-graph algorithm scale)");
  std::printf("-- logarithmic regime: Delta ~ 2*log2 n --\n");
  bench::row({"n", "Delta", "H-rounds", "loglog", "log2^2(n)", "fallback"});
  for (const int n : {1000, 4000, 16000, 64000}) {
    Rng rng(31 + n);
    const double lg = std::log2(n);
    const auto g = graph::gnm(
        n, static_cast<std::int64_t>(n * lg * 0.8), rng);
    const auto cg = cluster::ClusterGraph::singleton(g);
    net::Ledger ledger(cg.default_bandwidth());
    cluster::Runtime rt(cg, ledger);
    const auto res =
        lowdeg::color_low_degree(rt, bench::bench_params(n, 5));
    cluster::check_proper_total(g, res.colors, res.num_colors);
    bench::row({bench::fmt(n), bench::fmt(res.num_colors - 1),
                bench::fmt(res.h_rounds),
                bench::fmt(std::log2(std::log2(n)), 2),
                bench::fmt(lg * lg, 0), bench::fmt(res.fallback_count)});
  }

  std::printf("\n-- polylogarithmic regime: Delta ~ log2^2 n, planted "
              "structure --\n");
  bench::row({"n", "Delta", "H-rounds", "loglog", "log2^2(n)", "fallback"});
  for (const int n_target : {1000, 4000, 16000, 48000}) {
    const double lg = std::log2(n_target);
    bench::MixtureSpec ms;
    ms.delta = static_cast<int>(lg * lg);
    ms.ext_deg = std::max(2, ms.delta / 16);
    ms.anti_deg = 2;
    ms.sparse_fraction = 0.5;
    ms.sparse_deg_frac = 0.3;
    const auto inst = bench::make_mixture(n_target, ms, 77 + n_target);
    cluster::ExpandSpec es;
    es.size = 1;
    const auto out = bench::run_pipeline(inst.planted.g, es,
                                         bench::bench_params(inst.n, 6), 4,
                                         /*high_degree_path=*/false);
    bench::row({bench::fmt(inst.n), bench::fmt(out.result.num_colors - 1),
                bench::fmt(out.result.h_rounds),
                bench::fmt(std::log2(std::log2(inst.n)), 2),
                bench::fmt(lg * lg, 0),
                bench::fmt(out.result.fallback_count)});
  }

  std::printf("\n-- dilation dependence (Theorem 1.1's d factor): same H, "
              "path clusters --\n");
  bench::row({"cluster-size", "d", "H-rounds", "G-rounds"});
  {
    Rng rng(9);
    const auto g = graph::gnm(4000, 24000, rng);
    for (const int size : {1, 3, 6, 12}) {
      cluster::ExpandSpec es;
      es.shape = size == 1 ? cluster::ClusterShape::kSingleton
                           : cluster::ClusterShape::kPath;
      es.size = size;
      const auto out = bench::run_pipeline(
          g, es, bench::bench_params(g.n(), 7), 5,
          /*high_degree_path=*/false);
      bench::row({bench::fmt(size), bench::fmt(out.result.dilation),
                  bench::fmt(out.result.h_rounds),
                  bench::fmt(out.result.g_rounds)});
    }
  }
  return 0;
}
