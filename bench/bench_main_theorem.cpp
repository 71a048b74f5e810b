// E1 — Theorem 1.2: O(d * log* n)-round (Delta+1)-coloring of cluster
// graphs with Delta >= polylog(n).
//
// Series: H-rounds vs n on planted high-degree mixtures. The paper's claim
// is that H-rounds grow like log*(n) — i.e., stay essentially flat over
// any feasible sweep — while the baselines of E3 grow polylogarithmically.
// Also prints the phase breakdown (the measured version of Fig. 5's
// pipeline) and the safety-net counters.
#include "util.hpp"

using namespace ccg;

int main() {
  bench::header("E1 / Theorem 1.2: high-degree pipeline rounds vs n",
                "H-rounds = O(log* n) for Delta >= polylog n "
                "(log* is 4..5 across this entire sweep)");
  bench::row({"n", "Delta", "cliques", "cabals", "H-rounds", "G-rounds",
              "log*n", "fallback", "retry"});
  for (const int n_target : {2000, 4000, 8000, 16000, 32000}) {
    bench::MixtureSpec ms;
    ms.delta = 256;
    ms.ext_deg = 24;
    const auto inst = bench::make_mixture(n_target, ms, 7777 + n_target);
    cluster::ExpandSpec es;  // singleton: d = 0 component isolated first
    es.size = 1;
    const auto out = bench::run_pipeline(
        inst.planted.g, es, bench::bench_params(inst.n, 42), 1);
    bench::row({bench::fmt(inst.n), bench::fmt(out.num_colors - 1),
                bench::fmt(out.num_cliques),
                bench::fmt(out.num_cabals),
                bench::fmt(out.h_rounds),
                bench::fmt(out.g_rounds),
                bench::fmt(log_star(inst.n)),
                bench::fmt(out.fallback_count),
                bench::fmt(out.retry_count)});
  }

  std::printf("\ncabal-heavy variant (ext_deg < ell: donation machinery "
              "active)\n");
  bench::row({"n", "Delta", "cabals", "H-rounds", "G-rounds", "fallback"});
  for (const int n_target : {2000, 4000, 8000, 16000}) {
    bench::MixtureSpec ms;
    ms.delta = 256;
    ms.ext_deg = 6;
    ms.anti_deg = 2;
    ms.sparse_fraction = 0.0;
    const auto inst = bench::make_mixture(n_target, ms, 991 + n_target);
    cluster::ExpandSpec es;
    es.size = 1;
    const auto out = bench::run_pipeline(
        inst.planted.g, es, bench::bench_params(inst.n, 43), 2);
    bench::row({bench::fmt(inst.n), bench::fmt(out.num_colors - 1),
                bench::fmt(out.num_cabals),
                bench::fmt(out.h_rounds),
                bench::fmt(out.g_rounds),
                bench::fmt(out.fallback_count)});
  }

  std::printf("\nphase breakdown at n~8000 (measured Fig. 5 pipeline)\n");
  {
    bench::MixtureSpec ms;
    ms.delta = 256;
    ms.ext_deg = 24;
    const auto inst = bench::make_mixture(8000, ms, 555);
    cluster::ExpandSpec es;
    es.size = 1;
    const auto out = bench::run_pipeline(
        inst.planted.g, es, bench::bench_params(inst.n, 44), 3);
    bench::row({"phase", "H-rounds", "G-rounds", "maxMsgBits"});
    for (const auto& pc : out.phases) {
      bench::row({pc.name, bench::fmt(pc.h_rounds), bench::fmt(pc.g_rounds),
                  bench::fmt(pc.max_message_bits)});
    }
  }
  return 0;
}
