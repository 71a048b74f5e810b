// E10 — Lemma 4.9 + Lemma 6.2/Prop 4.15: colorful matching sizes.
//
// Standard sampling matching works when a_K = Omega(log n); the paper's
// novel fingerprint matching (Algorithm 7) takes over in the densest
// cabals (a_K = O(log n)) and must cover a_v for >= (1-10eps)Delta
// vertices. Sweep the anti-degree across the crossover.
#include "color/matching.hpp"
#include "color/multicolor_trial.hpp"
#include "util.hpp"

using namespace ccg;

int main() {
  bench::header("E10 / Lemmas 4.9, 6.2: colorful matching across regimes",
                "fingerprint matching >= tau*â_K/(4eps) in cabals with "
                "a_K = O(log n); standard sampling catches up for large "
                "a_K; coverage column = fraction of K with a_v <= M_K");
  bench::row({"Delta", "a_v", "std-M_K", "fp-M_K", "coverage(fp)",
              "H-rounds(fp)"});
  for (const int delta : {192, 384}) {
    for (const int anti : {1, 2, 4, 8, 16}) {
      Rng rng(900 + delta + anti);
      graph::PlantedSpec spec;
      spec.delta = delta;
      spec.num_cliques = 2;
      spec.anti_deg = anti;
      spec.external_deg = 6;
      const auto planted = graph::make_planted_acd(spec, rng);

      // Standard matching.
      int std_m = 0;
      {
        const auto cg = cluster::ClusterGraph::singleton(planted.g);
        net::Ledger ledger(cg.default_bandwidth());
        cluster::Runtime rt(cg, ledger);
        auto params = bench::bench_params(planted.g.n(), 7);
        color::State st(rt, params);
        color::build_dense_context(st);
        color::colorful_matching_run(st, {0}, 4 * anti);
        std_m = st.palettes[0].repeats();
      }
      // Fingerprint matching (Algorithm 7).
      int fp_m = 0;
      double coverage = 0;
      std::int64_t h_rounds = 0;
      {
        const auto cg = cluster::ClusterGraph::singleton(planted.g);
        net::Ledger ledger(cg.default_bandwidth());
        cluster::Runtime rt(cg, ledger);
        auto params = bench::bench_params(planted.g.n(), 8);
        color::State st(rt, params);
        color::build_dense_context(st);
        std::vector<std::pair<int, int>> pairs;
        color::fingerprint_matching_into(st, 0, nullptr, /*charge=*/true,
                                         &pairs);
        fp_m = static_cast<int>(pairs.size());
        h_rounds = ledger.h_rounds();
        // Coverage: a_v <= M_K for the fraction Prop 4.15 demands.
        int covered = 0, members = 0;
        for (const int v : st.dc.acd.members[0]) {
          (void)v;
          ++members;
          if (anti <= fp_m) ++covered;  // a_v == anti for every vertex
        }
        coverage = members ? static_cast<double>(covered) / members : 0;
      }
      bench::row({bench::fmt(delta), bench::fmt(anti), bench::fmt(std_m),
                  bench::fmt(fp_m), bench::fmt(coverage, 2),
                  bench::fmt(h_rounds)});
    }
  }
  return 0;
}
