// E9 — Lemma 4.13: after the synchronized color trial, at most
// (24/alpha) * max{e_K, ell} members of each participating set stay
// uncolored, even under adversarial external randomness.
#include <algorithm>

#include "color/sync_trial.hpp"
#include "util.hpp"

using namespace ccg;

int main() {
  bench::header("E9 / Lemma 4.13: synchronized color trial leftovers",
                "leftover <= (24/alpha) max{e_K, ell}; measured leftovers "
                "sit far below the bound");
  bench::row({"Delta", "e_K", "|S|", "colored", "leftover", "bound"});
  for (const int delta : {128, 256}) {
    for (const int ext : {delta / 24, delta / 12, delta / 8}) {
      Rng rng(500 + delta + ext);
      graph::PlantedSpec spec;
      spec.delta = delta;
      spec.num_cliques = 3;
      spec.anti_deg = 2;
      spec.external_deg = ext;
      const auto planted = graph::make_planted_acd(spec, rng);

      const auto cg = cluster::ClusterGraph::singleton(planted.g);
      net::Ledger ledger(cg.default_bandwidth());
      cluster::Runtime rt(cg, ledger);
      auto params = bench::bench_params(planted.g.n(), 5);
      color::State st(rt, params);
      color::build_dense_context(st);
      if (st.dc.acd.num_cliques == 0) {
        bench::row({bench::fmt(delta), bench::fmt(ext), "-", "-", "-",
                    "undetected"});
        continue;
      }

      std::vector<int> ids;
      std::vector<std::vector<int>> s_of;
      double alpha_min = 1.0;
      for (int k = 0; k < st.dc.acd.num_cliques; ++k) {
        ids.push_back(k);
        auto unc = st.uncolored_members(k);
        std::sort(unc.begin(), unc.end());
        const int keep = std::max(
            0, static_cast<int>(unc.size()) -
                   st.dc.reserved[static_cast<std::size_t>(k)]);
        unc.resize(static_cast<std::size_t>(keep));
        alpha_min = std::min(
            alpha_min,
            static_cast<double>(keep) /
                st.dc.info.clique_size[static_cast<std::size_t>(k)]);
        s_of.push_back(std::move(unc));
      }
      std::vector<color::SyncTrialResult> res;
      color::synchronized_color_trial(st, ids, s_of, &res);
      int participated = 0, colored = 0;
      for (const auto& r : res) {
        participated += r.participated;
        colored += r.colored;
      }
      const double e_k = st.dc.info.avg_ext_est[0];
      const double bound =
          ids.size() * 24.0 / std::max(0.05, alpha_min) *
          std::max(e_k, st.dc.ell);
      bench::row({bench::fmt(delta), bench::fmt(e_k, 1),
                  bench::fmt(participated), bench::fmt(colored),
                  bench::fmt(participated - colored),
                  bench::fmt(bound, 0)});
    }
  }
  return 0;
}
