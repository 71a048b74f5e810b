// E12 — Lemma D.1: MultiColorTrial colors everything in
// O(gamma^-1 log* n) rounds once slack is linear in uncolored degree.
//
// Slack-planted instances: random graphs where Delta+1 colors give every
// vertex slack ~ (Delta - deg). Measured rounds should track log*(n) —
// i.e., stay flat — across three orders of magnitude of n.
#include "color/matching.hpp"
#include "color/multicolor_trial.hpp"
#include "color/primitives.hpp"
#include "util.hpp"

using namespace ccg;

int main() {
  bench::header("E12 / Lemma D.1: MultiColorTrial rounds under slack",
                "rounds = O(gamma^-1 log* n); flat in n, decreasing in "
                "slack factor gamma");
  bench::row({"n", "Delta", "slack/deg", "rounds-used", "log*n",
              "leftover"});
  for (const int n : {1000, 8000, 64000}) {
    for (const double slack_frac : {0.5, 1.0, 2.0}) {
      Rng rng(3000 + n);
      // deg ~ Delta/(1+slack_frac): slack ~ slack_frac * deg.
      const int avg_deg = 24;
      const auto g = graph::gnm(
          n, static_cast<std::int64_t>(n) * avg_deg / 2, rng);
      const int delta = g.max_degree();
      const int num_colors =
          static_cast<int>(delta * (1.0 + slack_frac)) + 1;

      const auto cg = cluster::ClusterGraph::singleton(g);
      net::Ledger ledger(cg.default_bandwidth());
      cluster::Runtime rt(cg, ledger);
      auto params = bench::bench_params(n, 5);
      color::State st(rt, params);
      std::vector<int> all(static_cast<std::size_t>(n));
      for (int v = 0; v < n; ++v) all[static_cast<std::size_t>(v)] = v;
      color::MctOptions opt;
      opt.max_rounds = 64;
      const int slack = num_colors - delta;
      opt.slack = [slack](int) { return slack; };
      const auto before = ledger.h_rounds();
      color::multicolor_trial(
          st, &all, color::uniform_set_sampler(num_colors, 0), opt);
      bench::row({bench::fmt(n), bench::fmt(delta),
                  bench::fmt(slack_frac, 1),
                  bench::fmt((ledger.h_rounds() - before) / 2),
                  bench::fmt(log_star(n)),
                  bench::fmt(static_cast<int>(all.size()))});
    }
  }
  return 0;
}
