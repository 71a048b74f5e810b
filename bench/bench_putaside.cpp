// E11 — Proposition 4.19 / Section 7 (and Figs. 3-4): put-aside sets are
// colored in O(1) H-rounds via the three-way donation matching, including
// on the adversarial bridge topology of Fig. 3 where all inter-cluster
// information crosses one link.
#include <set>

#include "color/matching.hpp"
#include "color/multicolor_trial.hpp"
#include "color/putaside.hpp"
#include "color/sync_trial.hpp"
#include "util.hpp"

using namespace ccg;

namespace {

struct Outcome {
  std::int64_t h_rounds = 0;
  int free_path = 0;
  int donation_path = 0;
  int donated = 0;
  int fallbacks = 0;
  int r = 0;
};

Outcome drive(int delta, int anti, double ls_factor,
              cluster::ClusterShape shape, std::uint64_t seed) {
  Rng rng(seed);
  graph::PlantedSpec spec;
  spec.delta = delta;
  spec.num_cliques = 3;
  spec.anti_deg = anti;
  spec.external_deg = 6;
  const auto planted = graph::make_planted_acd(spec, rng);
  cluster::ExpandSpec es;
  es.shape = shape;
  es.size = shape == cluster::ClusterShape::kSingleton ? 1 : 5;
  const auto cg = cluster::ClusterGraph::expand(planted.g, es, rng);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  auto params = bench::bench_params(planted.g.n(), seed);
  params.ls_factor = ls_factor;
  color::State st(rt, params);
  color::build_dense_context(st);
  const std::vector<int> cabals{0, 1, 2};

  // Matching + SCT + reserved MCT drive each cabal to the Prop 4.19
  // precondition: only the put-aside sets uncolored.
  std::vector<std::pair<int, int>> pairs;
  for (const int k : cabals) {
    pairs.clear();
    color::fingerprint_matching_into(st, k, nullptr, /*charge=*/true,
                                     &pairs);
    if (!pairs.empty()) color::color_anti_matching(st, pairs);
  }
  const int r = std::max(4, static_cast<int>(st.dc.ell));
  color::GroupLists put;
  bool property3_ok = true;
  color::compute_putaside(st, cabals, r, &put, &property3_ok);
  std::vector<std::vector<int>> s_of(cabals.size());
  for (std::size_t i = 0; i < cabals.size(); ++i) {
    const auto& set = put.at(static_cast<int>(i));
    std::set<int> in_put(set.begin(), set.end());
    for (const int v : st.uncolored_members(cabals[i])) {
      if (!in_put.count(v)) s_of[i].push_back(v);
    }
  }
  color::synchronized_color_trial(st, cabals, s_of, nullptr);
  std::vector<int> leftover;
  for (const auto& s : s_of) {
    for (const int v : s) {
      if (!st.phi.colored(v)) leftover.push_back(v);
    }
  }
  color::MctOptions opt;
  opt.max_rounds = 48;
  opt.slack = [&st](int v) { return std::max(1, st.dc.r_of(v) / 2); };
  color::multicolor_trial(st, &leftover, color::reserved_set_sampler(st),
                          opt);
  if (!leftover.empty()) color::fallback_finish(st, leftover);

  // The measured step: ColorPutAsideSets alone.
  const auto before = ledger.h_rounds();
  const auto stats = color::color_putaside_sets(st, cabals, put.view());
  cluster::check_proper_total(st.h(), st.phi.vec(), st.num_colors());
  Outcome o;
  o.h_rounds = ledger.h_rounds() - before;
  o.free_path = stats.free_path_cliques;
  o.donation_path = stats.donation_path_cliques;
  o.donated = stats.donated;
  o.fallbacks = stats.fallbacks;
  o.r = r;
  return o;
}

}  // namespace

int main() {
  bench::header("E11 / Prop 4.19 + Figs. 3-4: coloring put-aside sets",
                "O(1) H-rounds regardless of Delta; donation matching "
                "(Fig. 4) used when the clique palette is tight");
  bench::row({"Delta", "anti", "|P_K|", "H-rounds", "free-path",
              "donation", "donated", "fallback"});
  for (const int delta : {128, 256, 512}) {
    for (const int anti : {0, 2}) {
      const auto o = drive(delta, anti, 1.0,
                           cluster::ClusterShape::kSingleton,
                           10 + delta + anti);
      bench::row({bench::fmt(delta), bench::fmt(anti), bench::fmt(o.r),
                  bench::fmt(o.h_rounds), bench::fmt(o.free_path),
                  bench::fmt(o.donation_path), bench::fmt(o.donated),
                  bench::fmt(o.fallbacks)});
    }
  }

  std::printf("\nforced donation branch (ls_factor = 6: palette declared "
              "tight)\n");
  bench::row({"Delta", "H-rounds", "donation", "donated", "fallback"});
  for (const int delta : {256, 512}) {
    const auto o = drive(delta, 0, 6.0, cluster::ClusterShape::kSingleton,
                         60 + delta);
    bench::row({bench::fmt(delta), bench::fmt(o.h_rounds),
                bench::fmt(o.donation_path), bench::fmt(o.donated),
                bench::fmt(o.fallbacks)});
  }

  std::printf("\nFig. 3 topology: bridge-path clusters (one central link "
              "bottleneck); H-rounds must stay O(1)\n");
  bench::row({"Delta", "H-rounds", "donation", "fallback"});
  for (const int delta : {256}) {
    const auto o = drive(delta, 2, 1.0, cluster::ClusterShape::kBridgePath,
                         90 + delta);
    bench::row({bench::fmt(delta), bench::fmt(o.h_rounds),
                bench::fmt(o.donation_path), bench::fmt(o.fallbacks)});
  }
  return 0;
}
