// Unit tests: clique palette, TryColor, MultiColorTrial, slack generation,
// synchronized color trial.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "color/multicolor_trial.hpp"
#include "color/prep_mct.hpp"
#include "color/primitives.hpp"
#include "color/slack_generation.hpp"
#include "color/sync_trial.hpp"
#include "helpers.hpp"

namespace ccg::color {
namespace {

TEST(CliquePalette, MatchesBruteForce) {
  Rng rng(3);
  const int colors = 60;
  CliquePalette pal(colors);
  std::vector<int> mult(colors, 0);
  // Random add/remove workload, checking all queries against brute force.
  for (int step = 0; step < 2000; ++step) {
    const int c = static_cast<int>(rng.next_below(colors));
    if (mult[c] > 0 && rng.next_bool(0.4)) {
      pal.remove(c);
      --mult[c];
    } else {
      pal.add(c);
      ++mult[c];
    }
    if (step % 50 != 0) continue;
    const int lo = static_cast<int>(rng.next_below(colors));
    const int hi = lo + static_cast<int>(rng.next_below(colors - lo));
    int used = 0;
    std::vector<int> free_list;
    for (int x = lo; x <= hi; ++x) {
      if (mult[x] > 0) {
        ++used;
      } else {
        free_list.push_back(x);
      }
    }
    EXPECT_EQ(pal.used_distinct(lo, hi), used);
    EXPECT_EQ(pal.free_count(lo, hi), static_cast<int>(free_list.size()));
    if (!free_list.empty()) {
      const int i = static_cast<int>(rng.next_below(free_list.size()));
      EXPECT_EQ(pal.select_free(lo, hi, i), free_list[i]);
    }
    EXPECT_EQ(pal.select_free(lo, hi, static_cast<int>(free_list.size())),
              -1);
  }
}

TEST(CliquePalette, RepeatsTracksReuse) {
  CliquePalette pal(10);
  pal.add(3);
  pal.add(3);
  pal.add(5);
  EXPECT_EQ(pal.colored_total(), 3);
  EXPECT_EQ(pal.distinct_total(), 2);
  EXPECT_EQ(pal.repeats(), 1);
  pal.remove(3);
  EXPECT_EQ(pal.repeats(), 0);
}

graph::PlantedSpec noncabal_spec() {
  graph::PlantedSpec spec;
  spec.delta = 96;
  spec.num_cliques = 3;
  spec.anti_deg = 4;
  spec.external_deg = 24;  // high external degree -> not cabals
  spec.num_sparse = 150;
  spec.sparse_avg_deg = 20.0;
  spec.external_to_sparse = 0.3;
  return spec;
}

TEST(TryColor, ReducesUncoloredAndStaysProper) {
  color::Params params;
  params.seed = 11;
  auto f = ccg::testing::make_planted_fixture(noncabal_spec(), params, 5,
                                              /*ell=*/8.0);
  auto& st = *f->st;
  std::vector<int> all(st.h().n());
  for (int v = 0; v < st.h().n(); ++v) all[v] = v;
  const int before = static_cast<int>(all.size());
  const int colored = try_color_rounds(
      st, &all, uniform_sampler(st.num_colors(), 0), 0.5, 6);
  EXPECT_GT(colored, before / 3);
  cluster::check_proper_partial(st.h(), st.phi.vec());
  // Palette bookkeeping is consistent with the coloring.
  for (int k = 0; k < st.dc.acd.num_cliques; ++k) {
    int cnt = 0;
    for (const int v : st.dc.acd.members[k]) {
      if (st.phi.colored(v)) ++cnt;
    }
    EXPECT_EQ(st.palettes[k].colored_total(), cnt);
  }
}

TEST(MultiColorTrial, ColorsSlackVerticesCompletely) {
  // Sparse random graph: slack ~ Delta everywhere, MCT must finish alone.
  color::Params params;
  params.seed = 21;
  Rng rng(9);
  const auto g = graph::gnm(400, 2400, rng);  // avg deg 12
  const auto cg = cluster::ClusterGraph::singleton(g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  State st(rt, params);
  std::vector<int> all(g.n());
  for (int v = 0; v < g.n(); ++v) all[v] = v;
  MctOptions opt;
  opt.max_rounds = 40;
  const int slack = st.num_colors() - g.max_degree();  // >= 1
  opt.slack = [slack](int) { return std::max(1, slack); };
  multicolor_trial(st, &all, uniform_set_sampler(st.num_colors(), 0), opt);
  EXPECT_TRUE(all.empty());
  cluster::check_proper_partial(st.h(), st.phi.vec());
}

TEST(SlackGeneration, PostconditionsHold) {
  color::Params params;
  params.seed = 31;
  params.slack_activation = 0.1;
  // Mixed instance; force one clique set to be cabals via ell override.
  graph::PlantedSpec spec = noncabal_spec();
  auto f = ccg::testing::make_planted_fixture(spec, params, 7,
                                              /*ell=*/8.0);
  auto& st = *f->st;
  const int colored = slack_generation(st);
  EXPECT_GT(colored, 0);
  cluster::check_proper_partial(st.h(), st.phi.vec());
  // (a) no reserved-prefix color used; (b) cabals untouched;
  // (c) every clique at most modestly colored (Prop 4.5(3)).
  for (int v = 0; v < st.h().n(); ++v) {
    if (!st.phi.colored(v)) continue;
    EXPECT_GE(st.phi.get(v), st.dc.reserved_cap);
    EXPECT_FALSE(st.dc.in_cabal(v));
  }
  const auto stats = measure_slack(st);
  for (const double frac : stats.clique_colored_fraction) {
    EXPECT_LE(frac, 0.35);
  }
}

TEST(SlackGeneration, SparseVerticesGainSlack) {
  color::Params params;
  params.seed = 33;
  params.slack_activation = 0.2;
  graph::PlantedSpec spec;
  spec.delta = 80;
  spec.num_cliques = 1;
  spec.anti_deg = 0;
  spec.external_deg = 0;
  spec.num_sparse = 600;
  spec.sparse_avg_deg = 70.0;  // sparse vertices with degree near Delta
  auto f = ccg::testing::make_planted_fixture(spec, params, 9, 4.0);
  auto& st = *f->st;
  slack_generation(st);
  const auto stats = measure_slack(st);
  // Average slack among near-Delta-degree sparse vertices should exceed
  // the trivial Delta+1-deg bound meaningfully.
  double total = 0;
  for (const int s : stats.sparse_slack) total += s;
  EXPECT_GT(total / stats.sparse_slack.size(), 12.0);
}

TEST(SyncTrial, ColorsMostOfTheCliqueDistinctly) {
  color::Params params;
  params.seed = 41;
  auto f = ccg::testing::make_planted_fixture(noncabal_spec(), params, 11,
                                              8.0);
  auto& st = *f->st;
  // Participate with all members of each clique except r_K.
  std::vector<int> ids;
  std::vector<std::vector<int>> s_of;
  for (int k = 0; k < st.dc.acd.num_cliques; ++k) {
    ids.push_back(k);
    auto unc = st.uncolored_members(k);
    std::sort(unc.begin(), unc.end());
    const int keep = std::max(
        0, static_cast<int>(unc.size()) - st.dc.reserved[k]);
    unc.resize(keep);
    s_of.push_back(std::move(unc));
  }
  std::vector<SyncTrialResult> res;
  synchronized_color_trial(st, ids, s_of, &res);
  cluster::check_proper_partial(st.h(), st.phi.vec());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    // Lemma 4.13: leftovers O(max{e_K, ell}); generous constant 8.
    const double e_k = st.dc.info.avg_ext_est[ids[i]];
    EXPECT_LE(res[i].participated - res[i].colored,
              8 * std::max(e_k, st.dc.ell))
        << "clique " << ids[i];
    // All in-clique colors distinct (no reuse introduced by SCT).
    EXPECT_EQ(st.palettes[ids[i]].repeats(), 0);
  }
}

TEST(ZEstimate, AccountingIdentityAgainstExactAvailability) {
  // Lemma 8.1's algebra: z_v <= |L(v) ∩ L(K) \ [r_v]| + (assumed reuse -
  // actual reuse). z_v folds in the reuse-slack *guarantee* (Eq. 6); the
  // exact availability uses the *realized* reuse. Their gap is exactly
  // the guarantee overshoot, so the corrected inequality must hold
  // deterministically.
  color::Params params;
  params.seed = 51;
  auto f = ccg::testing::make_planted_fixture(noncabal_spec(), params, 13,
                                              8.0);
  auto& st = *f->st;
  slack_generation(st);
  int checked = 0;
  for (int k = 0; k < st.dc.acd.num_cliques; ++k) {
    for (const int v : st.dc.acd.members[k]) {
      if (st.phi.colored(v)) continue;
      const int r_v = st.dc.r_of(v);
      // Exact |L(v) ∩ L(K) \ [r_v]| and actual reuse slack in K ∪ N(v)
      // over non-reserved colors.
      std::set<int> used;
      int colored_members = 0;
      for (const int u : st.h().neighbors(v)) {
        if (st.phi.colored(u)) used.insert(st.phi.get(u));
      }
      for (const int u : st.dc.acd.members[k]) {
        if (st.phi.colored(u)) {
          used.insert(st.phi.get(u));
        }
      }
      // Count colored vertices of K ∪ E_v with non-reserved colors.
      std::set<int> region(st.dc.acd.members[k].begin(),
                           st.dc.acd.members[k].end());
      for (const int u : st.h().neighbors(v)) region.insert(u);
      region.erase(v);
      for (const int u : region) {
        if (st.phi.colored(u) && st.phi.get(u) >= r_v) ++colored_members;
      }
      int used_nonreserved = 0;
      for (const int c : used) {
        if (c >= r_v) ++used_nonreserved;
      }
      const int actual_reuse = colored_members - used_nonreserved;
      int avail = 0;
      for (int c = r_v; c < st.num_colors(); ++c) {
        if (!used.count(c)) ++avail;
      }
      const double assumed_reuse =
          kGammaReuse * st.dc.info.avg_ext_est[k] +
          st.palettes[k].repeats() / 2.0 + st.x_proxy(v);
      EXPECT_LE(z_estimate(st, v),
                avail + (assumed_reuse - actual_reuse) + 1e-6)
          << "vertex " << v;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

}  // namespace
}  // namespace ccg::color
