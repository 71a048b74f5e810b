// Tests: put-aside sets (Lemma 4.18) and their coloring (Section 7).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <utility>
#include <vector>

#include "color/matching.hpp"
#include "color/multicolor_trial.hpp"
#include "color/putaside.hpp"
#include "color/sync_trial.hpp"
#include "helpers.hpp"

namespace ccg::color {
namespace {

graph::PlantedSpec cabal_spec(int delta, int anti, int ext, int cliques) {
  graph::PlantedSpec spec;
  spec.delta = delta;
  spec.num_cliques = cliques;
  spec.anti_deg = anti;
  spec.external_deg = ext;
  return spec;
}

TEST(PutAside, SetsAreIndependentAndSized) {
  color::Params params;
  params.seed = 3;
  auto f = ccg::testing::make_planted_fixture(cabal_spec(90, 2, 6, 4),
                                              params, 41, 8.0);
  auto& st = *f->st;
  const std::vector<int> cabals{0, 1, 2, 3};
  const int r = 10;
  GroupLists put;
  bool property3_ok = true;
  compute_putaside(st, cabals, r, &put, &property3_ok);
  const auto sets = put.view();
  ASSERT_EQ(sets.size(), 4u);
  std::set<int> all;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(sets[i].size(), static_cast<std::size_t>(r));
    for (const int v : sets[i]) {
      EXPECT_EQ(st.dc.clique_of(v), cabals[i]);
      EXPECT_FALSE(st.phi.colored(v));
      EXPECT_TRUE(all.insert(v).second);
    }
  }
  // Lemma 4.18 (2): no edges between put-aside sets of different cabals.
  for (std::size_t i = 0; i < sets.size(); ++i) {
    for (std::size_t j = i + 1; j < sets.size(); ++j) {
      for (const int u : sets[i]) {
        for (const int v : sets[j]) {
          EXPECT_FALSE(st.h().has_edge(u, v))
              << "edge between put-aside sets " << u << "-" << v;
        }
      }
    }
  }
}

// Drives one cabal to the state Proposition 4.19 assumes (only put-aside
// vertices uncolored), then exercises ColorPutAsideSets.
class PutAsideColoring : public ::testing::TestWithParam<int> {};

TEST_P(PutAsideColoring, FinishesTheCabalProperly) {
  const int anti = GetParam();
  color::Params params;
  params.seed = 100 + anti;
  params.ls_factor = 1.0;
  auto f = ccg::testing::make_planted_fixture(
      cabal_spec(110, anti, 6, 3), params, 43 + anti, 8.0);
  auto& st = *f->st;
  const std::vector<int> cabals{0, 1, 2};

  // Colorful matching so the clique palette outlasts |K| (anti > 0).
  if (anti > 0) {
    for (const int k : cabals) {
      std::vector<std::pair<int, int>> pairs;
      fingerprint_matching_into(st, k, nullptr, /*charge=*/true, &pairs);
      if (!pairs.empty()) color_anti_matching(st, pairs);
    }
  }

  const int r = std::max(4, static_cast<int>(st.dc.ell));
  GroupLists put;
  bool property3_ok = true;
  compute_putaside(st, cabals, r, &put, &property3_ok);

  // SCT + reserved MCT: color everything except the put-aside sets.
  std::vector<std::vector<int>> s_of(cabals.size());
  for (std::size_t i = 0; i < cabals.size(); ++i) {
    const auto& set = put.at(static_cast<int>(i));
    std::set<int> in_put(set.begin(), set.end());
    for (const int v : st.uncolored_members(cabals[i])) {
      if (!in_put.count(v)) s_of[i].push_back(v);
    }
  }
  synchronized_color_trial(st, cabals, s_of, nullptr);
  std::vector<int> leftover;
  for (const auto& s : s_of) {
    for (const int v : s) {
      if (!st.phi.colored(v)) leftover.push_back(v);
    }
  }
  MctOptions opt;
  opt.max_rounds = 48;
  opt.slack = [&st](int v) { return std::max(1, st.dc.r_of(v) / 2); };
  multicolor_trial(st, &leftover, reserved_set_sampler(st), opt);
  if (!leftover.empty()) fallback_finish(st, leftover);

  // Now only put-aside sets are uncolored; Proposition 4.19 applies.
  int uncolored = 0;
  for (int v = 0; v < st.h().n(); ++v) {
    if (!st.phi.colored(v)) ++uncolored;
  }
  EXPECT_EQ(uncolored, static_cast<int>(cabals.size()) * r);

  const int fallbacks_before = st.fallback_count;
  const auto stats = color_putaside_sets(st, cabals, put.view());
  cluster::check_proper_total(st.h(), st.phi.vec(), st.num_colors());
  EXPECT_EQ(stats.free_path_cliques + stats.donation_path_cliques +
                (stats.fallbacks > 0 ? 1 : 0) >= 1,
            true);
  // The safety net should stay quiet (allow a small number).
  EXPECT_LE(st.fallback_count - fallbacks_before, 3);
}

INSTANTIATE_TEST_SUITE_P(AntiSweep, PutAsideColoring,
                         ::testing::Values(0, 2, 4));

TEST(PutAside, ZeroFreeColorPaletteReachesSafetyNetWithoutDrawing) {
  // Regression for the zero-bound RNG draws of the put-aside coloring:
  // with a clique palette holding *no* free colors, both TryFreeColors'
  // window and FindSafeDonors' replacement draw would be next_below(0) —
  // a contract violation (and UB if the check ever compiled out). The
  // guards must route every put-aside vertex to the safety net instead.
  //
  // Instance: K = {0..7} is a (Delta+2)-clique minus the perfect
  // anti-matching {(0,1), (2,3), (4,5), (6,7)} — every vertex misses
  // exactly one anti-sibling, so Delta = 6 and the palette has 7 colors.
  // Coloring 0..6 with the 7 distinct colors exhausts the palette while
  // vertex 7 stays uncolored; its anti-sibling 6 holds the one color
  // that is still proper for it.
  std::vector<std::pair<int, int>> edges;
  for (int u = 0; u < 8; ++u) {
    for (int v = u + 1; v < 8; ++v) {
      if (v == u + 1 && u % 2 == 0) continue;  // anti-matching pair
      edges.emplace_back(u, v);
    }
  }
  auto g = graph::Graph::from_edges(8, edges);
  ASSERT_EQ(g.max_degree(), 6);
  const auto cg = cluster::ClusterGraph::singleton(g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  color::Params params;
  params.seed = 5;
  if (const char* env = std::getenv("CCG_TEST_THREADS")) {
    params.threads = std::max(1, std::atoi(env));
  }
  State st(rt, params);
  auto& dc = st.dc;
  dc.acd.num_cliques = 1;
  dc.acd.clique_of.assign(8, 0);
  dc.acd.members = {{0, 1, 2, 3, 4, 5, 6, 7}};
  acd::split_neighborhoods(st.h(), dc.acd, st.par.get(), &dc.info);
  dc.info.ext_est.assign(8, 0.0);
  dc.info.clique_size = {8};
  dc.info.avg_ext_est = {0.0};
  dc.info.is_cabal = {true};
  dc.ell = 2.0;
  dc.reserved_cap = 1;
  dc.reserved = {1};
  st.init_palettes();
  for (int v = 0; v < 7; ++v) st.assign(v, v);
  ASSERT_EQ(st.palettes[0].free_count(0, st.num_colors() - 1), 0);

  const std::vector<int> cabals{0};
  const std::vector<std::vector<int>> sets{{7}};
  const auto stats = color_putaside_sets(st, cabals, sets);
  EXPECT_TRUE(st.phi.colored(7));
  EXPECT_EQ(st.phi.get(7), st.phi.get(6));  // the anti-sibling's color
  EXPECT_EQ(stats.fallbacks, 1);
  EXPECT_EQ(stats.free_colored, 0);
  EXPECT_EQ(stats.donated, 0);
  cluster::check_proper_total(st.h(), st.phi.vec(), st.num_colors());

  // compute_putaside on the same exhausted state: only one eligible
  // vertex, so the sampled rounds either find {7} or the deterministic
  // greedy fallback does; either way the result is exact.
  st.unassign(7);
  GroupLists put;
  bool property3_ok = true;
  compute_putaside(st, cabals, 1, &put, &property3_ok);
  ASSERT_EQ(put.groups(), 1);
  EXPECT_EQ(put.at(0), std::vector<int>{7});
}

TEST(PutAsideDeterminism, BitIdenticalAcrossThreadCounts) {
  // compute_putaside + color_putaside_sets draw only from counter-based
  // per-(seed, round, entity) streams: every worker count must produce
  // the same sets, the same stats, and the same colors.
  for (const int threads : {2, 8}) {
    color::Params params;
    params.seed = 91;
    auto base = ccg::testing::make_planted_fixture(cabal_spec(90, 2, 6, 3),
                                                   params, 47, 8.0, 1);
    auto par = ccg::testing::make_planted_fixture(cabal_spec(90, 2, 6, 3),
                                                  params, 47, 8.0, threads);
    const std::vector<int> cabals{0, 1, 2};
    const int r = 8;
    GroupLists put_base, put_par;
    bool p3_base = true, p3_par = true;
    const int attempts_base =
        compute_putaside(*base->st, cabals, r, &put_base, &p3_base);
    const int attempts_par =
        compute_putaside(*par->st, cabals, r, &put_par, &p3_par);
    ASSERT_TRUE(std::ranges::equal(put_base.view(), put_par.view()))
        << "threads " << threads;
    EXPECT_EQ(attempts_base, attempts_par);

    const auto stats_base =
        color_putaside_sets(*base->st, cabals, put_base.view());
    const auto stats_par =
        color_putaside_sets(*par->st, cabals, put_par.view());
    EXPECT_EQ(base->st->phi.vec(), par->st->phi.vec())
        << "threads " << threads;
    EXPECT_EQ(stats_base.free_colored, stats_par.free_colored);
    EXPECT_EQ(stats_base.donated, stats_par.donated);
    EXPECT_EQ(stats_base.fallbacks, stats_par.fallbacks);
    EXPECT_EQ(base->st->retry_count, par->st->retry_count);
    EXPECT_EQ(base->st->fallback_count, par->st->fallback_count);
  }
}

TEST(Donation, DonationPathTriggersWhenPaletteTight) {
  // Force the donation branch: ls_factor large makes ell_s exceed the
  // palette surplus, so TryFreeColors is not available.
  color::Params params;
  params.seed = 777;
  params.ls_factor = 6.0;   // ell_s well above r + (e - a) + M_K
  params.block_factor = 4.0;
  params.reserved_factor = 1.0;
  auto f = ccg::testing::make_planted_fixture(
      cabal_spec(220, 0, 4, 2), params, 53, 8.0);
  auto& st = *f->st;
  const std::vector<int> cabals{0, 1};
  const int r = std::max(4, static_cast<int>(st.dc.ell));
  GroupLists put;
  bool property3_ok = true;
  compute_putaside(st, cabals, r, &put, &property3_ok);

  std::vector<std::vector<int>> s_of(cabals.size());
  for (std::size_t i = 0; i < cabals.size(); ++i) {
    const auto& set = put.at(static_cast<int>(i));
    std::set<int> in_put(set.begin(), set.end());
    for (const int v : st.uncolored_members(cabals[i])) {
      if (!in_put.count(v)) s_of[i].push_back(v);
    }
  }
  synchronized_color_trial(st, cabals, s_of, nullptr);
  std::vector<int> leftover;
  for (const auto& s : s_of) {
    for (const int v : s) {
      if (!st.phi.colored(v)) leftover.push_back(v);
    }
  }
  if (!leftover.empty()) fallback_finish(st, leftover);

  const auto stats = color_putaside_sets(st, cabals, put.view());
  cluster::check_proper_total(st.h(), st.phi.vec(), st.num_colors());
  EXPECT_GT(stats.donation_path_cliques + stats.fallbacks, 0);
  EXPECT_GT(stats.donated + stats.fallbacks + stats.free_colored, 0);
}

}  // namespace
}  // namespace ccg::color
