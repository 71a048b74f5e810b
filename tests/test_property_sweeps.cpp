// Broad parameterized property sweeps: invariants that must hold for any
// combination of structure, layout, and phase — the "thorough coverage"
// tier on top of the targeted unit tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <tuple>

#include "ccg/solver.hpp"
#include "cluster/validate.hpp"
#include "cluster/virtual_graph.hpp"
#include "color/matching.hpp"
#include "color/primitives.hpp"
#include "color/slack_generation.hpp"
#include "helpers.hpp"
#include "lowdeg/virtual_color.hpp"
#include "sketch/approx_count.hpp"

namespace ccg {
namespace {

// ---- Virtual graphs across base families -------------------------------

enum class BaseFamily { kGrid, kGnm, kTree, kCycle };

class VirtualSweep : public ::testing::TestWithParam<BaseFamily> {};

TEST_P(VirtualSweep, Distance2EncodingInvariants) {
  Rng rng(41);
  graph::Graph g;
  switch (GetParam()) {
    case BaseFamily::kGrid:
      g = graph::grid(12, 10);
      break;
    case BaseFamily::kGnm:
      g = graph::gnm(150, 500, rng);
      break;
    case BaseFamily::kTree:
      g = graph::random_tree(150, rng);
      break;
    case BaseFamily::kCycle:
      g = graph::cycle(120);
      break;
  }
  const auto vg = cluster::VirtualGraph::distance2(g);
  // H = G^2 exactly.
  const auto p2 = graph::graph_power(g, 2);
  EXPECT_EQ(vg.h().m(), p2.m());
  // The distance-2 encoding has c = d = 2 whenever G has a 2-path.
  EXPECT_LE(vg.congestion(), 2);
  EXPECT_LE(vg.dilation(), 2);
  // Copies: n + 2m incidences.
  EXPECT_EQ(vg.representation().n_machines(),
            g.n() + 2 * static_cast<int>(g.m()));
}

INSTANTIATE_TEST_SUITE_P(Bases, VirtualSweep,
                         ::testing::Values(BaseFamily::kGrid,
                                           BaseFamily::kGnm,
                                           BaseFamily::kTree,
                                           BaseFamily::kCycle));

class DistanceKSweep
    : public ::testing::TestWithParam<std::tuple<BaseFamily, int>> {};

TEST_P(DistanceKSweep, ExplicitHEncodingInvariants) {
  const auto& [fam, k] = GetParam();
  Rng rng(43);
  graph::Graph g;
  switch (fam) {
    case BaseFamily::kGrid:
      g = graph::grid(9, 8);
      break;
    case BaseFamily::kGnm:
      g = graph::gnm(90, 240, rng);
      break;
    case BaseFamily::kTree:
      g = graph::random_tree(90, rng);
      break;
    case BaseFamily::kCycle:
      g = graph::cycle(80);
      break;
  }
  const auto vg = cluster::VirtualGraph::distance_k(g, k);
  // H = G^k exactly, even when the radius-ceil(k/2) balls overlap beyond
  // distance k (the explicit-H filter must discard those pairs).
  const auto pk = graph::graph_power(g, k);
  ASSERT_EQ(vg.h().n(), pk.n());
  EXPECT_EQ(vg.h().edges(), pk.edges());
  EXPECT_GE(vg.congestion(), 1);
  // Coloring the encoding is proper on G^k with Delta_k + 1 colors.
  auto params = color::Params::defaults_for(vg.h().n(), 47 + k);
  params.measure_bits = false;
  const auto res = lowdeg::color_virtual_graph(vg, params);
  cluster::check_proper_total(pk, res.base.colors, res.base.num_colors);
  EXPECT_EQ(res.base.num_colors, pk.max_degree() + 1);
}

INSTANTIATE_TEST_SUITE_P(
    BasesTimesK, DistanceKSweep,
    ::testing::Combine(::testing::Values(BaseFamily::kGrid,
                                         BaseFamily::kGnm,
                                         BaseFamily::kTree,
                                         BaseFamily::kCycle),
                       ::testing::Values(3, 4)));

// ---- Fingerprint counting across predicates and widths ------------------

class CountSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CountSweep, EstimatesTrackTruth) {
  const auto& [t, mod] = GetParam();
  Rng rng(51 + t + mod);
  const auto h = graph::gnm(220, 4400, rng);  // avg deg 40
  const auto cg = cluster::ClusterGraph::singleton(h);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  sketch::CountOptions opt;
  opt.t = t;
  opt.measure_bits = false;
  std::vector<sketch::Fingerprint> raw;
  sketch::sample_raw_fingerprints_stream(
      h.n(), opt.t, StreamCtx(rng.next_u64()), nullptr, &raw);
  sketch::CountResult res;
  sketch::neighborhood_counts_into(
      rt, raw, [mod](int, int u) { return u % mod == 0; }, opt, &res);
  double total_rel_err = 0;
  int counted = 0;
  for (int v = 0; v < h.n(); ++v) {
    int truth = 0;
    for (const int u : h.neighbors(v)) {
      if (u % mod == 0) ++truth;
    }
    if (truth < 5) continue;
    total_rel_err +=
        std::abs(res.estimate[static_cast<std::size_t>(v)] - truth) /
        truth;
    ++counted;
  }
  ASSERT_GT(counted, 0);
  // Mean relative error shrinks with t; generous envelope ~ sqrt(200/t).
  EXPECT_LT(total_rel_err / counted, 2.2 * std::sqrt(200.0 / t));
}

INSTANTIATE_TEST_SUITE_P(
    Widths, CountSweep,
    ::testing::Combine(::testing::Values(256, 1024, 4096),
                       ::testing::Values(2, 3)));

// ---- Slack generation invariants across activation rates ----------------

class SlackSweep : public ::testing::TestWithParam<double> {};

TEST_P(SlackSweep, NeverColorsCabalsNorReservedPrefix) {
  const double pg = GetParam();
  graph::PlantedSpec spec;
  spec.delta = 100;
  spec.num_cliques = 3;
  spec.anti_deg = 2;
  spec.external_deg = 6;  // cabals under ell = 8
  spec.num_sparse = 150;
  spec.sparse_avg_deg = 40.0;
  color::Params params;
  params.slack_activation = pg;
  params.seed = static_cast<std::uint64_t>(pg * 1000);
  auto f = ccg::testing::make_planted_fixture(spec, params, 61, 8.0);
  auto& st = *f->st;
  color::slack_generation(st);
  for (int v = 0; v < st.h().n(); ++v) {
    if (!st.phi.colored(v)) continue;
    EXPECT_FALSE(st.dc.in_cabal(v));
    EXPECT_GE(st.phi.get(v), st.dc.reserved_cap);
  }
  cluster::check_proper_partial(st.h(), st.phi.vec());
}

INSTANTIATE_TEST_SUITE_P(Rates, SlackSweep,
                         ::testing::Values(0.02, 0.1, 0.3, 0.6));

// ---- Matching invariants across clique shapes ---------------------------

class MatchingSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MatchingSweep, ReuseOnlyAndAntiEdgeOnly) {
  const auto& [delta, anti] = GetParam();
  graph::PlantedSpec spec;
  spec.delta = delta;
  spec.num_cliques = 2;
  spec.anti_deg = anti;
  spec.external_deg = 6;
  color::Params params;
  params.seed = static_cast<std::uint64_t>(delta + anti);
  auto f = ccg::testing::make_planted_fixture(spec, params, 71, 8.0);
  auto& st = *f->st;
  color::colorful_matching_run(st, {0, 1}, 1 << 20);
  for (int k = 0; k < 2; ++k) {
    std::map<int, std::vector<int>> by_color;
    for (const int v : st.dc.acd.members[static_cast<std::size_t>(k)]) {
      if (st.phi.colored(v)) by_color[st.phi.get(v)].push_back(v);
    }
    for (const auto& [c, vs] : by_color) {
      EXPECT_GE(vs.size(), 2u) << "color " << c << " not reused";
      for (std::size_t i = 0; i < vs.size(); ++i) {
        for (std::size_t j = i + 1; j < vs.size(); ++j) {
          EXPECT_FALSE(st.h().has_edge(vs[i], vs[j]));
        }
      }
    }
  }
  cluster::check_proper_partial(st.h(), st.phi.vec());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatchingSweep,
    ::testing::Combine(::testing::Values(60, 120),
                       ::testing::Values(2, 6, 10)));

// ---- TryColor monotonicity across activation ----------------------------

class TryColorSweep : public ::testing::TestWithParam<double> {};

TEST_P(TryColorSweep, ProgressAndProperness) {
  const double act = GetParam();
  Rng rng(81);
  const auto g = graph::gnm(400, 4000, rng);
  const auto cg = cluster::ClusterGraph::singleton(g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  color::Params params;
  params.seed = static_cast<std::uint64_t>(act * 100);
  color::State st(rt, params);
  std::vector<int> all(static_cast<std::size_t>(g.n()));
  for (int v = 0; v < g.n(); ++v) all[static_cast<std::size_t>(v)] = v;
  const int colored = color::try_color_rounds(
      st, &all, color::uniform_sampler(st.num_colors(), 0), act, 6);
  EXPECT_GT(colored, 0);
  cluster::check_proper_partial(g, st.phi.vec());
}

INSTANTIATE_TEST_SUITE_P(Activations, TryColorSweep,
                         ::testing::Values(0.1, 0.25, 0.5, 0.9));

// ---- The default path never fails a job ---------------------------------
//
// Default Options (auto dispatch, fingerprint ACD, measured bits) on
// configurations whose w.h.p. events once failed jobs with kInternal; the
// instances are built as `ccg_cli --gen planted ... --seed S` builds them.
//  * kRelay: `--delta 64 --cliques 8 --ext 1 --anti 2` runs the polylog
//    low-degree regime, where Lemma 9.2's relay matching left anti-edges
//    unmatched on seeds 2, 5, 25 and 26.
//  * kStar / kPath: `--delta 128 --cliques 4 --ext 16 --anti 4 --sparse
//    200 --cluster-size 3` on that layout, where anti-matching pairs were
//    left uncolored on seeds 2, 5 and 32.

enum class DefaultPathConfig { kRelay, kStar, kPath };

class DefaultPathSweep
    : public ::testing::TestWithParam<
          std::tuple<DefaultPathConfig, std::uint64_t>> {};

TEST_P(DefaultPathSweep, SolveIsOkAndProper) {
  const auto& [config, seed] = GetParam();
  Rng rng(seed);
  graph::PlantedSpec spec;
  if (config == DefaultPathConfig::kRelay) {
    spec.delta = 64;
    spec.num_cliques = 8;
    spec.anti_deg = 2;
    spec.external_deg = 1;
  } else {
    spec.delta = 128;
    spec.num_cliques = 4;
    spec.anti_deg = 4;
    spec.external_deg = 16;
    spec.num_sparse = 200;
  }
  spec.sparse_avg_deg = spec.delta * 0.25;
  const auto g = graph::make_planted_acd(spec, rng).g;
  cluster::ClusterGraph cg;
  if (config == DefaultPathConfig::kRelay) {
    cg = cluster::ClusterGraph::singleton(g);
  } else {
    cluster::ExpandSpec es;
    es.shape = config == DefaultPathConfig::kStar
                   ? cluster::ClusterShape::kStar
                   : cluster::ClusterShape::kPath;
    es.size = 3;
    cg = cluster::ClusterGraph::expand(g, es, rng);
  }
  Options opt;
  opt.seed = seed + 1;
  if (const char* env = std::getenv("CCG_TEST_THREADS")) {
    opt.threads = std::max(1, std::atoi(env));
  }
  Solver solver;
  const auto out = solver.solve(Problem::cluster(cg), opt);
  ASSERT_TRUE(out.ok()) << out.error.message;
  cluster::check_proper_total(g, out.result.colors, out.result.num_colors);
}

INSTANTIATE_TEST_SUITE_P(
    Relay, DefaultPathSweep,
    ::testing::Combine(::testing::Values(DefaultPathConfig::kRelay),
                       ::testing::Values(2, 5, 25, 26)));
INSTANTIATE_TEST_SUITE_P(
    Layouts, DefaultPathSweep,
    ::testing::Combine(::testing::Values(DefaultPathConfig::kStar,
                                         DefaultPathConfig::kPath),
                       ::testing::Values(2, 5, 32)));

}  // namespace
}  // namespace ccg
