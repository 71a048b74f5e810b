// The ccg::Solver facade contract (include/ccg/solver.hpp):
//  * bit-identical to the pre-facade free functions for every algorithm,
//    both virtual-graph modes and threads in {1, 2, 8};
//  * one session serves heterogeneous problems back to back with no
//    cross-contamination (reset-and-rebind arena);
//  * every boundary failure is a structured ccg::Error — no throws, no
//    aborts anywhere across the facade.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>

#include "ccg/ccg.hpp"

namespace ccg {
namespace {

// Matches the Options assembly of the facade for the oracle-ACD test
// configuration (see pipeline_params in tests/test_pipeline.cpp).
color::Params free_params(int n, std::uint64_t seed, int threads) {
  auto p = color::Params::defaults_for(n, seed);
  p.eps = 0.2;
  p.use_fingerprint_acd = false;
  p.measure_bits = false;
  p.threads = threads;
  return p;
}

Options solver_options(Algo algo, std::uint64_t seed, int threads) {
  Options o;
  o.algo = algo;
  o.seed = seed;
  o.threads = threads;
  o.eps = 0.2;
  o.oracle = true;
  return o;
}

graph::PlantedGraph high_degree_instance() {
  Rng rng(2);
  graph::PlantedSpec spec;  // cabal-heavy: drives put-aside + donation
  spec.delta = 150;
  spec.num_cliques = 4;
  spec.anti_deg = 2;
  spec.external_deg = 4;
  return graph::make_planted_acd(spec, rng);
}

graph::Graph low_degree_instance() {
  Rng rng(5);
  return graph::gnm(500, 2000, rng);
}

void expect_same_result(const color::Result& a, const color::Result& b,
                        const char* what) {
  EXPECT_EQ(a.colors, b.colors) << what;
  EXPECT_EQ(a.num_colors, b.num_colors) << what;
  EXPECT_EQ(a.h_rounds, b.h_rounds) << what;
  EXPECT_EQ(a.g_rounds, b.g_rounds) << what;
  EXPECT_EQ(a.max_message_bits, b.max_message_bits) << what;
  EXPECT_EQ(a.max_bits_per_link_round, b.max_bits_per_link_round) << what;
  EXPECT_EQ(a.fallback_count, b.fallback_count) << what;
  EXPECT_EQ(a.retry_count, b.retry_count) << what;
  EXPECT_EQ(a.num_cliques, b.num_cliques) << what;
  EXPECT_EQ(a.num_cabals, b.num_cabals) << what;
  EXPECT_EQ(a.sparse_count, b.sparse_count) << what;
  EXPECT_EQ(a.dilation, b.dilation) << what;
}

TEST(SolverApi, BitIdenticalToFreeFunctionsAcrossThreads) {
  const auto planted = high_degree_instance();
  const auto high_cg = cluster::ClusterGraph::singleton(planted.g);
  const auto low_g = low_degree_instance();
  const auto low_cg = cluster::ClusterGraph::singleton(low_g);

  // One session for the whole sweep: reuse across heterogeneous problems
  // and thread counts must not perturb a single bit.
  Solver solver;
  for (const int threads : {1, 2, 8}) {
    {  // Theorem 1.2 pipeline
      net::Ledger ledger(high_cg.default_bandwidth());
      cluster::Runtime rt(high_cg, ledger);
      const auto expect = color::color_high_degree(
          rt, free_params(planted.g.n(), 11, threads));
      const auto got = solver.solve(
          Problem::cluster(high_cg),
          solver_options(Algo::kHighDegree, 11, threads));
      ASSERT_TRUE(got.ok()) << got.error.message;
      expect_same_result(expect, got.result, "high");
      EXPECT_EQ(got.n, planted.g.n());
      EXPECT_EQ(got.congestion, 1);
      EXPECT_EQ(got.g_rounds_with_congestion, got.result.g_rounds);
    }
    {  // Theorem 1.1 pipeline
      net::Ledger ledger(low_cg.default_bandwidth());
      cluster::Runtime rt(low_cg, ledger);
      const auto expect =
          lowdeg::color_low_degree(rt, free_params(low_g.n(), 23, threads));
      const auto got =
          solver.solve(Problem::cluster(low_cg),
                       solver_options(Algo::kLowDegree, 23, threads));
      ASSERT_TRUE(got.ok()) << got.error.message;
      expect_same_result(expect, got.result, "low");
    }
    {  // auto dispatch, both regimes
      net::Ledger ledger(high_cg.default_bandwidth());
      cluster::Runtime rt(high_cg, ledger);
      const auto expect = lowdeg::color_cluster_graph(
          rt, free_params(planted.g.n(), 31, threads));
      const auto got = solver.solve(
          Problem::cluster(high_cg), solver_options(Algo::kAuto, 31, threads));
      ASSERT_TRUE(got.ok()) << got.error.message;
      expect_same_result(expect, got.result, "auto-high");

      net::Ledger ledger2(low_cg.default_bandwidth());
      cluster::Runtime rt2(low_cg, ledger2);
      const auto expect2 = lowdeg::color_cluster_graph(
          rt2, free_params(low_g.n(), 37, threads));
      const auto got2 = solver.solve(
          Problem::cluster(low_cg), solver_options(Algo::kAuto, 37, threads));
      ASSERT_TRUE(got2.ok()) << got2.error.message;
      expect_same_result(expect2, got2.result, "auto-low");
    }
  }
}

TEST(SolverApi, BitIdenticalToFreeFunctionsVirtualModes) {
  const auto grid_g = graph::grid(9, 9);
  Rng rng(6);
  const auto base_g = graph::gnm(150, 450, rng);

  Solver solver;
  for (const int threads : {1, 2, 8}) {
    {  // edge coloring: the line graph as a virtual graph (c = 1)
      const auto vg = cluster::make_line_graph(grid_g);
      const auto expect = lowdeg::color_virtual_graph(
          vg, free_params(vg.h().n(), 41, threads));
      const auto got = solver.solve(Problem::edge_coloring(grid_g),
                                    solver_options(Algo::kAuto, 41, threads));
      ASSERT_TRUE(got.ok()) << got.error.message;
      expect_same_result(expect.base, got.result, "edge");
      EXPECT_EQ(got.congestion, expect.congestion);
      EXPECT_EQ(got.g_rounds_with_congestion,
                expect.g_rounds_with_congestion);
      // The H-vertex -> g-edge realization map is exposed for consumers.
      EXPECT_EQ(static_cast<std::int64_t>(solver.edge_map().size()),
                grid_g.m());
    }
    {  // distance-2 coloring: H = G^2 (c = 2)
      const auto vg = cluster::VirtualGraph::distance_k(base_g, 2);
      const auto expect = lowdeg::color_virtual_graph(
          vg, free_params(vg.h().n(), 43, threads));
      const auto got = solver.solve(Problem::distance_k(base_g, 2),
                                    solver_options(Algo::kAuto, 43, threads));
      ASSERT_TRUE(got.ok()) << got.error.message;
      expect_same_result(expect.base, got.result, "dist2");
      EXPECT_EQ(got.congestion, expect.congestion);
      EXPECT_EQ(got.g_rounds_with_congestion,
                expect.g_rounds_with_congestion);
      // A prebuilt virtual graph routes identically (the serving path).
      const auto got2 = solver.solve(Problem::virtual_graph(vg),
                                     solver_options(Algo::kAuto, 43, threads));
      ASSERT_TRUE(got2.ok()) << got2.error.message;
      expect_same_result(got.result, got2.result, "dist2-prebuilt");
    }
  }
}

TEST(SolverApi, FastAlgoProperAndDeterministicAcrossThreadsAndReuse) {
  Rng rng(9);
  const auto g = graph::gnm(600, 6000, rng);
  const auto cg = cluster::ClusterGraph::singleton(g);

  Solver warm;
  const auto base =
      warm.solve(Problem::cluster(cg), solver_options(Algo::kFast, 51, 1));
  ASSERT_TRUE(base.ok()) << base.error.message;
  EXPECT_TRUE(cluster::is_proper_total(g, base.result.colors,
                                       base.result.num_colors));
  for (const int threads : {2, 8}) {
    Solver fresh;
    const auto got = fresh.solve(Problem::cluster(cg),
                                 solver_options(Algo::kFast, 51, threads));
    ASSERT_TRUE(got.ok()) << got.error.message;
    EXPECT_EQ(got.result.colors, base.result.colors) << threads;
  }
  // Warm re-run after unrelated jobs in between: still identical.
  (void)warm.solve(Problem::edge_coloring(g), solver_options(Algo::kFast, 1, 1));
  const auto again =
      warm.solve(Problem::cluster(cg), solver_options(Algo::kFast, 51, 1));
  ASSERT_TRUE(again.ok()) << again.error.message;
  expect_same_result(base.result, again.result, "fast-warm");
}

TEST(SolverApi, RecipeMatchesManuallyBuiltInstance) {
  const Options opt = solver_options(Algo::kFast, 61, 1);
  Solver a;
  const auto from_recipe = a.solve(
      Problem::recipe("--gen gnm --n 300 --m 2000 --graph-seed 9 "
                      "--layout star --cluster-size 3"),
      opt);
  ASSERT_TRUE(from_recipe.ok()) << from_recipe.error.message;

  Rng rng(9);
  const auto g = graph::gnm(300, 2000, rng);
  cluster::ExpandSpec es;
  es.shape = cluster::ClusterShape::kStar;
  es.size = 3;
  es.links_per_edge = 1;
  const auto cg = cluster::ClusterGraph::expand(g, es, rng);
  Solver b;
  const auto manual = b.solve(Problem::cluster(cg), opt);
  ASSERT_TRUE(manual.ok()) << manual.error.message;
  expect_same_result(from_recipe.result, manual.result, "recipe");

  // Recipes reach the virtual modes too (the manifest mode= surface).
  Solver c;
  const auto edge =
      c.solve(Problem::recipe("--gen grid --w 6 --h 6 --mode edge"), opt);
  ASSERT_TRUE(edge.ok()) << edge.error.message;
  EXPECT_EQ(edge.congestion, 1);
  EXPECT_EQ(c.edge_map(), graph::grid(6, 6).edges());
  const auto d2 =
      c.solve(Problem::recipe("--gen gnm --n 200 --m 600 --mode dist2"), opt);
  ASSERT_TRUE(d2.ok()) << d2.error.message;
  EXPECT_EQ(d2.congestion, 2);
}

TEST(SolverApi, RecipesOutsideAGeneratorsDomainAreInvalidProblems) {
  // Each parses, but its generator's own contract rejects the arguments
  // (Chung-Lu needs gamma > 2, gnm on 10 vertices holds at most 45 of the
  // default 80 edges, caveman needs two cliques, and the planted block
  // cannot hold 12 external edges per vertex).
  Solver solver;
  for (const char* recipe :
       {"--gen chunglu --n 100 --gamma 1.5", "--gen gnm --n 10",
        "--gen caveman --cliques 1",
        "--gen planted --delta 4 --cliques 2 --ext 12 --anti 2"}) {
    const auto out = solver.solve(Problem::recipe(recipe), {});
    EXPECT_EQ(out.error.code, ErrorCode::kInvalidProblem)
        << recipe << ": " << out.error.message;
  }
  // A recipe that builds no vertices is an empty instance in every mode.
  const std::string empty =
      std::string("--dimacs ") + CCG_SOURCE_DIR + "/tests/corpus/empty.col";
  for (const char* mode : {"", " --mode edge", " --mode dist2",
                           " --layout star"}) {
    const auto out = solver.solve(Problem::recipe(empty + mode), {});
    EXPECT_EQ(out.error.code, ErrorCode::kInvalidProblem) << mode;
    EXPECT_NE(out.error.message.find("empty instance"), std::string::npos)
        << mode << ": " << out.error.message;
  }
}

TEST(SolverApi, BoundaryErrorsAreValuesNotThrows) {
  Rng rng(13);
  const auto g = graph::gnm(120, 500, rng);
  const auto cg = cluster::ClusterGraph::singleton(g);
  Solver solver;
  Outcome out;

  const auto expect_error = [&](const Problem& p, const Options& o,
                                ErrorCode code, const char* what) {
    ASSERT_NO_THROW(solver.solve(p, o, &out)) << what;
    EXPECT_FALSE(out.ok()) << what;
    EXPECT_EQ(out.error.code, code)
        << what << ": " << out.error.message;
    EXPECT_FALSE(out.error.message.empty()) << what;
    EXPECT_TRUE(out.result.colors.empty()) << what;
  };

  // Bad Options knobs -> kInvalidOptions.
  {
    Options o;
    o.threads = -1;
    expect_error(Problem::cluster(cg), o, ErrorCode::kInvalidOptions,
                 "negative threads");
    o.threads = Options::kMaxThreads + 1;
    expect_error(Problem::cluster(cg), o, ErrorCode::kInvalidOptions,
                 "oversize threads");
  }
  for (const double eps :
       {1.5, -0.1, std::nan(""), std::numeric_limits<double>::infinity()}) {
    Options o;
    o.eps = eps;
    expect_error(Problem::cluster(cg), o, ErrorCode::kInvalidOptions,
                 "bad eps");
  }
  {
    Options o;  // full override with a poisoned knob
    o.params = color::Params::defaults_for(g.n(), 1);
    o.params->eps = 0.0;
    expect_error(Problem::cluster(cg), o, ErrorCode::kInvalidOptions,
                 "override eps");
    o.params = color::Params::defaults_for(g.n(), 1);
    o.params->reserved_cap_frac = 2.0;  // reserved prefix > palette
    expect_error(Problem::cluster(cg), o, ErrorCode::kInvalidOptions,
                 "oversize reserved prefix");
    o.params = color::Params::defaults_for(g.n(), 1);
    o.params->fingerprint_t = 0;
    expect_error(Problem::cluster(cg), o, ErrorCode::kInvalidOptions,
                 "zero fingerprint width");
  }

  // Bad Problems -> kInvalidProblem.
  expect_error(Problem::distance_k(g, 0), {}, ErrorCode::kInvalidProblem,
               "distance 0");
  expect_error(Problem::distance_k(g, Problem::kMaxDistance + 1), {},
               ErrorCode::kInvalidProblem, "oversize distance");
  {
    graph::Graph unfinalized(4);
    expect_error(Problem::graph(unfinalized), {},
                 ErrorCode::kInvalidProblem, "unfinalized graph");
    graph::Graph empty(0);
    empty.finalize();
    expect_error(Problem::graph(empty), {}, ErrorCode::kInvalidProblem,
                 "empty graph");
    const auto lonely = graph::grid(1, 1);  // one vertex, no edges
    expect_error(Problem::edge_coloring(lonely), {},
                 ErrorCode::kInvalidProblem, "edgeless line graph");
  }
  expect_error(Problem::recipe("--gen nosuchgen"), {},
               ErrorCode::kInvalidProblem, "unknown generator");
  expect_error(Problem::recipe(""), {}, ErrorCode::kInvalidProblem,
               "empty recipe");
  expect_error(Problem::recipe("   "), {}, ErrorCode::kInvalidProblem,
               "blank recipe");
  expect_error(Problem::recipe("--gen gnm --repeat 2000000000"), {},
               ErrorCode::kInvalidProblem, "repeat in recipe");
  expect_error(Problem::recipe("--gen gnm --n 0"), {},
               ErrorCode::kInvalidProblem, "recipe n = 0");
  expect_error(Problem::recipe("--frob 1"), {},
               ErrorCode::kInvalidProblem, "unknown recipe flag");
  expect_error(Problem::recipe("--gen gnm --mode edge --layout star"), {},
               ErrorCode::kInvalidProblem, "virtual mode with layout");

  // Failed builds -> kBuildFailed.
  expect_error(Problem::recipe("--dimacs /nonexistent/graph.col"), {},
               ErrorCode::kBuildFailed, "missing DIMACS file");

  // A failed solve never exposes a partial/foreign coloring or map.
  EXPECT_TRUE(solver.colors().empty());
  EXPECT_TRUE(solver.edge_map().empty());

  // The error path does not poison the session: the next valid solve on
  // this same solver matches a fresh one bit for bit.
  const auto opt = solver_options(Algo::kFast, 71, 1);
  const auto after_errors = solver.solve(Problem::cluster(cg), opt);
  ASSERT_TRUE(after_errors.ok()) << after_errors.error.message;
  Solver fresh;
  const auto clean = fresh.solve(Problem::cluster(cg), opt);
  ASSERT_TRUE(clean.ok());
  expect_same_result(clean.result, after_errors.result, "post-error");
}

TEST(SolverApi, CopyColorsOffExposesColoringThroughTheSession) {
  Rng rng(17);
  const auto g = graph::gnm(200, 1200, rng);
  const auto cg = cluster::ClusterGraph::singleton(g);
  Solver solver;
  auto opt = solver_options(Algo::kFast, 81, 1);
  opt.copy_colors = false;
  Outcome out;
  solver.solve(Problem::cluster(cg), opt, &out);
  ASSERT_TRUE(out.ok()) << out.error.message;
  EXPECT_TRUE(out.result.colors.empty());  // stats only
  EXPECT_EQ(out.result.num_colors, g.max_degree() + 1);
  // The live view carries the coloring instead.
  EXPECT_TRUE(
      cluster::is_proper_total(g, solver.colors(), out.result.num_colors));
}

}  // namespace
}  // namespace ccg
