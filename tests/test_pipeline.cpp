// End-to-end tests: the Theorem 1.2 pipeline, the Theorem 1.1 pipeline,
// the dispatcher, and the baselines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "baseline/baselines.hpp"
#include "ccg/solver.hpp"
#include "cluster/validate.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "lowdeg/lowdeg.hpp"
#include "svc/service.hpp"

namespace ccg {
namespace {

color::Params pipeline_params(int n, std::uint64_t seed) {
  auto p = color::Params::defaults_for(n, seed);
  p.eps = 0.2;  // lenient detection margin for the planted specs below
  p.use_fingerprint_acd = false;  // oracle ACD: fast, identical charges
  p.measure_bits = false;
  // The CI TSan job re-runs this binary with CCG_TEST_THREADS=4 so every
  // end-to-end configuration exercises the parallel round engine; results
  // are bit-identical for any value (tests stay green unchanged).
  if (const char* env = std::getenv("CCG_TEST_THREADS")) {
    p.threads = std::max(1, std::atoi(env));
  }
  return p;
}

TEST(PipelineHighDegree, MixedInstanceColorsProperly) {
  Rng rng(1);
  graph::PlantedSpec spec;
  spec.delta = 160;
  spec.num_cliques = 4;
  spec.anti_deg = 2;
  spec.external_deg = 20;  // non-cabals (e + 2a + O(1) <= eps*Delta)
  spec.num_sparse = 300;
  spec.sparse_avg_deg = 40.0;
  spec.external_to_sparse = 0.3;
  const auto planted = graph::make_planted_acd(spec, rng);
  const auto cg = cluster::ClusterGraph::singleton(planted.g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  const auto res = color::color_high_degree(
      rt, pipeline_params(planted.g.n(), 11));
  cluster::check_proper_total(planted.g, res.colors, res.num_colors);
  EXPECT_EQ(res.num_colors, planted.delta + 1);
  EXPECT_EQ(res.num_cliques, 4);
  EXPECT_GT(res.sparse_count, 0);
  EXPECT_GT(res.h_rounds, 0);
  // The safety net should handle at most a tiny fraction.
  EXPECT_LE(res.fallback_count, planted.g.n() / 20);
}

TEST(PipelineHighDegree, CabalHeavyInstance) {
  Rng rng(2);
  graph::PlantedSpec spec;
  spec.delta = 150;
  spec.num_cliques = 4;
  spec.anti_deg = 2;
  spec.external_deg = 4;  // e_K < ell -> cabals
  const auto planted = graph::make_planted_acd(spec, rng);
  const auto cg = cluster::ClusterGraph::singleton(planted.g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  const auto res = color::color_high_degree(
      rt, pipeline_params(planted.g.n(), 13));
  cluster::check_proper_total(planted.g, res.colors, res.num_colors);
  EXPECT_EQ(res.num_cabals, 4);
  EXPECT_LE(res.fallback_count, planted.g.n() / 20);
}

TEST(PipelineHighDegree, PureCliquesDeltaPlusOne) {
  // (Delta+1)-cliques with zero external edges: H needs exactly Delta+1
  // colors; the tightest case for the clique palette.
  Rng rng(3);
  graph::PlantedSpec spec;
  spec.delta = 120;
  spec.num_cliques = 3;
  spec.anti_deg = 0;
  spec.external_deg = 2;
  const auto planted = graph::make_planted_acd(spec, rng);
  const auto cg = cluster::ClusterGraph::singleton(planted.g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  const auto res = color::color_high_degree(
      rt, pipeline_params(planted.g.n(), 17));
  cluster::check_proper_total(planted.g, res.colors, res.num_colors);
}

TEST(PipelineHighDegree, RunsOnExpandedClusters) {
  Rng rng(4);
  graph::PlantedSpec spec;
  spec.delta = 120;
  spec.num_cliques = 3;
  spec.anti_deg = 2;
  spec.external_deg = 12;
  spec.num_sparse = 150;
  spec.sparse_avg_deg = 30.0;
  const auto planted = graph::make_planted_acd(spec, rng);
  cluster::ExpandSpec es;
  es.shape = cluster::ClusterShape::kRandomTree;
  es.size = 4;
  es.links_per_edge = 2;
  const auto cg = cluster::ClusterGraph::expand(planted.g, es, rng);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  const auto res = color::color_high_degree(
      rt, pipeline_params(planted.g.n(), 19));
  cluster::check_proper_total(planted.g, res.colors, res.num_colors);
  // d > 0: G-rounds must strictly exceed H-rounds.
  EXPECT_GT(res.g_rounds, res.h_rounds);
  EXPECT_GT(res.dilation, 0);
}

TEST(PipelineLowDegree, LogarithmicRegime) {
  Rng rng(5);
  const auto g = graph::gnm(500, 2000, rng);  // Delta ~ O(log n)
  const auto cg = cluster::ClusterGraph::singleton(g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  const auto res =
      lowdeg::color_low_degree(rt, pipeline_params(g.n(), 23));
  cluster::check_proper_total(g, res.colors, res.num_colors);
}

TEST(PipelineLowDegree, PolylogRegimeWithStructure) {
  Rng rng(6);
  graph::PlantedSpec spec;
  spec.delta = 60;
  spec.num_cliques = 3;
  spec.anti_deg = 2;
  spec.external_deg = 10;
  spec.num_sparse = 200;
  spec.sparse_avg_deg = 20.0;
  const auto planted = graph::make_planted_acd(spec, rng);
  const auto cg = cluster::ClusterGraph::singleton(planted.g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  const auto res =
      lowdeg::color_low_degree(rt, pipeline_params(planted.g.n(), 29));
  cluster::check_proper_total(planted.g, res.colors, res.num_colors);
}

TEST(PipelineHighDegree, FingerprintPathSeedsThatFailedAntiMatching) {
  // `ccg_cli --gen planted --delta 128 --cliques 4 --ext 16 --anti 4
  // --sparse 200 --layout star --cluster-size 3 --algo high --seed S`
  // returned kInternal on these seeds: on 11, 18 and 179 two adjacent
  // anti-matching pairs drew one color and neither yielded, and on the
  // others some pairs had no common free color left. The instances are
  // built as ccg_cli builds them; leaving bits unmeasured keeps every
  // failure and runs faster.
  for (const std::uint64_t s : {2, 5, 11, 18, 32, 123, 179, 187}) {
    Rng rng(s);
    graph::PlantedSpec spec;
    spec.delta = 128;
    spec.num_cliques = 4;
    spec.anti_deg = 4;
    spec.external_deg = 16;
    spec.num_sparse = 200;
    spec.sparse_avg_deg = spec.delta * 0.25;
    const auto planted = graph::make_planted_acd(spec, rng);
    cluster::ExpandSpec es;
    es.shape = cluster::ClusterShape::kStar;
    es.size = 3;
    const auto cg = cluster::ClusterGraph::expand(planted.g, es, rng);
    std::vector<int> base;
    for (const int threads : {1, 4}) {
      Options opt;
      opt.algo = Algo::kHighDegree;
      opt.params = color::Params::defaults_for(planted.g.n(), s + 1);
      opt.params->measure_bits = false;
      opt.params->threads = threads;
      Solver solver;
      const auto out = solver.solve(Problem::cluster(cg), opt);
      ASSERT_TRUE(out.ok()) << "seed " << s << " threads " << threads
                            << ": " << out.error.message;
      cluster::check_proper_total(planted.g, out.result.colors,
                                  out.result.num_colors);
      if (threads == 1) {
        base = out.result.colors;
      } else {
        EXPECT_EQ(out.result.colors, base) << "seed " << s;
      }
    }
  }
}

TEST(PipelineSeeds, SeedsThatFailedJobs) {
  // `ccg_cli <recipe> --seed S` (graph seed S, coloring seed S + 1)
  // returned kInternal on these seeds:
  //  - the relay rows run the polylog low-degree regime, where Lemma 9.2's
  //    relay matching left some anti-edge without a relay; such a pair now
  //    stays uncolored for the cabal's later steps;
  //  - on the put-aside rows every randomized put-aside attempt failed and
  //    the greedy fallback found fewer than r non-clashing inliers in some
  //    cabal; the cabal now keeps the short set and its other inliers go
  //    through steps 4-5.
  // Both count what they left in retry_count; the put-aside rows must
  // also reach the greedy fallback, which counts in fallback_count.
  struct Case {
    const char* recipe;
    Algo algo;
    bool oracle;
    std::vector<std::uint64_t> seeds;
    bool putaside_fallback;
  };
  const char* relay = "--gen planted --delta 64 --cliques 8 --ext 1 --anti 2";
  const Case cases[] = {
      {relay, Algo::kAuto, false, {2, 5, 25, 26, 29, 37, 45, 59}, false},
      {relay, Algo::kAuto, true, {2, 6, 15, 38}, false},
      {"--gen planted --delta 96 --cliques 5 --ext 8 --anti 4 --sparse 500",
       Algo::kHighDegree, true, {4, 9, 13, 18, 23, 31, 34, 39, 40}, true},
  };
  for (const auto& c : cases) {
    for (const std::uint64_t s : c.seeds) {
      const std::string recipe =
          std::string(c.recipe) + " --graph-seed " + std::to_string(s);
      const auto inst = svc::build_instance(svc::parse_job_flags(recipe));
      ASSERT_TRUE(inst.error.empty()) << recipe << ": " << inst.error;
      std::vector<int> base;
      for (const int threads : {1, 4}) {
        Options opt;
        opt.algo = c.algo;
        opt.seed = s + 1;
        opt.threads = threads;
        opt.oracle = c.oracle;
        Solver solver;
        const auto out = solver.solve(Problem::recipe(recipe), opt);
        ASSERT_TRUE(out.ok()) << recipe << " oracle " << c.oracle
                              << " threads " << threads << ": "
                              << out.error.message;
        cluster::check_proper_total(inst.cg.h(), out.result.colors,
                                    out.result.num_colors);
        EXPECT_GT(out.result.retry_count, 0) << recipe;
        if (c.putaside_fallback) {
          EXPECT_GT(out.result.fallback_count, 0) << recipe;
        }
        if (threads == 1) {
          base = out.result.colors;
        } else {
          EXPECT_EQ(out.result.colors, base) << recipe;
        }
      }
    }
  }
}

TEST(PipelineDeterminism, FullPipelineBitIdenticalAcrossThreadCounts) {
  // End-to-end acceptance bar of the parallel round engine: the *full*
  // high-degree pipeline — including the colorful/fingerprint matchings,
  // the anti-matching coloring, put-aside computation + coloring, and the
  // fallback safety net — must be bit-identical for every worker count.
  // (test_exec pins the same property per round; this pins the
  // composition under the standard test configuration, with the
  // cabal-heavy shape driving the put-aside/donation phases.)
  Rng rng(77);
  struct Shape {
    const char* name;
    graph::PlantedGraph planted;
  };
  std::vector<Shape> shapes;
  {
    graph::PlantedSpec spec;  // cabal-heavy: put-aside + donation paths
    spec.delta = 150;
    spec.num_cliques = 4;
    spec.anti_deg = 2;
    spec.external_deg = 4;
    shapes.push_back({"cabal_heavy", graph::make_planted_acd(spec, rng)});
  }
  {
    graph::PlantedSpec spec;  // mixture: matchings + sparse + fallback
    spec.delta = 140;
    spec.num_cliques = 4;
    spec.anti_deg = 2;
    spec.external_deg = 18;
    spec.num_sparse = 250;
    spec.sparse_avg_deg = 35.0;
    spec.external_to_sparse = 0.3;
    shapes.push_back({"mixture", graph::make_planted_acd(spec, rng)});
  }
  for (const auto& shape : shapes) {
    const auto& g = shape.planted.g;
    auto run = [&](int threads) {
      const auto cg = cluster::ClusterGraph::singleton(g);
      net::Ledger ledger(cg.default_bandwidth());
      cluster::Runtime rt(cg, ledger);
      auto params = pipeline_params(g.n(), 137);
      params.threads = threads;
      auto res = color::color_high_degree(rt, params);
      cluster::check_proper_total(g, res.colors, res.num_colors);
      return res;
    };
    const auto base = run(1);
    for (const int threads : {2, 8}) {
      const auto res = run(threads);
      ASSERT_EQ(res.colors, base.colors)
          << shape.name << " threads " << threads;
      EXPECT_EQ(res.h_rounds, base.h_rounds) << shape.name;
      EXPECT_EQ(res.g_rounds, base.g_rounds) << shape.name;
      EXPECT_EQ(res.fallback_count, base.fallback_count) << shape.name;
      EXPECT_EQ(res.retry_count, base.retry_count) << shape.name;
      EXPECT_EQ(res.num_cabals, base.num_cabals) << shape.name;
    }
  }
}

TEST(PipelineDeterminism, LowDegreeBitIdenticalAcrossThreadCounts) {
  // Same acceptance bar for the Theorem 1.1 path: learn/shatter, the
  // polylog cabal machinery and the finisher all run on the round engine,
  // so the low-degree coloring must not depend on the worker count.
  Rng rng(88);
  struct Shape {
    const char* name;
    graph::Graph g;
  };
  std::vector<Shape> shapes;
  shapes.push_back({"gnm", graph::gnm(500, 2000, rng)});
  {
    graph::PlantedSpec spec;  // polylog regime with dense structure
    spec.delta = 60;
    spec.num_cliques = 3;
    spec.anti_deg = 2;
    spec.external_deg = 10;
    spec.num_sparse = 200;
    spec.sparse_avg_deg = 20.0;
    shapes.push_back({"planted", graph::make_planted_acd(spec, rng).g});
  }
  for (const auto& shape : shapes) {
    auto run = [&](int threads) {
      const auto cg = cluster::ClusterGraph::singleton(shape.g);
      net::Ledger ledger(cg.default_bandwidth());
      cluster::Runtime rt(cg, ledger);
      auto params = pipeline_params(shape.g.n(), 139);
      params.threads = threads;
      auto res = lowdeg::color_low_degree(rt, params);
      cluster::check_proper_total(shape.g, res.colors, res.num_colors);
      return res;
    };
    const auto base = run(1);
    for (const int threads : {2, 8}) {
      const auto res = run(threads);
      ASSERT_EQ(res.colors, base.colors)
          << shape.name << " threads " << threads;
      EXPECT_EQ(res.h_rounds, base.h_rounds) << shape.name;
      EXPECT_EQ(res.fallback_count, base.fallback_count) << shape.name;
    }
  }
}

TEST(Dispatcher, PicksPathByDelta) {
  Rng rng(7);
  auto params = pipeline_params(400, 31);
  // Low-degree input.
  const auto sparse_g = graph::gnm(400, 1200, rng);
  {
    const auto cg = cluster::ClusterGraph::singleton(sparse_g);
    net::Ledger ledger(cg.default_bandwidth());
    cluster::Runtime rt(cg, ledger);
    EXPECT_LT(rt.delta(), params.delta_low(sparse_g.n()));
    const auto res = lowdeg::color_cluster_graph(rt, params);
    cluster::check_proper_total(sparse_g, res.colors, res.num_colors);
  }
  // High-degree input.
  graph::PlantedSpec spec;
  spec.delta = 200;
  spec.num_cliques = 2;
  spec.anti_deg = 0;
  spec.external_deg = 8;
  const auto planted = graph::make_planted_acd(spec, rng);
  {
    const auto cg = cluster::ClusterGraph::singleton(planted.g);
    net::Ledger ledger(cg.default_bandwidth());
    cluster::Runtime rt(cg, ledger);
    EXPECT_GE(rt.delta(), params.delta_low(planted.g.n()));
    const auto res = lowdeg::color_cluster_graph(rt, params);
    cluster::check_proper_total(planted.g, res.colors, res.num_colors);
  }
}

TEST(Baselines, GreedyUsesAtMostDeltaPlusOne) {
  Rng rng(8);
  const auto g = graph::gnm(300, 2500, rng);
  const auto colors = baseline::greedy_coloring(g);
  cluster::check_proper_total(g, colors, g.max_degree() + 1);
}

TEST(Baselines, UniformTrialProper) {
  Rng rng(9);
  const auto g = graph::gnm(300, 1800, rng);
  const auto cg = cluster::ClusterGraph::singleton(g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  const auto res = baseline::uniform_trial_baseline(rt, 5, 200);
  cluster::check_proper_total(g, res.colors, res.num_colors);
}

TEST(Baselines, PaletteSparsificationProper) {
  Rng rng(10);
  const auto g = graph::gnm(300, 3000, rng);
  const auto cg = cluster::ClusterGraph::singleton(g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  const auto res =
      baseline::palette_sparsification_baseline(rt, 7, 1.0, 400);
  cluster::check_proper_total(g, res.colors, res.num_colors);
  // Lists are small: max message obeys the sparsified budget.
  EXPECT_GT(res.h_rounds, 0);
}


TEST(PipelineEverythingOn, AllFidelityFlagsSimultaneously) {
  // The maximum-fidelity configuration: fingerprint ACD (no oracle),
  // measured bits, representative-set MCT, Ghaffari-Kuhn finisher — all
  // paper machinery engaged in one run, on a mixed instance.
  Rng rng(401);
  graph::PlantedSpec spec;
  spec.delta = 110;
  spec.num_cliques = 3;
  spec.anti_deg = 2;
  spec.external_deg = 10;
  spec.num_sparse = 220;
  spec.sparse_avg_deg = 28.0;
  const auto planted = graph::make_planted_acd(spec, rng);
  const auto cg = cluster::ClusterGraph::singleton(planted.g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  auto params = color::Params::defaults_for(planted.g.n(), 409);
  params.use_fingerprint_acd = true;
  params.measure_bits = true;
  params.use_representative_sets = true;
  params.finisher = color::Params::Finisher::kGhaffariKuhn;
  const auto res = lowdeg::color_cluster_graph(rt, params);
  cluster::check_proper_total(planted.g, res.colors, res.num_colors);
  EXPECT_LE(res.max_bits_per_link_round, ledger.bandwidth());
}

TEST(PipelineEverythingOn, EstimatedWeightsOnExpandedClusters) {
  // Estimated GK weights + non-trivial cluster shapes together.
  Rng rng(419);
  const auto g = graph::gnm(700, 4200, rng);
  cluster::ExpandSpec es;
  es.shape = cluster::ClusterShape::kStar;
  es.size = 3;
  const auto cg = cluster::ClusterGraph::expand(g, es, rng);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  auto params = color::Params::defaults_for(g.n(), 421);
  params.finisher = color::Params::Finisher::kGhaffariKuhn;
  params.gk_estimated_weights = true;
  params.fingerprint_t = 64;
  const auto res = lowdeg::color_cluster_graph(rt, params);
  cluster::check_proper_total(g, res.colors, res.num_colors);
}

}  // namespace
}  // namespace ccg
