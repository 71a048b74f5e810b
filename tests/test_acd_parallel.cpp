// ACD on the parallel round engine: the decomposition and its dense
// annotations draw every random bit from counter-based per-(round,
// entity) streams, so clique structure, degree estimates and the full
// downstream colorings are bit-identical for every worker count — and a
// warm AcdResult/AcdScratch pair reproduces a cold run exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "acd/acd.hpp"
#include "ccg/ccg.hpp"
#include "cluster/cluster_graph.hpp"
#include "cluster/runtime.hpp"
#include "exec/parallel_round.hpp"
#include "graph/generators.hpp"

namespace ccg::acd {
namespace {

graph::PlantedGraph mixed_instance() {
  Rng rng(4242);
  graph::PlantedSpec spec;
  spec.delta = 140;
  spec.num_cliques = 4;
  spec.anti_deg = 2;
  spec.external_deg = 12;
  spec.num_sparse = 200;
  spec.sparse_avg_deg = 30.0;
  return graph::make_planted_acd(spec, rng);
}

struct AcdRun {
  AcdResult acd;
  DenseInfo info;
};

AcdRun run_acd(const graph::Graph& g, bool use_fingerprints, int threads) {
  const auto cg = cluster::ClusterGraph::singleton(g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  exec::ParallelRound par(threads);

  AcdParams params;
  params.eps = 0.2;
  params.t = 96;
  params.use_fingerprints = use_fingerprints;
  params.measure_bits = false;
  params.par = &par;

  AcdRun run;
  StreamCtx streams(991);
  AcdScratch scratch;
  compute_acd(rt, params, streams, &run.acd, &scratch);
  annotate_dense(rt, run.acd, /*ell=*/20.0, params.t, use_fingerprints,
                 streams, &par, &run.info, &scratch);
  return run;
}

void expect_same_run(const AcdRun& got, const AcdRun& want,
                     const std::string& label) {
  ASSERT_EQ(got.acd.num_cliques, want.acd.num_cliques) << label;
  EXPECT_EQ(got.acd.clique_of, want.acd.clique_of) << label;
  EXPECT_EQ(got.acd.degree_est, want.acd.degree_est) << label;
  for (int k = 0; k < want.acd.num_cliques; ++k) {
    EXPECT_EQ(got.acd.members[static_cast<std::size_t>(k)],
              want.acd.members[static_cast<std::size_t>(k)])
        << label << " clique " << k;
  }
  EXPECT_EQ(got.info.ext_est, want.info.ext_est) << label;
  EXPECT_EQ(got.info.clique_size, want.info.clique_size) << label;
  EXPECT_EQ(got.info.avg_ext_est, want.info.avg_ext_est) << label;
  EXPECT_EQ(got.info.is_cabal, want.info.is_cabal) << label;
  EXPECT_EQ(got.info.ext_off, want.info.ext_off) << label;
  EXPECT_EQ(got.info.ext_adj, want.info.ext_adj) << label;
  EXPECT_EQ(got.info.anti_off, want.info.anti_off) << label;
  EXPECT_EQ(got.info.anti_adj, want.info.anti_adj) << label;
}

TEST(AcdParallel, DecompositionBitIdenticalAcrossThreadCounts) {
  const auto planted = mixed_instance();
  for (const bool fingerprints : {false, true}) {
    const auto base = run_acd(planted.g, fingerprints, 1);
    ASSERT_GT(base.acd.num_cliques, 0);
    for (const int threads : {2, 8}) {
      const auto got = run_acd(planted.g, fingerprints, threads);
      expect_same_run(got, base,
                      std::string(fingerprints ? "fingerprint" : "oracle") +
                          " threads=" + std::to_string(threads));
    }
  }
}

TEST(AcdParallel, CliquesAreComponentsOfTheRunsOwnFlags) {
  // The almost-cliques of a fingerprint run, whatever its worker count,
  // are the components of that run's buddy flags restricted to its
  // candidates, numbered by smallest vertex, members ascending, with the
  // components under max(2, Delta / 2) left sparse. A BFS recomputes them
  // here from the slot flags (slots in h.edges() order).
  const auto planted = mixed_instance();
  const auto& g = planted.g;
  const int n = g.n();
  const auto cg = cluster::ClusterGraph::singleton(g);
  const auto edges = g.edges();
  for (const int threads : {1, 2, 8}) {
    const std::string label = "threads=" + std::to_string(threads);
    net::Ledger ledger(cg.default_bandwidth());
    cluster::Runtime rt(cg, ledger);
    exec::ParallelRound par(threads);
    AcdParams params;
    params.eps = 0.2;
    params.measure_bits = false;
    params.par = &par;
    StreamCtx streams(991);
    AcdScratch scratch;
    AcdResult acd;
    compute_acd(rt, params, streams, &acd, &scratch);
    ASSERT_GT(acd.num_cliques, 0) << label;

    std::vector<std::vector<int>> buddies(n);
    for (std::size_t slot = 0; slot < edges.size(); ++slot) {
      if (!scratch.buddy[slot]) continue;
      buddies[edges[slot].first].push_back(edges[slot].second);
      buddies[edges[slot].second].push_back(edges[slot].first);
    }
    const int delta = rt.delta();
    std::vector<bool> candidate(n);
    for (int v = 0; v < n; ++v) {
      candidate[v] = buddies[v].size() >= (1.0 - 2.0 * params.eps) * delta;
      ASSERT_EQ(scratch.candidate[v] != 0, candidate[v])
          << label << " vertex " << v;
    }
    std::vector<int> clique_of(n, -1);
    std::vector<std::vector<int>> members;
    std::vector<bool> seen(n, false);
    for (int src = 0; src < n; ++src) {
      if (!candidate[src] || seen[src]) continue;
      std::vector<int> comp{src};
      seen[src] = true;
      for (std::size_t i = 0; i < comp.size(); ++i) {
        for (const int u : buddies[comp[i]]) {
          if (candidate[u] && !seen[u]) {
            seen[u] = true;
            comp.push_back(u);
          }
        }
      }
      if (static_cast<int>(comp.size()) < std::max(2, delta / 2)) continue;
      std::sort(comp.begin(), comp.end());
      for (const int v : comp) {
        clique_of[v] = static_cast<int>(members.size());
      }
      members.push_back(comp);
    }
    EXPECT_EQ(acd.clique_of, clique_of) << label;
    ASSERT_EQ(acd.num_cliques, static_cast<int>(members.size())) << label;
    for (int k = 0; k < acd.num_cliques; ++k) {
      EXPECT_EQ(acd.members[static_cast<std::size_t>(k)], members[k])
          << label << " clique " << k;
    }
  }
}

TEST(AcdParallel, WarmScratchReproducesColdRun) {
  // The reuse contract of the stream-based API: rebinding a warm
  // AcdResult/AcdScratch/DenseInfo (all grow-only) after serving a
  // different instance yields exactly the cold-run decomposition.
  const auto planted = mixed_instance();
  Rng rng2(7);
  const auto other = graph::gnm(500, 6000, rng2);

  const auto cold = run_acd(planted.g, true, 2);

  const auto cg_other = cluster::ClusterGraph::singleton(other);
  const auto cg = cluster::ClusterGraph::singleton(planted.g);
  exec::ParallelRound par(2);
  AcdParams params;
  params.eps = 0.2;
  params.t = 96;
  params.use_fingerprints = true;
  params.measure_bits = false;
  params.par = &par;

  AcdRun warm;
  AcdScratch scratch;
  StreamCtx streams(0);
  {
    net::Ledger ledger(cg_other.default_bandwidth());
    cluster::Runtime rt(cg_other, ledger);
    streams.reseed(123);
    compute_acd(rt, params, streams, &warm.acd, &scratch);
    annotate_dense(rt, warm.acd, 20.0, params.t, true, streams, &par,
                   &warm.info, &scratch);
  }
  {
    net::Ledger ledger(cg.default_bandwidth());
    cluster::Runtime rt(cg, ledger);
    streams.reseed(991);  // the cold run's stream space
    compute_acd(rt, params, streams, &warm.acd, &scratch);
    annotate_dense(rt, warm.acd, 20.0, params.t, true, streams, &par,
                   &warm.info, &scratch);
  }
  expect_same_run(warm, cold, "warm scratch");
}

TEST(AcdParallel, SolverColoringsBitIdenticalAcrossThreadCounts) {
  // End-to-end: every facade algorithm produces the same coloring for
  // threads in {1, 2, 8} (the ACD phases included — auto/high run the
  // full dense pipeline on this instance).
  const auto planted = mixed_instance();
  Rng rng2(8);
  const auto low_g = graph::gnm(500, 2000, rng2);

  struct Case {
    const char* name;
    Algo algo;
    const graph::Graph* g;
  };
  const std::vector<Case> cases = {
      {"auto", Algo::kAuto, &planted.g},
      {"high", Algo::kHighDegree, &planted.g},
      {"low", Algo::kLowDegree, &low_g},
      {"fast", Algo::kFast, &planted.g},
  };
  for (const auto& c : cases) {
    auto solve_at = [&](int threads) {
      Options o;
      o.algo = c.algo;
      o.seed = 57;
      o.threads = threads;
      Solver solver;
      auto outcome = solver.solve(Problem::graph(*c.g), o);
      EXPECT_TRUE(outcome.ok()) << c.name << ": " << outcome.error.message;
      return outcome;
    };
    const auto base = solve_at(1);
    for (const int threads : {2, 8}) {
      const auto got = solve_at(threads);
      ASSERT_EQ(got.result.colors, base.result.colors)
          << c.name << " threads=" << threads;
      EXPECT_EQ(got.result.h_rounds, base.result.h_rounds) << c.name;
      EXPECT_EQ(got.result.fallback_count, base.result.fallback_count)
          << c.name;
    }
  }
}

}  // namespace
}  // namespace ccg::acd
