// Shared test fixtures: a one-call Solver run with explicit Params, and
// planted instances wired into pipeline state with ground-truth dense
// context (bypassing the fingerprint ACD where the test targets a later
// phase).
#pragma once

#include <algorithm>
#include <cstdlib>
#include <memory>

#include "acd/acd.hpp"
#include "ccg/solver.hpp"
#include "cluster/cluster_graph.hpp"
#include "cluster/runtime.hpp"
#include "color/coloring.hpp"
#include "color/pipeline.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"

namespace ccg::testing {

// Colors `problem` on a fresh ccg::Solver with `params` used verbatim
// (seed and threads included): the one end-to-end path. Tests that need
// their own Runtime (a starved ledger, a fixture's State) run color::State
// + run_high_degree / lowdeg::run_low_degree / lowdeg::run_auto instead.
inline Outcome solve(const Problem& problem, Algo algo,
                     const color::Params& params) {
  Options opt;
  opt.algo = algo;
  opt.params = params;
  Solver solver;
  return solver.solve(problem, opt);
}

struct Fixture {
  graph::PlantedGraph planted;
  cluster::ClusterGraph cg;
  std::unique_ptr<net::Ledger> ledger;
  std::unique_ptr<cluster::Runtime> rt;
  std::unique_ptr<color::State> st;
};

// Builds a singleton-layout fixture over a planted graph and fills the
// dense context from ground truth (exact external degrees, planted clique
// ids, the neighborhood split built by acd::split_neighborhoods); `ell`
// not derived from n so tests can force the cabal flag.
// force_threads > 0 pins the round-engine worker count (determinism
// sweeps); 0 honors CCG_TEST_THREADS so the TSan CI job can re-run every
// fixture-based test on the parallel engine. relabel_seed != 0 renames
// vertex v to perm[v] for a random permutation drawn from it, so the
// cliques scatter over all ids instead of occupying contiguous runs.
inline std::unique_ptr<Fixture> make_planted_fixture(
    const graph::PlantedSpec& spec, const color::Params& params,
    std::uint64_t seed, double ell_override = -1.0, int force_threads = 0,
    std::uint64_t relabel_seed = 0) {
  auto f = std::make_unique<Fixture>();
  Rng rng(seed);
  f->planted = graph::make_planted_acd(spec, rng);
  if (relabel_seed != 0) {
    auto& p = f->planted;
    Rng perm_rng(relabel_seed);
    const auto perm = perm_rng.permutation(p.g.n());
    graph::Graph g(p.g.n());
    std::vector<int> clique_of(p.clique_of.size());
    for (const auto& [u, v] : p.g.edges()) {
      g.add_edge(perm[static_cast<std::size_t>(u)],
                 perm[static_cast<std::size_t>(v)]);
    }
    g.finalize();
    for (int v = 0; v < p.g.n(); ++v) {
      clique_of[static_cast<std::size_t>(perm[static_cast<std::size_t>(v)])] =
          p.clique_of[static_cast<std::size_t>(v)];
    }
    p.g = std::move(g);
    p.clique_of = std::move(clique_of);
  }
  f->cg = cluster::ClusterGraph::singleton(f->planted.g);
  f->ledger = std::make_unique<net::Ledger>(f->cg.default_bandwidth());
  f->rt = std::make_unique<cluster::Runtime>(f->cg, *f->ledger);
  color::Params effective = params;
  if (force_threads > 0) {
    effective.threads = force_threads;
  } else if (const char* env = std::getenv("CCG_TEST_THREADS")) {
    effective.threads = std::max(1, std::atoi(env));
  }
  f->st = std::make_unique<color::State>(*f->rt, effective);

  auto& dc = f->st->dc;
  dc.acd.clique_of = f->planted.clique_of;
  dc.acd.num_cliques = f->planted.num_cliques;
  dc.acd.members.assign(static_cast<std::size_t>(f->planted.num_cliques),
                        {});
  for (int v = 0; v < f->planted.g.n(); ++v) {
    const int k = f->planted.clique_of[static_cast<std::size_t>(v)];
    if (k >= 0) dc.acd.members[static_cast<std::size_t>(k)].push_back(v);
  }
  acd::split_neighborhoods(f->st->h(), dc.acd, f->st->par.get(), &dc.info);
  const auto dd = graph::dense_degrees(f->planted.g, f->planted.clique_of);
  dc.info.ext_est.assign(f->planted.g.n(), 0.0);
  for (int v = 0; v < f->planted.g.n(); ++v) {
    dc.info.ext_est[static_cast<std::size_t>(v)] =
        dd.external[static_cast<std::size_t>(v)];
  }
  dc.info.clique_size.assign(
      static_cast<std::size_t>(f->planted.num_cliques), 0);
  dc.info.avg_ext_est.assign(
      static_cast<std::size_t>(f->planted.num_cliques), 0.0);
  for (int v = 0; v < f->planted.g.n(); ++v) {
    const int k = f->planted.clique_of[static_cast<std::size_t>(v)];
    if (k < 0) continue;
    ++dc.info.clique_size[static_cast<std::size_t>(k)];
    dc.info.avg_ext_est[static_cast<std::size_t>(k)] +=
        dd.external[static_cast<std::size_t>(v)];
  }
  dc.ell = ell_override > 0 ? ell_override
                            : params.ell(f->planted.g.n());
  dc.info.is_cabal.assign(
      static_cast<std::size_t>(f->planted.num_cliques), false);
  for (int k = 0; k < f->planted.num_cliques; ++k) {
    if (dc.info.clique_size[static_cast<std::size_t>(k)] > 0) {
      dc.info.avg_ext_est[static_cast<std::size_t>(k)] /=
          dc.info.clique_size[static_cast<std::size_t>(k)];
    }
    dc.info.is_cabal[static_cast<std::size_t>(k)] =
        dc.info.avg_ext_est[static_cast<std::size_t>(k)] < dc.ell;
  }
  const int delta = f->rt->delta();
  dc.reserved_cap = params.reserved_cap(delta);
  dc.reserved.resize(static_cast<std::size_t>(f->planted.num_cliques));
  for (int k = 0; k < f->planted.num_cliques; ++k) {
    const double base = std::max(
        dc.info.avg_ext_est[static_cast<std::size_t>(k)], dc.ell);
    dc.reserved[static_cast<std::size_t>(k)] = std::max(
        1, std::min(dc.reserved_cap,
                    static_cast<int>(params.reserved_factor * base)));
  }
  f->st->init_palettes();
  return f;
}

}  // namespace ccg::testing
