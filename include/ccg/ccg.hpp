// The public API of the cluster-graph coloring library, in two tiers
// (see API.md for the stability promise, the error model and the reuse
// semantics).
//
// == Tier 1: the facade (stable) ==
//
// ccg::Solver is the single entry point for every algorithm (auto / high-
// degree / low-degree / fast baseline) and every graph mode (prebuilt
// cluster graph, plain graph, generator recipe, edge coloring,
// distance-k virtual graphs). It never throws: invalid input comes back
// as a structured ccg::Error. One Solver is a reusable session — its
// arena is reset, not reconstructed, between calls, so recurring jobs on
// warm state run with zero (fast) or few (pipeline) heap allocations,
// and results are bit-identical to one-shot calls for every thread count.
//
//   #include <ccg/ccg.hpp>
//
//   ccg::Rng rng(42);
//   auto g = ccg::graph::gnm(2000, 16000, rng);           // conflict graph
//   ccg::Solver solver;                                    // session arena
//   ccg::Options opt;
//   opt.seed = 7;
//   opt.threads = 4;  // output identical for every thread count
//   auto out = solver.solve(ccg::Problem::graph(g), opt);  // Delta+1 colors
//   if (!out.ok()) {
//     // out.error.code (kInvalidOptions | kInvalidProblem | ...)
//     // out.error.message
//   }
//   // out.result.colors, out.result.h_rounds, out.result.num_colors, ...
//
//   auto d2 = solver.solve(ccg::Problem::distance_k(g, 2), opt);  // G^2
//   auto ec = solver.solve(ccg::Problem::edge_coloring(g), opt);  // line graph
//   auto rc = solver.solve(
//       ccg::Problem::recipe("--gen planted --delta 128 --cliques 4"), opt);
//
// Serving sits on top of the facade: ccg::svc (svc/manifest.hpp +
// svc/service.hpp) parses job manifests and runs each job through the
// same Solver in a svc::JobSlot; ccg::server (server/server.hpp)
// schedules and reports them, for ccg_serve's streamed requests and
// ccg_batch's manifests alike.
#pragma once

#include "ccg/solver.hpp"

// == Tier 2: detail (reachable, best-effort stability) ==
//
// The internals the facade is built from. They stay included here so
// research code, benches and tests can reach every phase and knob —
// but they move with the paper reproduction; prefer the facade for
// anything that has to survive refactors. Highlights:
//   * color::Params (full knob set; plug into Options::params),
//     color::Result, color::State + run_high_degree (phase-level access)
//   * lowdeg::color_low_degree / run_low_degree / color_virtual_graph /
//     run_virtual, gk:: (the Section 9 machinery)
//   * cluster::ClusterGraph / VirtualGraph / Runtime, net::Ledger (the
//     cost model), graph:: generators and DIMACS I/O
//   * svc:: manifests and job slots, exec:: parallel round engine,
//     sketch::/acd::
#include "acd/acd.hpp"
#include "baseline/baselines.hpp"
#include "cluster/cluster_graph.hpp"
#include "cluster/runtime.hpp"
#include "cluster/validate.hpp"
#include "cluster/virtual_graph.hpp"
#include "color/params.hpp"
#include "color/pipeline.hpp"
#include "color/relays.hpp"
#include "common/hashing.hpp"
#include "common/mathutil.hpp"
#include "common/repsets.hpp"
#include "common/rng.hpp"
#include "exec/parallel_round.hpp"
#include "exec/pool.hpp"
#include "gk/gk.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/stats.hpp"
#include "lowdeg/lowdeg.hpp"
#include "lowdeg/virtual_color.hpp"
#include "net/ledger.hpp"
#include "sketch/approx_count.hpp"
#include "sketch/fingerprint.hpp"
#include "svc/manifest.hpp"
#include "svc/service.hpp"
