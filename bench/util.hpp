// Shared helpers for the experiment harness: instance builders, pipeline
// runners and fixed-width table printing. The timed-measurement harness
// (ccg::timed, common/latency.hpp) and the JSON writer (ccg::JsonWriter,
// common/json.hpp) behind the BENCH_*.json files come in with it.
// Each bench binary regenerates one experiment row-set and prints the
// paper-claimed shape next to the measured series.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "ccg/ccg.hpp"
#include "common/json.hpp"
#include "common/latency.hpp"

namespace ccg::bench {

inline void header(const std::string& title, const std::string& claim) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("paper claim: %s\n", claim.c_str());
}

inline void row(const std::vector<std::string>& cells) {
  for (const auto& c : cells) std::printf("%-14s", c.c_str());
  std::printf("\n");
}

inline std::string fmt(double v, int prec = 2) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

inline std::string fmt(std::int64_t v) { return std::to_string(v); }
inline std::string fmt(int v) { return std::to_string(v); }

// A planted high-degree mixture scaled to ~n_target vertices: dense blocks
// of degree ~delta plus a sparse background, non-cabal or cabal depending
// on ext_deg vs ell(n).
struct MixtureSpec {
  int delta = 256;
  int ext_deg = 24;
  int anti_deg = 2;
  double sparse_fraction = 0.4;
  double sparse_deg_frac = 0.25;  // sparse degree = frac * delta
};

struct Instance {
  graph::PlantedGraph planted;
  int n = 0;
};

inline Instance make_mixture(int n_target, const MixtureSpec& ms,
                             std::uint64_t seed) {
  Rng rng(seed);
  graph::PlantedSpec spec;
  spec.delta = ms.delta;
  const int block = ms.delta + 1 - ms.ext_deg + ms.anti_deg;
  const int dense_budget =
      static_cast<int>((1.0 - ms.sparse_fraction) * n_target);
  spec.num_cliques = std::max(1, dense_budget / block);
  spec.anti_deg = ms.anti_deg;
  spec.external_deg = ms.ext_deg;
  spec.num_sparse = static_cast<int>(ms.sparse_fraction * n_target);
  spec.sparse_avg_deg = ms.sparse_deg_frac * ms.delta;
  spec.external_to_sparse = spec.num_sparse > 0 ? 0.3 : 0.0;
  Instance inst;
  inst.planted = graph::make_planted_acd(spec, rng);
  inst.n = inst.planted.g.n();
  return inst;
}

struct RunOutput {
  color::Result result;
  int bandwidth = 0;
};

inline RunOutput run_pipeline(const graph::Graph& h,
                              const cluster::ExpandSpec& es,
                              color::Params params, std::uint64_t graph_seed,
                              bool high_degree_path = true) {
  Rng rng(graph_seed);
  const auto cg = es.size <= 1 ? cluster::ClusterGraph::singleton(h)
                               : cluster::ClusterGraph::expand(h, es, rng);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  RunOutput out;
  out.bandwidth = ledger.bandwidth();
  out.result = high_degree_path ? color::color_high_degree(rt, params)
                                : lowdeg::color_cluster_graph(rt, params);
  cluster::check_proper_total(h, out.result.colors, out.result.num_colors);
  return out;
}

// Calibrated pipeline parameters for benches: oracle ACD + unmeasured bits
// by default so large n stays fast; the bandwidth-audit and ablation
// benches flip both switches on.
inline color::Params bench_params(int n, std::uint64_t seed,
                                  bool full_stack = false) {
  auto p = color::Params::defaults_for(n, seed);
  p.eps = 0.2;
  p.use_fingerprint_acd = full_stack;
  p.measure_bits = full_stack;
  return p;
}

}  // namespace ccg::bench
