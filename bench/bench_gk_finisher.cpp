// E19 — Lemma 9.1: the Ghaffari-Kuhn finisher on shattered instances.
//
// Paper: O(log N * log^6 log n) rounds to (deg+1)-list-color an N-vertex
// virtual graph of maximum degree O(log n). The shattered components after
// random trials have N = poly(log n), so the finisher is polyloglog
// overall. The bench runs the full rounding ladder (candidate families ->
// weighted defective colorings -> sequential class sweeps) on synthetic
// shattered instances and prints the ladder's measured anatomy next to
// the two alternative finishers.
#include <memory>

#include "util.hpp"
#include "gk/gk.hpp"
#include "graph/generators.hpp"

namespace {

using namespace ccg;

struct Shattered {
  graph::Graph g;
  cluster::ClusterGraph cg;
  std::unique_ptr<net::Ledger> ledger;
  std::unique_ptr<cluster::Runtime> rt;
  std::unique_ptr<color::State> st;
};

Shattered make_shattered(int n, int avg_deg, std::uint64_t seed) {
  Shattered s;
  Rng rng(seed);
  s.g = graph::gnm(n, static_cast<std::int64_t>(n) * avg_deg / 2, rng);
  s.cg = cluster::ClusterGraph::singleton(s.g);
  s.ledger = std::make_unique<net::Ledger>(s.cg.default_bandwidth());
  s.rt = std::make_unique<cluster::Runtime>(s.cg, *s.ledger);
  s.st = std::make_unique<color::State>(
      *s.rt, color::Params::defaults_for(n, seed + 1));
  return s;
}

std::vector<std::vector<int>> full_lists(const color::State& st) {
  std::vector<std::vector<int>> lists(
      static_cast<std::size_t>(st.h().n()));
  for (auto& l : lists) {
    for (int c = 0; c < st.num_colors(); ++c) l.push_back(c);
  }
  return lists;
}

}  // namespace

int main() {
  bench::header("E19 — Lemma 9.1: Ghaffari-Kuhn finisher",
                "list-colors N-vertex components in O(log N * "
                "log^6 log n) rounds; the ladder anatomy (levels x "
                "rounding steps x class sweeps) is the polyloglog factor");

  bench::row({"N", "avg-deg", "H-rounds", "iters", "levels", "round-steps",
              "class-sweeps", "fallback"});
  for (const int n : {64, 128, 256, 512, 1024, 2048}) {
    auto s = make_shattered(n, 12, 77 + n);
    auto lists = full_lists(*s.st);
    std::vector<int> S(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) S[static_cast<std::size_t>(v)] = v;
    const auto before = s.ledger->h_rounds();
    const auto stats = gk::list_color_components(*s.st, S, lists);
    cluster::check_proper_total(s.g, s.st->phi.vec(), s.st->num_colors());
    bench::row({bench::fmt(n), bench::fmt(12),
                bench::fmt(s.ledger->h_rounds() - before),
                bench::fmt(stats.iterations), bench::fmt(stats.levels),
                bench::fmt(stats.rounding_steps),
                bench::fmt(stats.classes_swept),
                bench::fmt(stats.fallback)});
  }

  std::printf("\nestimated-weights mode (Lemma 9.4 actually sampling "
              "duplicated geometric maxima):\n");
  bench::row({"N", "H-rounds", "iters", "fallback"});
  for (const int n : {128, 512}) {
    auto s = make_shattered(n, 10, 177 + n);
    s.st->params.gk_estimated_weights = true;
    s.st->params.fingerprint_t = 96;
    auto lists = full_lists(*s.st);
    std::vector<int> S(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) S[static_cast<std::size_t>(v)] = v;
    const auto before = s.ledger->h_rounds();
    const auto stats = gk::list_color_components(*s.st, S, lists);
    cluster::check_proper_total(s.g, s.st->phi.vec(), s.st->num_colors());
    bench::row({bench::fmt(n), bench::fmt(s.ledger->h_rounds() - before),
                bench::fmt(stats.iterations), bench::fmt(stats.fallback)});
  }

  std::printf("\nfinisher comparison on the same instance (N = 512):\n");
  bench::row({"finisher", "H-rounds", "fallback"});
  const std::pair<const char*, color::Params::Finisher> finishers[] = {
      {"randomized", color::Params::Finisher::kRandomizedList},
      {"linial", color::Params::Finisher::kLinial},
      {"ghaffari-kuhn", color::Params::Finisher::kGhaffariKuhn},
  };
  for (const auto& [name, fin] : finishers) {
    Rng rng(99);
    const auto g = graph::gnm(512, 512 * 6, rng);
    const auto cg = cluster::ClusterGraph::singleton(g);
    auto params = bench::bench_params(512, 7);
    params.finisher = fin;
    const auto res =
        bench::solve(Problem::cluster(cg), Algo::kLowDegree, params).result;
    cluster::check_proper_total(g, res.colors, res.num_colors);
    bench::row({name, bench::fmt(res.h_rounds),
                bench::fmt(res.fallback_count)});
  }
  return 0;
}
