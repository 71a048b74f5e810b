// E20 — Lemma 9.2: relay selection for anti-edges at low degree.
//
// Paper: when Delta is below the log^2 n needed by random groups, each
// discovered anti-edge gets a dedicated relay — a distinct common neighbor
// — via a maximal matching between anti-edges and a 3k/Delta-sampled
// vertex pool, in O(log^4 log n) rounds. The bench sweeps Delta and the
// anti-edge count and reports the sampled-pool proposal rounds, the
// escalation count (pool resamplings, expected 0), and saturation.
#include "util.hpp"
#include "color/matching.hpp"
#include "color/relays.hpp"

// Test-fixture builder shared with the gtest suite.
#include "../tests/helpers.hpp"

namespace {

using namespace ccg;

std::vector<std::pair<int, int>> disjoint_anti_pairs(const color::State& st,
                                                     int k, int want) {
  const auto& members = st.dc.acd.members[static_cast<std::size_t>(k)];
  const auto& h = st.h();
  std::vector<char> used(static_cast<std::size_t>(h.n()), 0);
  std::vector<std::pair<int, int>> pairs;
  for (const int v : members) {
    if (used[static_cast<std::size_t>(v)]) continue;
    for (const int u : members) {
      if (u == v || used[static_cast<std::size_t>(u)]) continue;
      const auto& nb = h.neighbors(v);
      if (!std::binary_search(nb.begin(), nb.end(), u)) {
        pairs.emplace_back(v, u);
        used[static_cast<std::size_t>(v)] = 1;
        used[static_cast<std::size_t>(u)] = 1;
        break;
      }
    }
    if (static_cast<int>(pairs.size()) >= want) break;
  }
  return pairs;
}

}  // namespace

int main() {
  bench::header("E20 — Lemma 9.2: relays for anti-edges",
                "distinct relays adjacent to both endpoints of every "
                "anti-edge via sampled bipartite maximal matching; "
                "saturates w.h.p. with 3k/Delta sampling");

  bench::row({"Delta", "anti-edges", "pool-p", "proposal-rds",
              "escalations", "saturated"});
  for (const int delta : {32, 64, 128, 256}) {
    // The lemma's regime: k = O(log n) anti-edges, Delta >= 3k — relays
    // must outnumber the matched endpoints.
    for (const int want : {4, delta / 8, delta / 4}) {
      graph::PlantedSpec spec;
      spec.delta = delta;
      spec.num_cliques = 2;
      spec.anti_deg = std::min(10, delta / 8);
      spec.external_deg = 2;
      auto f = testing::make_planted_fixture(
          spec, color::Params::defaults_for(2 * delta, 5 + delta), 31);
      const auto pairs = disjoint_anti_pairs(*f->st, 0, want);
      if (pairs.empty()) continue;
      const auto res = color::find_relays(*f->st, 0, pairs);
      // Validate: distinct, adjacent to both endpoints.
      std::vector<char> seen(static_cast<std::size_t>(f->st->h().n()), 0);
      bool ok = true;
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        const int r = res.relay[i];
        if (r < 0 || seen[static_cast<std::size_t>(r)]) ok = false;
        if (r >= 0) seen[static_cast<std::size_t>(r)] = 1;
      }
      const double p =
          std::min(1.0, 3.0 * std::max<int>(
                                  static_cast<int>(pairs.size()), 4) /
                            delta);
      bench::row({bench::fmt(delta),
                  bench::fmt(static_cast<int>(pairs.size())),
                  bench::fmt(p, 3), bench::fmt(res.proposal_rounds),
                  bench::fmt(res.escalations), ok ? "yes" : "NO"});
    }
  }

  std::printf("\nend-to-end: fingerprint matching (Alg. 7) + relays in the "
              "densest cabals:\n");
  bench::row({"Delta", "matched", "proposal-rds", "escalations"});
  for (const int delta : {64, 128, 256}) {
    graph::PlantedSpec spec;
    spec.delta = delta;
    spec.num_cliques = 2;
    spec.anti_deg = 3;
    spec.external_deg = 2;
    auto f = testing::make_planted_fixture(
        spec, color::Params::defaults_for(2 * delta, 61 + delta), 67);
    std::vector<std::pair<int, int>> pairs;
    color::fingerprint_matching_into(*f->st, 0, nullptr, /*charge=*/true,
                                     &pairs);
    if (pairs.empty()) {
      bench::row({bench::fmt(delta), "0", "-", "-"});
      continue;
    }
    const auto res = color::find_relays(*f->st, 0, pairs);
    bench::row({bench::fmt(delta),
                bench::fmt(static_cast<int>(pairs.size())),
                bench::fmt(res.proposal_rounds),
                bench::fmt(res.escalations)});
  }
  return 0;
}
