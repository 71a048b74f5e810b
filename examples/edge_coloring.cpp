// Edge coloring (link scheduling) as a virtual graph — Appendix A.2.
//
// A wireless mesh needs each radio link assigned a time slot such that no
// two links sharing a radio transmit simultaneously: exactly a proper
// coloring of the *line graph* of the network. The line graph is a virtual
// graph whose H-vertices are the links and whose supports are the two link
// endpoints — the flagship "clusters with overlap" case, with measured
// congestion and dilation both 1.
//
//   cmake --build build && ./build/edge_coloring
#include <cstdio>
#include <vector>

#include "ccg/ccg.hpp"

int main() {
  using namespace ccg;

  // The mesh: a random network with a few hub nodes (high-degree radios).
  Rng rng(2025);
  const auto g = graph::gnm(220, 700, rng);
  std::printf("mesh: %d radios, %lld links, max radio degree %d\n", g.n(),
              static_cast<long long>(g.m()), g.max_degree());

  // Encode the line graph. Vizing needs Delta+1 slots; the distributed
  // (Delta_H + 1)-coloring gives the classic 2*Delta - 1 slot guarantee.
  const auto vg = cluster::make_line_graph(g);
  std::printf("line graph H: %d vertices, Delta_H = %d, congestion c = %d, "
              "dilation d = %d\n",
              vg.h().n(), vg.h().max_degree(), vg.congestion(), vg.dilation());

  Solver solver;
  Options opt;
  opt.seed = 3;
  const auto out = solver.solve(Problem::virtual_graph(vg), opt);
  if (!out.ok()) {
    std::fprintf(stderr, "solve failed (%s): %s\n",
                 error_code_name(out.error.code), out.error.message.c_str());
    return 1;
  }
  const auto& res = out.result;
  std::printf("schedule: %d time slots (2*Delta - 1 = %d), %lld H-rounds, "
              "%lld G-rounds (x%d congestion = %lld)\n",
              res.num_colors, 2 * g.max_degree() - 1,
              static_cast<long long>(res.h_rounds),
              static_cast<long long>(res.g_rounds), out.congestion,
              static_cast<long long>(out.g_rounds_with_congestion));

  // Slot histogram + audit: no radio transmits twice in one slot.
  std::vector<int> per_slot(static_cast<std::size_t>(res.num_colors), 0);
  for (const int c : res.colors) {
    ++per_slot[static_cast<std::size_t>(c)];
  }
  int busiest = 0;
  for (const int k : per_slot) busiest = std::max(busiest, k);
  std::printf("busiest slot carries %d links in parallel\n", busiest);

  std::vector<std::vector<int>> radio_slots(
      static_cast<std::size_t>(g.n()));
  // H-vertex i is the link g.edges()[i].
  const auto links = g.edges();
  for (std::size_t i = 0; i < links.size(); ++i) {
    const auto [u, v] = links[i];
    const int slot = res.colors[i];
    for (const int r : {u, v}) {
      auto& slots = radio_slots[static_cast<std::size_t>(r)];
      for (const int s : slots) {
        if (s == slot) {
          std::printf("CONFLICT at radio %d slot %d\n", r, slot);
          return 1;
        }
      }
      slots.push_back(slot);
    }
  }
  std::printf("audit passed: every radio's slots are pairwise distinct\n");
  return 0;
}
