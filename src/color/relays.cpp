#include "color/relays.hpp"

#include <algorithm>

#include "common/mathutil.hpp"

namespace ccg::color {

namespace {

int log_bits(const State& st) {
  return 2 * ceil_log2(static_cast<std::uint64_t>(std::max(2, st.h().n())));
}

}  // namespace

RelayResult find_relays(State& st, int clique_id,
                        const std::vector<std::pair<int, int>>& pairs,
                        bool charge) {
  RelayResult out;
  out.relay.assign(pairs.size(), -1);
  if (pairs.empty()) return out;

  const auto& h = st.h();
  const auto& members =
      st.dc.acd.members[static_cast<std::size_t>(clique_id)];
  const int kk = static_cast<int>(pairs.size());

  std::vector<char> is_endpoint(static_cast<std::size_t>(h.n()), 0);
  for (const auto& [a, b] : pairs) {
    is_endpoint[static_cast<std::size_t>(a)] = 1;
    is_endpoint[static_cast<std::size_t>(b)] = 1;
  }
  const auto adjacent = [&h](int r, int v) {
    const auto& nb = h.neighbors(r);
    return std::find(nb.begin(), nb.end(), v) != nb.end();
  };

  double p = std::min(
      1.0, 3.0 * std::max(kk, 4) / std::max(1, st.delta()));
  std::vector<int> unmatched(pairs.size());
  for (int i = 0; i < kk; ++i) unmatched[static_cast<std::size_t>(i)] = i;

  const int max_escalations = 8;
  for (int esc = 0; esc <= max_escalations && !unmatched.empty(); ++esc) {
    if (esc > 0) {
      p = std::min(1.0, 2.0 * p);
      ++out.escalations;
    }
    // Sample the relay pool; one announcement round. Each member draws
    // from its private counter-based stream (entity = vertex id), so the
    // pool is a pure function of (seed, round) regardless of scan order.
    st.bump_trial_round();
    std::vector<int> pool;
    std::vector<char> taken(static_cast<std::size_t>(h.n()), 0);
    for (const int m : members) {
      if (is_endpoint[static_cast<std::size_t>(m)]) continue;
      if (st.trial_rng(static_cast<std::uint64_t>(m)).next_bool(p)) {
        pool.push_back(m);
      }
    }
    for (const int r : out.relay) {
      if (r >= 0) taken[static_cast<std::size_t>(r)] = 1;
    }
    // Eligible unmatched relays per unmatched pair.
    std::vector<std::vector<int>> eligible(unmatched.size());
    for (std::size_t ui = 0; ui < unmatched.size(); ++ui) {
      const auto& [a, b] = pairs[static_cast<std::size_t>(
          unmatched[ui])];
      for (const int r : pool) {
        if (!taken[static_cast<std::size_t>(r)] && adjacent(r, a) &&
            adjacent(r, b)) {
          eligible[ui].push_back(r);
        }
      }
    }
    // Proposal rounds: each unmatched pair proposes to a uniform eligible
    // relay; a relay accepts the smallest proposing pair.
    const int round_cap = 4 * ceil_log2(static_cast<std::uint64_t>(
                                  std::max(2, kk))) +
                          8;
    for (int round = 0; round < round_cap; ++round) {
      bool progress = false;
      // Each pair proposes from its own stream (entity = global pair
      // index), one bump per proposal round.
      st.bump_trial_round();
      std::vector<std::pair<int, std::size_t>> proposals;  // (relay, ui)
      for (std::size_t ui = 0; ui < unmatched.size(); ++ui) {
        if (unmatched[ui] < 0) continue;
        auto& el = eligible[ui];
        el.erase(std::remove_if(el.begin(), el.end(),
                                [&taken](int r) {
                                  return taken[static_cast<std::size_t>(r)];
                                }),
                 el.end());
        if (el.empty()) continue;
        proposals.emplace_back(
            el[static_cast<std::size_t>(
                st.trial_rng(static_cast<std::uint64_t>(unmatched[ui]))
                    .next_below(static_cast<std::uint64_t>(el.size())))],
            ui);
      }
      if (proposals.empty()) break;
      std::sort(proposals.begin(), proposals.end());
      for (std::size_t i = 0; i < proposals.size(); ++i) {
        const auto [r, ui] = proposals[i];
        if (i > 0 && proposals[i - 1].first == r) continue;  // lost tie
        out.relay[static_cast<std::size_t>(unmatched[ui])] = r;
        taken[static_cast<std::size_t>(r)] = 1;
        unmatched[ui] = -1;
        progress = true;
      }
      ++out.proposal_rounds;
      if (!progress) break;
    }
    unmatched.erase(
        std::remove(unmatched.begin(), unmatched.end(), -1),
        unmatched.end());
  }

  // In an almost-clique every pair has >= (1 - 2 eps)|K| - 2k common
  // neighbors, so abundance saturates the matching w.h.p. long before the
  // escalation cap; a pair still unmatched there keeps relay -1.
  if (charge) find_relays_charge(st, out.proposal_rounds);
  return out;
}

void find_relays_charge(State& st, int proposal_rounds) {
  // Sampling announcement + proposal/accept exchanges, O(log n) bits each.
  st.rt->charge(1 + 2 * std::max(1, proposal_rounds), log_bits(st));
}

}  // namespace ccg::color
