// Guards the scratch-buffer rewrite of the trial primitives:
//  1. try_color_round must be bit-identical (same RNG seed, same inputs)
//     to the seed's unordered_map-based formulation, reproduced here as a
//     reference implementation.
//  2. try_color_round must make zero heap allocations in steady state —
//     verified with instrumented global new/delete (see
//     common/alloc_count.hpp).
#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "ccg/ccg.hpp"
#include "color/primitives.hpp"
#include "common/alloc_count.hpp"

namespace ccg::color {
namespace {

// The seed's try_color_round, verbatim modulo the container (candidate
// table in an unordered_map, fresh vectors every round) and the draw
// source: like the parallel engine, each vertex draws from its private
// counter-based (seed, round, vertex) stream, so the reference stays
// bit-comparable to the sharded implementation at any thread count.
int reference_try_color_round(State& st, const std::vector<int>& S,
                              const ColorSampler& sampler,
                              double activation) {
  const auto& h = st.h();
  st.bump_trial_round();
  std::unordered_map<int, int> candidate;  // vertex -> color
  candidate.reserve(S.size() * 2);
  for (const int v : S) {
    if (st.phi.colored(v)) continue;
    Rng rng = st.trial_rng(static_cast<std::uint64_t>(v));
    if (!rng.next_bool(activation)) continue;
    const int c = sampler(v, rng);
    if (c >= 0) candidate.emplace(v, c);
  }
  std::vector<std::pair<int, int>> adopted;
  for (const auto& [v, c] : candidate) {
    bool ok = !st.phi.neighbor_uses(h, v, c);
    if (ok) {
      for (const int u : h.neighbors(v)) {
        if (u < v) {
          const auto it = candidate.find(u);
          if (it != candidate.end() && it->second == c) {
            ok = false;
            break;
          }
        }
      }
    }
    if (ok) adopted.emplace_back(v, c);
  }
  for (const auto& [v, c] : adopted) st.assign(v, c);
  st.rt->charge(2, 2 * ceil_log2(static_cast<std::uint64_t>(
                        std::max(2, st.h().n()))));
  return static_cast<int>(adopted.size());
}

struct Harness {
  graph::Graph g;
  cluster::ClusterGraph cg;
  std::unique_ptr<net::Ledger> ledger;
  std::unique_ptr<cluster::Runtime> rt;
  std::unique_ptr<State> st;

  explicit Harness(std::uint64_t graph_seed, std::uint64_t state_seed) {
    Rng rng(graph_seed);
    g = graph::gnm(600, 6000, rng);
    cg = cluster::ClusterGraph::singleton(g);
    ledger = std::make_unique<net::Ledger>(cg.default_bandwidth());
    rt = std::make_unique<cluster::Runtime>(cg, *ledger);
    st = std::make_unique<State>(
        *rt, Params::defaults_for(g.n(), state_seed));
  }
};

TEST(PrimitivesScratch, TryColorRoundBitIdenticalToReference) {
  Harness fast(7, 99), ref(7, 99);
  std::vector<int> all(static_cast<std::size_t>(fast.g.n()));
  for (int v = 0; v < fast.g.n(); ++v) {
    all[static_cast<std::size_t>(v)] = v;
  }
  const auto sampler_fast =
      uniform_sampler(fast.g.max_degree() + 1, 0);
  const auto sampler_ref = uniform_sampler(ref.g.max_degree() + 1, 0);

  std::vector<int> s_fast = all, s_ref = all, next;
  for (int round = 0; round < 12; ++round) {
    const int a = try_color_round(*fast.st, s_fast, sampler_fast, 0.5);
    const int b =
        reference_try_color_round(*ref.st, s_ref, sampler_ref, 0.5);
    ASSERT_EQ(a, b) << "round " << round;
    ASSERT_EQ(fast.st->phi.vec(), ref.st->phi.vec()) << "round " << round;
    prune_colored(*fast.st, &s_fast);
    uncolored_of(*ref.st, s_ref, &next);
    s_ref.swap(next);
    ASSERT_EQ(s_fast, s_ref) << "round " << round;
  }
  // Rounds must have made real progress for the comparison to mean much.
  EXPECT_LT(static_cast<int>(s_fast.size()), fast.g.n() / 4);
}

TEST(PrimitivesScratch, TryColorRoundZeroAllocSteadyState) {
  Harness h(11, 13);
  std::vector<int> s(static_cast<std::size_t>(h.g.n()));
  for (int v = 0; v < h.g.n(); ++v) s[static_cast<std::size_t>(v)] = v;
  const auto sampler = uniform_sampler(h.g.max_degree() + 1, 0);

  // Warmup: scratch buffers grow to their high-water capacity.
  try_color_round(*h.st, s, sampler, 0.5);
  prune_colored(*h.st, &s);

  const long long before = alloc_count();
  for (int round = 0; round < 8; ++round) {
    try_color_round(*h.st, s, sampler, 0.5);
    prune_colored(*h.st, &s);
  }
  const long long after = alloc_count();
  EXPECT_EQ(after - before, 0)
      << "try_color_round allocated in steady state";
}

TEST(PrimitivesScratch, UncoloredOfBufferVariantMatches) {
  Harness h(17, 19);
  std::vector<int> s(static_cast<std::size_t>(h.g.n()));
  for (int v = 0; v < h.g.n(); ++v) s[static_cast<std::size_t>(v)] = v;
  const auto sampler = uniform_sampler(h.g.max_degree() + 1, 0);
  try_color_round(*h.st, s, sampler, 0.7);

  std::vector<int> by_buffer;
  uncolored_of(*h.st, s, &by_buffer);
  auto in_place = s;
  prune_colored(*h.st, &in_place);
  EXPECT_EQ(by_buffer, in_place);
}

}  // namespace
}  // namespace ccg::color
