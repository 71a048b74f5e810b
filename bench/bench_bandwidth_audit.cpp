// E15 — bandwidth audit: the full pipeline with measured fingerprints
// must never push more than B = O(log n) bits over a link in one round,
// and the largest *logical* message must stay O(log n)-ish (pipelined
// fingerprint payloads are the only multi-chunk messages).
#include "util.hpp"

using namespace ccg;

int main() {
  bench::header("E15: per-link bandwidth audit (full measured stack)",
                "max bits/link/round <= B; logical messages O(log n) "
                "except fingerprint payloads (chunked, charged)");
  bench::row({"n", "B(bits)", "maxLinkRound", "maxLogicalMsg", "H-rounds",
              "proper"});
  for (const int n_target : {1000, 2000, 4000}) {
    bench::MixtureSpec ms;
    ms.delta = 128;
    ms.ext_deg = 10;
    ms.anti_deg = 2;
    const auto inst = bench::make_mixture(n_target, ms, 31 + n_target);
    Rng rng(3);
    cluster::ExpandSpec es;
    es.shape = cluster::ClusterShape::kRandomTree;
    es.size = 4;
    const auto cg = cluster::ClusterGraph::expand(inst.planted.g, es, rng);
    auto params = bench::bench_params(inst.n, 13, /*full_stack=*/true);
    params.fingerprint_t = 64 * ceil_log2(static_cast<std::uint64_t>(
                                    std::max(2, inst.n)));
    const auto res =
        bench::solve(Problem::cluster(cg), Algo::kHighDegree, params).result;
    cluster::check_proper_total(inst.planted.g, res.colors,
                                res.num_colors);
    const int bandwidth = cg.default_bandwidth();
    bench::row({bench::fmt(inst.n), bench::fmt(bandwidth),
                bench::fmt(res.max_bits_per_link_round),
                bench::fmt(res.max_message_bits),
                bench::fmt(res.h_rounds),
                res.max_bits_per_link_round <= bandwidth ? "yes"
                                                         : "VIOLATION"});
  }

  std::printf("\nper-phase maxima at n~2000\n");
  {
    bench::MixtureSpec ms;
    ms.delta = 128;
    ms.ext_deg = 10;
    const auto inst = bench::make_mixture(2000, ms, 77);
    const auto cg = cluster::ClusterGraph::singleton(inst.planted.g);
    const auto res =
        bench::solve(Problem::cluster(cg), Algo::kHighDegree,
                     bench::bench_params(inst.n, 17, /*full_stack=*/true))
            .result;
    bench::row({"phase", "maxMsgBits", "maxLinkRound"});
    for (const auto& pc : res.phases) {
      bench::row({pc.name, bench::fmt(pc.max_message_bits),
                  bench::fmt(pc.max_bits_per_link_round)});
    }
  }
  return 0;
}
