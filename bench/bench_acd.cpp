// E7 — Proposition 4.3 / Lemma 5.8: the fingerprint ACD computes an
// eps-almost-clique decomposition in O(eps^-2) H-rounds.
//
// Planted ground truth: measure detection quality (dense vertices
// recovered, blocks kept whole) and the charged rounds as t grows. A
// by_threads sweep times the stream-based decomposition on the round
// engine (results are bit-identical across worker counts) and counts
// warm-pass allocations on reused AcdResult/AcdScratch storage.
#include <string>

#include "common/alloc_count.hpp"
#include "exec/parallel_round.hpp"
#include "util.hpp"

using namespace ccg;

namespace {

struct Quality {
  double dense_recall = 0;   // planted-dense classified dense
  double sparse_precision = 0;  // planted-sparse classified sparse
  bool blocks_intact = true;
};

Quality compare(const graph::PlantedGraph& planted,
                const acd::AcdResult& res) {
  Quality q;
  int dense = 0, dense_hit = 0, sparse = 0, sparse_hit = 0;
  for (int v = 0; v < planted.g.n(); ++v) {
    if (planted.clique_of[static_cast<std::size_t>(v)] >= 0) {
      ++dense;
      if (res.clique_of[static_cast<std::size_t>(v)] >= 0) ++dense_hit;
    } else {
      ++sparse;
      if (res.clique_of[static_cast<std::size_t>(v)] == -1) ++sparse_hit;
    }
  }
  q.dense_recall = dense ? static_cast<double>(dense_hit) / dense : 1.0;
  q.sparse_precision =
      sparse ? static_cast<double>(sparse_hit) / sparse : 1.0;
  // Blocks intact: same planted block -> same output id (sampled pairs).
  for (int v = 0; v < planted.g.n() && q.blocks_intact; v += 7) {
    for (int u = v + 1; u < std::min(planted.g.n(), v + 40); ++u) {
      if (planted.clique_of[static_cast<std::size_t>(v)] >= 0 &&
          planted.clique_of[static_cast<std::size_t>(v)] ==
              planted.clique_of[static_cast<std::size_t>(u)] &&
          res.clique_of[static_cast<std::size_t>(v)] !=
              res.clique_of[static_cast<std::size_t>(u)]) {
        q.blocks_intact = false;
        break;
      }
    }
  }
  return q;
}

}  // namespace

int main() {
  bench::header("E7 / Prop 4.3: fingerprint ACD quality and cost",
                "correct eps-ACD w.h.p. in O(eps^-2) rounds; quality "
                "improves with fingerprint width t");
  bench::row({"t", "dense-recall", "sparse-prec", "blocks-ok", "H-rounds",
              "maxMsgBits"});
  Rng rng(31);
  graph::PlantedSpec spec;
  spec.delta = 96;
  spec.num_cliques = 4;
  spec.anti_deg = 2;
  spec.external_deg = 8;
  spec.num_sparse = 300;
  spec.sparse_avg_deg = 24.0;
  const auto planted = graph::make_planted_acd(spec, rng);

  for (const int t : {128, 512, 2048, 8192}) {
    const auto cg = cluster::ClusterGraph::singleton(planted.g);
    net::Ledger ledger(cg.default_bandwidth());
    cluster::Runtime rt(cg, ledger);
    acd::AcdParams params;
    params.eps = 0.2;
    params.t = t;
    Rng run_rng(1000 + t);
    const auto res = acd::compute_acd(rt, params, run_rng);
    const auto q = compare(planted, res);
    bench::row({bench::fmt(t), bench::fmt(q.dense_recall, 3),
                bench::fmt(q.sparse_precision, 3),
                q.blocks_intact ? "yes" : "no",
                bench::fmt(ledger.h_rounds()),
                bench::fmt(ledger.max_message_bits())});
  }

  std::printf("\neps sweep at t=4096 (rounds are the O(eps^-2) fingerprint "
              "payload chunks)\n");
  bench::row({"eps", "dense-recall", "H-rounds"});
  for (const double eps : {0.3, 0.2, 0.15}) {
    const auto cg = cluster::ClusterGraph::singleton(planted.g);
    net::Ledger ledger(cg.default_bandwidth());
    cluster::Runtime rt(cg, ledger);
    acd::AcdParams params;
    params.eps = eps;
    params.t = 4096;
    Rng run_rng(2000);
    const auto res = acd::compute_acd(rt, params, run_rng);
    const auto q = compare(planted, res);
    bench::row({bench::fmt(eps, 2), bench::fmt(q.dense_recall, 3),
                bench::fmt(ledger.h_rounds())});
  }

  // by_threads: the stream-based scratch-backed decomposition on the
  // round engine. Two warmup passes take the grow-only storage to its
  // high-water mark; the timed passes then run (near) allocation-free and
  // must reproduce the single-threaded clique structure bit for bit.
  std::printf("\nby_threads at t=512 (stream-based API, warm scratch; "
              "identical output required)\n");
  bench::row({"threads", "ms/run", "allocs/run", "identical"});
  std::vector<int> base_clique_of;
  for (const int threads : {1, 2, 4, 8}) {
    const auto cg = cluster::ClusterGraph::singleton(planted.g);
    net::Ledger ledger(cg.default_bandwidth());
    cluster::Runtime rt(cg, ledger);
    exec::ParallelRound par(threads);
    acd::AcdParams params;
    params.eps = 0.2;
    params.t = 512;
    params.measure_bits = false;
    params.par = &par;
    acd::AcdResult res;
    acd::AcdScratch scratch;
    StreamCtx streams(0);
    auto run_once = [&] {
      streams.reseed(3000);
      acd::compute_acd(rt, params, streams, &res, &scratch);
    };
    constexpr int kReps = 5;
    const auto stats = ccg::timed(run_once, /*warmup=*/2, kReps);
    long long a0 = alloc_count();
    for (int i = 0; i < kReps; ++i) run_once();
    const double allocs_per_run =
        static_cast<double>(alloc_count() - a0) / kReps;
    if (threads == 1) base_clique_of = res.clique_of;
    const bool identical = res.clique_of == base_clique_of;
    bench::row({bench::fmt(threads), bench::fmt(stats.mean_ns / 1e6, 3),
                bench::fmt(allocs_per_run, 1), identical ? "yes" : "NO"});
    if (!identical) {
      std::fprintf(stderr,
                   "FATAL: ACD differs at threads=%d (stream RNG broke "
                   "worker-count independence)\n",
                   threads);
      return 1;
    }
  }
  return 0;
}
