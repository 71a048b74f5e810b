// E13 — Section 1.1 + Figures 1-2: the primitives that make cluster
// graphs hard and the neighbor-assisted tricks that fix them.
//
//  * Fig. 1: a partitioned network and its derived cluster graph.
//  * degree counting: counting incident links grossly overestimates the
//    cluster degree when H-edges carry parallel links; the one-aggregation
//    neighbor dedup ("cut all but one link") computes it exactly.
//  * Fig. 2: finding a free color by intra-cluster computation alone needs
//    Omega(Delta/log n) rounds across the bridge (set-intersection);
//    neighbor-assisted binary search on the palette needs O(log Delta)
//    rounds of O(log n) bits.
#include "util.hpp"

using namespace ccg;

int main() {
  bench::header("E13 / Figs. 1-2: cluster-graph primitives",
                "dedup degree counting is exact in 1 aggregation; "
                "free-color search: Delta/log n (bridge streaming) vs "
                "log Delta (neighbor-assisted)");

  // Fig. 1 reconstruction.
  {
    Rng rng(5);
    const auto g = graph::grid(8, 4);
    const auto assign = cluster::random_partition(g, 4, rng);
    const auto cg = cluster::ClusterGraph::from_partition(g, assign);
    std::printf("Fig. 1: |V_G| = %d machines -> %d clusters, H has %lld "
                "edges, dilation d = %d\n",
                cg.n_machines(), cg.num_clusters(),
                static_cast<long long>(cg.h().m()), cg.dilation());
  }

  // Degree counting with parallel links.
  std::printf("\nlink-count vs dedup degree (links_per_edge sweep)\n");
  bench::row({"links/edge", "true-deg", "link-count", "overcount"});
  for (const int lpe : {1, 2, 4, 8}) {
    Rng rng(7);
    const auto h = graph::complete(24);
    cluster::ExpandSpec es;
    es.shape = cluster::ClusterShape::kRandomTree;
    es.size = 6;
    es.links_per_edge = lpe;
    const auto cg = cluster::ClusterGraph::expand(h, es, rng);
    // Vertex 0: true degree 23; link count = sum of parallel links.
    int links = 0;
    for (const int u : cg.h().neighbors(0)) {
      links += cg.link_count(0, u);
    }
    bench::row({bench::fmt(lpe), bench::fmt(cg.h().degree(0)),
                bench::fmt(links),
                bench::fmt(static_cast<double>(links) / cg.h().degree(0),
                           2)});
  }

  // Fig. 2: free-color search through a bridge.
  std::printf("\nfree-color search on the Fig. 2 bridge topology\n");
  bench::row({"Delta", "bridge-stream(G-rounds)", "assisted(G-rounds)",
              "speedup"});
  for (const int delta : {128, 512, 2048}) {
    Rng rng(11 + delta);
    // Star H: center cluster with Delta colored neighbors.
    const auto h = graph::star(delta + 1);
    cluster::ExpandSpec es;
    es.shape = cluster::ClusterShape::kBridgePath;
    es.size = 8;
    const auto cg = cluster::ClusterGraph::expand(h, es, rng);
    net::Ledger stream_ledger(cg.default_bandwidth());
    net::Ledger assist_ledger(cg.default_bandwidth());
    const int logn = ceil_log2(static_cast<std::uint64_t>(
        std::max(2, cg.n_machines())));

    // Intra-cluster-only: the half of the neighbor colors attached on the
    // far side of the bridge must stream through the single central link:
    // Delta/2 colors of ceil(log2(Delta+1)) bits each.
    const int color_bits = ceil_log2(static_cast<std::uint64_t>(delta) + 1);
    stream_ledger.charge(cg.cluster(0).diameter,
                         delta / 2 * color_bits);

    // Neighbor-assisted binary search (Section 1.1): log(Delta) rounds of
    // counting colored neighbors below a threshold (one aggregation each).
    for (int step = 0; step < color_bits; ++step) {
      assist_ledger.charge(cg.epoch_depth(), 2 * logn);
    }
    bench::row({bench::fmt(delta), bench::fmt(stream_ledger.g_rounds()),
                bench::fmt(assist_ledger.g_rounds()),
                bench::fmt(static_cast<double>(stream_ledger.g_rounds()) /
                               assist_ledger.g_rounds(),
                           1)});
  }
  return 0;
}
