// E14 — Section 3.2: the multiplicative d overhead. Same conflict graph
// H, support trees of growing diameter: H-rounds stay constant while
// G-rounds scale ~ linearly with the epoch depth (2h+1).
#include "util.hpp"

using namespace ccg;

int main() {
  bench::header("E14 / Section 3.2: dilation overhead",
                "G-rounds ~ (2h+1) * H-rounds; H-rounds independent of d");
  bench::row({"shape", "size", "d", "H-rounds", "G-rounds",
              "G/H", "epoch-depth"});
  bench::MixtureSpec ms;
  ms.delta = 128;
  ms.ext_deg = 12;
  const auto inst = bench::make_mixture(3000, ms, 321);

  struct Cfg {
    const char* name;
    cluster::ClusterShape shape;
    int size;
  };
  const Cfg cfgs[] = {
      {"singleton", cluster::ClusterShape::kSingleton, 1},
      {"star4", cluster::ClusterShape::kStar, 4},
      {"path4", cluster::ClusterShape::kPath, 4},
      {"path8", cluster::ClusterShape::kPath, 8},
      {"path16", cluster::ClusterShape::kPath, 16},
      {"bintree15", cluster::ClusterShape::kBalancedBinary, 15},
  };
  for (const auto& cfg : cfgs) {
    Rng rng(5);
    const auto cg =
        cfg.size == 1
            ? cluster::ClusterGraph::singleton(inst.planted.g)
            : cluster::ClusterGraph::expand(
                  inst.planted.g,
                  cluster::ExpandSpec{cfg.shape, cfg.size, 1}, rng);
    const auto res = bench::solve(Problem::cluster(cg), Algo::kHighDegree,
                                  bench::bench_params(inst.n, 9))
                         .result;
    cluster::check_proper_total(inst.planted.g, res.colors,
                                res.num_colors);
    bench::row({cfg.name, bench::fmt(cfg.size), bench::fmt(res.dilation),
                bench::fmt(res.h_rounds), bench::fmt(res.g_rounds),
                bench::fmt(static_cast<double>(res.g_rounds) /
                               std::max<std::int64_t>(1, res.h_rounds),
                           1),
                bench::fmt(cg.epoch_depth())});
  }
  return 0;
}
