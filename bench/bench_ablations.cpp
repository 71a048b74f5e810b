// E18 — ablations over the main design choices:
//  (a) fingerprint ACD vs exact-oracle ACD (same pipeline, same charges,
//      does estimate noise change the outcome?);
//  (b) the deviation codec vs naive fixed-width fingerprints (bandwidth
//      chunks charged, i.e. the G-round cost of Section 5's compression);
//  (c) reserved-color margin sweep: how small can r_K get before the
//      cabal endgame leans on the safety net?
#include "util.hpp"

using namespace ccg;

int main() {
  bench::header("E18: ablations",
                "codec and reserved margins are load-bearing; fingerprint "
                "vs oracle ACD only moves constants");

  std::printf("(a) fingerprint vs oracle ACD (n ~ 1500, full pipeline)\n");
  bench::row({"acd", "H-rounds", "fallback", "cliques"});
  {
    bench::MixtureSpec ms;
    ms.delta = 128;
    ms.ext_deg = 10;
    ms.anti_deg = 2;
    const auto inst = bench::make_mixture(1500, ms, 41);
    for (const bool fingerprint : {false, true}) {
      const auto cg = cluster::ClusterGraph::singleton(inst.planted.g);
      auto params = bench::bench_params(inst.n, 21);
      params.use_fingerprint_acd = fingerprint;
      params.fingerprint_t = 4096;
      const auto res =
          bench::solve(Problem::cluster(cg), Algo::kHighDegree, params)
              .result;
      cluster::check_proper_total(inst.planted.g, res.colors,
                                  res.num_colors);
      bench::row({fingerprint ? "fingerprint" : "oracle",
                  bench::fmt(res.h_rounds), bench::fmt(res.fallback_count),
                  bench::fmt(res.num_cliques)});
    }
  }

  std::printf("\n(b) codec vs naive fingerprints: G-round chunks of one "
              "counting pass (B = 4 log n)\n");
  bench::row({"t", "codec-bits", "naive-bits", "codec-chunks",
              "naive-chunks"});
  {
    Rng rng(43);
    const int d = 4096;
    const int bandwidth = 4 * 13;
    for (const int t : {128, 512, 2048}) {
      sketch::Fingerprint fp, x;
      sketch::reset_empty(t, &fp);
      for (int j = 0; j < d; ++j) {
        sketch::sample_fingerprint_into(t, rng, &x);
        sketch::combine_into(fp, x);
      }
      const int cb = sketch::encoded_bits(fp);
      const int nb = sketch::naive_encoded_bits(fp);
      bench::row({bench::fmt(t), bench::fmt(cb), bench::fmt(nb),
                  bench::fmt(ceil_div(cb, bandwidth)),
                  bench::fmt(ceil_div(nb, bandwidth))});
    }
  }

  std::printf("\n(c) reserved-color margin sweep on a cabal instance\n");
  bench::row({"reserved_factor", "r_K", "H-rounds", "fallback"});
  {
    bench::MixtureSpec ms;
    ms.delta = 256;
    ms.ext_deg = 6;
    ms.anti_deg = 2;
    ms.sparse_fraction = 0.0;
    const auto inst = bench::make_mixture(2000, ms, 47);
    for (const double rf : {1.0, 2.0, 4.0, 8.0}) {
      const auto cg = cluster::ClusterGraph::singleton(inst.planted.g);
      auto params = bench::bench_params(inst.n, 23);
      params.reserved_factor = rf;
      const auto res =
          bench::solve(Problem::cluster(cg), Algo::kHighDegree, params)
              .result;
      cluster::check_proper_total(inst.planted.g, res.colors,
                                  res.num_colors);
      bench::row({bench::fmt(rf, 1),
                  bench::fmt(static_cast<int>(rf *
                                              params.ell(inst.n))),
                  bench::fmt(res.h_rounds),
                  bench::fmt(res.fallback_count)});
    }
  }

  std::printf("\n(d) shattered-component finisher: randomized list trials "
              "vs deterministic Linial sweep\n");
  bench::row({"finisher", "n", "H-rounds", "fallback"});
  for (const int n : {2000, 8000}) {
    const std::pair<const char*, color::Params::Finisher> finishers[] = {
        {"randomized", color::Params::Finisher::kRandomizedList},
        {"linial", color::Params::Finisher::kLinial},
        {"ghaffari-kuhn", color::Params::Finisher::kGhaffariKuhn},
    };
    for (const auto& [name, finisher] : finishers) {
      Rng rng(51 + n);
      const auto g = graph::gnm(
          n, static_cast<std::int64_t>(n) * 6, rng);
      const auto cg = cluster::ClusterGraph::singleton(g);
      auto params = bench::bench_params(n, 29);
      params.finisher = finisher;
      const auto res =
          bench::solve(Problem::cluster(cg), Algo::kLowDegree, params)
              .result;
      cluster::check_proper_total(g, res.colors, res.num_colors);
      bench::row({name, bench::fmt(n), bench::fmt(res.h_rounds),
                  bench::fmt(res.fallback_count)});
    }
  }

  std::printf("\n(e) MultiColorTrial color sets: seeded-PRG (substitution "
              "#3) vs genuine representative families (Def. C.5)\n");
  bench::row({"sets", "n", "H-rounds", "fallback"});
  for (const int n : {4000, 16000}) {
    for (const bool repsets : {false, true}) {
      Rng rng(73 + n);
      const auto mix = bench::make_mixture(n, bench::MixtureSpec{}, 81);
      const auto cg = cluster::ClusterGraph::singleton(mix.planted.g);
      auto params = bench::bench_params(mix.planted.g.n(), 83);
      params.use_representative_sets = repsets;
      const auto res =
          bench::solve(Problem::cluster(cg), Algo::kHighDegree, params)
              .result;
      cluster::check_proper_total(mix.planted.g, res.colors,
                                  res.num_colors);
      bench::row({repsets ? "representative" : "prg-seeded",
                  bench::fmt(mix.planted.g.n()), bench::fmt(res.h_rounds),
                  bench::fmt(res.fallback_count)});
    }
  }
  return 0;
}
