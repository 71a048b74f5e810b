// E4 — Lemma 5.2: the fingerprint estimator returns d̂ in (1 ± xi) d with
// probability >= 1 - 6 exp(-xi^2 t / 200).
//
// Sweep d x t; report mean relative error and the fraction of trials
// within xi, next to the lemma's (very conservative) bound.
#include <cmath>

#include "util.hpp"

using namespace ccg;

int main() {
  bench::header("E4 / Lemma 5.2: estimator accuracy",
                "|d̂ - d| <= xi*d w.p. >= 1 - 6exp(-xi^2 t/200); the bound "
                "is loose — measured hit rates should exceed it");
  bench::row({"d", "t", "xi", "reps", "mean-rel-err", "hit-rate",
              "lemma-bound"});
  Rng rng(12345);
  for (const int d : {4, 64, 1024, 16384}) {
    for (const int t : {128, 512, 1024}) {
      // Budget the d*t*reps sampling cost per cell.
      const int reps = std::max(
          30, static_cast<int>(4.0e7 / (static_cast<double>(d) * t)));
      for (const double xi : {0.5, 0.25}) {
        double err_sum = 0;
        int hits = 0;
        for (int rep = 0; rep < reps; ++rep) {
          sketch::Fingerprint fp, x;
          sketch::reset_empty(t, &fp);
          for (int j = 0; j < d; ++j) {
            sketch::sample_fingerprint_into(t, rng, &x);
            sketch::combine_into(fp, x);
          }
          const double est = sketch::estimate_count(fp);
          const double rel = std::abs(est - d) / d;
          err_sum += rel;
          if (rel <= xi) ++hits;
        }
        const double bound =
            std::max(0.0, 1.0 - 6.0 * std::exp(-xi * xi * t / 200.0));
        bench::row({bench::fmt(d), bench::fmt(t), bench::fmt(xi, 2),
                    bench::fmt(reps), bench::fmt(err_sum / reps, 4),
                    bench::fmt(static_cast<double>(hits) / reps, 3),
                    bench::fmt(bound, 3)});
      }
    }
  }
  return 0;
}
