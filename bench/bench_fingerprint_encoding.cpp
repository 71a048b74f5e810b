// E5 — Lemmas 5.5/5.6: t maxima of d geometric variables encode in
// O(t + loglog d) bits; naive fixed-width needs t * Theta(loglog d).
//
// Also measures partial aggregates along a chain (the support-tree walk),
// confirming intermediate messages stay small — the property that makes
// the whole pipeline O(log n)-bandwidth.
#include <algorithm>
#include <cmath>

#include "util.hpp"

using namespace ccg;

int main() {
  bench::header("E5 / Lemmas 5.5-5.6: deviation codec size",
                "codec bits ~ c*t + loglog d (deviation sum <= 8t w.h.p.); "
                "naive bits = t * ceil(log2 maxY)");
  const int reps = 50;
  bench::row({"d", "t", "codec-bits", "naive-bits", "bits/coord",
              "dev-sum<=8t"});
  Rng rng(777);
  for (const int d : {16, 1024, 1 << 20}) {
    for (const int t : {64, 256, 1024}) {
      double codec = 0, naive = 0;
      int dev_ok = 0;
      for (int rep = 0; rep < reps; ++rep) {
        sketch::Fingerprint fp, x;
        sketch::reset_empty(t, &fp);
        for (int j = 0; j < d; ++j) {
          sketch::sample_fingerprint_into(t, rng, &x);
          sketch::combine_into(fp, x);
        }
        codec += sketch::encoded_bits(fp);
        naive += sketch::naive_encoded_bits(fp);
        // Lemma 5.5 deviation bound around ceil(log2 d).
        const int k = ceil_log2(static_cast<std::uint64_t>(std::max(1, d)));
        std::int64_t dev = 0;
        for (const int y : fp.maxima) dev += std::abs(y - k);
        if (dev <= 8 * t) ++dev_ok;
      }
      bench::row({bench::fmt(d), bench::fmt(t), bench::fmt(codec / reps, 0),
                  bench::fmt(naive / reps, 0),
                  bench::fmt(codec / reps / t, 2),
                  bench::fmt(static_cast<double>(dev_ok) / reps, 2)});
    }
  }

  std::printf("\npartial aggregates along a %d-hop support chain "
              "(d = 4096, t = 256): message sizes per hop\n", 8);
  {
    Rng rng2(42);
    const int t = 256;
    const int d = 4096;
    // Split d variables over 8 machines; aggregate down a chain measuring
    // each hop's message.
    std::vector<sketch::Fingerprint> partial(8);
    for (auto& p : partial) sketch::reset_empty(t, &p);
    sketch::Fingerprint x;
    for (int j = 0; j < d; ++j) {
      sketch::sample_fingerprint_into(t, rng2, &x);
      sketch::combine_into(partial[static_cast<std::size_t>(j % 8)], x);
    }
    bench::row({"hop", "bits", "bits/t"});
    sketch::Fingerprint acc;
    sketch::reset_empty(t, &acc);
    for (int i = 0; i < 8; ++i) {
      sketch::combine_into(acc, partial[static_cast<std::size_t>(i)]);
      const int bits = sketch::encoded_bits(acc);
      bench::row({bench::fmt(i), bench::fmt(bits),
                  bench::fmt(static_cast<double>(bits) / t, 2)});
    }
  }
  return 0;
}
