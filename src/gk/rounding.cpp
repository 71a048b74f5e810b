#include "gk/rounding.hpp"

#include <algorithm>
#include <cmath>

#include "common/mathutil.hpp"
#include "gk/defective.hpp"
#include "sketch/fingerprint.hpp"

namespace ccg::gk {

namespace {

std::vector<int> index_in(const color::State& st, const std::vector<int>& S) {
  std::vector<int> idx(static_cast<std::size_t>(st.h().n()), -1);
  for (int i = 0; i < static_cast<int>(S.size()); ++i) {
    idx[static_cast<std::size_t>(S[static_cast<std::size_t>(i)])] = i;
  }
  return idx;
}

// Max of m i.i.d. geometric(1/2) variables by inverse-CDF sampling:
// P[Y < k] = (1 - 2^-k)^m.
int sample_max_of_geoms(long long m, Rng& rng) {
  CCG_CHECK(m >= 1);
  const double u = rng.next_double();
  const double lm = static_cast<double>(m);
  for (int k = 0; k < 128; ++k) {
    // log P[Y < k] = m * log(1 - 2^-k); compare in log space for stability.
    const double log_cdf =
        lm * std::log1p(-std::pow(0.5, static_cast<double>(k)));
    if (log_cdf >= std::log(std::max(u, 1e-300))) return std::max(0, k - 1);
  }
  return 127;
}

}  // namespace

int LabelVec::num_of(int id) const {
  for (int i = 0; i < label_count(); ++i) {
    if (ids[static_cast<std::size_t>(i)] == id) {
      return num[static_cast<std::size_t>(i)];
    }
  }
  return 0;
}

double LabelVec::y_of(int id) const {
  for (int i = 0; i < label_count(); ++i) {
    if (ids[static_cast<std::size_t>(i)] == id) {
      return y[static_cast<std::size_t>(i)];
    }
  }
  return 0;
}

double assignment_cost(const color::State& st, const std::vector<int>& S,
                       const std::vector<LabelVec>& lv, int denom_log2) {
  const auto& h = st.h();
  const auto idx = index_in(st, S);
  const double denom = std::pow(2.0, denom_log2);
  double cost = 0;
  for (int i = 0; i < static_cast<int>(S.size()); ++i) {
    const int v = S[static_cast<std::size_t>(i)];
    const auto& a = lv[static_cast<std::size_t>(i)];
    for (const int u : h.neighbors(v)) {
      const int j = idx[static_cast<std::size_t>(u)];
      if (j <= i) continue;  // each edge once
      const auto& b = lv[static_cast<std::size_t>(j)];
      for (int li = 0; li < a.label_count(); ++li) {
        const int id = a.ids[static_cast<std::size_t>(li)];
        const int bn = b.num_of(id);
        if (bn == 0 || a.num[static_cast<std::size_t>(li)] == 0) continue;
        const double xu = a.num[static_cast<std::size_t>(li)] / denom;
        const double xv = bn / denom;
        cost += xu * xv * (a.y[static_cast<std::size_t>(li)] + b.y_of(id));
      }
    }
  }
  return cost;
}

double estimate_duplicated_sum(const std::vector<long long>& dups, int t,
                               Rng& rng) {
  sketch::Fingerprint fp;
  sketch::reset_empty(t, &fp);
  bool any = false;
  for (const long long m : dups) {
    if (m <= 0) continue;
    any = true;
    for (int i = 0; i < t; ++i) {
      fp.maxima[static_cast<std::size_t>(i)] = std::max(
          fp.maxima[static_cast<std::size_t>(i)], sample_max_of_geoms(m, rng));
    }
  }
  if (!any) return 0;
  return sketch::estimate_count(fp);
}

void rounding_step(color::State& st, const std::vector<int>& S,
                   std::vector<LabelVec>& lv, int& denom_log2, double eps,
                   RoundingStats* stats) {
  CCG_CHECK(denom_log2 >= 1);
  const auto& h = st.h();
  const auto idx = index_in(st, S);
  const double denom = std::pow(2.0, denom_log2);
  const int t = st.params.fingerprint_t;
  const bool estimate = st.params.gk_estimated_weights;

  // Eq. 17 edge weights for the defective coloring.
  const EdgeWeight w = [&](int v, int u) {
    const int i = idx[static_cast<std::size_t>(v)];
    const int j = idx[static_cast<std::size_t>(u)];
    const auto& a = lv[static_cast<std::size_t>(i)];
    const auto& b = lv[static_cast<std::size_t>(j)];
    double sum = 0;
    for (int li = 0; li < a.label_count(); ++li) {
      const int id = a.ids[static_cast<std::size_t>(li)];
      const int bn = b.num_of(id);
      if (bn == 0) continue;
      sum += (a.num[static_cast<std::size_t>(li)] / denom) * (bn / denom) *
             (a.y[static_cast<std::size_t>(li)] + b.y_of(id));
    }
    return sum;
  };

  auto [psi0, q0] = initial_proper_coloring(st, S);
  const auto def = weighted_defective_coloring(st, S, w, std::move(psi0), q0,
                                               eps / 8.0);
  if (stats != nullptr) {
    stats->defective_colors = def.num_colors;
    stats->defective_iterations += def.iterations;
  }

  // Group S-indices by defective class; sweep non-empty classes in order.
  std::vector<std::vector<int>> classes;
  for (int i = 0; i < static_cast<int>(S.size()); ++i) {
    const int c = def.color_of[static_cast<std::size_t>(i)];
    if (c >= static_cast<int>(classes.size())) {
      classes.resize(static_cast<std::size_t>(c) + 1);
    }
    classes[static_cast<std::size_t>(c)].push_back(i);
  }

  for (const auto& cls : classes) {
    if (cls.empty()) continue;
    if (stats != nullptr) ++stats->classes_swept;
    // All class members update simultaneously against the *current* x of
    // their neighbors (same-class interactions are what the defect bounds).
    std::vector<std::pair<int, std::vector<int>>> updates;  // (idx, L-)
    for (const int i : cls) {
      auto& a = lv[static_cast<std::size_t>(i)];
      std::vector<int> odd;
      for (int li = 0; li < a.label_count(); ++li) {
        if (a.num[static_cast<std::size_t>(li)] % 2 == 1) odd.push_back(li);
      }
      if (odd.empty()) continue;
      CCG_CHECK_MSG(odd.size() % 2 == 0,
                    "odd-numerator labels must pair up (sum = 2^b)");
      // Estimated incident weight per odd label (Lemma 9.4 decomposition:
      // W = y_v * sum x_u + sum x_u y_u; both sums of duplication counts).
      const int v = S[static_cast<std::size_t>(i)];
      std::vector<std::pair<double, int>> weighted;  // (W, li)
      for (const int li : odd) {
        const int id = a.ids[static_cast<std::size_t>(li)];
        double w1 = 0;  // sum_u x_ul
        double w2 = 0;  // sum_u x_ul y_ul
        if (estimate) {
          // y quantized to 2^-8 grid; duplication counts per Lemma 9.4.
          std::vector<long long> d1, d2;
          for (const int u : h.neighbors(v)) {
            const int j = idx[static_cast<std::size_t>(u)];
            if (j < 0) continue;
            const auto& b = lv[static_cast<std::size_t>(j)];
            const int bn = b.num_of(id);
            if (bn == 0) continue;
            d1.push_back(bn);
            d2.push_back(static_cast<long long>(bn) *
                         std::llround(b.y_of(id) * 256.0));
          }
          w1 = estimate_duplicated_sum(d1, t, st.rng) / denom;
          w2 = estimate_duplicated_sum(d2, t, st.rng) / (denom * 256.0);
        } else {
          for (const int u : h.neighbors(v)) {
            const int j = idx[static_cast<std::size_t>(u)];
            if (j < 0) continue;
            const auto& b = lv[static_cast<std::size_t>(j)];
            const int bn = b.num_of(id);
            if (bn == 0) continue;
            w1 += bn / denom;
            w2 += (bn / denom) * b.y_of(id);
          }
        }
        const double wv = a.y[static_cast<std::size_t>(li)] * w1 + w2;
        weighted.emplace_back(wv, li);
      }
      // Heaviest half loses mass (L-), lightest half gains (L+).
      std::sort(weighted.begin(), weighted.end(),
                [](const auto& x, const auto& y2) { return x.first > y2.first; });
      std::vector<int> minus;
      for (std::size_t k = 0; k < weighted.size() / 2; ++k) {
        minus.push_back(weighted[k].second);
      }
      updates.emplace_back(i, std::move(minus));
    }
    // Apply after the whole class computed its split.
    for (auto& [i, minus] : updates) {
      auto& a = lv[static_cast<std::size_t>(i)];
      std::vector<char> dec(a.num.size(), 0);
      for (const int li : minus) dec[static_cast<std::size_t>(li)] = 1;
      for (int li = 0; li < a.label_count(); ++li) {
        if (a.num[static_cast<std::size_t>(li)] % 2 == 0) continue;
        if (dec[static_cast<std::size_t>(li)]) {
          a.num[static_cast<std::size_t>(li)] -= 1;
        } else {
          a.num[static_cast<std::size_t>(li)] += 1;
        }
        CCG_CHECK(a.num[static_cast<std::size_t>(li)] >= 0);
      }
    }
    // One sequential H-round per class; per-link message carries the
    // estimator payload for each odd label (chunked by the ledger).
    st.rt->charge(1, std::max(1, t) * 4);
  }

  // All numerators are now even: halve the denominator.
  for (auto& a : lv) {
    for (auto& k : a.num) {
      CCG_CHECK(k % 2 == 0);
      k /= 2;
    }
  }
  denom_log2 -= 1;
}

}  // namespace ccg::gk
