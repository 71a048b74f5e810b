// Constants and the caller-set knobs of the coloring pipeline.
//
// The paper fixes constants for its worst-case union bounds (Eq. 1:
// eps = 1/2000, ell = Theta(log^1.1 n), r_K = 250 max{ẽ_K, ell},
// ell_s = Theta(ell^3), b = 256 ell_s^6, Delta_low = Theta(log^21 n)).
// Those values only leave the asymptotic regime at astronomical n, so every
// formula is kept symbolic here with laptop-scale calibrated values; the
// *shape* of each phase (what is constant, what scales with log* n, what
// depends on d) is unchanged.
//
// Calibration values that no caller varies are the constants below; Params
// keeps only what callers, tests and benches set (the seed, the thread
// count, the decomposition and bit-accounting switches, the ablated
// dense-structure factors and the finisher). The constants stay named
// after their paper counterparts so each phase still reads like the
// pseudo-code.
#pragma once

#include <cstdint>

namespace ccg::color {

// --- dense-structure thresholds ---
inline constexpr double kEllFactor = 1.0;  // ell = kEllFactor * log2(n)^1.1
// Inlier: ẽ_v <= kInlierExtFactor * ẽ_K (Eq. 4).
inline constexpr double kInlierExtFactor = 20.0;

// --- slack generation (Prop 4.5 / Alg 18) ---
inline constexpr double kGammaSg = 0.08;     // γ_{4.5} analog: guaranteed slack
inline constexpr double kGammaReuse = 0.04;  // γ_{4.11} analog

// --- color trials ---
inline constexpr int kTryColorRounds = 10;  // T = O(1) degree-reduction rounds
inline constexpr double kTryColorActivation = 0.5;  // γ/4 analog
// MultiColorTrial budget (O(γ^-1 log* n)); also the anti-matching trials.
inline constexpr int kMctMaxRounds = 64;

// --- colorful matching ---
inline constexpr int kMatchingRounds = 12;  // O(1/eps) iterations (Lemma 4.9)
// k = kCabalMatchingKFactor * log2 n (Alg 7; 6C/(εγ)).
inline constexpr double kCabalMatchingKFactor = 8.0;

// --- put-aside sets (Section 7) ---
// |P_K| = max(2, kPutAsideFactor * ell), capped by r_K. The paper sets
// |P_K| = r_K = 250*ell; at laptop scale |P_K| must stay well below |K|
// for the independent-sampling step of Lemma 4.18. The reserved-color
// slack argument only needs |P_K| >= 1 per cabal plus r_K >> e_v, both
// preserved.
inline constexpr double kPutAsideFactor = 1.0;

// --- regime switch ---
// The high-degree path requires Delta >= delta_low(n) =
// kDeltaLowFactor * ell(n) (paper: Theta(log^21 n)).
inline constexpr double kDeltaLowFactor = 6.0;

struct Params {
  std::uint64_t seed = 1;

  // Worker threads for the parallel round engine (src/exec). 1 runs every
  // round inline; <= 0 selects the hardware concurrency. Colorings are
  // bit-identical for every value (counter-based per-(seed, round, entity)
  // RNG streams; see common/rng.hpp stream_rng). Every randomized phase of
  // the high-degree pipeline past ComputeACD runs on the engine: TryColor,
  // slack generation, SCT, MCT, the ACD oracle loops, colorful/fingerprint
  // matching, anti-matching coloring, put-aside computation + coloring,
  // and the fallback safety net.
  int threads = 1;

  // --- decomposition ---
  double eps = 0.08;       // ACD epsilon (paper: 1/2000)
  int fingerprint_t = 96;  // fingerprint width for all estimates
  bool use_fingerprint_acd = true;  // false: exact oracle, same charges
  bool measure_bits = true;

  // --- dense-structure thresholds ---
  double reserved_factor = 6.0;  // r_K = reserved_factor*max(ẽ_K, ell) (250)
  double reserved_cap_frac = 0.35;  // r_K <= cap_frac * Delta (paper 300eps)

  // --- slack generation (Prop 4.5 / Alg 18) ---
  double slack_activation = 0.1;  // p_g (paper: 1/200)

  // --- color trials ---
  // true: MultiColorTrial draws from genuine representative-set families
  // (Definition C.5 / Lemma C.6); false: seeded-PRG color sets with the
  // same O(log n)-bit broadcast.
  bool use_representative_sets = false;

  // --- donation (Section 7) ---
  double ls_factor = 1.0;    // ell_s = max(4, ls_factor*ell) (paper: ell^3)
  double block_factor = 8.0; // b = max(16, block_factor*ell_s) (256 ell_s^6)

  // --- low-degree finisher (Section 9.4) ---
  // Which algorithm finishes the shattered poly(log n)-size components:
  //  * kRandomizedList — (deg+1)-list trials (observed O(log N) rounds).
  //  * kLinial         — deterministic reduction to O(Delta_F^2) classes
  //                      in O(log* N) rounds + one sweep round per class.
  //  * kGhaffariKuhn   — the paper's Lemma 9.1: recursive color-space
  //                      subdivision with approximate rounding (Lemma 9.7)
  //                      over weighted defective colorings (Lemma 9.6).
  enum class Finisher { kRandomizedList, kLinial, kGhaffariKuhn };
  Finisher finisher = Finisher::kRandomizedList;

  // --- Ghaffari-Kuhn knobs (Section 9.4; calibrated) ---
  int gk_chunk_cap = 6;       // K <= cap chunks per recursion level
  double gk_round_eps = 0.5;  // eps per rounding step (paper Theta(1/(Qb)))
  int gk_s_cap = 8;           // cap on the defective schedule s_i
  // true: weight sums actually estimated by duplicated geometric maxima
  // (Lemma 9.4); false: exact sums, identical round charges.
  bool gk_estimated_weights = false;

  // Derived quantities.
  double ell(int n) const;
  int delta_low(int n) const;
  int reserved_cap(int delta) const;  // global exclusion zone 300·eps·Δ
  int ell_s(int n) const;
  int block_size(int n) const;
  int donation_samples(int n) const;  // Θ(log n / loglog n)

  static Params defaults_for(int n, std::uint64_t seed = 1);
};

}  // namespace ccg::color
