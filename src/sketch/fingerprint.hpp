// Fingerprints: maxima of geometric random variables (paper, Section 5).
//
// A *fingerprint* of a set S is the coordinate-wise maximum, over u in S,
// of t independent geometric(1/2) variables X_{u,1..t}. Fingerprints
// aggregate with max (idempotent — immune to the redundant paths of
// cluster graphs), estimate |S| within (1 ± xi) via Lemma 5.2, and encode
// into O(t + loglog d) bits via the deviation codec of Lemmas 5.5/5.6.
//
// kEmpty (-1) coordinates represent "no variable seen yet" so partial
// aggregates over empty sets are well-defined.
#pragma once

#include <vector>

#include "common/bitstream.hpp"
#include "common/rng.hpp"

namespace ccg::sketch {

inline constexpr int kEmpty = -1;

struct Fingerprint {
  std::vector<int> maxima;  // t coordinates; kEmpty where no variable seen

  int t() const { return static_cast<int>(maxima.size()); }
  bool empty_set() const;

  bool operator==(const Fingerprint& o) const = default;
};

// t geometric(1/2) variables for one element (a "raw" fingerprint of {v}).
// Resizes out->maxima (capacity kept) and refills, so a reused Fingerprint
// is resampled without heap traffic.
void sample_fingerprint_into(int t, Rng& rng, Fingerprint* out);

// Rebinds *out to the empty-set fingerprint with t coordinates.
void reset_empty(int t, Fingerprint* out);

// Coordinate-wise max into acc.
void combine_into(Fingerprint& acc, const Fingerprint& b);

// Lemma 5.2 estimator: from t maxima over d i.i.d. geometric(1/2)
// variables, estimate d. Returns 0 for the empty-set fingerprint.
//   K* = min{k : Z_k >= (27/40) t},  Z_k = #{i : Y_i < k}
//   d̂  = ln(Z_K*/t) / ln(1 - 2^-K*)
double estimate_count(const Fingerprint& fp);

// Deviation codec (Lemmas 5.5/5.6): encodes the maxima relative to the
// value k minimizing total deviation (a median), in
// O(log k + sum_i |Y_i - k|) = O(t + loglog d) bits w.h.p.
void encode_fingerprint(const Fingerprint& fp, BitWriter& out);
Fingerprint decode_fingerprint(BitReader& in, int t);

// Encoded size in bits without materializing the writer twice.
int encoded_bits(const Fingerprint& fp);

// Naive encoding size (each coordinate in fixed width): the comparison
// point of experiment E5.
int naive_encoded_bits(const Fingerprint& fp);

}  // namespace ccg::sketch
