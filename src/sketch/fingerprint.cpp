#include "sketch/fingerprint.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/mathutil.hpp"

namespace ccg::sketch {

bool Fingerprint::empty_set() const {
  return std::all_of(maxima.begin(), maxima.end(),
                     [](int y) { return y == kEmpty; });
}

void sample_fingerprint_into(int t, Rng& rng, Fingerprint* out) {
  CCG_CHECK(t >= 1);
  out->maxima.resize(static_cast<std::size_t>(t));
  for (auto& y : out->maxima) y = rng.next_geometric_half();
}

void reset_empty(int t, Fingerprint* out) {
  CCG_CHECK(t >= 1);
  out->maxima.assign(static_cast<std::size_t>(t), kEmpty);
}

void combine_into(Fingerprint& acc, const Fingerprint& b) {
  CCG_CHECK(acc.t() == b.t());
  for (int i = 0; i < acc.t(); ++i) {
    acc.maxima[static_cast<std::size_t>(i)] =
        std::max(acc.maxima[static_cast<std::size_t>(i)],
                 b.maxima[static_cast<std::size_t>(i)]);
  }
}

double estimate_count(const Fingerprint& fp) {
  const int t = fp.t();
  CCG_CHECK(t >= 1);
  if (fp.empty_set()) return 0.0;
  // Z_k is nondecreasing in k; find K* by scanning k upward. Y < k with
  // Y == kEmpty cannot happen here (handled above); maxima are >= 0 so
  // K* >= 1.
  const int y_max = *std::max_element(fp.maxima.begin(), fp.maxima.end());
  const double threshold = 27.0 / 40.0 * t;
  for (int k = 1; k <= y_max + 1; ++k) {
    int z = 0;
    for (const int y : fp.maxima) {
      if (y < k) ++z;
    }
    if (z >= threshold) {
      // Clamp to avoid ln(1) = 0 when every coordinate is below k.
      const int z_star = std::min(z, t - 1) == 0 ? 1 : std::min(z, t - 1);
      const double ratio = static_cast<double>(z_star) / t;
      return std::log(ratio) / std::log(1.0 - std::pow(2.0, -k));
    }
  }
  // Unreachable: at k = y_max + 1, Z_k = t >= threshold.
  CCG_CHECK(false);
  return 0.0;
}

namespace {

// Baseline k minimizing sum |Y_i - k| over non-empty coordinates: a median.
int deviation_baseline(const Fingerprint& fp) {
  std::vector<int> ys;
  ys.reserve(fp.maxima.size());
  for (const int y : fp.maxima) {
    if (y != kEmpty) ys.push_back(y);
  }
  if (ys.empty()) return 0;
  const auto mid = ys.begin() + static_cast<std::ptrdiff_t>(ys.size() / 2);
  std::nth_element(ys.begin(), mid, ys.end());
  return *mid;
}

}  // namespace

void encode_fingerprint(const Fingerprint& fp, BitWriter& out) {
  const int k = deviation_baseline(fp);
  // Baseline (gamma-coded, value k+1 >= 1): O(log k) = O(loglog d) bits.
  out.write_gamma(static_cast<std::uint64_t>(k) + 1);
  for (const int y : fp.maxima) {
    if (y == kEmpty) {
      // Empty marker: sign=1 with unary 0 deviation is reserved; encode as
      // a dedicated bit pattern — flag bit 1.
      out.write_bit(true);
      continue;
    }
    out.write_bit(false);
    out.write_bit(y >= k);  // sign
    out.write_unary(std::abs(y - k));
  }
}

Fingerprint decode_fingerprint(BitReader& in, int t) {
  Fingerprint fp;
  fp.maxima.resize(static_cast<std::size_t>(t));
  const int k = static_cast<int>(in.read_gamma()) - 1;
  for (auto& y : fp.maxima) {
    if (in.read_bit()) {
      y = kEmpty;
      continue;
    }
    const bool nonneg = in.read_bit();
    const int dev = in.read_unary();
    y = nonneg ? k + dev : k - dev;
  }
  return fp;
}

int encoded_bits(const Fingerprint& fp) {
  BitWriter w;
  encode_fingerprint(fp, w);
  return w.bit_count();
}

int naive_encoded_bits(const Fingerprint& fp) {
  int y_max = 1;
  for (const int y : fp.maxima) y_max = std::max(y_max, y);
  const int width = ceil_log2(static_cast<std::uint64_t>(y_max) + 2);
  return fp.t() * width;
}

}  // namespace ccg::sketch
