// Bit-level writer/reader.
//
// Message sizes are the currency of this reproduction: the paper's
// contribution hinges on fitting fingerprints and color descriptions into
// O(log n)-bit messages. Every payload that crosses a link in the network
// simulator is encoded through a BitWriter so its size in *bits* is exact,
// not estimated. The fingerprint deviation codec (paper, Lemma 5.6) and the
// block-offset color encoding (Section 7, Eq. 11) are built on these.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace ccg {

class BitWriter {
 public:
  // Append the low `width` bits of `value` (LSB first). width in [0, 64].
  void write_bits(std::uint64_t value, int width);

  // Append a single bit.
  void write_bit(bool b);

  // Unary encoding: `value` one-bits followed by a zero terminator.
  // Used by the fingerprint deviation codec.
  void write_unary(int value);

  // Elias-gamma code for value >= 1 (floor(log2 v) zeros, then v's bits).
  // Self-delimiting; used for unbounded small integers.
  void write_gamma(std::uint64_t value);

  int bit_count() const { return bit_count_; }
  const std::vector<std::uint64_t>& words() const { return words_; }

 private:
  std::vector<std::uint64_t> words_;
  int bit_count_ = 0;
};

class BitReader {
 public:
  explicit BitReader(const BitWriter& w)
      : words_(&w.words()), total_bits_(w.bit_count()) {}

  std::uint64_t read_bits(int width);
  bool read_bit();
  int read_unary();
  std::uint64_t read_gamma();

 private:
  const std::vector<std::uint64_t>* words_;
  int total_bits_ = 0;
  int pos_ = 0;
};

}  // namespace ccg
