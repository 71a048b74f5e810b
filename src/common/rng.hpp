// Deterministic, splittable random number generation.
//
// Every randomized routine in the library takes an explicit Rng (or a seed),
// so simulations are reproducible bit-for-bit. Machines in the network
// simulator derive independent streams by splitting a master seed, mirroring
// the model assumption that each machine has private random bits
// (paper, Section 3.2).
//
// Generator: xoshiro256** (public domain, Blackman/Vigna), seeded via
// SplitMix64 as its authors recommend.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace ccg {

// SplitMix64 step; used for seeding and for cheap stateless mixing.
std::uint64_t splitmix64(std::uint64_t& state);

// Stateless mix of a key; handy to derive per-entity seeds.
std::uint64_t mix64(std::uint64_t x);

class Rng;

// Key-space separator for stream_rng; exposed so hot paths can cache the
// (seed, round)-dependent prefix of the key chain and still produce bits
// identical to stream_rng (see State::trial_rng).
inline constexpr std::uint64_t kStreamRngTag = 0x6C62272E07BB0142ULL;

// Counter-based stream derivation: an independent generator for every
// (seed, round, entity) triple. Unlike Rng::split(), which advances shared
// state and therefore forces a draw *order*, stream_rng is a pure function
// of its key — any worker thread can materialize any vertex's stream at
// any time and get the same bits. This is what makes the parallel round
// engine (exec/parallel_round.hpp) bit-identical for every thread count:
// each synchronized round bumps the round counter, and each participating
// entity (vertex, clique, matching pair, fingerprint trial) draws
// exclusively from stream_rng(seed, round, id). Entity ids only need to
// be unique *within* one round; a phase whose entities draw in two
// sub-phases must bump the round in between — re-deriving the same
// (round, entity) key restarts the stream and correlates the draws.
Rng stream_rng(std::uint64_t seed, std::uint64_t round, std::uint64_t entity);

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  // Raw 64 random bits.
  std::uint64_t next_u64();

  // Uniform in [0, bound). bound > 0. Unbiased (rejection sampling).
  std::uint64_t next_below(std::uint64_t bound);

  // Uniform double in [0, 1).
  double next_double();

  // Bernoulli(p).
  bool next_bool(double p);

  // Geometric variable with parameter lambda as defined in the paper
  // (Section 5.1): Pr[X = k] = lambda^k - lambda^(k+1), i.e.
  // Pr[X >= k] = lambda^k, supported on {0, 1, 2, ...}.
  // For lambda = 1/2 this counts fair-coin successes before the first
  // failure and is sampled by counting trailing one-bits.
  int next_geometric_half();

  // Derive an independent child generator (stream splitting).
  Rng split();

  // Fisher-Yates shuffle of [0, n) indices.
  std::vector<int> permutation(int n);

 private:
  std::uint64_t s_[4];
};

// Reusable (seed, round) -> per-entity stream factory. Caches the
// round-dependent prefix of the stream_rng key chain so the hot path pays
// one mix64 per entity; bits are identical to
// stream_rng(seed, round, entity). Phases that draw in two sub-phases must
// bump() in between (see stream_rng above); entity ids only need to be
// unique within one round.
class StreamCtx {
 public:
  explicit StreamCtx(std::uint64_t seed = 0) { reseed(seed); }

  // Restart the stream space for a new job/attempt: round goes back to 0.
  void reseed(std::uint64_t seed) {
    seed_ = seed;
    round_ = 0;
    rehash();
  }

  // Advance to the next synchronized round.
  void bump() {
    ++round_;
    rehash();
  }

  std::uint64_t round() const { return round_; }

  // Jump straight to `round` (same seed). fingerprint_matching_batch gives
  // each clique's task a copy set to that clique's own rounds, then moves
  // the shared stream to where clique-by-clique calls would leave it.
  void set_round(std::uint64_t round) {
    round_ = round;
    rehash();
  }

  // The private generator of `entity` for the current round.
  Rng rng_for(std::uint64_t entity) const {
    return Rng(mix64(base_ ^ entity));
  }

 private:
  void rehash() { base_ = mix64(mix64(seed_ ^ kStreamRngTag) ^ round_); }

  std::uint64_t seed_ = 0;
  std::uint64_t round_ = 0;
  std::uint64_t base_ = 0;
};

}  // namespace ccg
