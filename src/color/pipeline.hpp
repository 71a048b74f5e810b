// The high-degree (Delta + 1)-coloring pipeline (paper, Algorithm 3,
// Theorem 1.2): ComputeACD -> SlackGeneration (outside cabals) ->
// ColoringSparse -> ColoringNonCabals (Algorithm 4) -> ColoringCabals
// (Algorithm 5). Every phase is exposed individually for tests and the
// per-phase benches; run_high_degree() assembles them and validates the
// result.
//
// Every randomized phase past ComputeACD runs on the parallel round
// engine (src/exec/) with counter-based per-(seed, round, entity) RNG
// streams: the full pipeline coloring is bit-identical for every
// Params::threads value (pinned end-to-end by tests/test_pipeline.cpp and
// per round by tests/test_exec.cpp).
#pragma once

#include <vector>

#include "color/coloring.hpp"
#include "net/ledger.hpp"

namespace ccg::color {

struct Result {
  std::vector<int> colors;
  int num_colors = 0;
  std::int64_t h_rounds = 0;
  std::int64_t g_rounds = 0;
  int max_message_bits = 0;
  int max_bits_per_link_round = 0;
  std::vector<net::PhaseCost> phases;
  int fallback_count = 0;
  int retry_count = 0;
  int num_cliques = 0;
  int num_cabals = 0;
  int sparse_count = 0;
  int dilation = 0;
};

// ComputeACD + dense annotations + reserved colors + palettes.
void build_dense_context(State& st);

// Phase implementations (Algorithm 3 lines 2-5).
void coloring_sparse(State& st);
void coloring_noncabals(State& st);
void coloring_cabals(State& st);

// Full Theorem 1.2 pipeline, incl. the safety net and the properness
// check. Produces a proper (Delta+1)-coloring on any input; the
// O(log* n)-round guarantee applies when Delta >= params.delta_low(n).
// `st` must be freshly constructed or State::reset (ccg::Solver keeps one
// State per session and resets it between jobs). Read results off st
// (phi, fallback_count, the runtime's ledger) or via finalize_result(st).
void run_high_degree(State& st);

// Collects ledger totals + structural counts from a finished state.
Result finalize_result(State& st);

// Capacity-preserving reset of a reused Result: clears the vectors and
// zeroes every scalar without deallocating, so serving loops can recycle
// one Result across jobs allocation-free.
void reset_result(Result* res);

// Write-into-caller-buffer core of finalize_result (and the single
// source of truth for its field set — extend all Result handling here).
// Resets *res, fills the scalar stats, and copies the coloring + phase
// records only when copy_colors (the zero-alloc serving path reads the
// coloring off st.phi instead).
void finalize_result_into(const State& st, bool copy_colors, Result* res);

}  // namespace ccg::color
