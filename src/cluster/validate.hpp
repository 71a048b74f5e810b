// Exact validators for colorings and decompositions.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace ccg::exec {
class ParallelRound;
}  // namespace ccg::exec

namespace ccg::cluster {

inline constexpr int kUncolored = -1;  // the paper's ⊥

// A (partial) coloring is proper if no H-edge is monochromatic among
// colored endpoints. Each edge is read once, from the row of its lower
// endpoint. With `par` the rows shard on the round engine (a fork, so a
// cancellation point: it throws CancelledError once par's token expires);
// the answer does not depend on the worker count.
bool is_proper_partial(const graph::Graph& h, const std::vector<int>& color,
                       exec::ParallelRound* par = nullptr);

// Total + proper + every color in [0, num_colors).
bool is_proper_total(const graph::Graph& h, const std::vector<int>& color,
                     int num_colors, exec::ParallelRound* par = nullptr);

// Throwing versions for tests and pipeline post-conditions: they throw
// ContractViolation exactly when the boolean forms return false, naming
// the first uncolored or out-of-range vertex when there is one.
void check_proper_partial(const graph::Graph& h,
                          const std::vector<int>& color,
                          exec::ParallelRound* par = nullptr);
void check_proper_total(const graph::Graph& h, const std::vector<int>& color,
                        int num_colors, exec::ParallelRound* par = nullptr);

int count_uncolored(const std::vector<int>& color);

}  // namespace ccg::cluster
