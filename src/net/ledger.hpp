// Round and bandwidth accounting for the communication network.
//
// The simulator is "semantically exact, cost metered": primitives compute
// their results from global state (which equals what the distributed
// protocol would compute) but every invocation charges the protocol's cost
// here. Costs follow the model of Section 3.2 of the paper:
//
//  * One round on the cluster graph H ("H-round") = leader broadcast on the
//    support tree + computation on inter-cluster edges + aggregation back
//    to the leader. The theorems count H-rounds and hide the multiplicative
//    dilation d.
//  * On the network G, an H-round moving `bits`-bit messages costs
//    depth_factor * ceil(bits / B) rounds ("G-rounds"), where B is the link
//    bandwidth beta * ceil(log2 n) and depth_factor <= d+1 is the support
//    tree depth actually traversed (pipelined chunks).
//
// Messages larger than B are legal but are charged as multiple chunks; the
// ledger records the largest single logical message so benches can audit
// that core phases stay within O(log n) bits (experiment E15).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/assert.hpp"

namespace ccg::net {

struct PhaseCost {
  std::string name;
  std::int64_t h_rounds = 0;
  std::int64_t g_rounds = 0;
  int max_message_bits = 0;           // largest logical message
  int max_bits_per_link_round = 0;    // after chunking; always <= B
};

class Ledger {
 public:
  // bandwidth_bits: B, the per-link per-round budget.
  explicit Ledger(int bandwidth_bits) : bandwidth_(bandwidth_bits) {
    CCG_CHECK(bandwidth_bits >= 1);
  }

  int bandwidth() const { return bandwidth_; }

  // Rearm the ledger for a fresh run: zero every total, drop all phase
  // records, adopt the new bandwidth. Vector capacity survives, so a
  // serving loop that resets between jobs (src/svc/) performs no heap
  // allocation here once phases have reached their high-water count.
  void reset(int bandwidth_bits);

  // Charge one H-round: depth = G-hops traversed by the slowest cluster
  // (support-tree depth, or 1 for pure inter-cluster exchange);
  // message_bits = largest per-link logical message.
  void charge(int depth, int message_bits);

  // Phase bookkeeping. Phases may nest; costs accrue to every open phase.
  void begin_phase(const std::string& name);
  void end_phase();

  std::int64_t h_rounds() const { return totals_.h_rounds; }
  std::int64_t g_rounds() const { return totals_.g_rounds; }
  int max_message_bits() const { return totals_.max_message_bits; }
  int max_bits_per_link_round() const {
    return totals_.max_bits_per_link_round;
  }

  const std::vector<PhaseCost>& phases() const { return closed_phases_; }

  // Human-readable phase table.
  std::string report() const;

 private:
  // Adds one H-round of g G-rounds to pc.
  void accrue(PhaseCost& pc, std::int64_t g, int msg_bits,
              int link_round_bits);

  int bandwidth_;
  PhaseCost totals_{"total"};
  std::vector<PhaseCost> open_phases_;
  std::vector<PhaseCost> closed_phases_;
};

// RAII phase scope.
class PhaseScope {
 public:
  PhaseScope(Ledger& ledger, const std::string& name) : ledger_(ledger) {
    ledger_.begin_phase(name);
  }
  ~PhaseScope() { ledger_.end_phase(); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Ledger& ledger_;
};

}  // namespace ccg::net
