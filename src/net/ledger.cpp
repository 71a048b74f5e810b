#include "net/ledger.hpp"

#include <algorithm>
#include <sstream>

#include "common/mathutil.hpp"

namespace ccg::net {

void Ledger::accrue(PhaseCost& pc, std::int64_t g, int msg_bits,
                    int link_round_bits) {
  ++pc.h_rounds;
  pc.g_rounds += g;
  pc.max_message_bits = std::max(pc.max_message_bits, msg_bits);
  pc.max_bits_per_link_round =
      std::max(pc.max_bits_per_link_round, link_round_bits);
}

void Ledger::reset(int bandwidth_bits) {
  CCG_CHECK(bandwidth_bits >= 1);
  bandwidth_ = bandwidth_bits;
  totals_.h_rounds = 0;
  totals_.g_rounds = 0;
  totals_.max_message_bits = 0;
  totals_.max_bits_per_link_round = 0;
  open_phases_.clear();
  closed_phases_.clear();
}

void Ledger::charge(int depth, int message_bits) {
  CCG_CHECK(depth >= 1 && message_bits >= 0);
  const std::int64_t chunks =
      message_bits == 0 ? 1 : ceil_div(message_bits, bandwidth_);
  const std::int64_t g = static_cast<std::int64_t>(depth) * chunks;
  const int link_round_bits = std::min(message_bits, bandwidth_);
  accrue(totals_, g, message_bits, link_round_bits);
  for (auto& pc : open_phases_) accrue(pc, g, message_bits, link_round_bits);
}

void Ledger::begin_phase(const std::string& name) {
  open_phases_.push_back(PhaseCost{name});
}

void Ledger::end_phase() {
  CCG_CHECK_MSG(!open_phases_.empty(), "end_phase without begin_phase");
  closed_phases_.push_back(open_phases_.back());
  open_phases_.pop_back();
}

std::string Ledger::report() const {
  std::ostringstream os;
  os << "phase                              H-rounds   G-rounds   maxMsg(b)  "
        "maxLink(b)\n";
  const auto row = [&os](const PhaseCost& pc) {
    os << pc.name;
    for (std::size_t i = pc.name.size(); i < 35; ++i) os << ' ';
    os << pc.h_rounds << "\t" << pc.g_rounds << "\t" << pc.max_message_bits
       << "\t" << pc.max_bits_per_link_round << "\n";
  };
  for (const auto& pc : closed_phases_) row(pc);
  row(totals_);
  return os.str();
}

}  // namespace ccg::net
