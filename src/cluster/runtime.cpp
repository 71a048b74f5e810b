#include "cluster/runtime.hpp"

#include <algorithm>

namespace ccg::cluster {

void Runtime::charge(int h_rounds, int message_bits) {
  const int depth = std::max(1, cg_->epoch_depth());
  for (int i = 0; i < h_rounds; ++i) ledger_->charge(depth, message_bits);
}

}  // namespace ccg::cluster
