#include "cluster/runtime.hpp"

#include <algorithm>
#include <queue>
#include <unordered_map>
#include <unordered_set>

namespace ccg::cluster {

void Runtime::charge(int h_rounds, int message_bits) {
  const int depth = std::max(1, cg_->epoch_depth());
  for (int i = 0; i < h_rounds; ++i) ledger_->charge(depth, message_bits);
}

HTree Runtime::build_htree(const std::vector<int>& subset, int root,
                           int max_hops) const {
  CCG_CHECK(max_hops >= 0);
  std::unordered_set<int> in_subset(subset.begin(), subset.end());
  CCG_CHECK_MSG(in_subset.count(root) == 1, "root not in subset");
  HTree t;
  std::unordered_map<int, int> index;
  t.members.push_back(root);
  t.parent.push_back(-1);
  t.depth.push_back(0);
  index[root] = 0;
  std::queue<int> q;
  q.push(0);
  while (!q.empty()) {
    const int i = q.front();
    q.pop();
    const int v = t.members[static_cast<std::size_t>(i)];
    const int dv = t.depth[static_cast<std::size_t>(i)];
    if (dv == max_hops) continue;
    for (const int u : h().neighbors(v)) {
      if (!in_subset.count(u) || index.count(u)) continue;
      index[u] = t.size();
      t.members.push_back(u);
      t.parent.push_back(i);
      t.depth.push_back(dv + 1);
      q.push(t.size() - 1);
    }
  }
  t.height = *std::max_element(t.depth.begin(), t.depth.end());
  return t;
}

std::vector<std::int64_t> Runtime::prefix_sums(
    const HTree& t, const std::vector<std::int64_t>& values) const {
  CCG_CHECK(values.size() == t.members.size());
  std::vector<std::int64_t> out(values.size(), 0);
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[i] = acc;
    acc += values[i];
  }
  return out;
}

std::vector<int> Runtime::random_groups(const std::vector<int>& members,
                                        int x, Rng& rng) const {
  CCG_CHECK(x >= 1);
  std::vector<int> group(members.size());
  for (auto& g : group) {
    g = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(x)));
  }
  return group;
}

bool Runtime::verify_random_groups(const std::vector<int>& members,
                                   const std::vector<int>& group_of,
                                   int x) const {
  CCG_CHECK(members.size() == group_of.size());
  // Group sizes.
  std::vector<int> size(static_cast<std::size_t>(x), 0);
  std::unordered_map<int, int> group_of_vertex;
  for (std::size_t i = 0; i < members.size(); ++i) {
    ++size[static_cast<std::size_t>(group_of[i])];
    group_of_vertex[members[i]] = group_of[i];
  }
  for (const int s : size) {
    if (s == 0) return false;
  }
  // Each member adjacent to more than half of every group (Lemma 4.4).
  for (const int v : members) {
    std::vector<int> adj_count(static_cast<std::size_t>(x), 0);
    for (const int u : h().neighbors(v)) {
      const auto it = group_of_vertex.find(u);
      if (it != group_of_vertex.end()) {
        ++adj_count[static_cast<std::size_t>(it->second)];
      }
    }
    for (int g = 0; g < x; ++g) {
      int others = size[static_cast<std::size_t>(g)];
      if (group_of_vertex[v] == g) --others;
      if (others > 0 &&
          2 * adj_count[static_cast<std::size_t>(g)] <= others) {
        return false;
      }
    }
  }
  return true;
}

std::vector<int> Runtime::neighbors_where(
    int v, const std::function<bool(int)>& pred) const {
  std::vector<int> out;
  neighbors_where(v, pred, &out);
  return out;
}

}  // namespace ccg::cluster
