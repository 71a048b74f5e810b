#include "acd/acd.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>

#include "common/bits.hpp"
#include "common/mathutil.hpp"
#include "exec/parallel_round.hpp"
#include "sketch/approx_count.hpp"

namespace ccg::acd {

namespace {

// Oracle buddy test for one edge {u, v}: |N(u) ∪ N(v)| <= limit iff
// |N(u) ∩ N(v)| >= need with need = deg u + deg v - limit. `row` is N(u)
// as a dense bitset and `nv` is N(v) packed, so each packed word adds
// popcount(row[word] & mask) to the intersection. The words are summed in
// blocks with independent accumulators and one exit check per block,
// which stops as soon as the count reaches `need` (Yes) or cannot reach
// it even if every unseen neighbor of v matched (No). A check per word
// serializes the scan on its branch; a block keeps the loads independent.
bool shares_at_least(const std::uint64_t* row,
                     std::span<const NeighborWord> nv, std::int64_t need) {
  constexpr std::size_t kBlock = 8;
  const std::size_t words = nv.size();
  const std::int64_t deg = words == 0 ? 0 : nv[words - 1].upto;
  if (need <= 0) return true;
  if (need > deg) return false;
  const auto common_in = [&](std::size_t j) {
    return bits::popcount64(row[nv[j].word] & nv[j].mask);
  };
  std::int64_t common = 0;
  std::size_t i = 0;
  for (; i + kBlock <= words; i += kBlock) {
    int c0 = 0, c1 = 0, c2 = 0, c3 = 0;
    for (std::size_t j = i; j < i + kBlock; j += 4) {
      c0 += common_in(j);
      c1 += common_in(j + 1);
      c2 += common_in(j + 2);
      c3 += common_in(j + 3);
    }
    common += c0 + c1 + c2 + c3;
    if (common >= need || common + (deg - nv[i + kBlock - 1].upto) < need) {
      return common >= need;
    }
  }
  for (; i < words; ++i) common += common_in(i);
  return common >= need;
}

// Per-row prefix sums over H's rows: off[u + 1] - off[u] = weight(u) for
// the rows u in `rows` and 0 for the others. One parallel pass sharded
// over `rows` with per-row disjoint writes, then one sequential sum. The
// passes' weights are zero on most rows, so listing only the rest makes
// the shards split the rows that do work.
template <class Weight>
void row_prefix(const graph::Graph& h, const std::vector<int>& rows,
                exec::ParallelRound* par, Weight&& weight,
                std::vector<std::int64_t>* off) {
  const int n = h.n();
  off->assign(static_cast<std::size_t>(n) + 1, 0);
  exec::shards_or_inline(par, static_cast<std::int64_t>(rows.size()),
                         [&](int, std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      const int u = rows[static_cast<std::size_t>(i)];
      (*off)[static_cast<std::size_t>(u) + 1] = weight(u);
    }
  });
  for (std::size_t u = 0; u < static_cast<std::size_t>(n); ++u) {
    (*off)[u + 1] += (*off)[u];
  }
}

// First row of part p when the rows split into `parts` consecutive runs of
// about equal weight (off: per-row prefix sums, row_prefix output or
// h.upper_offsets()). Part p owns rows [part_begin(p), part_begin(p + 1));
// the last part ends at n.
int part_begin(std::span<const std::int64_t> off, int parts,
               std::int64_t p) {
  const auto rows = static_cast<int>(off.size()) - 1;
  if (p >= parts) return rows;
  return static_cast<int>(std::lower_bound(off.begin(), off.end() - 1,
                                           off.back() * p / parts) -
                          off.begin());
}

// Runs fn(p, begin, end) for every part p of the rows, split into one run
// [begin, end) per worker of about equal weight (off: as for part_begin);
// part p runs on worker p.
template <class Fn>
void for_row_parts(exec::ParallelRound* par,
                   std::span<const std::int64_t> off, Fn&& fn) {
  const int parts = par ? par->workers() : 1;
  exec::shards_or_inline(par, parts, [&](int, std::int64_t b,
                                         std::int64_t e) {
    for (std::int64_t p = b; p < e; ++p) {
      fn(static_cast<int>(p), part_begin(off, parts, p),
         part_begin(off, parts, p + 1));
    }
  });
}

// Runs fn(worker, u) for every row u, the rows split as in for_row_parts.
template <class Fn>
void for_rows_by_weight(exec::ParallelRound* par,
                        std::span<const std::int64_t> off, Fn&& fn) {
  for_row_parts(par, off, [&](int w, int b, int e) {
    for (int u = b; u < e; ++u) fn(w, u);
  });
}

// Packs N(v) of every high vertex into one NeighborWord per 64-bit word it
// occupies: a word count over the high rows, then one fill sharded by
// those counts. CSR rows are sorted, so the neighbors sharing a word are
// adjacent. The fill stores a row's words that hold two or more neighbors
// from the front of its slice and its one-neighbor words from the back,
// then one pass over the slice sets `upto` to the running neighbor count
// in that order. Dense words first let shares_at_least decide most edges
// in its first block; its exits are exact in any word order, so the flags
// do not change.
void pack_high_rows(const graph::Graph& h, exec::ParallelRound* par,
                    AcdScratch& s) {
  row_prefix(
      h, s.high_rows, par,
      [&](int v) {
        std::int64_t words = 0;
        int last = -1;
        for (const int w : h.neighbors(v)) {
          words += (w >> 6) != last;
          last = w >> 6;
        }
        return words;
      },
      &s.word_off);
  s.packed.resize(static_cast<std::size_t>(s.word_off.back()));
  for_rows_by_weight(par, s.word_off, [&](int, int v) {
    if (!s.high[static_cast<std::size_t>(v)]) return;
    const auto nv = h.neighbors(v);
    NeighborWord* const first =
        s.packed.data() + s.word_off[static_cast<std::size_t>(v)];
    NeighborWord* const last =
        s.packed.data() + s.word_off[static_cast<std::size_t>(v) + 1];
    NeighborWord* front = first;
    NeighborWord* back = last;
    for (std::size_t i = 0; i < nv.size();) {
      const int word = nv[i] >> 6;
      const std::size_t begin = i;
      std::uint64_t mask = 0;
      for (; i < nv.size() && (nv[i] >> 6) == word; ++i) {
        mask |= std::uint64_t{1} << (nv[i] & 63);
      }
      *(i - begin >= 2 ? front++ : --back) = {mask, word, 0};
    }
    std::int32_t upto = 0;
    for (NeighborWord* x = first; x != last; ++x) {
      upto += bits::popcount64(x->mask);
      x->upto = upto;
    }
  });
}

// Oracle buddy flags: the flag of upper-triangle slot {u, v} is 1 iff both
// endpoints pass the high-degree filter and |N(u) ∪ N(v)| <= limit. Only
// rows of high vertices do work: row u loads its packed words into the
// worker's dense bitset, tests each high upper neighbor v against it and
// clears the words again. Rows are sharded by a prefix sum of the packed
// words they read; every slot is written by the one shard owning its row,
// so the flags are partition-independent.
void oracle_buddy_flags(const graph::Graph& h, exec::ParallelRound* par,
                        std::int64_t limit, AcdScratch& s) {
  pack_high_rows(h, par, s);
  const auto packed_row = [&s](int v) {
    const auto b = s.word_off[static_cast<std::size_t>(v)];
    return std::span<const NeighborWord>(
        s.packed.data() + b,
        static_cast<std::size_t>(s.word_off[static_cast<std::size_t>(v) + 1] -
                                 b));
  };
  // Only high rows do work: low rows pack no words and scan nothing.
  row_prefix(
      h, s.high_rows, par,
      [&](int u) {
        auto work = static_cast<std::int64_t>(packed_row(u).size());
        for (const int v : h.upper_neighbors(u)) {
          work += static_cast<std::int64_t>(packed_row(v).size());
        }
        return work;
      },
      &s.work_off);
  const int parts = par ? par->workers() : 1;
  if (s.row_bits.size() < static_cast<std::size_t>(parts)) {
    s.row_bits.resize(static_cast<std::size_t>(parts));
  }
  for (int w = 0; w < parts; ++w) {
    s.row_bits[static_cast<std::size_t>(w)].assign(
        (static_cast<std::size_t>(h.n()) + 63) / 64, 0);
  }
  for_rows_by_weight(par, s.work_off, [&](int w, int u) {
    const auto up = h.upper_neighbors(u);
    char* flag =
        s.buddy.data() + h.upper_offsets()[static_cast<std::size_t>(u)];
    if (!s.high[static_cast<std::size_t>(u)]) {
      std::fill(flag, flag + up.size(), 0);
      return;
    }
    std::uint64_t* row = s.row_bits[static_cast<std::size_t>(w)].data();
    const auto nu = packed_row(u);
    for (const auto& x : nu) row[x.word] = x.mask;
    for (std::size_t j = 0; j < up.size(); ++j) {
      const int v = up[j];
      flag[j] = s.high[static_cast<std::size_t>(v)] &&
                shares_at_least(row, packed_row(v),
                                h.degree(u) + h.degree(v) - limit);
    }
    for (const auto& x : nu) row[x.word] = 0;
  });
}

// Union-find root of v with path halving. Sets are linked larger root
// under smaller (link_roots), so a root is its set's smallest vertex.
int find_root(int* parent, int v) {
  while (parent[v] != v) {
    parent[v] = parent[parent[v]];
    v = parent[v];
  }
  return v;
}

// Links the distinct roots a and b; returns the merged set's root.
int link_roots(int* parent, int a, int b) {
  if (a > b) std::swap(a, b);
  parent[b] = a;
  return a;
}

// Steps 3-4 from the slot flags: buddy degrees, the dense candidates and
// the connected components of the candidate-restricted buddy graph, with
// the ids and member lists of the components large enough to be
// almost-cliques. The rows split into parts of about equal slot count. Part
// p counts its buddy slots per endpoint into its own array; a candidate's
// buddy degree is the sum over the parts. Part p then unites the endpoints
// of its candidate-candidate buddy slots in its own forest (the same
// array), and the calling thread merges the forests into part 0's. Ids,
// labels and members come from ascending passes over the final forest, so
// they do not depend on the number of parts.
void almost_cliques(const graph::Graph& h, exec::ParallelRound* par,
                    double candidate_bar, int min_size, AcdResult& res,
                    AcdScratch& s) {
  const int n = h.n();
  const auto nu = static_cast<std::size_t>(n);
  const auto slot_off = h.upper_offsets();
  const int parts = par ? par->workers() : 1;
  if (s.forests.size() < static_cast<std::size_t>(parts)) {
    s.forests.resize(static_cast<std::size_t>(parts));
  }
  for_row_parts(par, slot_off, [&](int p, int b, int e) {
    auto& count = s.forests[static_cast<std::size_t>(p)];
    count.assign(nu, 0);
    for (int u = b; u < e; ++u) {
      const auto up = h.upper_neighbors(u);
      const char* flag =
          s.buddy.data() + slot_off[static_cast<std::size_t>(u)];
      for (std::size_t j = 0; j < up.size(); ++j) {
        count[static_cast<std::size_t>(u)] += flag[j];
        count[static_cast<std::size_t>(up[j])] += flag[j];
      }
    }
  });
  s.candidate.resize(nu);
  exec::shards_or_inline(par, n, [&](int, std::int64_t b, std::int64_t e) {
    for (auto v = static_cast<std::size_t>(b);
         v < static_cast<std::size_t>(e); ++v) {
      int degree = 0;
      for (int p = 0; p < parts; ++p) {
        degree += s.forests[static_cast<std::size_t>(p)][v];
      }
      s.candidate[v] = static_cast<double>(degree) >= candidate_bar;
    }
  });
  for_row_parts(par, slot_off, [&](int p, int b, int e) {
    int* parent = s.forests[static_cast<std::size_t>(p)].data();
    for (int v = 0; v < n; ++v) parent[v] = v;
    for (int u = b; u < e; ++u) {
      if (!s.candidate[static_cast<std::size_t>(u)]) continue;
      const auto up = h.upper_neighbors(u);
      const char* flag =
          s.buddy.data() + slot_off[static_cast<std::size_t>(u)];
      int ru = find_root(parent, u);
      for (std::size_t j = 0; j < up.size(); ++j) {
        if (!flag[j] || !s.candidate[static_cast<std::size_t>(up[j])]) {
          continue;
        }
        const int rv = find_root(parent, up[j]);
        if (rv != ru) ru = link_roots(parent, ru, rv);
      }
    }
  });
  int* root = s.forests[0].data();
  for (int p = 1; p < parts; ++p) {
    const int* other = s.forests[static_cast<std::size_t>(p)].data();
    for (int v = 0; v < n; ++v) {
      if (other[v] == v) continue;
      const int a = find_root(root, v);
      const int b = find_root(root, other[v]);
      if (a != b) link_roots(root, a, b);
    }
  }
  // Point every candidate at its root and count the sets' sizes there; then
  // number the sets of at least min_size members by their smallest vertex,
  // which an ascending pass meets before the rest of its set.
  s.label.assign(nu, 0);
  for (int v = 0; v < n; ++v) {
    if (!s.candidate[static_cast<std::size_t>(v)]) continue;
    root[v] = find_root(root, v);
    ++s.label[static_cast<std::size_t>(root[v])];
  }
  for (int v = 0; v < n; ++v) {
    if (!s.candidate[static_cast<std::size_t>(v)]) continue;
    int& id = s.label[static_cast<std::size_t>(root[v])];
    if (root[v] == v) {
      if (id < min_size) {
        id = -1;
        continue;
      }
      id = res.num_cliques++;
      // Grow-only member storage: reuse the inner vector of this id when a
      // previous run left one behind.
      if (static_cast<int>(res.members.size()) < res.num_cliques) {
        res.members.emplace_back();
      }
      res.members[static_cast<std::size_t>(id)].clear();
    }
    if (id < 0) continue;
    res.clique_of[static_cast<std::size_t>(v)] = id;
    res.members[static_cast<std::size_t>(id)].push_back(v);
  }
}

void attempt(cluster::Runtime& rt, const AcdParams& params,
             StreamCtx& streams, AcdResult& res, AcdScratch& s) {
  const auto& h = rt.h();
  const int n = h.n();
  const int delta = rt.delta();
  // Buddy-predicate slack. The paper cascades xi' = 2 xi / c (Lemma 5.8)
  // purely for the union-bound bookkeeping; operationally a single xi at
  // the eps scale realizes the same predicate, and planted instances need
  // (2 e_v + 2 a_v) <= ~xi * Delta to be detected.
  const double xi = params.xi > 0 ? params.xi : params.eps;

  sketch::CountOptions opt;
  opt.t = params.t;
  opt.measure_bits = params.measure_bits;

  res.reset(n);
  // One buddy flag per edge slot of h (Graph::upper_offsets).
  s.buddy.resize(static_cast<std::size_t>(h.m()));

  // High-degree filter (Lemma 5.8): low-degree vertices answer No.
  const auto mark_high = [&] {
    s.high.resize(static_cast<std::size_t>(n));
    s.high_rows.clear();
    for (int v = 0; v < n; ++v) {
      const bool high = res.degree_est[static_cast<std::size_t>(v)] >=
                        (1.0 - 2.0 * xi) * delta;
      s.high[static_cast<std::size_t>(v)] = high;
      if (high) s.high_rows.push_back(v);
    }
  };

  // Steps 1-2 leave one buddy flag per upper-triangle slot in s.buddy.
  if (params.use_fingerprints) {
    // Step 1: degree estimates. The sampling draws from per-(round,
    // vertex) counter streams — sharded by params.par with bit-identical
    // results for every worker count. Samples and aggregates live in the
    // grow-only scratch, so warm attempts run the whole estimation
    // without per-vertex buffer rebuilds.
    streams.bump();
    sketch::sample_raw_fingerprints_stream(n, params.t, streams,
                                           params.par, &s.raw);
    sketch::neighborhood_counts_into(
        rt, s.raw, [](int, int) { return true; }, opt, &s.counts);
    res.degree_est = s.counts.estimate;
    mark_high();
    // Step 2: joint-neighborhood estimates from a fresh sampling (the
    // paper samples new variables for the union step).
    streams.bump();
    sketch::sample_raw_fingerprints_stream(n, params.t, streams,
                                           params.par, &s.raw);
    sketch::neighborhood_counts_into(
        rt, s.raw, [](int, int) { return true; }, opt, &s.counts);
    sketch::edge_union_estimates_into(rt, s.counts, opt, &s.union_est);
    for_rows_by_weight(params.par, h.upper_offsets(), [&](int, int u) {
      auto e = static_cast<std::size_t>(
          h.upper_offsets()[static_cast<std::size_t>(u)]);
      for (const int v : h.upper_neighbors(u)) {
        s.buddy[e] = s.high[static_cast<std::size_t>(u)] &&
                     s.high[static_cast<std::size_t>(v)] &&
                     s.union_est[e] <= (1.0 + xi) * delta;
        ++e;
      }
    });
  } else {
    // Oracle mode: exact values, identical round charges. The union is an
    // integer, so union <= (1 + xi) Delta iff it is <= the floor.
    for (int v = 0; v < n; ++v) {
      res.degree_est[static_cast<std::size_t>(v)] = h.degree(v);
    }
    rt.charge(1, 2 * params.t + 16);
    mark_high();
    oracle_buddy_flags(
        h, params.par,
        static_cast<std::int64_t>(std::floor((1.0 + xi) * delta)), s);
    rt.charge(3, 2 * params.t + 16);
  }

  // Step 3: buddy-degree threshold. Counting buddy edges is one more
  // fingerprint aggregation (predicate known at link machines); the count
  // here is exact adjacency size, noise already lives in the buddy set.
  rt.charge(1, 2 * params.t + 16);
  // Step 4: connected components of the candidate-restricted buddy graph
  // (diameter <= 2 per [ACK19]; leader election is an O(1)-round BFS,
  // Lemma 3.2). Components too small to be almost-cliques stay sparse.
  rt.charge(3, 2 * ceil_log2(static_cast<std::uint64_t>(std::max(2, n))));
  almost_cliques(h, params.par, (1.0 - 2.0 * xi) * delta,
                 std::max(2, delta / 2), res, s);
}

}  // namespace

void compute_acd(cluster::Runtime& rt, const AcdParams& params,
                 StreamCtx& streams, AcdResult* out, AcdScratch* scratch) {
  const int delta = rt.delta();
  const int max_size =
      static_cast<int>((1.0 + 3.0 * params.eps) * delta) + 1;
  // A fingerprint attempt draws fresh samples, so a merge can clear on
  // retry. An oracle attempt draws nothing and ignores t: it would only
  // repeat itself.
  const int attempts = params.use_fingerprints ? 3 : 1;
  for (int tries = 0; tries < attempts; ++tries) {
    attempt(rt, params, streams, *out, *scratch);
    bool ok = true;
    for (int id = 0; id < out->num_cliques; ++id) {
      if (static_cast<int>(
              out->members[static_cast<std::size_t>(id)].size()) >
          max_size) {
        ok = false;
        break;
      }
    }
    if (ok) return;
  }
  CCG_CHECK_MSG(!params.use_fingerprints,
                "ACD failed 3 attempts: merged almost-cliques; "
                "raise AcdParams::t");
  CCG_CHECK_MSG(false, "oracle ACD merged almost-cliques past (1 + 3 eps) "
                       "Delta; lower AcdParams::eps");
}

AcdResult compute_acd(cluster::Runtime& rt, const AcdParams& params,
                      Rng& rng) {
  StreamCtx streams(rng.next_u64());
  AcdScratch scratch;
  AcdResult res;
  compute_acd(rt, params, streams, &res, &scratch);
  return res;
}

bool verify_almost_cliques(const graph::Graph& h, const AcdResult& acd,
                           double eps_prime, std::string* why) {
  const int delta = h.max_degree();
  for (int id = 0; id < acd.num_cliques; ++id) {
    const auto& members = acd.members[static_cast<std::size_t>(id)];
    const auto size = static_cast<double>(members.size());
    if (size > (1.0 + eps_prime) * delta) {
      if (why) {
        *why = "clique " + std::to_string(id) + " too large: " +
               std::to_string(members.size());
      }
      return false;
    }
    for (const int v : members) {
      int inside = 0;
      for (const int u : h.neighbors(v)) {
        if (acd.clique_of[static_cast<std::size_t>(u)] == id) ++inside;
      }
      if (inside < (1.0 - eps_prime) * size) {
        if (why) {
          *why = "vertex " + std::to_string(v) + " has only " +
                 std::to_string(inside) + " neighbors in its clique of size " +
                 std::to_string(members.size());
        }
        return false;
      }
    }
  }
  return true;
}

void split_neighborhoods(const graph::Graph& h, const AcdResult& acd,
                         exec::ParallelRound* par, DenseInfo* out) {
  const auto nu = static_cast<std::size_t>(h.n());
  DenseInfo& info = *out;
  // Sparse rows stay empty; only the members of the cliques do work, so
  // both passes shard over the cliques. Per-row disjoint writes.
  info.ext_off.assign(nu + 1, 0);
  info.anti_off.assign(nu + 1, 0);
  const auto for_members = [&](auto&& fn) {
    exec::shards_or_inline(par, acd.num_cliques, [&](int, std::int64_t b,
                                                     std::int64_t e) {
      for (auto k = static_cast<std::size_t>(b);
           k < static_cast<std::size_t>(e); ++k) {
        const auto& mem = acd.members[k];
        for (const int v : mem) fn(static_cast<int>(k), mem, v);
      }
    });
  };
  // Count: |N(v) ∩ K| fixes both row lengths, e_v = deg v - |N(v) ∩ K| and
  // a_v = |K| - 1 - |N(v) ∩ K|.
  for_members([&](int k, const std::vector<int>& mem, int v) {
    int inside = 0;
    for (const int u : h.neighbors(v)) {
      inside += acd.clique_of[static_cast<std::size_t>(u)] == k;
    }
    info.ext_off[static_cast<std::size_t>(v) + 1] = h.degree(v) - inside;
    info.anti_off[static_cast<std::size_t>(v) + 1] =
        static_cast<std::int64_t>(mem.size()) - 1 - inside;
  });
  for (std::size_t v = 0; v < nu; ++v) {
    info.ext_off[v + 1] += info.ext_off[v];
    info.anti_off[v + 1] += info.anti_off[v];
  }
  info.ext_adj.resize(static_cast<std::size_t>(info.ext_off[nu]));
  info.anti_adj.resize(static_cast<std::size_t>(info.anti_off[nu]));
  // Fill: N(v) and the members of K are both ascending, so one merged walk
  // emits ext(v) (the neighbors outside K) and anti(v) (the members N(v)
  // skips, v aside), each in ascending order.
  for_members([&](int k, const std::vector<int>& mem, int v) {
    int* ext = info.ext_adj.data() + info.ext_off[static_cast<std::size_t>(v)];
    int* anti =
        info.anti_adj.data() + info.anti_off[static_cast<std::size_t>(v)];
    std::size_t m = 0;
    for (const int u : h.neighbors(v)) {
      if (acd.clique_of[static_cast<std::size_t>(u)] != k) {
        *ext++ = u;
        continue;
      }
      for (; mem[m] < u; ++m) {
        if (mem[m] != v) *anti++ = mem[m];
      }
      CCG_ASSERT(mem[m] == u);
      ++m;
    }
    for (; m < mem.size(); ++m) {
      if (mem[m] != v) *anti++ = mem[m];
    }
  });
}

void annotate_dense(cluster::Runtime& rt, const AcdResult& acd, double ell,
                    int t, bool use_fingerprints, StreamCtx& streams,
                    exec::ParallelRound* par, DenseInfo* out,
                    AcdScratch* scratch) {
  const auto& h = rt.h();
  const int n = h.n();
  DenseInfo& info = *out;
  info.ext_est.assign(static_cast<std::size_t>(n), 0.0);
  split_neighborhoods(h, acd, par, &info);

  if (use_fingerprints) {
    sketch::CountOptions opt;
    opt.t = t;
    AcdScratch local;
    AcdScratch& s = scratch != nullptr ? *scratch : local;
    streams.bump();
    sketch::sample_raw_fingerprints_stream(n, t, streams, par, &s.raw);
    sketch::neighborhood_counts_into(
        rt, s.raw,
        [&acd](int v, int u) {
          return acd.clique_of[static_cast<std::size_t>(v)] >= 0 &&
                 acd.clique_of[static_cast<std::size_t>(u)] !=
                     acd.clique_of[static_cast<std::size_t>(v)];
        },
        opt, &s.counts);
    for (int v = 0; v < n; ++v) {
      if (acd.clique_of[static_cast<std::size_t>(v)] >= 0) {
        info.ext_est[static_cast<std::size_t>(v)] =
            s.counts.estimate[static_cast<std::size_t>(v)];
      }
    }
  } else {
    // Exact external degrees: the lengths of the ext rows.
    for (int v = 0; v < n; ++v) {
      info.ext_est[static_cast<std::size_t>(v)] =
          static_cast<double>(info.ext(v).size());
    }
    rt.charge(1, 2 * t + 16);
  }

  // Exact |K| and averages by aggregation on a clique-spanning BFS tree
  // (almost-cliques have diameter <= 2): O(1) rounds.
  rt.charge(2, 64);
  info.clique_size.assign(static_cast<std::size_t>(acd.num_cliques), 0);
  info.avg_ext_est.assign(static_cast<std::size_t>(acd.num_cliques), 0.0);
  for (int v = 0; v < n; ++v) {
    const int kv = acd.clique_of[static_cast<std::size_t>(v)];
    if (kv < 0) continue;
    ++info.clique_size[static_cast<std::size_t>(kv)];
    info.avg_ext_est[static_cast<std::size_t>(kv)] +=
        info.ext_est[static_cast<std::size_t>(v)];
  }
  info.is_cabal.assign(static_cast<std::size_t>(acd.num_cliques), false);
  for (int k = 0; k < acd.num_cliques; ++k) {
    if (info.clique_size[static_cast<std::size_t>(k)] > 0) {
      info.avg_ext_est[static_cast<std::size_t>(k)] /=
          info.clique_size[static_cast<std::size_t>(k)];
    }
    info.is_cabal[static_cast<std::size_t>(k)] =
        info.avg_ext_est[static_cast<std::size_t>(k)] < ell;
  }
}

DenseInfo annotate_dense(cluster::Runtime& rt, const AcdResult& acd,
                         double ell, int t, bool use_fingerprints,
                         Rng& rng, exec::ParallelRound* par) {
  StreamCtx streams(rng.next_u64());
  DenseInfo info;
  annotate_dense(rt, acd, ell, t, use_fingerprints, streams, par, &info);
  return info;
}

}  // namespace ccg::acd
