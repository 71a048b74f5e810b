#include "acd/acd.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>

#include "common/bits.hpp"
#include "common/mathutil.hpp"
#include "exec/parallel_round.hpp"
#include "graph/stats.hpp"
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

// Per-row prefix sums over H's rows: off[u + 1] - off[u] = weight(u), one
// parallel pass with per-row disjoint writes, then one sequential sum.
template <class Weight>
void row_prefix(const graph::Graph& h, exec::ParallelRound* par,
                Weight&& weight, std::vector<std::int64_t>* off) {
  const int n = h.n();
  off->resize(static_cast<std::size_t>(n) + 1);
  (*off)[0] = 0;
  exec::shards_or_inline(par, n, [&](int, std::int64_t b, std::int64_t e) {
    for (std::int64_t u = b; u < e; ++u) {
      (*off)[static_cast<std::size_t>(u) + 1] = weight(static_cast<int>(u));
    }
  });
  for (std::size_t u = 0; u < static_cast<std::size_t>(n); ++u) {
    (*off)[u + 1] += (*off)[u];
  }
}

// First row of part p when the rows split into `parts` consecutive runs of
// about equal weight (off: row_prefix output). Part p owns rows
// [part_begin(p), part_begin(p + 1)); the last part ends at n.
int part_begin(const std::vector<std::int64_t>& off, int parts,
               std::int64_t p) {
  const auto rows = static_cast<int>(off.size()) - 1;
  if (p >= parts) return rows;
  return static_cast<int>(std::lower_bound(off.begin(), off.end() - 1,
                                           off.back() * p / parts) -
                          off.begin());
}

// Runs fn(worker, u) for every row u, the rows split into one run per
// worker of about equal weight (off: row_prefix output).
template <class Fn>
void for_rows_by_weight(exec::ParallelRound* par,
                        const std::vector<std::int64_t>& off, Fn&& fn) {
  const int parts = par ? par->workers() : 1;
  exec::shards_or_inline(par, parts, [&](int w, std::int64_t b,
                                         std::int64_t e) {
    const int row_end = part_begin(off, parts, e);
    for (int u = part_begin(off, parts, b); u < row_end; ++u) fn(w, u);
  });
}

// Packs N(v) of every high vertex into one NeighborWord per 64-bit word it
// occupies: a per-row word count, then one fill sharded by those counts.
// CSR rows are sorted, so a row's words come out ascending and the
// neighbors sharing a word are adjacent.
void pack_high_rows(const graph::Graph& h, exec::ParallelRound* par,
                    AcdScratch& s) {
  row_prefix(
      h, par,
      [&](int v) {
        if (!s.high[static_cast<std::size_t>(v)]) return std::int64_t{0};
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
    NeighborWord* out =
        s.packed.data() + s.word_off[static_cast<std::size_t>(v)];
    for (std::size_t i = 0; i < nv.size();) {
      const int word = nv[i] >> 6;
      std::uint64_t mask = 0;
      for (; i < nv.size() && (nv[i] >> 6) == word; ++i) {
        mask |= std::uint64_t{1} << (nv[i] & 63);
      }
      *out++ = {mask, word, static_cast<std::int32_t>(i)};
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
  row_prefix(
      h, par,
      [&](int u) {
        // Low vertices pack no words, so they add no work.
        auto work = static_cast<std::int64_t>(packed_row(u).size());
        if (work == 0) return work;
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
    char* flag = s.buddy.data() + s.slot_off[static_cast<std::size_t>(u)];
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

// Buddy graph as a flat CSR, built from the slot flags on the round engine.
// The rows split into parts of about equal slot count; part p counts its
// buddy edges per endpoint into a private array, a per-vertex prefix over
// the parts turns the counts into write cursors, and part p then fills its
// entries. Parts own ascending row runs and walk them in order, so every
// buddy list comes out ascending, the order of a sequential fill over
// h.edges(), for any number of parts.
void build_buddy_csr(const graph::Graph& h, exec::ParallelRound* par,
                     AcdScratch& s) {
  const int n = h.n();
  const auto nu = static_cast<std::size_t>(n);
  const int parts = par ? par->workers() : 1;
  if (s.cursors.size() < static_cast<std::size_t>(parts)) {
    s.cursors.resize(static_cast<std::size_t>(parts));
  }
  const auto for_each_buddy_edge = [&](std::int64_t p, auto&& fn) {
    const int row_end = part_begin(s.slot_off, parts, p + 1);
    for (int u = part_begin(s.slot_off, parts, p); u < row_end; ++u) {
      const auto up = h.upper_neighbors(u);
      const char* flag =
          s.buddy.data() + s.slot_off[static_cast<std::size_t>(u)];
      for (std::size_t j = 0; j < up.size(); ++j) {
        if (flag[j]) fn(u, up[j]);
      }
    }
  };
  exec::shards_or_inline(par, parts, [&](int, std::int64_t b,
                                         std::int64_t e) {
    for (std::int64_t p = b; p < e; ++p) {
      auto& count = s.cursors[static_cast<std::size_t>(p)];
      count.assign(nu, 0);
      for_each_buddy_edge(p, [&](int u, int v) {
        ++count[static_cast<std::size_t>(u)];
        ++count[static_cast<std::size_t>(v)];
      });
    }
  });
  s.buddy_off.resize(nu + 1);
  s.buddy_off[0] = 0;
  for (std::size_t v = 0; v < nu; ++v) {
    int at = s.buddy_off[v];
    for (int p = 0; p < parts; ++p) {
      int& c = s.cursors[static_cast<std::size_t>(p)][v];
      const int count = c;
      c = at;
      at += count;
    }
    s.buddy_off[v + 1] = at;
  }
  s.buddy_adj.resize(static_cast<std::size_t>(s.buddy_off[nu]));
  exec::shards_or_inline(par, parts, [&](int, std::int64_t b,
                                         std::int64_t e) {
    for (std::int64_t p = b; p < e; ++p) {
      auto& cur = s.cursors[static_cast<std::size_t>(p)];
      for_each_buddy_edge(p, [&](int u, int v) {
        s.buddy_adj[static_cast<std::size_t>(
            cur[static_cast<std::size_t>(u)]++)] = v;
        s.buddy_adj[static_cast<std::size_t>(
            cur[static_cast<std::size_t>(v)]++)] = u;
      });
    }
  });
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
  // Upper-triangle slots: row u's slots are [slot_off[u], slot_off[u + 1]),
  // one per neighbor above u, numbered in h.edges() order.
  row_prefix(
      h, params.par,
      [&h](int u) {
        return static_cast<std::int64_t>(h.upper_neighbors(u).size());
      },
      &s.slot_off);
  s.buddy.resize(static_cast<std::size_t>(h.m()));

  // High-degree filter (Lemma 5.8): low-degree vertices answer No.
  const auto mark_high = [&] {
    s.high.assign(static_cast<std::size_t>(n), 0);
    for (int v = 0; v < n; ++v) {
      s.high[static_cast<std::size_t>(v)] =
          res.degree_est[static_cast<std::size_t>(v)] >=
          (1.0 - 2.0 * xi) * delta;
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
    std::size_t e = 0;
    for (int u = 0; u < n; ++u) {
      for (const int v : h.upper_neighbors(u)) {
        s.buddy[e] = s.high[static_cast<std::size_t>(u)] &&
                     s.high[static_cast<std::size_t>(v)] &&
                     s.union_est[e] <= (1.0 + xi) * delta;
        ++e;
      }
    }
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

  build_buddy_csr(h, params.par, s);
  const auto buddies = [&](int v) {
    return std::make_pair(s.buddy_off[static_cast<std::size_t>(v)],
                          s.buddy_off[static_cast<std::size_t>(v) + 1]);
  };

  // Step 3: buddy-degree threshold. Counting buddy edges is one more
  // fingerprint aggregation (predicate known at link machines); the count
  // here is exact adjacency size, noise already lives in the buddy set.
  rt.charge(1, 2 * params.t + 16);
  s.candidate.assign(static_cast<std::size_t>(n), 0);
  for (int v = 0; v < n; ++v) {
    const auto [b, e] = buddies(v);
    s.candidate[static_cast<std::size_t>(v)] =
        static_cast<double>(e - b) >= (1.0 - 2.0 * xi) * delta;
  }

  // Step 4: connected components of the candidate-restricted buddy graph
  // (diameter <= 2 per [ACK19]; leader election is an O(1)-round BFS,
  // Lemma 3.2).
  rt.charge(3, 2 * ceil_log2(static_cast<std::uint64_t>(std::max(2, n))));
  const int min_clique_size = std::max(2, delta / 2);
  auto& comp = s.comp;
  auto& bfs = s.bfs;  // queue as vector + cursor
  for (int src = 0; src < n; ++src) {
    if (!s.candidate[static_cast<std::size_t>(src)] ||
        res.clique_of[static_cast<std::size_t>(src)] != -1) {
      continue;
    }
    comp.clear();
    bfs.clear();
    bfs.push_back(src);
    res.clique_of[static_cast<std::size_t>(src)] = -2;  // visiting marker
    comp.push_back(src);
    for (std::size_t head = 0; head < bfs.size(); ++head) {
      const int v = bfs[head];
      const auto [b, e] = buddies(v);
      for (int i = b; i < e; ++i) {
        const int u = s.buddy_adj[static_cast<std::size_t>(i)];
        if (!s.candidate[static_cast<std::size_t>(u)] ||
            res.clique_of[static_cast<std::size_t>(u)] != -1) {
          continue;
        }
        res.clique_of[static_cast<std::size_t>(u)] = -2;
        comp.push_back(u);
        bfs.push_back(u);
      }
    }
    if (static_cast<int>(comp.size()) < min_clique_size) {
      // Too small to be an almost-clique; members stay sparse. Mark them
      // permanently so we do not revisit (use -3, normalized below).
      for (const int v : comp) {
        res.clique_of[static_cast<std::size_t>(v)] = -3;
      }
      continue;
    }
    const int id = res.num_cliques++;
    for (const int v : comp) {
      res.clique_of[static_cast<std::size_t>(v)] = id;
    }
    // Grow-only member storage: reuse the inner vector of this id when a
    // previous run left one behind.
    if (static_cast<int>(res.members.size()) < res.num_cliques) {
      res.members.emplace_back();
    }
    auto& mem = res.members[static_cast<std::size_t>(id)];
    mem.assign(comp.begin(), comp.end());
    std::sort(mem.begin(), mem.end());
  }
  for (auto& c : res.clique_of) {
    if (c < -1) c = -1;
  }
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
  const int n = h.n();
  const auto nu = static_cast<std::size_t>(n);
  DenseInfo& info = *out;
  info.ext_off.resize(nu + 1);
  info.anti_off.resize(nu + 1);
  info.ext_off[0] = info.anti_off[0] = 0;
  // Count: |N(v) ∩ K| fixes both row lengths, e_v = deg v - |N(v) ∩ K| and
  // a_v = |K| - 1 - |N(v) ∩ K|. Per-row disjoint writes.
  exec::shards_or_inline(par, n, [&](int, std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      const int v = static_cast<int>(i);
      const int kv = acd.clique_of[static_cast<std::size_t>(v)];
      std::int64_t ext = 0, anti = 0;
      if (kv >= 0) {
        int inside = 0;
        for (const int u : h.neighbors(v)) {
          inside += acd.clique_of[static_cast<std::size_t>(u)] == kv;
        }
        ext = h.degree(v) - inside;
        anti = static_cast<std::int64_t>(
                   acd.members[static_cast<std::size_t>(kv)].size()) -
               1 - inside;
      }
      info.ext_off[static_cast<std::size_t>(v) + 1] = ext;
      info.anti_off[static_cast<std::size_t>(v) + 1] = anti;
    }
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
  exec::shards_or_inline(par, n, [&](int, std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      const int v = static_cast<int>(i);
      const int kv = acd.clique_of[static_cast<std::size_t>(v)];
      if (kv < 0) continue;
      const auto& mem = acd.members[static_cast<std::size_t>(kv)];
      int* ext = info.ext_adj.data() + info.ext_off[static_cast<std::size_t>(v)];
      int* anti =
          info.anti_adj.data() + info.anti_off[static_cast<std::size_t>(v)];
      std::size_t m = 0;
      for (const int u : h.neighbors(v)) {
        if (acd.clique_of[static_cast<std::size_t>(u)] != kv) {
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
