#include "svc/jobspec.hpp"

#include <cstdio>
#include <sstream>

#include "common/assert.hpp"
#include "common/parse.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace ccg::svc {

namespace {

bool known_gen(const std::string& g) {
  return g == "gnm" || g == "gnp" || g == "chunglu" || g == "caveman" ||
         g == "planted" || g == "grid" || g == "cycle";
}

std::int64_t gnm_m(const GenArgs& a) {
  return a.m >= 0 ? a.m : static_cast<std::int64_t>(a.n) * 8;
}

std::string fmt_real(double v) {
  // Shortest round-trip-exact form: distinct real-valued recipe args must
  // never alias to one cache key ("%g" would quantize to 6 digits).
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void parse_fail(int lineno, const std::string& what) {
  std::ostringstream os;
  os << "line " << lineno << ": " << what;
  throw ManifestError(os.str());
}

std::int64_t parse_line_i64(int lineno, const std::string& flag,
                            const std::string& val) {
  const auto x = parse_i64_strict(val);
  if (!x) parse_fail(lineno, "invalid number '" + val + "' for --" + flag);
  return *x;
}

int parse_line_int(int lineno, const std::string& flag,
                   const std::string& val) {
  const auto x = parse_int_strict(val);
  if (!x) parse_fail(lineno, "invalid number '" + val + "' for --" + flag);
  return *x;
}

std::uint64_t parse_line_u64(int lineno, const std::string& flag,
                             const std::string& val) {
  const auto x = parse_u64_strict(val);
  if (!x) parse_fail(lineno, "invalid seed '" + val + "' for --" + flag);
  return *x;
}

double parse_line_real(int lineno, const std::string& flag,
                       const std::string& val) {
  const auto x = parse_double_strict(val);
  if (!x) parse_fail(lineno, "invalid number '" + val + "' for --" + flag);
  return *x;
}

bool known_layout_name(const std::string& layout) {
  return layout == "singleton" || layout_shape(layout).has_value();
}

std::optional<cluster::ClusterShape> layout_shape(const std::string& layout) {
  if (layout == "star") return cluster::ClusterShape::kStar;
  if (layout == "path") return cluster::ClusterShape::kPath;
  if (layout == "tree") return cluster::ClusterShape::kRandomTree;
  if (layout == "bridge") return cluster::ClusterShape::kBridgePath;
  return std::nullopt;
}

const char* mode_name(JobMode m) {
  switch (m) {
    case JobMode::kCluster:
      return "cluster";
    case JobMode::kEdge:
      return "edge";
    case JobMode::kDist2:
      return "dist2";
  }
  return "?";
}

void parse_job_tokens(const std::vector<std::string>& toks, int lineno,
                      const JobLineDefaults& def,
                      std::vector<JobSpec>* out) {
  JobSpec job;
  job.threads = def.threads;
  job.graph_seed = def.graph_seed;
  int repeat = def.repeat;
  auto& a = job.gargs;

  for (std::size_t i = 0; i < toks.size();) {
    const std::string& t = toks[i];
    if (t.size() < 3 || t.rfind("--", 0) != 0) {
      parse_fail(lineno, "expected --flag, got '" + t + "'");
    }
    const std::string key = t.substr(2);
    if (key == "oracle") {
      job.oracle = true;
      ++i;
      continue;
    }
    if (i + 1 >= toks.size()) {
      parse_fail(lineno, "--" + key + " needs a value");
    }
    const std::string& val = toks[i + 1];
    i += 2;

    if (key == "gen") {
      if (!known_gen(val)) {
        parse_fail(lineno, "unknown generator '" + val + "'");
      }
      job.gen = val;
      job.dimacs.clear();
    } else if (key == "dimacs") {
      job.dimacs = val;
    } else if (key == "layout") {
      if (!known_layout_name(val)) {
        parse_fail(lineno, "unknown layout '" + val + "'");
      }
      job.layout = val;
    } else if (key == "mode") {
      if (val == "cluster") {
        job.mode = JobMode::kCluster;
      } else if (val == "edge") {
        job.mode = JobMode::kEdge;
      } else if (val == "dist2") {
        job.mode = JobMode::kDist2;
      } else {
        parse_fail(lineno,
                   "unknown mode '" + val + "' (cluster|edge|dist2)");
      }
    } else if (key == "algo") {
      const auto algo = ccg::algo_from_name(val);
      if (!algo) {
        parse_fail(lineno,
                   "unknown algo '" + val + "' (auto|high|low|fast)");
      }
      job.algo = *algo;
    } else if (key == "n") {
      a.n = parse_line_int(lineno, key, val);
      if (a.n < 1) parse_fail(lineno, "--n must be >= 1");
    } else if (key == "m") {
      a.m = parse_line_i64(lineno, key, val);
      if (a.m < 0) parse_fail(lineno, "--m must be >= 0");
    } else if (key == "p") {
      a.p = parse_line_real(lineno, key, val);
      if (!(a.p >= 0.0 && a.p <= 1.0)) {
        parse_fail(lineno, "--p must lie in [0, 1]");
      }
    } else if (key == "avg-deg") {
      a.avg_deg = parse_line_real(lineno, key, val);
      if (!(a.avg_deg > 0)) parse_fail(lineno, "--avg-deg must be > 0");
    } else if (key == "gamma") {
      a.gamma = parse_line_real(lineno, key, val);
      if (!(a.gamma > 0)) parse_fail(lineno, "--gamma must be > 0");
    } else if (key == "cliques") {
      a.cliques = parse_line_int(lineno, key, val);
      if (a.cliques < 1) parse_fail(lineno, "--cliques must be >= 1");
    } else if (key == "size") {
      a.size = parse_line_int(lineno, key, val);
      if (a.size < 1) parse_fail(lineno, "--size must be >= 1");
    } else if (key == "bridges") {
      a.bridges = parse_line_int(lineno, key, val);
      if (a.bridges < 0) parse_fail(lineno, "--bridges must be >= 0");
    } else if (key == "delta") {
      a.delta = parse_line_int(lineno, key, val);
      if (a.delta < 1) parse_fail(lineno, "--delta must be >= 1");
    } else if (key == "ext") {
      a.ext = parse_line_int(lineno, key, val);
      if (a.ext < 0) parse_fail(lineno, "--ext must be >= 0");
    } else if (key == "anti") {
      a.anti = parse_line_int(lineno, key, val);
      if (a.anti < 0) parse_fail(lineno, "--anti must be >= 0");
    } else if (key == "sparse") {
      a.sparse = parse_line_int(lineno, key, val);
      if (a.sparse < 0) parse_fail(lineno, "--sparse must be >= 0");
    } else if (key == "w") {
      a.w = parse_line_int(lineno, key, val);
      if (a.w < 1) parse_fail(lineno, "--w must be >= 1");
    } else if (key == "h") {
      a.h = parse_line_int(lineno, key, val);
      if (a.h < 1) parse_fail(lineno, "--h must be >= 1");
    } else if (key == "cluster-size") {
      job.cluster_size = parse_line_int(lineno, key, val);
      if (job.cluster_size < 1) {
        parse_fail(lineno, "--cluster-size must be >= 1");
      }
    } else if (key == "links-per-edge") {
      job.links_per_edge = parse_line_int(lineno, key, val);
      if (job.links_per_edge < 1) {
        parse_fail(lineno, "--links-per-edge must be >= 1");
      }
    } else if (key == "graph-seed") {
      job.graph_seed = parse_line_u64(lineno, key, val);
    } else if (key == "threads") {
      job.threads = parse_line_int(lineno, key, val);
      if (job.threads < 0 || job.threads > ccg::Options::kMaxThreads) {
        parse_fail(lineno,
                   "--threads must be in [0, " +
                       std::to_string(ccg::Options::kMaxThreads) + "]");
      }
    } else if (key == "seed") {
      job.params_seed = parse_line_u64(lineno, key, val);
      job.explicit_seed = true;
    } else if (key == "repeat") {
      if (!def.allow_repeat) {
        parse_fail(lineno, "--repeat is not valid in a single-job recipe");
      }
      repeat = parse_line_int(lineno, key, val);
      if (repeat < 1) parse_fail(lineno, "--repeat must be >= 1");
    } else if (key == "eps") {
      job.eps = parse_line_real(lineno, key, val);
      if (!(job.eps > 0 && job.eps < 1)) {
        parse_fail(lineno, "--eps must lie in (0, 1)");
      }
    } else if (key == "deadline-ms") {
      job.deadline_ms = parse_line_i64(lineno, key, val);
      if (job.deadline_ms < 0) {
        parse_fail(lineno, "--deadline-ms must be >= 0 (0 = no deadline)");
      }
    } else {
      parse_fail(lineno, "unknown flag --" + key);
    }
  }
  if (job.mode != JobMode::kCluster && job.layout != "singleton") {
    parse_fail(lineno, std::string("--mode ") + mode_name(job.mode) +
                           " defines its own network: --layout must stay "
                           "singleton");
  }

  for (int r = 0; r < repeat; ++r) {
    JobSpec j = job;
    j.index = static_cast<int>(out->size());
    // Explicit seeds step by repeat ordinal so repeats still differ;
    // derived seeds are filled by the owning surface.
    if (j.explicit_seed) {
      j.params_seed = job.params_seed + static_cast<std::uint64_t>(r);
    }
    j.key = instance_key(j);
    out->push_back(std::move(j));
  }
}

JobSpec parse_job_flags(const std::string& flags) {
  std::vector<std::string> toks;
  std::istringstream ls(flags);
  std::string tok;
  while (ls >> tok) toks.push_back(tok);
  // An all-defaults job from an empty string is far likelier to be a
  // caller formatting bug than an intentional request — reject it.
  if (toks.empty()) throw ManifestError("empty job recipe");
  JobLineDefaults def;
  // A recipe names one instance; expanding --repeat here would allocate
  // arbitrarily many JobSpecs only to discard all but the first.
  def.allow_repeat = false;
  std::vector<JobSpec> jobs;
  parse_job_tokens(toks, 1, def, &jobs);
  return std::move(jobs.front());
}

std::string instance_key(const JobSpec& j) {
  std::ostringstream os;
  const auto& a = j.gargs;
  // `random` tracks whether the recipe consumes graph_seed bits at all;
  // deterministic recipes share a cache entry across seeds.
  bool random = true;
  if (!j.dimacs.empty()) {
    os << "dimacs=" << j.dimacs;
    random = false;
  } else if (j.gen == "gnm") {
    os << "gnm n=" << a.n << " m=" << gnm_m(a);
  } else if (j.gen == "gnp") {
    os << "gnp n=" << a.n << " p=" << fmt_real(a.p);
  } else if (j.gen == "chunglu") {
    os << "chunglu n=" << a.n << " avg-deg=" << fmt_real(a.avg_deg)
       << " gamma=" << fmt_real(a.gamma);
  } else if (j.gen == "caveman") {
    os << "caveman cliques=" << a.cliques << " size=" << a.size
       << " bridges=" << a.bridges;
  } else if (j.gen == "planted") {
    os << "planted delta=" << a.delta << " cliques=" << a.cliques
       << " ext=" << a.ext << " anti=" << a.anti << " sparse=" << a.sparse;
  } else if (j.gen == "grid") {
    os << "grid w=" << a.w << " h=" << a.h;
    random = false;
  } else {  // cycle
    os << "cycle n=" << a.n;
    random = false;
  }
  os << " layout=" << j.layout;
  if (j.layout != "singleton") {
    os << " cs=" << j.cluster_size << " lpe=" << j.links_per_edge;
    random = true;  // cluster expansion draws from the graph seed too
  }
  // The virtual encodings are deterministic functions of the base graph,
  // but they build a different instance: the mode is part of identity.
  if (j.mode != JobMode::kCluster) os << " mode=" << mode_name(j.mode);
  if (random) os << " gseed=" << j.graph_seed;
  return os.str();
}

namespace {

graph::Graph generate(const JobSpec& j, Rng& rng) {
  const auto& a = j.gargs;
  if (j.gen == "gnm") return graph::gnm(a.n, gnm_m(a), rng);
  if (j.gen == "gnp") return graph::gnp(a.n, a.p, rng);
  if (j.gen == "chunglu") {
    return graph::chung_lu(a.n, a.avg_deg, a.gamma, rng);
  }
  if (j.gen == "caveman") {
    return graph::caveman(a.cliques, a.size, a.bridges, rng);
  }
  if (j.gen == "planted") {
    graph::PlantedSpec spec;
    spec.delta = a.delta;
    spec.num_cliques = a.cliques;
    spec.anti_deg = a.anti;
    spec.external_deg = a.ext;
    spec.num_sparse = a.sparse;
    spec.sparse_avg_deg = a.delta * 0.25;
    return graph::make_planted_acd(spec, rng).g;
  }
  if (j.gen == "grid") return graph::grid(a.w, a.h);
  return graph::cycle(a.n);  // the parser validated the generator set
}

}  // namespace

graph::Graph build_job_graph(const JobSpec& j, Rng& rng) {
  if (!j.dimacs.empty()) return graph::read_dimacs_file(j.dimacs);
  // The generator runs on the recipe's own arguments, so its contract
  // failure (gnm asked for more edges than n vertices hold, ...) is a bad
  // recipe, not a library fault. The generator's check stays the one
  // statement of its domain; the parser does not copy it.
  try {
    return generate(j, rng);
  } catch (const ContractViolation& e) {
    throw ManifestError(
        std::string("recipe outside the generator's domain: ") + e.what());
  }
}

}  // namespace ccg::svc
