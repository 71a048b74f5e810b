#include "graph/io.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

namespace ccg::graph {

Graph read_dimacs(std::istream& in) {
  std::string line;
  int n = -1;
  std::int64_t m_declared = -1;
  Graph g;
  std::int64_t edges_seen = 0;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream ls(line);
    char tag = 0;
    ls >> tag;
    switch (tag) {
      case 'c':
        break;  // comment
      case 'p': {
        if (n != -1) throw IoError("duplicate problem line", line_no);
        std::string kind;
        ls >> kind >> n >> m_declared;
        // operator>> sets failbit on both garbage and int64 overflow, so
        // oversize declared counts land here instead of wrapping.
        if (ls.fail() || (kind != "edge" && kind != "col")) {
          throw IoError("bad problem line (want 'p edge <n> <m>')",
                        line_no);
        }
        if (n < 0 || m_declared < 0) {
          throw IoError("bad problem sizes (n and m must be >= 0)",
                        line_no);
        }
        g = Graph(n);
        break;
      }
      case 'e': {
        if (n == -1) throw IoError("edge before problem line", line_no);
        int u = 0, v = 0;
        ls >> u >> v;
        // failbit covers garbage and ids overflowing int.
        if (ls.fail()) {
          throw IoError("bad edge line (want 'e <u> <v>')", line_no);
        }
        if (u < 1 || u > n || v < 1 || v > n) {
          throw IoError("vertex id out of range [1, " + std::to_string(n) +
                            "]",
                        line_no);
        }
        g.add_edge(u - 1, v - 1);
        ++edges_seen;
        break;
      }
      default:
        throw IoError(std::string("unknown line tag '") + tag + "'",
                      line_no);
    }
  }
  if (in.bad()) throw IoError("read error", line_no);
  if (n == -1) throw IoError("missing problem line");
  if (edges_seen != m_declared) {
    // Also the truncated-file signature: the declared count outruns the
    // edges actually present.
    throw IoError("edge count mismatch: declared " +
                      std::to_string(m_declared) + ", got " +
                      std::to_string(edges_seen),
                  line_no);
  }
  try {
    g.finalize();  // rejects duplicates/self-loops
  } catch (const std::exception& e) {
    throw IoError(std::string("invalid graph: ") + e.what());
  }
  return g;
}

Graph read_dimacs_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw IoError("cannot open " + path);
  return read_dimacs(in);
}

void write_dimacs(const Graph& g, std::ostream& out) {
  out << "c written by ccg\n";
  out << "p edge " << g.n() << " " << g.m() << "\n";
  for (const auto& [u, v] : g.edges()) {
    out << "e " << (u + 1) << " " << (v + 1) << "\n";
  }
}

void write_coloring(const std::vector<int>& colors, std::ostream& out) {
  for (std::size_t v = 0; v < colors.size(); ++v) {
    out << "v " << (v + 1) << " " << (colors[v] + 1) << "\n";
  }
}

}  // namespace ccg::graph
