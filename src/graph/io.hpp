// DIMACS graph I/O: the lingua franca of coloring benchmarks, so the
// library can be pointed at standard instances (and the CLI tool can be
// dropped into existing pipelines).
//
// Read format: lines "c ..." (comment), "p edge <n> <m>", "e <u> <v>"
// with 1-based vertex ids. Write emits the same dialect.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "graph/graph.hpp"

namespace ccg::graph {

// Malformed or unreadable input. A *data* error, not a programming error:
// callers that accept external files (the CLIs, svc::build_instance)
// catch it and report a structured build failure instead of treating it
// like an internal contract violation. `line()`
// is the 1-based input line (0 when no line applies, e.g. an unreadable
// path); the message already includes it.
class IoError : public std::runtime_error {
 public:
  IoError(const std::string& message, int line = 0)
      : std::runtime_error(line > 0 ? "line " + std::to_string(line) + ": " +
                                          message
                                    : message),
        line_(line) {}

  int line() const { return line_; }

 private:
  int line_ = 0;
};

// Parses a DIMACS "edge" stream; throws IoError (with the offending line
// number) on malformed input: missing/duplicate problem line, truncated
// input (declared edge count not met), negative / out-of-range /
// overflowing vertex ids, self-loops, duplicate edges, stream failures.
Graph read_dimacs(std::istream& in);
// Additionally throws IoError for unreadable paths.
Graph read_dimacs_file(const std::string& path);

void write_dimacs(const Graph& g, std::ostream& out);

// Writes "v <vertex> <color>" lines (1-based), the conventional coloring
// output alongside DIMACS instances.
void write_coloring(const std::vector<int>& colors, std::ostream& out);

}  // namespace ccg::graph
