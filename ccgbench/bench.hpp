// Shared pieces of the repository benchmark: command-line arguments,
// clocks and order statistics, the in-memory span recorder of traced runs,
// and the result line every workload ends with (see README.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace ccgbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // spans of a traced run (Chrome trace-event JSON)
};

// Seconds / milliseconds between two clock readings.
inline double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double msecs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Per-purpose seed: inputs, job seeds and schedules all derive from the
// one --seed, each through its own tag.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double mean(const std::vector<double>& v);

// Peak resident set of this process, in MB.
double peak_rss_mb();

// Global operator-new calls since process start: counted in the traced
// binary, -1 in the untraced one (which keeps the stock allocator).
long long alloc_count();

// A JSON array of the values, for the info line.
std::string json_list(const std::vector<double>& v);

// One FNV-1a hash, for comparing long deterministic reports.
std::uint64_t fnv1a(const std::string& s);

// A traced run keeps every span in memory and writes them out once at the
// end. A span's parent is the index of the span that caused it (-1 for a
// root); spans of one job share its id.
struct Span {
  std::string name;
  int job = 0;
  int parent = -1;
  Clock::time_point t0, t1;
  double ms() const { return msecs(t0, t1); }
};

class Tracer {
 public:
  int begin(std::string name, int job, int parent = -1);
  void end(int span) {
    spans_[static_cast<std::size_t>(span)].t1 = Clock::now();
  }
  // A span whose interval was measured elsewhere (e.g. a due time).
  int add(std::string name, int job, int parent, Clock::time_point t0,
          Clock::time_point t1);

  // Durations of every span called `name` whose parent is called
  // `parent` ("" = any parent).
  std::vector<double> durations_ms(const std::string& name,
                                   const std::string& parent = "") const;
  double total_ms(const std::string& name,
                  const std::string& parent = "") const;
  // Chrome trace-event JSON ("X" events, one track per job).
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  Clock::time_point origin_ = Clock::now();
};

// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
// Earlier lines carry the run's description (seed, job counts, hashes).
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  void info(const std::string& key, const std::string& json_value);
  // A failed correctness gate: the run exits nonzero and prints no result.
  void fail(const std::string& why);
  bool ok() const { return errors_.empty(); }

  long long attempted = 0;
  long long failed = 0;

  // Prints the info line and the result line; returns the exit code.
  int finish();

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> errors_;
};

// Median wall time, in seconds, of `reps` calls of set_up(): every
// workload times its set-up this way so a single slow call cannot move
// setup_s. tear_down() undoes a set-up before the next one, untimed.
template <class F, class G>
double timed_setup(int reps, F&& set_up, G&& tear_down) {
  std::vector<double> s;
  for (int r = 0; r < reps; ++r) {
    if (r > 0) tear_down();
    const auto t0 = Clock::now();
    set_up();
    s.push_back(secs(t0, Clock::now()));
  }
  return median(s);
}

// The workloads (dense.cpp, serve.cpp).
void run_dense_oracle(const Args& a, Result* out);
void run_serve_mix(const Args& a, Result* out);

// Per-layer metric names no workload may omit from a traced run: a layer a
// workload bypasses reads 0 there.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

}  // namespace ccgbench
