// ccgbench: the repository benchmark (see README.md).
//
//   ccgbench --workload dense_oracle|serve_mix --seed N
//            --seconds S --trace 0|1 [--trace-out spans.json]
//
// --trace 0 measures the end-to-end metrics with nothing recorded; --trace
// 1 is a separate run that records spans around the calls into each layer
// and reports the per-layer metrics. Either way every output is checked,
// and a failed check exits 1 without a result line.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"

namespace ccgbench {

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = [] {
    std::vector<std::pair<std::string, std::string>> m;
    for (const char* phase :
         {"acd", "slack", "sparse", "noncabals", "cabals", "safety_net"}) {
      m.emplace_back(std::string("color.") + phase + "_ms", "ms");
      m.emplace_back(std::string("color.") + phase + "_ms.t1", "ms");
      m.emplace_back(std::string("exec.speedup.") + phase, "x");
    }
    for (const auto& [name, unit] :
         std::vector<std::pair<std::string, std::string>>{
             {"color.retries", "count"},
             {"color.fallback_ratio", "share"},
             {"acd.compute_ms", "ms"},
             {"acd.annotate_ms", "ms"},
             {"acd.cliques", "count"},
             {"acd.cabals", "count"},
             {"net.bit_accounting_ms", "ms"},
             {"net.max_message_bits", "bits"},
             {"api.overhead_ms", "ms"},
             {"api.allocs_per_job", "count"},
             {"lowdeg.solve_ms", "ms"},
             {"svc.instance_build_ms", "ms"},
             {"server.admit_us_p50", "us"},
             {"server.admit_us_p99", "us"},
             {"server.service_ms_p50.fast", "ms"},
             {"server.service_ms_p50.auto", "ms"},
             {"server.service_ms_p99", "ms"},
             {"server.sojourn_ms_p99", "ms"},
             {"server.queue_wait_ms_mean", "ms"},
             {"server.drain_ms", "ms"},
             {"server.steals", "count"},
             {"server.result_hit_ratio", "share"},
             {"server.instance_hit_ratio", "share"},
             {"server.shed", "count"},
             {"gen.lag_ms_p99", "ms"},
             {"trace.phase_coverage", "share"},
             {"trace.overhead_ratio", "x"},
         }) {
      m.emplace_back(name, unit);
    }
    return m;
  }();
  return kMetrics;
}

}  // namespace ccgbench

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ccgbench: %s\nusage: ccgbench --workload "
               "dense_oracle|serve_mix --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ccgbench;
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string val = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = val;
      } else if (flag == "--seed") {
        a.seed = std::stoull(val);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(val);
      } else if (flag == "--trace") {
        a.trace = std::stoi(val) != 0;
      } else if (flag == "--trace-out") {
        a.trace_out = val;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (a.seconds <= 0) usage("--seconds must be positive");

  Result out;
  out.info("workload", "\"" + a.workload + "\"");
  out.info("seed", std::to_string(a.seed));
  out.info("trace", a.trace ? "1" : "0");
  if (a.workload == "dense_oracle") {
    run_dense_oracle(a, &out);
  } else if (a.workload == "serve_mix") {
    run_serve_mix(a, &out);
  } else {
    usage(("unknown workload '" + a.workload + "'").c_str());
  }
  if (a.trace) {
    // Layers this workload bypasses did no work: they read 0.
    for (const auto& [name, unit] : per_layer_metrics()) {
      if (!out.has(name)) out.metric(name, 0.0, unit);
    }
  } else {
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  }
  return out.finish();
}
