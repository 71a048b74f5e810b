#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench.hpp"
#include "common/rng.hpp"

namespace ccgbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  return ccg::mix64(ccg::mix64(seed) ^ (tag * 0x9E3779B97F4A7C15ULL));
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

std::string json_list(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6g", i ? ", " : "", v[i]);
    s += buf;
  }
  return s + "]";
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

int Tracer::begin(std::string name, int job, int parent) {
  const auto t = Clock::now();
  return add(std::move(name), job, parent, t, t);
}

int Tracer::add(std::string name, int job, int parent, Clock::time_point t0,
                Clock::time_point t1) {
  spans_.push_back(Span{std::move(name), job, parent, t0, t1});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> Tracer::durations_ms(const std::string& name,
                                         const std::string& parent) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name != name) continue;
    if (!parent.empty() &&
        (s.parent < 0 ||
         spans_[static_cast<std::size_t>(s.parent)].name != parent)) {
      continue;
    }
    out.push_back(s.ms());
  }
  return out;
}

double Tracer::total_ms(const std::string& name,
                        const std::string& parent) const {
  double sum = 0;
  for (const double d : durations_ms(name, parent)) sum += d;
  return sum;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    const double ts =
        std::chrono::duration<double, std::micro>(s.t0 - origin_).count();
    const double dur =
        std::chrono::duration<double, std::micro>(s.t1 - s.t0).count();
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                  "\"parent\": %d}}%s\n",
                  s.name.c_str(), s.job, ts, dur, i, s.parent,
                  i + 1 < spans_.size() ? "," : "");
    f << buf;
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

bool Result::has(const std::string& name) const {
  for (const auto& m : metrics_) {
    if (m.name == name) return true;
  }
  return false;
}

void Result::info(const std::string& key, const std::string& json_value) {
  info_.emplace_back(key, json_value);
}

void Result::fail(const std::string& why) {
  std::fprintf(stderr, "ccgbench: FAILED: %s\n", why.c_str());
  errors_.push_back(why);
}

int Result::finish() {
  std::string line = "{\"ccgbench_info\": {";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    if (i) line += ", ";
    line += "\"" + info_[i].first + "\": " + info_[i].second;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  if (!ok()) {
    std::fflush(stdout);
    return 1;
  }
  std::printf("{\"correct\": true, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              attempted, failed);
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& m = metrics_[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}

}  // namespace ccgbench
