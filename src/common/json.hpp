// Minimal JSON emission/extraction shared by the bench harness and the
// serving report (src/server/).
//
// JsonWriter is enough JSON for the BENCH files and serving reports:
// objects, arrays, numbers, strings, null. Emits insertion-ordered keys,
// 2-space indentation. json_number_field is the matching reader: it pulls
// a single numeric field back out of such a file without dragging in a
// JSON-parser dependency.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace ccg {

class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(const std::string& k) {
    comma();
    indent();
    out_ << '"' << k << "\": ";
    pending_value_ = true;
    return *this;
  }

  JsonWriter& value(double v) {
    pre_value();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    out_ << buf;
    return *this;
  }
  JsonWriter& value(std::int64_t v) {
    pre_value();
    out_ << v;
    return *this;
  }
  JsonWriter& value(std::uint64_t v) {
    pre_value();
    out_ << v;
    return *this;
  }
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v) {
    pre_value();
    out_ << (v ? "true" : "false");
    return *this;
  }
  JsonWriter& value(const std::string& v) {
    pre_value();
    out_ << '"';
    for (const char c : v) {
      // Strings reach here verbatim (exception texts, file paths), so
      // escape everything strict JSON parsers reject.
      switch (c) {
        case '"':
          out_ << "\\\"";
          break;
        case '\\':
          out_ << "\\\\";
          break;
        case '\n':
          out_ << "\\n";
          break;
        case '\t':
          out_ << "\\t";
          break;
        case '\r':
          out_ << "\\r";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(
                              static_cast<unsigned char>(c)));
            out_ << buf;
          } else {
            out_ << c;
          }
      }
    }
    out_ << '"';
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string(v)); }
  JsonWriter& null() {
    pre_value();
    out_ << "null";
    return *this;
  }

  std::string str() const { return out_.str() + "\n"; }

  bool write_file(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    f << str();
    return static_cast<bool>(f);
  }

 private:
  void pre_value() {
    if (!pending_value_) {
      comma();
      indent();
    }
    pending_value_ = false;
    first_ = false;
  }
  JsonWriter& open(char c) {
    pre_value();
    out_ << c;
    ++depth_;
    first_ = true;
    return *this;
  }
  JsonWriter& close(char c) {
    --depth_;
    if (!first_) {
      out_ << '\n';
      indent_raw();
    }
    out_ << c;
    first_ = false;
    return *this;
  }
  void comma() {
    if (!first_) out_ << ',';
    out_ << '\n';
  }
  void indent() { indent_raw(); }
  void indent_raw() {
    for (int i = 0; i < depth_; ++i) out_ << "  ";
  }

  std::ostringstream out_;
  int depth_ = 0;
  bool first_ = true;
  bool pending_value_ = false;
};

// Extracts `"key": <number>` from a JSON file; returns fallback when the
// file or key is missing. Good enough to read back a committed BENCH
// baseline without a JSON dependency.
inline double json_number_field(const std::string& path,
                                const std::string& key,
                                double fallback = -1.0) {
  std::ifstream f(path);
  if (!f) return fallback;
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  const std::string needle = "\"" + key + "\":";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return fallback;
  return std::strtod(text.c_str() + pos + needle.size(), nullptr);
}

}  // namespace ccg
