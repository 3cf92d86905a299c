// Minimal JSON emission for machine-readable bench results.
//
// The bench binaries dump flat arrays of records (states, transitions,
// seconds, status, jobs) so the perf trajectory can be tracked across PRs
// as BENCH_*.json. Only what those records need: objects with string /
// integer / double fields, collected into one array and written atomically
// at the end of the run. Every row of the array carries the provenance of
// the binary that measured it.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "support/build_info.hpp"

namespace ccref {

class JsonObject {
 public:
  JsonObject& field(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    quoted += escape(value);
    quoted += '"';
    add(key, quoted);
    return *this;
  }
  JsonObject& field(const std::string& key, const char* value) {
    return field(key, std::string(value));
  }
  JsonObject& field(const std::string& key, bool value) {
    add(key, value ? "true" : "false");
    return *this;
  }
  // One template for every integer width so size_t / uint64_t (the same
  // type on LP64) don't collide as overloads.
  template <class T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  JsonObject& field(const std::string& key, T value) {
    add(key, std::to_string(value));
    return *this;
  }
  JsonObject& field(const std::string& key, double value) {
    char buf[64];
    // Fixed-point for human-scale values; scientific below the %.6f floor
    // so omission probabilities like 5e-11 don't flatten to 0.000000.
    if (value != 0.0 && value < 1e-6 && value > -1e-6)
      std::snprintf(buf, sizeof(buf), "%.6e", value);
    else
      std::snprintf(buf, sizeof(buf), "%.6f", value);
    add(key, buf);
    return *this;
  }

  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out += c;
    }
    return out;
  }

  // Appends, not operator+ chains, which GCC 12 misreports under
  // -Wrestrict.
  void add(const std::string& key, const std::string& rendered) {
    if (!body_.empty()) body_ += ",";
    body_ += '"';
    body_ += escape(key);
    body_ += "\":";
    body_ += rendered;
  }

  std::string body_;
};

/// Collects objects; writes a JSON array to `path`. Returns false (with a
/// message on stderr) if the file cannot be written. Each row gets the
/// provenance fields `commit`, `build_type`, `cpu` (build_info.hpp) and
/// `hardware_concurrency` after its own.
class JsonArrayFile {
 public:
  void push(JsonObject obj) {
    obj.field("commit", build_commit())
        .field("build_type", build_type())
        .field("cpu", host_cpu())
        .field("hardware_concurrency",
               std::max(1u, std::thread::hardware_concurrency()));
    rows_.push_back(obj.str());
  }

  [[nodiscard]] bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < rows_.size(); ++i)
      std::fprintf(f, "  %s%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    std::fputs("]\n", f);
    std::fclose(f);
    return true;
  }

 private:
  std::vector<std::string> rows_;
};

}  // namespace ccref
