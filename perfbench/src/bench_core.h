// Helpers of the churntomo benchmark that do not depend on the library:
// span tracing with self-time arithmetic, order statistics, the CT_*
// variables of the run context, report hashing, and the ledger that
// makes deterministic counts repeat exactly from run to run.
//
// Everything here is header-only so perfbench_selftest can cover it
// without linking the pipeline.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

namespace perfbench {

// --- hashing ----------------------------------------------------------

/// 64-bit FNV-1a as monitor_daemon computes its "report-hash" (with its
/// offset basis, which is not the standard one), so the two compare.
class Fnv1a {
 public:
  void bytes(std::string_view data) {
    for (const char c : data) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 1099511628211ULL;
    }
  }
  /// Little-endian bytes of an integer (fixed width, so values of
  /// different fields cannot run together).
  template <typename T>
  void integer(T value) {
    auto v = static_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i) {
      const char byte = static_cast<char>(v & 0xffu);
      bytes(std::string_view(&byte, 1));
      v >>= 8;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

inline std::uint64_t fnv1a(std::string_view data) {
  Fnv1a h;
  h.bytes(data);
  return h.value();
}

inline std::string hex64(std::uint64_t v) {
  char buf[17] = {};
  const auto res = std::to_chars(buf, buf + 16, v, 16);
  return std::string(buf, res.ptr);
}

// --- order statistics -------------------------------------------------

/// Quantile `q` in [0, 1] by linear interpolation between closest ranks.
/// Throws on an empty sample: a metric with no samples was not measured.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of an empty sample");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(const std::vector<double>& values) { return quantile(values, 0.5); }

/// The highest of the usual reporting percentiles that still has at
/// least ten samples above it, or 0 when even the median has fewer
/// (then only the median is reported, with its sample count).
inline int reportable_percentile(std::size_t samples) {
  int best = 0;
  for (const int p : {50, 75, 90, 95, 99}) {
    if (static_cast<double>(samples) * (100 - p) / 100.0 >= 10.0) best = p;
  }
  return best;
}

/// "p50 1.23 s (n=13)" or "p50 1.2 s, p90 1.5 s (n=120)".
inline std::string describe_timing(const std::vector<double>& samples) {
  std::ostringstream out;
  out << "p50 " << median(samples) << " s";
  const int p = reportable_percentile(samples.size());
  if (p > 50) out << ", p" << p << " " << quantile(samples, p / 100.0) << " s";
  out << " (n=" << samples.size() << ")";
  return out.str();
}

// --- tracing ----------------------------------------------------------

/// One traced interval.  `parent` indexes the enclosing span, -1 for a
/// root.
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
};

/// Single-threaded span recorder: spans are kept in memory and written
/// out once the run ends.  Times are seconds since the tracer started.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name) : tracer_(&tracer) {
      index_ = tracer.open(std::move(name));
    }
    ~Scope() { tracer_->close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  int open(std::string name) {
    const double t = now();
    Span span;
    span.name = std::move(name);
    span.start_s = t;
    span.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    cost_s_ += now() - t;
    return stack_.back();
  }
  void close(int index) {
    const double t = now();
    if (stack_.empty() || stack_.back() != index) {
      throw std::logic_error("spans must close innermost first");
    }
    spans_[static_cast<std::size_t>(index)].end_s = t;
    stack_.pop_back();
    cost_s_ += now() - t;
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// Time spent inside open() and close(): what tracing adds to a run.
  double cost_s() const { return cost_s_; }

 private:
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
  }

  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  double cost_s_ = 0.0;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children covers (children may overlap).
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s, s.end_s);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_s;
    const double hi = spans[i].end_s;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cursor = lo;
    for (const auto& [a, b] : kids) {
      const double from = std::max(a, cursor);
      const double to = std::min(b, hi);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

/// Self time summed per span name.
inline std::map<std::string, double> self_time_by_name(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) by_name[spans[i].name] += self[i];
  return by_name;
}

// --- run context ------------------------------------------------------

/// The CT_* variables among "NAME=value" environment entries, sorted by
/// name.  perfbench/run.py clears the execution knobs before the
/// benchmark starts; whatever CT_* variables remain are recorded.
inline std::vector<std::pair<std::string, std::string>> ct_variables(
    const std::vector<std::string>& environment) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const std::string& entry : environment) {
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || entry.rfind("CT_", 0) != 0) continue;
    out.emplace_back(entry.substr(0, eq), entry.substr(eq + 1));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// --- verification -----------------------------------------------------

/// Tally of output checks; every check counts as attempted, a mismatch
/// as failed, and each failure keeps a line saying what differed.
class CheckTally {
 public:
  bool expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      failures_.push_back(what);
    }
    return ok;
  }
  template <typename T>
  bool expect_equal(const std::string& what, const T& got, const T& want) {
    if (got == want) return expect(true, what);
    std::ostringstream msg;
    msg << what << ": got " << got << ", expected " << want;
    return expect(false, msg.str());
  }

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// "key value" lines: the committed known answers and the per-build
/// run ledger share this format.  Blank lines and '#' comments are
/// skipped.
inline std::map<std::string, std::string> parse_key_values(std::istream& in) {
  std::map<std::string, std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    std::string value;
    if (fields >> key >> value) out[key] = value;
  }
  return out;
}

inline std::map<std::string, std::string> read_key_values(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  return parse_key_values(in);
}

/// Deterministic values seen by earlier runs in the same build tree.
/// The first run of a key records it; every later run must reproduce it
/// exactly.  The key says what a value may depend on (the seed, and for
/// solve counts also the source digest).
class Ledger {
 public:
  Ledger() = default;
  explicit Ledger(std::string path) : path_(std::move(path)), seen_(read_key_values(path_)) {}

  /// Checks `value` against the recorded one (counted in `tally`), or
  /// records it.  Returns false only on a mismatch.
  bool check(CheckTally& tally, const std::string& key, const std::string& value) {
    const auto it = seen_.find(key);
    if (it == seen_.end()) {
      seen_[key] = value;
      fresh_.emplace_back(key, value);
      return true;
    }
    return tally.expect_equal("ledger " + key, value, it->second);
  }

  /// Appends the newly recorded keys (no-op without a path).
  void flush() {
    if (path_.empty() || fresh_.empty()) return;
    std::ofstream out(path_, std::ios::app);
    for (const auto& [k, v] : fresh_) out << k << ' ' << v << '\n';
    fresh_.clear();
  }

 private:
  std::string path_;
  std::map<std::string, std::string> seen_;
  std::vector<std::pair<std::string, std::string>> fresh_;
};

// --- output -----------------------------------------------------------

/// Shortest decimal that reads back as exactly `v` (all its digits).
inline std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::invalid_argument("metric is not a finite number");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

inline std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + '"';
}

}  // namespace perfbench
