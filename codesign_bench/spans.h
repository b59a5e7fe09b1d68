// In-memory span log and the small statistics the pipeline benchmark
// reports (median, Kendall tau-b). Header-only so the harness and its
// self-test share one copy.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace codesign_bench {

/// One timed call into a layer. Names are "<layer>.<operation>", where the
/// layer is a directory under src/ ("vm.profile", "sweep.run").
struct SpanRecord {
  std::string name;
  int64_t startNs = 0;
  int64_t endNs = 0;
  int parent = -1;  ///< index of the enclosing span; -1 at top level
};

/// Spans of the benchmark's (single) driving thread, kept in memory and
/// read when the run ends. A disabled log records nothing and reads no
/// clock, so the traced and untraced passes run the same code.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Opens a span nested in the innermost open one; returns its index, or
  /// -1 when disabled.
  int open(std::string name) {
    if (!enabled_) return -1;
    SpanRecord rec;
    rec.name = std::move(name);
    rec.parent = stack_.empty() ? -1 : stack_.back();
    rec.startNs = nowNs();
    spans_.push_back(std::move(rec));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  /// Closes the span `open` returned (spans close innermost first).
  void close(int index) {
    if (index < 0) return;
    spans_[static_cast<size_t>(index)].endNs = nowNs();
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  }

 private:
  [[nodiscard]] int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// RAII span over a SpanLog.
class SpanScope {
 public:
  SpanScope(SpanLog& log, std::string name) : log_(log), index_(log.open(std::move(name))) {}
  ~SpanScope() { log_.close(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  SpanScope(SpanScope&&) = delete;
  SpanScope& operator=(SpanScope&&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
inline std::vector<int64_t> selfTimesNs(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.startNs, s.endNs);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].startNs;
    const int64_t hi = spans[i].endNs;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = lo;  // end of the covered prefix so far
    for (auto [a, b] : kids) {
      a = std::max(a, reach);
      b = std::min(b, hi);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

/// The layer a span belongs to: its name up to the first '.'.
inline std::string layerOf(const std::string& spanName) {
  return spanName.substr(0, spanName.find('.'));
}

/// Self time in milliseconds, summed per layer.
inline std::map<std::string, double> selfMsByLayer(const std::vector<SpanRecord>& spans) {
  std::map<std::string, double> out;
  const auto self = selfTimesNs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    out[layerOf(spans[i].name)] += static_cast<double>(self[i]) / 1e6;
  }
  return out;
}

/// Inclusive duration in seconds, summed per span name.
inline std::map<std::string, double> totalSecondsByName(const std::vector<SpanRecord>& spans) {
  std::map<std::string, double> out;
  for (const SpanRecord& s : spans) {
    out[s.name] += static_cast<double>(s.endNs - s.startNs) / 1e9;
  }
  return out;
}

/// Median; the mean of the two middle values for an even count (as Python's
/// statistics.median). 0 for no samples.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Kendall's tau-b between two paired samples, with the tie correction:
/// (concordant - discordant) / sqrt((n0 - tiesX) * (n0 - tiesY)). NaN when
/// either sample is constant (or has fewer than two values).
inline double kendallTauB(const std::vector<double>& x, const std::vector<double>& y) {
  const size_t n = std::min(x.size(), y.size());
  int64_t concordant = 0;
  int64_t discordant = 0;
  int64_t tiesX = 0;  // pairs tied in x (including those tied in both)
  int64_t tiesY = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double dx = x[i] - x[j];
      const double dy = y[i] - y[j];
      if (dx == 0) ++tiesX;
      if (dy == 0) ++tiesY;
      if (dx == 0 || dy == 0) continue;
      ((dx > 0) == (dy > 0) ? concordant : discordant) += 1;
    }
  }
  const auto n0 = static_cast<int64_t>(n * (n > 0 ? n - 1 : 0) / 2);
  const double denom =
      std::sqrt(static_cast<double>(n0 - tiesX) * static_cast<double>(n0 - tiesY));
  if (denom == 0) return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(concordant - discordant) / denom;
}

}  // namespace codesign_bench
