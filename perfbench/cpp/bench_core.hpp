// Measurement helpers shared by every perfbench workload: the clock,
// order statistics, a lock-free single-writer latency log, in-memory spans
// with self-time attribution, and the metric report printed at the end of a
// run. Everything here is the benchmark's own code; none of it is linked into
// the program under test.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

using i64 = std::int64_t;
using u64 = std::uint64_t;
using u32 = std::uint32_t;

[[nodiscard]] inline i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------ statistics

/// 1-based nearest rank of percentile p in a sample of n: ceil(p/100 * n),
/// with a tolerance so 99.9% of 10000 is rank 9990, not 9991.
[[nodiscard]] inline std::size_t nearest_rank(std::size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return r < 1.0 ? 1 : std::min(n, static_cast<std::size_t>(r));
}

/// Nearest-rank percentile: the smallest value with at least p% of the
/// sample at or below it. Selects in place in linear time (no full sort, so
/// an epoch boundary stays short), reordering `v`. Empty input gives 0.
[[nodiscard]] inline double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::ptrdiff_t>(nearest_rank(v.size(), p) - 1);
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return v[static_cast<std::size_t>(k)];
}

[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile of the ladder 50, 90, 99, 99.9, ... that still has
/// at least `min_beyond` samples strictly above its rank, so a tail figure is
/// never read off fewer than ten observations.
struct TailPercentile {
  double pct = 0.0;        ///< 0 when even the median lacks support
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples ranked above the percentile
};

[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

/// The ladder walk over a sample of `n`; `at(p)` gives the p-th percentile.
template <typename At>
[[nodiscard]] TailPercentile highest_supported_percentile(std::size_t n, At&& at,
                                                          std::size_t min_beyond = 10) {
  static constexpr double kLadder[] = {50.0, 90.0, 99.0, 99.9, 99.99, 99.999, 99.9999};
  TailPercentile best;
  best.samples = n;
  for (const double p : kLadder) {
    const std::size_t beyond = samples_beyond(n, p);
    if (beyond < min_beyond) break;
    best.pct = p;
    best.beyond = beyond;
  }
  if (best.pct > 0) best.value = at(best.pct);
  return best;
}

/// Reorders `v` (see percentile()).
[[nodiscard]] inline TailPercentile highest_supported_percentile(std::vector<double>& v,
                                                                 std::size_t min_beyond = 10) {
  return highest_supported_percentile(
      v.size(), [&](double p) { return percentile(v, p); }, min_beyond);
}

/// Latencies pooled over a whole run in log-linear buckets: exact below
/// 1024 ns, then 1024 buckets per power of two (under 0.1% wide), so the
/// percentiles of millions of samples need neither their storage nor a sort.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 10;

  LatencyHistogram() : counts_(bucket_of(0xFFFFFFFFu) + 1, 0) {}

  void add(u32 ns) {
    ++counts_[bucket_of(ns)];
    ++n_;
  }
  [[nodiscard]] std::size_t count() const { return n_; }

  /// Nearest-rank percentile in microseconds: the mean of the whole
  /// nanoseconds of the bucket that holds the rank. Empty gives 0.
  [[nodiscard]] double percentile_us(double p) const {
    if (n_ == 0) return 0.0;
    const std::size_t rank = nearest_rank(n_, p);
    std::size_t seen = 0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
      seen += counts_[b];
      if (seen >= rank) return (lower_edge(b) + 0.5 * (width(b) - 1.0)) * 1e-3;
    }
    return 0.0;
  }

  [[nodiscard]] TailPercentile highest_supported() const {
    return highest_supported_percentile(n_, [&](double p) { return percentile_us(p); });
  }

  [[nodiscard]] static std::size_t bucket_of(u32 ns) {
    const int e = static_cast<int>(std::bit_width(ns)) - 1;
    if (e < kSubBits) return ns;
    const int shift = e - kSubBits;
    return (static_cast<std::size_t>(shift + 1) << kSubBits) + ((ns >> shift) & kMantissaMask);
  }
  [[nodiscard]] static double lower_edge(std::size_t b) {
    if (b < (std::size_t{1} << kSubBits)) return static_cast<double>(b);
    const u64 mantissa = (b & kMantissaMask) | (u64{1} << kSubBits);
    return static_cast<double>(mantissa << ((b >> kSubBits) - 1));
  }
  [[nodiscard]] static double width(std::size_t b) {
    return b < (std::size_t{1} << kSubBits) ? 1.0
                                            : static_cast<double>(u64{1} << ((b >> kSubBits) - 1));
  }

 private:
  static constexpr u32 kMantissaMask = (1u << kSubBits) - 1;
  std::vector<u64> counts_;
  std::size_t n_ = 0;
};

// ------------------------------------------------------------ latency log

/// Per-datagram latencies, written by exactly one thread and read by the
/// measuring thread at epoch boundaries. The buffer is allocated and touched up front
/// (so it is part of the RSS baseline, not of the growth a run reports) and
/// used as a ring: the reader copies [from, written()) before the writer can
/// lap it.
class LatencyLog {
 public:
  explicit LatencyLog(std::size_t capacity_pow2 = std::size_t{1} << 20)
      : buf_(capacity_pow2, 0u), mask_(capacity_pow2 - 1) {}
  LatencyLog(const LatencyLog&) = delete;
  LatencyLog& operator=(const LatencyLog&) = delete;

  /// Writer side. Latencies clamp to [0, ~4.29 s] in whole nanoseconds.
  void record(i64 ns) {
    const u64 w = written_.load(std::memory_order_relaxed);
    buf_[w & mask_] = static_cast<u32>(std::clamp<i64>(ns, 0, 0xFFFFFFFF));
    written_.store(w + 1, std::memory_order_release);
  }
  [[nodiscard]] u64 written() const { return written_.load(std::memory_order_acquire); }

  /// Reader side: append samples [from, to) as microseconds, and add them
  /// to `pool` when one is given. False when the writer has lapped the range
  /// (the ring was too small for the epoch).
  bool copy_us(u64 from, u64 to, std::vector<double>& out, LatencyHistogram* pool = nullptr) const {
    if (written() - from > buf_.size()) return false;
    for (u64 i = from; i < to; ++i) {
      const u32 ns = buf_[i & mask_];
      out.push_back(ns / 1e3);
      if (pool != nullptr) pool->add(ns);
    }
    return written() - from <= buf_.size();
  }

 private:
  std::vector<u32> buf_;
  std::size_t mask_;
  std::atomic<u64> written_{0};
};

// ----------------------------------------------------------------- spans

/// One timed call into a layer, recorded around the call site by the
/// benchmark (the program itself is not instrumented).
struct Span {
  u32 name = 0;     ///< the caller's span-name index
  int parent = -1;  ///< enclosing span in the same buffer, -1 at top level
  i64 t0 = 0;
  i64 t1 = 0;
};

/// Self time of every span: its duration minus the durations of its direct
/// children. Spans of one thread nest strictly, so the children never
/// overlap and their sum is the covered part of the parent's interval.
[[nodiscard]] inline std::vector<i64> span_self_times(std::span<const Span> spans) {
  std::vector<i64> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].t1 - spans[i].t0;
  for (const Span& s : spans) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.t1 - s.t0;
  }
  return self;
}

/// Accumulated figures for one span name.
struct SpanTotals {
  u64 count = 0;
  i64 total_ns = 0;
  i64 self_ns = 0;
};

/// Single-thread span recorder. Spans are kept in memory while an epoch runs
/// and folded into per-name totals at its end (fold()), which bounds memory
/// on a long run. Disabled, begin()/end() cost one branch.
class Tracer {
 public:
  explicit Tracer(std::size_t names) : totals_(names) {
    spans_.reserve(1 << 16);
  }

  void set_enabled(bool on) { on_ = on; }

  [[nodiscard]] int begin(u32 name) {
    if (!on_) return -1;
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, stack_.empty() ? -1 : stack_.back(), now_ns(), 0});
    stack_.push_back(idx);
    return idx;
  }
  void end(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].t1 = now_ns();
    stack_.pop_back();
  }

  /// Attribute the recorded spans to their names and clear the buffer.
  /// Call with no span open.
  void fold() {
    const std::vector<i64> self = span_self_times(spans_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      SpanTotals& t = totals_[spans_[i].name];
      ++t.count;
      t.total_ns += spans_[i].t1 - spans_[i].t0;
      t.self_ns += self[i];
    }
    spans_.clear();
  }

  [[nodiscard]] const SpanTotals& totals(u32 name) const { return totals_[name]; }

 private:
  std::vector<SpanTotals> totals_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  bool on_ = false;
};

/// RAII span; records nothing while the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, u32 name) : t_(t), idx_(t.begin(name)) {}
  ~ScopedSpan() { t_.end(idx_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  int idx_;
};

// ---------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered metric list, printed as a table for people and as the final JSON
/// line for programs that read the result.
class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
  }

  void print_table(const char* title) const {
    std::printf("%s\n", title);
    for (const Metric& m : metrics_)
      std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  [[nodiscard]] std::string json_line(bool correct, u64 attempted, u64 failed) const {
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      char num[40];
      std::snprintf(num, sizeof(num), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
      s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num + ", \"unit\": \"" + m.unit +
           "\"}";
    }
    return s + "}}";
  }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
