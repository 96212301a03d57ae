// Service observability: counters, gauges, and bucketed latency histograms
// with a Prometheus-style text snapshot. The benches and tests read the
// snapshot (queue depth, wait vs. run latency, cache hit rate, shots/sec)
// instead of poking at service internals.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace qs::service {

/// Queue / metrics key for a tenant: the anonymous tenant maps to
/// "default" so single-tenant callers never see an empty label.
inline std::string tenant_label(const std::string& tenant) {
  return tenant.empty() ? "default" : tenant;
}

/// Per-tenant series name: `stem{tenant="<tenant>"}`.
inline std::string tenant_metric(const char* stem, const std::string& tenant) {
  return std::string(stem) + "{tenant=\"" + tenant + "\"}";
}

/// Monotonic event counter (lock-free).
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous signed level (queue depth, workers busy).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Cumulative histogram over fixed upper-bound buckets plus sum/count —
/// enough for mean and quantile estimates of wait/run latencies.
class LatencyHistogram {
 public:
  /// Bounds must be strictly increasing; an implicit +inf bucket is added.
  explicit LatencyHistogram(std::vector<double> upper_bounds);

  void observe(double value);

  std::uint64_t count() const;
  double sum() const;
  double mean() const;
  /// Linear-interpolated quantile estimate from bucket counts, q in [0,1].
  double quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<std::uint64_t> bucket_counts() const;

  /// Default bounds for microsecond latencies: 1us .. ~100s, log-spaced.
  static std::vector<double> default_us_bounds();

  /// Default bounds for second-denominated latencies (1us .. 100s,
  /// log-spaced) — the `qs_queue_wait_seconds` exposition unit.
  static std::vector<double> default_seconds_bounds();

 private:
  std::vector<double> bounds_;
  mutable std::mutex mutex_;
  std::vector<std::uint64_t> buckets_;  // one per bound, plus +inf at back
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Named metric registry. Metric objects are created on first access and
/// have stable addresses for the registry's lifetime, so hot paths can
/// grab a reference once and update lock-free.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  LatencyHistogram& histogram(
      const std::string& name,
      std::vector<double> upper_bounds = LatencyHistogram::default_us_bounds());

  /// Text exposition: one `name value` line per counter/gauge, and
  /// `name_count` / `name_sum` / `name_p50` / `name_p99` per histogram,
  /// sorted by name (stable for golden-file tests).
  std::string render() const;

  /// Bucket bounds for ratio-of-budget histograms (e.g. queue wait as a
  /// fraction of the job's deadline): 0.01 .. 5.0, log-ish spaced, with
  /// the 1.0 boundary separating "made it" from "expired in queue".
  static std::vector<double> fraction_bounds();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

}  // namespace qs::service
