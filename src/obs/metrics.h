#ifndef REGAL_OBS_METRICS_H_
#define REGAL_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace regal {
namespace obs {

/// Label set attached to a metric instance, e.g. {{"op", "including"}}.
/// Ordered so that equal label sets compare equal regardless of insertion
/// order.
using Labels = std::map<std::string, std::string>;

/// Monotone counter. Increment is lock-free; reading is a relaxed load.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Adds `delta` to an atomic double with a CAS loop (std::atomic<double>
/// has no fetch_add before C++20's floating-point overloads are universally
/// lock-free; the loop is portable and contention here is light).
inline void AtomicAddDouble(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

/// Gauge with last-written-wins Set() plus an atomic Add() for up-down
/// quantities (in-flight queries, active pool lanes, queue depths): unlike a
/// read-modify-write through Set(), concurrent Add(+1)/Add(-1) pairs from
/// different threads can never lose updates.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) { AtomicAddDouble(&value_, delta); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Fixed-bucket histogram: `buckets` are inclusive upper bounds in ascending
/// order, with an implicit +inf bucket at the end. Observe() is lock-free
/// (relaxed per-bucket atomics plus an atomic count and sum) — histograms
/// now sit on always-on per-query paths, so a mutex would serialize
/// concurrent queries on one latency family.
///
/// Snapshot semantics (count(), sum(), CumulativeBucketCounts()) are
/// *consistent enough* rather than linearizable: a reader racing writers may
/// see a count that differs transiently from the bucket totals or the sum
/// (each is updated by its own relaxed atomic op), but every individual
/// value is a torn-free monotone total, and once writers quiesce all three
/// agree exactly. Prometheus-style scrapes tolerate this by design.
class Histogram {
 public:
  explicit Histogram(std::vector<double> buckets);

  void Observe(double value);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bucket_bounds() const { return bounds_; }
  /// Cumulative counts per bucket (last entry == count() once quiesced).
  std::vector<int64_t> CumulativeBucketCounts() const;

 private:
  std::vector<double> bounds_;
  // bounds_.size() + 1 slots; a plain array because atomics aren't movable.
  std::unique_ptr<std::atomic<int64_t>[]> bucket_counts_;
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0};
};

/// Point-in-time view of one metric, produced by Registry::Snapshot() for
/// the exporters.
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };
  Kind kind;
  std::string name;
  Labels labels;
  // Counter / gauge value (counter cast to double for uniformity).
  double value = 0;
  // Histogram payload.
  int64_t count = 0;
  double sum = 0;
  std::vector<double> bucket_bounds;
  std::vector<int64_t> bucket_counts;  // Cumulative.
};

/// Thread-safe registry of labeled metric families. Get* registers on first
/// use and returns a stable pointer — callers cache it and update without
/// touching the registry lock again. A metric name must keep one kind; Get*
/// with a mismatched kind aborts (it is a programming error, like a type
/// confusion in a schema).
class Registry {
 public:
  /// The process-wide default registry (the query engine and the bench
  /// report path record here).
  static Registry& Default();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  /// The bucket layout is fixed by the first registration of `name`.
  Histogram* GetHistogram(const std::string& name, const Labels& labels = {},
                          std::vector<double> buckets = DefaultLatencyBucketsMs());

  std::vector<MetricSnapshot> Snapshot() const;

  /// 0.001ms .. ~16s in powers of 4 — wide enough for both operator probes
  /// and whole-query latencies.
  static std::vector<double> DefaultLatencyBucketsMs();

  /// 1 KiB .. 1 GiB in powers of 4 — byte-sized quantities (result-set
  /// footprints, snapshot files) share one layout so their histograms are
  /// comparable across subsystems.
  static std::vector<double> DefaultSizeBytesBuckets();

 private:
  struct Entry {
    MetricSnapshot::Kind kind;
    std::string name;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreate(MetricSnapshot::Kind kind, const std::string& name,
                      const Labels& labels);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;  // Keyed by name + encoded labels.
};

}  // namespace obs
}  // namespace regal

#endif  // REGAL_OBS_METRICS_H_
