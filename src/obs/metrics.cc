#include "obs/metrics.h"

#include <algorithm>
#include <cstdlib>

namespace regal {
namespace obs {

Histogram::Histogram(std::vector<double> buckets)
    : bounds_(std::move(buckets)),
      bucket_counts_(new std::atomic<int64_t>[bounds_.size() + 1]) {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    bucket_counts_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(double value) {
  size_t i =
      static_cast<size_t>(std::lower_bound(bounds_.begin(), bounds_.end(), value) -
                          bounds_.begin());
  bucket_counts_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&sum_, value);
}

std::vector<int64_t> Histogram::CumulativeBucketCounts() const {
  std::vector<int64_t> cumulative(bounds_.size() + 1);
  int64_t running = 0;
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    running += bucket_counts_[i].load(std::memory_order_relaxed);
    cumulative[i] = running;
  }
  return cumulative;
}

Registry& Registry::Default() {
  static Registry* registry = new Registry();
  return *registry;
}

std::vector<double> Registry::DefaultLatencyBucketsMs() {
  std::vector<double> buckets;
  for (double b = 0.001; b < 20000; b *= 4) buckets.push_back(b);
  return buckets;
}

std::vector<double> Registry::DefaultSizeBytesBuckets() {
  std::vector<double> buckets;
  for (double b = 1024; b <= 1024.0 * 1024.0 * 1024.0; b *= 4) {
    buckets.push_back(b);
  }
  return buckets;
}

namespace {

std::string EntryKey(const std::string& name, const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

}  // namespace

Registry::Entry* Registry::FindOrCreate(MetricSnapshot::Kind kind,
                                        const std::string& name,
                                        const Labels& labels) {
  std::string key = EntryKey(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.kind != kind) std::abort();  // Name reused across kinds.
    return &it->second;
  }
  Entry& entry = entries_[std::move(key)];
  entry.kind = kind;
  entry.name = name;
  entry.labels = labels;
  return &entry;
}

Counter* Registry::GetCounter(const std::string& name, const Labels& labels) {
  Entry* entry = FindOrCreate(MetricSnapshot::Kind::kCounter, name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  if (entry->counter == nullptr) entry->counter = std::make_unique<Counter>();
  return entry->counter.get();
}

Gauge* Registry::GetGauge(const std::string& name, const Labels& labels) {
  Entry* entry = FindOrCreate(MetricSnapshot::Kind::kGauge, name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  if (entry->gauge == nullptr) entry->gauge = std::make_unique<Gauge>();
  return entry->gauge.get();
}

Histogram* Registry::GetHistogram(const std::string& name, const Labels& labels,
                                  std::vector<double> buckets) {
  Entry* entry = FindOrCreate(MetricSnapshot::Kind::kHistogram, name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  if (entry->histogram == nullptr) {
    entry->histogram = std::make_unique<Histogram>(std::move(buckets));
  }
  return entry->histogram.get();
}

std::vector<MetricSnapshot> Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    MetricSnapshot snap;
    snap.kind = entry.kind;
    snap.name = entry.name;
    snap.labels = entry.labels;
    switch (entry.kind) {
      case MetricSnapshot::Kind::kCounter:
        snap.value = static_cast<double>(entry.counter->value());
        break;
      case MetricSnapshot::Kind::kGauge:
        snap.value = entry.gauge->value();
        break;
      case MetricSnapshot::Kind::kHistogram:
        snap.count = entry.histogram->count();
        snap.sum = entry.histogram->sum();
        snap.bucket_bounds = entry.histogram->bucket_bounds();
        snap.bucket_counts = entry.histogram->CumulativeBucketCounts();
        break;
    }
    out.push_back(std::move(snap));
  }
  return out;
}

}  // namespace obs
}  // namespace regal
