#include "cache/result_cache.h"

#include <algorithm>
#include <utility>

#include "safety/failpoint.h"

namespace regal {
namespace cache {

namespace {

// Bookkeeping estimate per entry: LRU node, index slot, key, and the
// canonical expression skeleton. Deliberately coarse — the payload
// (regions) dominates for every entry worth caching. The HELP text of
// regal_cache_bytes (obs/prometheus.cc) states this value.
constexpr int64_t kEntryOverheadBytes = 256;

size_t RoundUpPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

ResultCache::ResultCache(ResultCacheOptions options)
    : options_(options),
      shards_(RoundUpPowerOfTwo(std::max<size_t>(1, options.shards))) {
  shard_max_bytes_ =
      std::max<int64_t>(1, options_.max_bytes /
                               static_cast<int64_t>(shards_.size()));
  obs::Registry& registry = obs::Registry::Default();
  hits_ = registry.GetCounter("regal_cache_hits_total");
  misses_ = registry.GetCounter("regal_cache_misses_total");
  inserts_ = registry.GetCounter("regal_cache_inserts_total");
  evictions_ = registry.GetCounter("regal_cache_evictions_total");
  superseded_ = registry.GetCounter("regal_cache_superseded_total");
  insert_failures_ = registry.GetCounter("regal_cache_insert_failures_total");
  bytes_gauge_ = registry.GetGauge("regal_cache_bytes");
  hit_ratio_gauge_ = registry.GetGauge("regal_cache_hit_ratio");
}

void ResultCache::PublishHitRatio() const {
  // Lifetime ratio from the lock-free counters: cheap enough to refresh on
  // every lookup, and scrape-time consistent enough for an efficiency gauge.
  const double hits = static_cast<double>(hits_->value());
  const double misses = static_cast<double>(misses_->value());
  if (hits + misses > 0) hit_ratio_gauge_->Set(hits / (hits + misses));
}

int64_t ResultCache::EntryBytes(const RegionSet& value) {
  return static_cast<int64_t>(value.regions().capacity() * sizeof(Region)) +
         kEntryOverheadBytes;
}

bool ResultCache::SameExprLocked(const Entry& entry, const Key& key,
                                 const ExprPtr& canonical) const {
  return entry.key.instance_id == key.instance_id &&
         entry.key.fingerprint == key.fingerprint &&
         entry.canonical->Equals(*canonical);
}

std::optional<RegionSet> ResultCache::Lookup(const Key& key,
                                             const ExprPtr& canonical,
                                             CacheQueryStats* stats) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [lo, hi] = shard.index.equal_range(key.fingerprint);
  for (auto it = lo; it != hi; ++it) {
    if (it->second->key.stamp == key.stamp &&
        SameExprLocked(*it->second, key, canonical)) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      hits_->Increment();
      PublishHitRatio();
      if (stats != nullptr) ++stats->hits;
      return it->second->value;
    }
  }
  misses_->Increment();
  PublishHitRatio();
  if (stats != nullptr) ++stats->misses;
  return std::nullopt;
}

void ResultCache::EraseLocked(Shard& shard, std::list<Entry>::iterator it) {
  auto [lo, hi] = shard.index.equal_range(it->key.fingerprint);
  for (auto idx = lo; idx != hi; ++idx) {
    if (idx->second == it) {
      shard.index.erase(idx);
      break;
    }
  }
  shard.bytes -= it->bytes;
  shard.lru.erase(it);
}

bool ResultCache::Insert(const Key& key, const ExprPtr& canonical,
                         RegionSet value, CacheQueryStats* stats) {
  const int64_t entry_bytes = EntryBytes(value);
  if (entry_bytes > shard_max_bytes_) {
    insert_failures_->Increment();
    if (stats != nullptr) ++stats->insert_failures;
    return false;
  }
  Shard& shard = ShardFor(key);
  int64_t evicted = 0;
  bool superseded = false;
  bool inserted = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [lo, hi] = shard.index.equal_range(key.fingerprint);
    for (auto it = lo; it != hi; ++it) {
      if (!SameExprLocked(*it->second, key, canonical)) continue;
      if (it->second->key.stamp >= key.stamp) {
        // Equal stamps: another query already published this result; keep
        // the incumbent (the values are equal by construction) and refresh
        // its position. A newer incumbent means this result is stale.
        if (it->second->key.stamp > key.stamp) superseded_->Increment();
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        return false;
      }
      // The state this entry was computed from is gone for good. Every
      // insert drops its predecessor, so there is at most one to drop.
      EraseLocked(shard, it->second);
      superseded = true;
      break;
    }
    while (shard.bytes + entry_bytes > shard_max_bytes_) {
      // Failpoint: eviction under pressure. A fired site abandons the
      // insert — the cache is best-effort, the query result still stands.
      if (safety::FailpointFires("cache.evict.pressure")) break;
      EraseLocked(shard, std::prev(shard.lru.end()));
      ++evicted;
    }
    inserted = shard.bytes + entry_bytes <= shard_max_bytes_;
    if (inserted) {
      shard.lru.push_front(
          Entry{key, canonical, std::move(value), entry_bytes});
      shard.index.emplace(key.fingerprint, shard.lru.begin());
      shard.bytes += entry_bytes;
    }
  }
  if (superseded) superseded_->Increment();
  if (evicted > 0) evictions_->Increment(evicted);
  if (inserted) {
    inserts_->Increment();
  } else {
    insert_failures_->Increment();
  }
  if (stats != nullptr) {
    if (inserted) {
      ++stats->inserts;
    } else {
      ++stats->insert_failures;
    }
    stats->evictions += evicted;
  }
  PublishBytes();
  return inserted;
}

void ResultCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.lru.clear();
    shard.index.clear();
    shard.bytes = 0;
  }
  PublishBytes();
}

int64_t ResultCache::bytes() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.bytes;
  }
  return total;
}

int64_t ResultCache::entries() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += static_cast<int64_t>(shard.lru.size());
  }
  return total;
}

void ResultCache::PublishBytes() const { bytes_gauge_->Set(bytes()); }

}  // namespace cache
}  // namespace regal
