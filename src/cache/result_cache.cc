#include "cache/result_cache.h"

#include <algorithm>
#include <cstring>
#include <type_traits>
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

int64_t PayloadBytes(const RegionSet& value) {
  return static_cast<int64_t>(value.regions().capacity() * sizeof(Region));
}

// A payload's key in the payload table: its size and five regions spread
// over it, read without a pass over the payload. Equal sets have equal keys;
// Intern confirms a match in full.
uint64_t SampledKey(const RegionSet& value) {
  const size_t n = value.size();
  uint64_t h = n * 0x9e3779b97f4a7c15ull;
  for (size_t i : {size_t{0}, n / 4, n / 2, n - n / 4 - 1, n - 1}) {
    const Region& r = value[i];
    h ^= (static_cast<uint64_t>(static_cast<uint32_t>(r.left)) << 32 |
          static_cast<uint32_t>(r.right)) +
         0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h ^ (h >> 29);
}

}  // namespace

ResultCache::ResultCache(ResultCacheOptions options)
    : options_(options),
      shards_(RoundUpPowerOfTwo(std::max<size_t>(1, options.shards))),
      payload_shards_(shards_.size()) {
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
  payload_bytes_gauge_ = registry.GetGauge("regal_cache_payload_bytes");
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
  return PayloadBytes(value) + kEntryOverheadBytes;
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

RegionSet ResultCache::Intern(RegionSet value, uint64_t payload_key) {
  if (value.empty()) return value;  // No payload to share.
  static_assert(std::has_unique_object_representations_v<Region>,
                "memcmp compares every byte of a Region");
  PayloadShard& table = PayloadShardFor(payload_key);
  std::lock_guard<std::mutex> lock(table.mu);
  auto [lo, hi] = table.slots.equal_range(payload_key);
  for (auto it = lo; it != hi; ++it) {
    const std::vector<Region>& held = it->second.payload.regions();
    const std::vector<Region>& fresh = value.regions();
    if (held.data() == fresh.data() ||
        (held.size() == fresh.size() &&
         std::memcmp(held.data(), fresh.data(),
                     fresh.size() * sizeof(Region)) == 0)) {
      ++it->second.uses;
      return it->second.payload;
    }
  }
  payload_bytes_.fetch_add(PayloadBytes(value), std::memory_order_relaxed);
  table.slots.emplace(payload_key, PayloadSlot{value, 1});
  return value;
}

void ResultCache::Release(const Entry& entry) {
  if (entry.value.empty()) return;
  PayloadShard& table = PayloadShardFor(entry.payload_key);
  std::lock_guard<std::mutex> lock(table.mu);
  auto [lo, hi] = table.slots.equal_range(entry.payload_key);
  for (auto it = lo; it != hi; ++it) {
    if (it->second.payload.regions().data() != entry.value.regions().data()) {
      continue;
    }
    if (--it->second.uses == 0) {
      payload_bytes_.fetch_sub(PayloadBytes(entry.value),
                               std::memory_order_relaxed);
      table.slots.erase(it);
    }
    return;
  }
}

void ResultCache::EraseLocked(Shard& shard, std::list<Entry>::iterator it) {
  auto [lo, hi] = shard.index.equal_range(it->key.fingerprint);
  for (auto idx = lo; idx != hi; ++idx) {
    if (idx->second == it) {
      shard.index.erase(idx);
      break;
    }
  }
  Release(*it);
  shard.bytes -= it->bytes;
  bytes_.fetch_sub(it->bytes, std::memory_order_relaxed);
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
  const uint64_t payload_key = value.empty() ? 0 : SampledKey(value);
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
      shard.lru.push_front(Entry{key, canonical,
                                 Intern(std::move(value), payload_key),
                                 entry_bytes, payload_key});
      shard.index.emplace(key.fingerprint, shard.lru.begin());
      shard.bytes += entry_bytes;
      bytes_.fetch_add(entry_bytes, std::memory_order_relaxed);
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
    for (const Entry& entry : shard.lru) Release(entry);
    bytes_.fetch_sub(shard.bytes, std::memory_order_relaxed);
    shard.lru.clear();
    shard.index.clear();
    shard.bytes = 0;
  }
  PublishBytes();
}

int64_t ResultCache::bytes() const {
  return bytes_.load(std::memory_order_relaxed);
}

int64_t ResultCache::payload_bytes() const {
  return payload_bytes_.load(std::memory_order_relaxed);
}

int64_t ResultCache::entries() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += static_cast<int64_t>(shard.lru.size());
  }
  return total;
}

void ResultCache::PublishBytes() const {
  bytes_gauge_->Set(bytes());
  payload_bytes_gauge_->Set(payload_bytes());
}

}  // namespace cache
}  // namespace regal
