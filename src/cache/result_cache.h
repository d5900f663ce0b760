#ifndef REGAL_CACHE_RESULT_CACHE_H_
#define REGAL_CACHE_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/expr.h"
#include "core/region_set.h"
#include "obs/metrics.h"

namespace regal {
namespace cache {

/// Sizing knobs for a ResultCache. Defaults suit one mid-sized catalog; the
/// engine exposes the cache so deployments can tune it.
struct ResultCacheOptions {
  /// Total byte budget across all shards (the allocated region payloads
  /// plus a fixed per-entry overhead estimate, see EntryBytes; a payload
  /// several entries share is charged to each). Split evenly; each shard
  /// evicts LRU-first to stay under its slice.
  int64_t max_bytes = int64_t{64} << 20;
  /// Number of independently locked shards, rounded up to a power of two.
  /// Entries land on shards by fingerprint, so concurrent queries touching
  /// different expressions rarely contend.
  size_t shards = 8;
};

/// One query's view of cache activity, filled by the evaluator/engine and
/// reported in the `explain analyze` cache envelope (QueryProfile::Json()).
struct CacheQueryStats {
  int64_t hits = 0;        // Subtrees short-circuited from the cache.
  int64_t misses = 0;      // Probes that found nothing.
  int64_t inserts = 0;     // Results newly published to the cache.
  int64_t evictions = 0;   // Entries this query's inserts pushed out.
  int64_t insert_failures = 0;  // Inserts abandoned (pressure/failpoint).

  void Add(const CacheQueryStats& other) {
    hits += other.hits;
    misses += other.misses;
    inserts += other.inserts;
    evictions += other.evictions;
    insert_failures += other.insert_failures;
  }
};

/// A byte-accounted, sharded LRU cache of materialized query results,
/// shared across queries. An entry holds a RegionSet handle, so it pins
/// exactly the result's payload: a hit hands out another handle to it, and
/// the evaluator's memo and the query answer share the cached regions
/// instead of copying them. Entries whose results are equal hold one
/// payload: Insert looks the published set up in a table of the payloads
/// the entries hold (keyed by its size and a few sampled regions, confirmed
/// by pointer or memcmp) and stores the match. Each entry is still charged
/// its payload in full, so which entries are held, hit and evicted does not
/// depend on sharing, and max_bytes bounds the memory the cache pins from
/// above. Keys are (instance id, stamp, canonical expression fingerprint),
/// built by CacheKeyer (core/eval.h): the stamp is
/// the newest mutation epoch among the state the expression reads, so a
/// write changes the keys of exactly the answers that read what it wrote.
/// A fingerprint match is verified against the stored canonical expression
/// (Expr::CanonicalEquals' normal form), so a 64-bit collision can never
/// surface a wrong result. Stamps only grow, so an entry with an older
/// stamp than a new one for the same instance and canonical form can never
/// hit again: Insert drops it at once (regal_cache_superseded_total), and
/// abandons an insert that arrives older than its incumbent.
///
/// Thread-safe: lookups and inserts from concurrent queries (and from the
/// parallel evaluator's pool threads) lock only the shard they touch, and
/// an insert or an erase then locks the payload table's shard for its
/// payload (shard lock before table lock, never the reverse).
/// Callers that evaluate with `bindings` (materialized views) must not
/// reuse one cache across binding changes for the same instance — the
/// engine guarantees this (view names are define-once).
///
/// Activity is exported through obs as regal_cache_hits_total,
/// regal_cache_misses_total, regal_cache_inserts_total,
/// regal_cache_evictions_total (pressure only), regal_cache_superseded_total,
/// regal_cache_insert_failures_total and the regal_cache_bytes,
/// regal_cache_payload_bytes and regal_cache_hit_ratio gauges (the latter
/// refreshed on every lookup, so a /metrics scrape always sees the current
/// lifetime ratio). The eviction loop carries the
/// `cache.evict.pressure` failpoint: when armed and firing, the insert is
/// abandoned instead of evicting — the degradation a deployment must
/// survive when eviction cannot keep up.
class ResultCache {
 public:
  struct Key {
    uint64_t instance_id = 0;
    uint64_t stamp = 0;
    uint64_t fingerprint = 0;
  };

  explicit ResultCache(ResultCacheOptions options = {});
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The cached result for `key` (sharing the entry's payload), or nullopt.
  /// `canonical` must be the canonical form whose fingerprint is
  /// key.fingerprint; it disambiguates fingerprint collisions. A hit
  /// refreshes the entry's LRU position.
  std::optional<RegionSet> Lookup(const Key& key, const ExprPtr& canonical,
                                  CacheQueryStats* stats = nullptr);

  /// Publishes `value` under `key`, first dropping an entry for the same
  /// instance and canonical form with an older stamp, then evicting LRU
  /// entries as needed. The new entry holds the payload of an equal result
  /// another entry holds, if there is one. False when the insert was
  /// abandoned: the entry alone exceeds the shard budget, the eviction
  /// failpoint fired, an equal entry already exists (another query won the
  /// race; not counted as a failure), or one with a newer stamp does
  /// (counted as superseded).
  bool Insert(const Key& key, const ExprPtr& canonical, RegionSet value,
              CacheQueryStats* stats = nullptr);

  /// Drops every entry (tests, and the engine when ReloadSnapshot replaces
  /// the instance every entry was keyed to).
  void Clear();

  int64_t bytes() const;          // Current accounted footprint.
  int64_t payload_bytes() const;  // Distinct payload bytes the entries hold.
  int64_t entries() const;        // Current entry count.
  int64_t max_bytes() const { return options_.max_bytes; }

  /// Accounted footprint of one entry: the payload's allocated regions
  /// (capacity, so slack could never sit outside the budget) plus a fixed
  /// estimate for the canonical expression and bookkeeping.
  static int64_t EntryBytes(const RegionSet& value);

 private:
  struct Entry {
    Key key;
    ExprPtr canonical;
    RegionSet value;
    int64_t bytes = 0;
    uint64_t payload_key = 0;  // value's slot in the payload table.
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // Front = most recently used.
    std::unordered_multimap<uint64_t, std::list<Entry>::iterator> index;
    int64_t bytes = 0;
  };
  /// One distinct payload held by `uses` entries.
  struct PayloadSlot {
    RegionSet payload;
    int64_t uses = 0;
  };
  struct PayloadShard {
    std::mutex mu;
    std::unordered_multimap<uint64_t, PayloadSlot> slots;
  };

  Shard& ShardFor(const Key& key) {
    return shards_[key.fingerprint & (shards_.size() - 1)];
  }
  PayloadShard& PayloadShardFor(uint64_t payload_key) {
    return payload_shards_[payload_key & (payload_shards_.size() - 1)];
  }
  /// Same instance and canonical form as `key`/`canonical`, any stamp.
  bool SameExprLocked(const Entry& entry, const Key& key,
                      const ExprPtr& canonical) const;
  /// The held payload equal to `value` (one more use of it), or `value`
  /// itself in a new slot.
  RegionSet Intern(RegionSet value, uint64_t payload_key);
  /// Drops `entry`'s use of its payload slot.
  void Release(const Entry& entry);
  void EraseLocked(Shard& shard, std::list<Entry>::iterator it);
  void PublishBytes() const;
  void PublishHitRatio() const;

  ResultCacheOptions options_;
  int64_t shard_max_bytes_ = 0;
  std::vector<Shard> shards_;
  std::vector<PayloadShard> payload_shards_;
  // Sums kept beside the shards, so bytes() and payload_bytes() lock none.
  std::atomic<int64_t> bytes_{0};
  std::atomic<int64_t> payload_bytes_{0};

  // Registry pointers resolved once; increments are lock-free.
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* inserts_;
  obs::Counter* evictions_;
  obs::Counter* superseded_;
  obs::Counter* insert_failures_;
  obs::Gauge* bytes_gauge_;
  obs::Gauge* payload_bytes_gauge_;
  obs::Gauge* hit_ratio_gauge_;
};

}  // namespace cache
}  // namespace regal

#endif  // REGAL_CACHE_RESULT_CACHE_H_
