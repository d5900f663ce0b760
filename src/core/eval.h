#ifndef REGAL_CORE_EVAL_H_
#define REGAL_CORE_EVAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "cache/result_cache.h"
#include "core/expr.h"
#include "core/instance.h"
#include "core/region_set.h"
#include "exec/parallel_algebra.h"
#include "obs/trace.h"
#include "safety/context.h"
#include "util/status.h"

namespace regal {

/// Controls the evaluator's use of the exec thread pool. The engine installs
/// a policy only when the optimizer's EstimateCost for the whole plan
/// exceeds its threshold (see QueryEngine::set_parallel_cost_threshold);
/// with no policy the evaluator is strictly sequential.
///
/// Parallel and sequential evaluation return bit-identical RegionSets: the
/// partitioned kernels preserve document order per chunk, and memoization
/// computes every shared node exactly once regardless of which thread gets
/// there first.
struct ParallelEvalPolicy {
  /// Pool for kernels and subtree tasks; nullptr means ThreadPool::Default().
  exec::ThreadPool* pool = nullptr;
  /// Combined operand rows before an operator dispatches to the partitioned
  /// kernels (below this the sequential operator is cheaper).
  size_t min_rows = 1u << 14;
  /// Evaluate the two children of a binary node concurrently when both are
  /// operator subtrees. Automatically disabled under a Tracer (span trees
  /// are strictly nested per thread).
  bool parallel_subtrees = true;
};

/// Knobs for Evaluator. `use_naive` switches every operator to the O(n*m)
/// reference implementation (the oracle used by property tests and the
/// baseline in bench_operators). `bindings`, when set, resolves region
/// names before the instance does — the mechanism behind materialized
/// views (dynamically constructed region sets, footnote 1 of the paper).
/// `tracer`, when set, records one span per expression node (operator,
/// input/output cardinalities, operator work counters, wall time) — the
/// machinery behind `explain analyze`. Null tracer = no tracing work at
/// all beyond one branch per node. `parallel`, when set, dispatches large
/// operators to the partitioned kernels of exec/parallel_algebra.h and
/// runs independent subtrees concurrently. `context`, when set, is the
/// query's governance state (deadline, cancellation, memory budget): the
/// evaluator checks it once per expression node and charges every
/// materialized result against the budget, so a violated limit surfaces as
/// a clean non-OK Status within one operator boundary. Null context = no
/// governance work at all (one branch per node).
struct EvalOptions {
  bool use_naive = false;
  const std::map<std::string, RegionSet>* bindings = nullptr;
  obs::Tracer* tracer = nullptr;
  const ParallelEvalPolicy* parallel = nullptr;
  safety::QueryContext* context = nullptr;
  /// Per-query count of parallel kernels that degraded to their sequential
  /// twins, forwarded to every kernel dispatch; nullptr means untracked.
  std::atomic<int64_t>* kernel_fallbacks = nullptr;
  /// Cross-query result cache (see cache/result_cache.h), keyed by
  /// CacheKeyer: the instance id, the subtree's stamp (the newest mutation
  /// epoch among the names, W and region tree it reads) and its canonical
  /// fingerprint. When
  /// set (and use_naive is off — the naive oracle stays pure), the first
  /// arrival at every non-scan node probes the cache and seeds the memo on
  /// a hit, so the subtree short-circuits without re-execution; computed
  /// results are published back unless the query's context has already
  /// tripped (a kernel may have bailed mid-chunk, and a truncated set must
  /// never become visible to other queries). Cache-seeded sets are charged
  /// against `context` exactly like computed ones.
  cache::ResultCache* result_cache = nullptr;
  /// Per-query cache activity for the `explain analyze` cache envelope;
  /// nullptr means untracked. The evaluator writes it under its own lock,
  /// so parallel subtrees may share it.
  cache::CacheQueryStats* cache_stats = nullptr;
};

/// Builds the result-cache key (cache/result_cache.h) of every subtree
/// evaluated against one instance state: (instance id, stamp, canonical
/// fingerprint). The stamp is the newest mutation epoch among the state
/// the subtree's canonical form reads:
///  * a name: Instance::NameStamp, or 0 when `bindings` binds it (views
///    are define-once and die with their instance id on reload);
///  * σ and `word`: Instance::content_stamp(), with σ's operand;
///  * ⊃_d and ⊂_d: Instance::epoch(), for they read the region tree;
///  * every other operator: the newest of its operands' stamps.
/// Epochs only grow, so a write to anything a subtree reads raises its
/// stamp, and a write to anything else leaves its key (and hits) intact.
/// Memoized per node, so the state must not change while a keyer lives;
/// not thread-safe.
class CacheKeyer {
 public:
  explicit CacheKeyer(const Instance* instance,
                      const std::map<std::string, RegionSet>* bindings =
                          nullptr)
      : instance_(instance), bindings_(bindings) {}

  /// Canonical form of `e` (the form a cache entry is verified against).
  ExprPtr Canonical(const ExprPtr& e) { return canonicalizer_.Canonical(e); }
  /// The cache key of `e`.
  cache::ResultCache::Key Key(const ExprPtr& e);

 private:
  uint64_t Stamp(const ExprPtr& canonical);

  const Instance* instance_;
  const std::map<std::string, RegionSet>* bindings_;
  ExprCanonicalizer canonicalizer_;
  std::unordered_map<const Expr*, uint64_t> stamps_;  // canonical -> stamp
};

/// Counters accumulated across Evaluate calls; the optimizer benches read
/// them to show that RIG-based rewrites execute fewer operator evaluations.
/// Deterministic under parallel evaluation (memoization runs every node
/// once, and the sums are order-independent).
struct EvalStats {
  int64_t operator_evals = 0;  // Operator nodes executed (memoized hits excluded).
  int64_t rows_scanned = 0;    // Sum of operand sizes over executed operators.
  int64_t rows_produced = 0;   // Sum of result sizes over executed operators.
};

/// Evaluates region algebra expressions against one Instance
/// (e(I) of Definition 2.3 plus the extended operators).
///
/// Shared subtrees (the expression is a DAG of shared_ptr nodes) are
/// evaluated once per Evaluate call via pointer-keyed memoization — the
/// bounded expansions of Props 5.2/5.4 rely on this. A RegionSet is a
/// handle to a shared payload, so the memo, a name scan of an instance set,
/// a cache hit and the returned answer all share regions instead of copying
/// them. Off the naive path, an operator whose result has an operand's size
/// returns that operand's handle (ShareOperand), so a result equal to its
/// operand is never a second payload.
class Evaluator {
 public:
  explicit Evaluator(const Instance* instance, EvalOptions options = {})
      : instance_(instance), options_(options) {}

  /// e(I). Errors if e mentions a region name not defined in the instance.
  /// The answer shares its payload with the memo (and with the result cache
  /// or the instance, when the root came from there).
  Result<RegionSet> Evaluate(const ExprPtr& e);

  const EvalStats& stats() const { return stats_; }
  void ResetStats() { stats_ = EvalStats(); }

 private:
  /// Memoizing wrapper: first arrival computes via EvalNode, concurrent
  /// arrivals at the same node block until the result is ready.
  Result<RegionSet> Eval(const ExprPtr& e);
  /// Computes one node (children evaluated via Eval). `rows_in` receives the
  /// sum of operand cardinalities (0 for leaves) for the node's span.
  Result<RegionSet> EvalNode(const ExprPtr& e, int64_t* rows_in);
  /// Evaluates both children of a binary node, concurrently when the policy
  /// allows it.
  Status EvalChildren(const ExprPtr& e, RegionSet* a, RegionSet* b);
  /// `result` of an operator whose result is a subset of `first` (−, ⊃, ⊂,
  /// <, >, σ, ⊃_d, ⊂_d, BI), of both operands (∩, with `second`), or a
  /// superset of both (∪, with `second`): equal sizes then mean equal sets,
  /// so this returns the operand's handle, and the memo, the cache and the
  /// answer pin its payload instead of a copy.
  RegionSet ShareOperand(RegionSet result, const RegionSet& first,
                         const RegionSet* second = nullptr) const;
  bool SubtreeParallelismEnabled() const;

  /// One memo slot per expression node. `ready` flips under mu_ once the
  /// value (or error) is in; waiters sleep on memo_cv_.
  struct MemoEntry {
    bool ready = false;
    RegionSet value;
    Status status;
  };

  const Instance* instance_;
  EvalOptions options_;
  EvalStats stats_;
  // Guards memo_, stats_, memo_cv_ and *options_.cache_stats — uncontended
  // (one lock per node) in sequential evaluation.
  std::mutex mu_;
  std::condition_variable memo_cv_;
  std::unordered_map<const Expr*, MemoEntry> memo_;
  // Cross-query cache plumbing: one keyer per Evaluate call memoizes the
  // canonical forms and stamps per node (guarded separately —
  // canonicalization can be heavy and must not serialize against the memo).
  std::mutex key_mu_;
  std::optional<CacheKeyer> keyer_;
};

/// One-shot convenience wrapper.
Result<RegionSet> Evaluate(const Instance& instance, const ExprPtr& e,
                           EvalOptions options = {});

/// Span naming used by the evaluator's tracer, shared with the engine's
/// EXPLAIN plan builder so that estimated and executed plans render alike:
/// operator nodes use their query keyword; leaves become "scan"/"word" with
/// the operand in the detail.
const char* ExprSpanName(const Expr& e);
std::string ExprSpanDetail(const Expr& e);

}  // namespace regal

#endif  // REGAL_CORE_EVAL_H_
