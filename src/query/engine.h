#ifndef REGAL_QUERY_ENGINE_H_
#define REGAL_QUERY_ENGINE_H_

#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "cache/result_cache.h"
#include "core/eval.h"
#include "core/instance.h"
#include "graph/digraph.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/cost.h"
#include "opt/optimizer.h"
#include "query/parser.h"
#include "recovery/durable.h"
#include "safety/context.h"
#include "storage/snapshot.h"
#include "util/status.h"

namespace regal {

namespace admin {
class AdminServer;
}  // namespace admin

/// The annotated execution plan behind `explain [analyze]`: a span tree
/// mirroring the executed expression, each node carrying the optimizer's
/// cardinality estimate plus — for `analyze` — actual input/output
/// cardinalities, operator work counters and wall time.
struct QueryProfile {
  obs::Span plan;
  bool analyzed = false;  // True when the plan was actually executed.
  double total_ms = 0;
  obs::OpCounters counters;  // Totals across the whole plan.

  // Governance outcome (see safety/context.h and DESIGN.md "Resource
  // governance & failure model").
  bool limits_enforced = false;  // A QueryContext was active for this run.
  bool degraded = false;         // Some parallel path fell back to sequential.
  /// Human-readable fallback records, e.g. "pool saturated: sequential
  /// evaluation" or "kernel fallback x3: sequential operators".
  std::vector<std::string> fallbacks;
  /// Peak bytes of materialized results charged against the memory budget
  /// (0 when no context was active).
  int64_t peak_memory_bytes = 0;

  // Cross-query result-cache envelope (see cache/result_cache.h and
  // DESIGN.md "Result caching"): this query's cache activity plus the
  // cache's footprint when the query finished.
  bool cache_enabled = false;
  cache::CacheQueryStats cache;
  int64_t cache_bytes = 0;

  /// Human-readable plan tree (obs::FormatSpanTree).
  std::string Tree() const;
  /// Machine-readable exports (see obs/export.h).
  std::string Json() const;
  std::string ChromeTrace() const;
};

/// A materialized query answer plus execution diagnostics.
struct QueryAnswer {
  /// Shares its payload with the evaluator's result (and with the result
  /// cache entry or instance set it came from): an answer copies no
  /// regions, and stays valid after the cache evicts or a write replaces
  /// what it was read from.
  RegionSet regions;
  ExprPtr parsed;          // The query as parsed.
  ExprPtr executed;        // After optimization (== parsed if disabled).
  int rewrite_rules_applied = 0;
  /// Which optimizer rewrites fired, in application order (empty when the
  /// optimizer was disabled or had nothing to do).
  std::vector<RewriteEvent> rewrites;
  EvalStats eval_stats;
  double elapsed_ms = 0;
  /// Set for `explain` / `explain analyze` statements (and for RunExpr with
  /// profiling requested). For plain `explain`, regions is empty and the
  /// plan carries estimates only.
  std::optional<QueryProfile> profile;

  /// Result rows rendered with text snippets (text-backed catalogs) or
  /// offset pairs (synthetic ones). At most `limit` rows. For `explain`
  /// answers the rows are the plan-tree lines instead.
  std::vector<std::string> Rows(const Instance& instance, int limit = 10) const;
};

/// A statement through the front half of the pipeline (parsed, views
/// spliced, names checked, admitted, optimized), ready for
/// QueryEngine::Execute. Move-only; made by QueryEngine::Prepare. It holds
/// the engine's catalog read lock until destroyed, so the catalog it was
/// checked against — and what an answer borrows from it, like the text
/// QueryAnswer::Rows snippets — stays in place while it lives.
///
/// Do not mutate the engine (Apply and its wrappers, ReloadSnapshot,
/// Checkpoint, view definitions) or call Run/Prepare on it again while
/// holding a PreparedQuery on the same thread: the writer would wait on
/// this very read lock, and a second read lock can deadlock behind it.
class PreparedQuery {
 private:
  friend class QueryEngine;
  PreparedQuery() = default;

  std::shared_lock<std::shared_mutex> catalog_lock_;
  QueryVerb verb_ = QueryVerb::kRun;
  safety::QueryLimits limits_;
  /// What Prepare knows of the answer: parsed, executed and the rewrites.
  QueryAnswer answer_;
};

/// The end-to-end engine: a region catalog (instance + optional RIG/schema
/// + statistics) with parse -> validate -> optimize -> evaluate execution.
class QueryEngine {
 public:
  /// Takes ownership of the instance. The RIG, when provided, enables
  /// schema validation and RIG-based rewrites.
  explicit QueryEngine(Instance instance,
                       std::optional<Digraph> rig = std::nullopt);

  ~QueryEngine();

  /// Movable while quiescent only: the background checkpointer holds
  /// `this`, so it may not be running across a move. (Defaulted
  /// out-of-line: Checkpointer is incomplete here.)
  QueryEngine(QueryEngine&&);
  QueryEngine& operator=(QueryEngine&&);

  /// Convenience constructors for the bundled corpus formats.
  static Result<QueryEngine> FromProgramSource(const std::string& source);
  static Result<QueryEngine> FromSgmlSource(const std::string& source);

  // --- Durable snapshots (see storage/snapshot.h and DESIGN.md
  // "Durability & snapshot format") ---

  /// Persists the catalog to `path` through the storage Env
  /// (Env::Default() when null): serialized as REGAL2 and committed via the
  /// atomic temp+fsync+rename protocol, so a crash at any point leaves the
  /// previous snapshot readable.
  Status SaveSnapshot(const std::string& path,
                      storage::Env* env = nullptr) const;

  /// Opens an engine over a snapshot file (REGAL1 or REGAL2, sniffed by
  /// magic). Corrupt REGAL2 snapshots fail with kDataLoss.
  static Result<QueryEngine> OpenSnapshot(
      const std::string& path, storage::Env* env = nullptr,
      std::optional<Digraph> rig = std::nullopt);

  /// Replaces this engine's catalog with the snapshot at `path` (the
  /// reindex-and-swap workflow). On success the loaded instance carries a
  /// fresh instance id, so no result-cache entry keyed to the pre-reload
  /// catalog could serve it; the swap clears the result cache, whose
  /// entries were all keyed to the replaced id. Expression and
  /// materialized views are dropped (they were derived from the old
  /// catalog). On failure the engine is untouched. The swap excludes
  /// in-flight queries (catalog write lock), so a query observes either
  /// the old catalog or the new one, never a half-replaced state.
  Status ReloadSnapshot(const std::string& path, storage::Env* env = nullptr);

  // --- Write-ahead log & crash recovery (see recovery/ and DESIGN.md
  // "Recovery & write-ahead log") ---

  /// Opens (or creates) a *durable* engine over the WAL + snapshot +
  /// manifest directory `dir`: crash recovery replays journaled mutations
  /// past the last checkpoint, a corrupted snapshot is quarantined and
  /// salvaged into a degraded-mode catalog (see DurableStore::Open), and
  /// every subsequent Apply() is journaled before it lands.
  static Result<QueryEngine> OpenDurable(
      const std::string& dir, recovery::DurableOptions options = {},
      storage::Env* env = nullptr, std::optional<Digraph> rig = std::nullopt);

  /// Applies one catalog mutation, journal-first when durable: the record
  /// is in the WAL (durable per the sync policy) before the in-memory
  /// catalog changes, so an acknowledged mutation survives any crash.
  /// Works on non-durable engines too (the journaling step is skipped).
  /// DefineRegions on an existing name fails (AlreadyExists) *before*
  /// journaling — the WAL only ever holds applicable records.
  Status Apply(const recovery::Mutation& m);

  /// Group commit: journals the whole batch with one fsync, then applies.
  Status ApplyBatch(const std::vector<recovery::Mutation>& batch);

  /// Convenience mutators over Apply().
  Status DefineRegions(const std::string& name, RegionSet regions);
  Status ReplaceRegions(const std::string& name, RegionSet regions);
  Status BindText(std::string text);
  Status SetSyntheticPattern(const Pattern& pattern, RegionSet regions);

  /// Checkpoints now: clean snapshot, manifest advance, WAL reset. Heals a
  /// degraded open. FailedPrecondition on a non-durable engine.
  Status Checkpoint();

  /// Starts a thread that checkpoints whenever the journal reaches the
  /// configured threshold (or the store is degraded), checking at least
  /// every `interval_ms`. The engine must outlive — and must not be moved
  /// while — the checkpointer runs.
  Status StartBackgroundCheckpointer(double interval_ms = 1000.0);
  /// Stops and joins the checkpointer thread. Idempotent.
  void StopBackgroundCheckpointer();

  /// Pauses (or resumes) the background checkpointer without stopping the
  /// thread: a paused checkpointer keeps waking but skips the checkpoint
  /// itself. The brownout path uses this so snapshot IO never competes
  /// with an overloaded serving path; the WAL keeps every mutation safe
  /// meanwhile. No-op when no background checkpointer runs.
  void SetCheckpointerPaused(bool paused);
  /// True while a running background checkpointer is paused.
  bool checkpointer_paused() const;

  /// The durable store, or null for in-memory engines. Health is stable
  /// between mutations (read it from the mutating thread or /statusz).
  recovery::DurableStore* durable_store() { return durable_.get(); }

  const Instance& instance() const { return instance_; }
  const std::optional<Digraph>& rig() const { return rig_; }

  /// Checks the hierarchy invariant and (when a RIG is present) schema
  /// conformance.
  Status Validate() const;

  /// Parses and runs `query` (Prepare, then Execute). Unknown region names
  /// fail with NotFound before evaluation. `optimize` toggles the rewrite
  /// pass. The statement verbs `explain <q>` / `explain analyze <q>` return
  /// the annotated plan in QueryAnswer::profile (the former without
  /// executing).
  Result<QueryAnswer> Run(const std::string& query, bool optimize = true);

  /// As above, but the run is governed by `limits` instead of the
  /// engine-wide limits: admission control rejects over-complex
  /// expressions up front, and deadline / cancellation / memory-budget
  /// violations surface as kDeadlineExceeded / kCancelled /
  /// kResourceExhausted within one operator boundary.
  Result<QueryAnswer> Run(const std::string& query,
                          const safety::QueryLimits& limits,
                          bool optimize = true);

  /// Run's front half: parse -> resolve views -> check names -> admission
  /// against `limits` (not for plain `explain`) -> optimize. Parse errors,
  /// unknown names and over-complex expressions fail here, counted and
  /// flight-recorded as Run reports them. Evaluates nothing and draws no
  /// query id unless it records a rejection. See PreparedQuery.
  Result<PreparedQuery> Prepare(const std::string& query,
                                const safety::QueryLimits& limits,
                                bool optimize = true);

  /// Run's back half: evaluates `prepared` (from this engine) under its
  /// limits, drawing the query id and tracing for `explain analyze`, or
  /// builds the estimate-only plan for plain `explain`. Takes no lock: the
  /// prepared query already holds it.
  Result<QueryAnswer> Execute(const PreparedQuery& prepared);

  /// True when `prepared` is a plain `run` statement answerable from warm
  /// state: its executed root is a raw name scan (always free — it shares
  /// the instance's set) or has its canonical key resident in the result
  /// cache (one lookup). Brownout mode serves only such queries; everything
  /// else gets a typed kOverloaded refusal. Never evaluates anything.
  bool IsCacheResident(const PreparedQuery& prepared);

  /// Runs an already-built expression. `profile` requests span tracing and
  /// fills QueryAnswer::profile (the `explain analyze` path).
  Result<QueryAnswer> RunExpr(const ExprPtr& expr, bool optimize = true,
                              bool profile = false);

  // --- Views (footnote 1 of the paper: dynamically constructed region
  // sets treated as names) ---

  /// An *expression view*: `name` becomes a macro for the query; uses are
  /// spliced in before optimization. Errors if the name collides with a
  /// region name or another view.
  Status DefineView(const std::string& name, const std::string& query);

  /// A *materialized span view* (PAT's `A .. B` constructor): evaluates
  /// both queries and binds `name` to the set of minimal spans from each
  /// start-region to the nearest following end-region.
  Status DefineSpanView(const std::string& name,
                        const std::string& starts_query,
                        const std::string& ends_query);

  /// A *window view*: regions of ±(before, after) bytes around each token
  /// matching the pattern. Requires a text-backed catalog; a negative
  /// `before` or `after` is rejected with kInvalidArgument.
  Status DefineWindowView(const std::string& name, const Pattern& pattern,
                          Offset before, Offset after);

  // --- Parallel execution (see exec/ and DESIGN.md "Execution
  // architecture") ---

  /// Master switch for the parallel execution layer. When on (the default),
  /// Execute installs a ParallelEvalPolicy whenever the optimizer's cost
  /// estimate for the executed plan reaches the threshold below. Parallel
  /// and sequential execution return bit-identical answers.
  void set_parallel_enabled(bool enabled) { parallel_enabled_ = enabled; }
  bool parallel_enabled() const { return parallel_enabled_; }

  /// Minimum estimated plan cost (EstimateCost().cost, roughly rows
  /// touched) before evaluation goes parallel. Cheap plans stay on the
  /// sequential path, whose constant factors are smaller.
  void set_parallel_cost_threshold(double cost) {
    parallel_cost_threshold_ = cost;
  }
  double parallel_cost_threshold() const { return parallel_cost_threshold_; }

  /// Tweaks the policy handed to the evaluator (pool override, kernel
  /// min_rows, subtree concurrency) — primarily for tests and benches.
  ParallelEvalPolicy* mutable_parallel_policy() { return &parallel_policy_; }

  // --- Resource governance (see safety/context.h and DESIGN.md "Resource
  // governance & failure model") ---

  /// Limits applied to every subsequent Run / RunExpr call. The default
  /// (no limits set) adds zero per-node work to evaluation.
  void set_limits(safety::QueryLimits limits) { limits_ = std::move(limits); }
  const safety::QueryLimits& limits() const { return limits_; }

  // --- Result caching (see cache/result_cache.h and DESIGN.md "Result
  // caching") ---

  /// Master switch for the cross-query result cache. When on (the
  /// default), every query seeds its evaluator memo from cached subtree
  /// results and publishes what it computes, so repeated structural
  /// sub-queries — the paper's assumed access pattern — short-circuit.
  /// Cached and recomputed answers are identical: entries are keyed by the
  /// stamps of the names (and, for σ / `word` / ⊃_d / ⊂_d, the text or
  /// region tree) each answer reads, and verified against the canonical
  /// expression, never by fingerprint alone. A write invalidates only the
  /// answers that read what it changed.
  void set_result_cache_enabled(bool enabled) {
    result_cache_enabled_ = enabled;
  }
  bool result_cache_enabled() const { return result_cache_enabled_; }

  /// The engine's cache, for tuning and inspection (tests, benches, ops).
  cache::ResultCache& result_cache() { return *result_cache_; }

  // --- Always-on telemetry & admin endpoint (see obs/, admin/ and
  // DESIGN.md "Always-on telemetry & admin endpoint") ---

  /// Master switch for per-query telemetry. When on (the default), every
  /// Run / RunExpr draws a monotonic query id, is counted in the
  /// regal_engine_inflight_queries gauge, and is offered to the flight
  /// recorder: errored and slow queries are always kept, the rest sampled
  /// 1-in-N (sampled queries additionally collect a live execution trace
  /// for /tracez). When off, only the pre-existing aggregate metrics
  /// remain — the recorder is never consulted.
  void set_telemetry_enabled(bool enabled) { telemetry_enabled_ = enabled; }
  bool telemetry_enabled() const { return telemetry_enabled_; }

  /// Recorder override for tests and multi-engine embeddings; null (the
  /// default) shares obs::FlightRecorder::Default().
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    recorder_ = recorder;
  }
  /// The recorder this engine records into (override or process default).
  obs::FlightRecorder* flight_recorder() {
    return recorder_ != nullptr ? recorder_ : &obs::FlightRecorder::Default();
  }

  /// Registers this engine's /statusz sections (catalog, cache, exec,
  /// telemetry, plus recovery when durable) on `server`, each section name
  /// prefixed with `prefix`. Whoever owns an admin endpoint calls this for
  /// every engine it shows (the query service does, once per hosted
  /// instance). The engine must outlive the server.
  void RegisterStatusSections(admin::AdminServer* server,
                              const std::string& prefix = "");

  /// Registers the engine-independent "cpu" section (ISA features, active
  /// kernel tier): once per admin endpoint, however many engines it shows.
  static void RegisterCpuStatusSection(admin::AdminServer* server);

 private:
  struct Checkpointer;

  /// Prepare past the parse (RunExpr enters here).
  Result<PreparedQuery> PrepareStatement(QueryVerb verb, const ExprPtr& expr,
                                         const safety::QueryLimits& limits,
                                         bool optimize);
  Status CheckViewName(const std::string& name) const;
  /// Splices expression views into `expr` (views may reference earlier
  /// views; definition-time splicing keeps this acyclic).
  ExprPtr ResolveViews(const ExprPtr& expr) const;
  /// Runs a threshold-reached checkpoint after a mutation: hands off to
  /// the background checkpointer when running, else checkpoints inline.
  void MaybeCheckpoint();

  /// Registry handles of the metrics every executed query updates,
  /// resolved once at construction: a Registry::Get* call takes the
  /// registry's process-wide mutex, a held handle is one atomic update.
  struct QueryMetrics {
    obs::Gauge* inflight;
    obs::Counter* run;
    obs::Counter* explain;
    obs::Counter* explain_analyze;
    obs::Counter* admitted;
    obs::Histogram* latency_ms;
    obs::Histogram* peak_memory_bytes;
  };
  static QueryMetrics ResolveQueryMetrics();

  // Catalog read-write lock: queries / explain / statusz hold it shared,
  // Apply / ReloadSnapshot / view definition hold it exclusive — so no
  // query ever observes a half-replayed or half-swapped catalog. In a
  // unique_ptr because shared_mutex is immovable and the engine is not.
  std::unique_ptr<std::shared_mutex> catalog_mu_ =
      std::make_unique<std::shared_mutex>();
  Instance instance_;
  std::optional<Digraph> rig_;
  CatalogStats stats_;
  std::map<std::string, ExprPtr> expression_views_;
  std::map<std::string, RegionSet> materialized_views_;
  bool parallel_enabled_ = true;
  double parallel_cost_threshold_ = 1 << 16;
  ParallelEvalPolicy parallel_policy_;
  safety::QueryLimits limits_;
  // unique_ptr: the cache owns mutexes, and the engine must stay movable.
  std::unique_ptr<cache::ResultCache> result_cache_;
  bool result_cache_enabled_ = true;
  bool telemetry_enabled_ = true;
  obs::FlightRecorder* recorder_ = nullptr;
  QueryMetrics metrics_ = ResolveQueryMetrics();
  std::unique_ptr<recovery::DurableStore> durable_;
  std::unique_ptr<Checkpointer> checkpointer_;
};

}  // namespace regal

#endif  // REGAL_QUERY_ENGINE_H_
