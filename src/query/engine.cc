#include "query/engine.h"

#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <set>
#include <thread>

#include "admin/admin_server.h"
#include "core/construct.h"
#include "core/simd/simd_kernels.h"
#include "doc/sgml.h"
#include "doc/srccode.h"
#include "exec/thread_pool.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "opt/optimizer.h"
#include "query/parser.h"
#include "rig/rig.h"
#include "util/cpu.h"
#include "util/timer.h"

namespace regal {

namespace {

// Mirrors the evaluator's span naming to build the estimate-only plan for
// plain `explain`, which never constructs a Tracer.
obs::Span PlanFromExpr(const ExprPtr& expr, const CatalogStats& stats) {
  obs::Span span;
  span.name = ExprSpanName(*expr);
  span.detail = ExprSpanDetail(*expr);
  span.est_rows = EstimateCost(expr, stats).cardinality;
  for (const ExprPtr& child : expr->children()) {
    span.children.push_back(PlanFromExpr(child, stats));
  }
  return span;
}

// Walks a traced span tree and the executed expression in lockstep, attaching
// the cost model's cardinality estimate to every node it can line up.
// Memoized mentions are childless, so the lockstep stops there.
void AttachEstimates(obs::Span* span, const ExprPtr& expr,
                     const CatalogStats& stats) {
  span->est_rows = EstimateCost(expr, stats).cardinality;
  if (span->children.size() != expr->children().size()) return;
  for (size_t i = 0; i < span->children.size(); ++i) {
    AttachEstimates(&span->children[i], expr->children()[i], stats);
  }
}

Status CheckNames(const Instance& instance,
                  const std::map<std::string, RegionSet>& materialized,
                  const ExprPtr& resolved) {
  for (const std::string& name : resolved->NamesUsed()) {
    if (!instance.Has(name) && materialized.count(name) == 0) {
      return Status::NotFound("unknown region name '" + name + "'");
    }
  }
  return Status::OK();
}

// StatusCodeToString lowered to the label form used by flight-recorder
// records and log fields ("DEADLINE_EXCEEDED" -> "deadline_exceeded").
std::string StatusCodeLabel(StatusCode code) {
  std::string label = StatusCodeToString(code);
  for (char& c : label) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return label;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

}  // namespace

std::string QueryProfile::Tree() const { return obs::FormatSpanTree(plan); }

std::string QueryProfile::Json() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("analyzed").Bool(analyzed);
  w.Key("total_ms").Double(total_ms);
  w.Key("governance").BeginObject();
  w.Key("limits_enforced").Bool(limits_enforced);
  w.Key("degraded").Bool(degraded);
  w.Key("fallbacks").BeginArray();
  for (const std::string& fallback : fallbacks) w.String(fallback);
  w.EndArray();
  w.Key("peak_memory_bytes").Int(peak_memory_bytes);
  w.EndObject();
  w.Key("cache").BeginObject();
  w.Key("enabled").Bool(cache_enabled);
  w.Key("hits").Int(cache.hits);
  w.Key("misses").Int(cache.misses);
  w.Key("inserts").Int(cache.inserts);
  w.Key("evictions").Int(cache.evictions);
  w.Key("insert_failures").Int(cache.insert_failures);
  w.Key("bytes").Int(cache_bytes);
  w.EndObject();
  w.Key("plan");
  obs::WriteSpanJson(plan, &w);
  w.EndObject();
  return w.Take();
}

std::string QueryProfile::ChromeTrace() const {
  return obs::SpanToChromeTrace(plan);
}

std::vector<std::string> QueryAnswer::Rows(const Instance& instance,
                                           int limit) const {
  if (profile.has_value() && !profile->analyzed) {
    return SplitLines(profile->Tree());
  }
  std::vector<std::string> out;
  for (const Region& r : regions) {
    if (static_cast<int>(out.size()) >= limit) {
      out.push_back("... (" +
                    std::to_string(regions.size() - out.size()) + " more)");
      break;
    }
    std::string row = regal::ToString(r);
    if (instance.text() != nullptr) {
      row += "  \"" + instance.text()->Snippet(r.left, r.right) + "\"";
    }
    out.push_back(std::move(row));
  }
  return out;
}

/// The background checkpointer's shared state: its own mutex/cv (never the
/// catalog lock — the thread takes that only inside Checkpoint()).
struct QueryEngine::Checkpointer {
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  bool paused = false;
  std::thread thread;
};

QueryEngine::QueryEngine(Instance instance, std::optional<Digraph> rig)
    : instance_(std::move(instance)),
      rig_(std::move(rig)),
      result_cache_(std::make_unique<cache::ResultCache>()) {
  stats_ = StatsFromInstance(instance_);
}

QueryEngine::~QueryEngine() { StopBackgroundCheckpointer(); }

QueryEngine::QueryEngine(QueryEngine&&) = default;
QueryEngine& QueryEngine::operator=(QueryEngine&&) = default;

Result<QueryEngine> QueryEngine::FromProgramSource(const std::string& source) {
  REGAL_ASSIGN_OR_RETURN(Instance instance, ParseProgram(source));
  return QueryEngine(std::move(instance), SourceCodeRig());
}

Result<QueryEngine> QueryEngine::FromSgmlSource(const std::string& source) {
  REGAL_ASSIGN_OR_RETURN(Instance instance, ParseSgml(source));
  return QueryEngine(std::move(instance), std::nullopt);
}

Status QueryEngine::SaveSnapshot(const std::string& path,
                                 storage::Env* env) const {
  std::shared_lock<std::shared_mutex> lock(*catalog_mu_);
  return storage::SaveSnapshotToFile(instance_, path, env);
}

Result<QueryEngine> QueryEngine::OpenSnapshot(const std::string& path,
                                              storage::Env* env,
                                              std::optional<Digraph> rig) {
  REGAL_ASSIGN_OR_RETURN(Instance instance,
                         storage::LoadSnapshotFromFile(path, env));
  return QueryEngine(std::move(instance), std::move(rig));
}

Status QueryEngine::ReloadSnapshot(const std::string& path,
                                   storage::Env* env) {
  // Load and index outside the lock — in-flight queries keep running on
  // the old catalog during the (potentially long) decode.
  REGAL_ASSIGN_OR_RETURN(Instance loaded,
                         storage::LoadSnapshotFromFile(path, env));
  // `loaded` was constructed by the decoder, so it carries a fresh
  // process-unique instance id: every result-cache entry is keyed to the
  // replaced id and can never hit again, even if the snapshot's contents
  // are byte-identical to the old catalog. Drop them at the swap; no query
  // can publish under the old id once the write lock is held.
  std::unique_lock<std::shared_mutex> lock(*catalog_mu_);
  instance_ = std::move(loaded);
  result_cache_->Clear();
  stats_ = StatsFromInstance(instance_);
  // Views were defined against — and materialized from — the replaced
  // catalog; carrying them across would resurrect pre-reload data.
  expression_views_.clear();
  materialized_views_.clear();
  return Status::OK();
}

Result<QueryEngine> QueryEngine::OpenDurable(const std::string& dir,
                                             recovery::DurableOptions options,
                                             storage::Env* env,
                                             std::optional<Digraph> rig) {
  Instance instance;
  REGAL_ASSIGN_OR_RETURN(
      std::unique_ptr<recovery::DurableStore> store,
      recovery::DurableStore::Open(env, dir, std::move(options), &instance));
  QueryEngine engine(std::move(instance), std::move(rig));
  engine.durable_ = std::move(store);
  return engine;
}

Status QueryEngine::Apply(const recovery::Mutation& m) {
  {
    std::unique_lock<std::shared_mutex> lock(*catalog_mu_);
    if (m.kind == recovery::MutationKind::kDefineRegions &&
        instance_.Has(m.name)) {
      // Rejected before journaling: the WAL must only ever hold records
      // that apply unconditionally (that is what makes replay idempotent).
      return Status::AlreadyExists("region name '" + m.name +
                                   "' already defined");
    }
    if (durable_ != nullptr) {
      REGAL_RETURN_NOT_OK(durable_->Journal(m));
    }
    REGAL_RETURN_NOT_OK(recovery::ApplyMutation(&instance_, m));
    stats_ = StatsFromInstance(instance_);
  }
  MaybeCheckpoint();
  return Status::OK();
}

Status QueryEngine::ApplyBatch(const std::vector<recovery::Mutation>& batch) {
  if (batch.empty()) return Status::OK();
  {
    std::unique_lock<std::shared_mutex> lock(*catalog_mu_);
    std::set<std::string> defined_in_batch;
    for (const recovery::Mutation& m : batch) {
      if (m.kind != recovery::MutationKind::kDefineRegions) continue;
      if (instance_.Has(m.name) || !defined_in_batch.insert(m.name).second) {
        return Status::AlreadyExists("region name '" + m.name +
                                     "' already defined");
      }
    }
    if (durable_ != nullptr) {
      REGAL_RETURN_NOT_OK(durable_->JournalBatch(batch));
    }
    for (const recovery::Mutation& m : batch) {
      REGAL_RETURN_NOT_OK(recovery::ApplyMutation(&instance_, m));
    }
    stats_ = StatsFromInstance(instance_);
  }
  MaybeCheckpoint();
  return Status::OK();
}

Status QueryEngine::DefineRegions(const std::string& name, RegionSet regions) {
  return Apply(recovery::Mutation::DefineRegions(name, std::move(regions)));
}

Status QueryEngine::ReplaceRegions(const std::string& name,
                                   RegionSet regions) {
  return Apply(recovery::Mutation::ReplaceRegions(name, std::move(regions)));
}

Status QueryEngine::BindText(std::string text) {
  return Apply(recovery::Mutation::BindText(std::move(text)));
}

Status QueryEngine::SetSyntheticPattern(const Pattern& pattern,
                                        RegionSet regions) {
  return Apply(recovery::Mutation::SetPattern(pattern, std::move(regions)));
}

Status QueryEngine::Checkpoint() {
  if (durable_ == nullptr) {
    return Status::FailedPrecondition("engine has no durable store");
  }
  // Exclusive: the checkpoint must capture a catalog no mutation is
  // half-way through, and the store's writer swap must not race a Journal.
  std::unique_lock<std::shared_mutex> lock(*catalog_mu_);
  return durable_->Checkpoint(instance_);
}

void QueryEngine::MaybeCheckpoint() {
  if (durable_ == nullptr || !durable_->ShouldCheckpoint()) return;
  if (checkpointer_ != nullptr) {
    checkpointer_->cv.notify_one();
    return;
  }
  // Inline and best-effort: a failed checkpoint leaves the WAL intact, so
  // nothing acknowledged is at risk — the next mutation retries, and the
  // failure is visible in regal_recovery_checkpoints_total{outcome=error}.
  (void)Checkpoint();
}

Status QueryEngine::StartBackgroundCheckpointer(double interval_ms) {
  if (durable_ == nullptr) {
    return Status::FailedPrecondition("engine has no durable store");
  }
  if (checkpointer_ != nullptr) {
    return Status::AlreadyExists("background checkpointer already running");
  }
  checkpointer_ = std::make_unique<Checkpointer>();
  Checkpointer* state = checkpointer_.get();
  state->thread = std::thread([this, state, interval_ms] {
    std::unique_lock<std::mutex> lock(state->mu);
    while (!state->stop) {
      state->cv.wait_for(
          lock, std::chrono::duration<double, std::milli>(interval_ms));
      if (state->stop) break;
      // ShouldCheckpoint reads atomics only; the catalog lock is taken
      // inside Checkpoint(), never while holding state->mu's cv wait.
      // Paused (brownout): keep waking, skip the IO; the WAL still holds
      // every acknowledged mutation, so nothing is at risk while paused.
      if (!state->paused && durable_->ShouldCheckpoint()) {
        lock.unlock();
        (void)Checkpoint();
        lock.lock();
      }
    }
  });
  return Status::OK();
}

void QueryEngine::SetCheckpointerPaused(bool paused) {
  if (checkpointer_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(checkpointer_->mu);
    checkpointer_->paused = paused;
  }
  checkpointer_->cv.notify_all();
}

bool QueryEngine::checkpointer_paused() const {
  if (checkpointer_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(checkpointer_->mu);
  return checkpointer_->paused;
}

void QueryEngine::StopBackgroundCheckpointer() {
  if (checkpointer_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(checkpointer_->mu);
    checkpointer_->stop = true;
  }
  checkpointer_->cv.notify_all();
  if (checkpointer_->thread.joinable()) checkpointer_->thread.join();
  checkpointer_.reset();
}

Status QueryEngine::Validate() const {
  std::shared_lock<std::shared_mutex> lock(*catalog_mu_);
  REGAL_RETURN_NOT_OK(instance_.Validate());
  if (rig_.has_value()) {
    REGAL_RETURN_NOT_OK(InstanceSatisfiesRig(instance_, *rig_));
  }
  return Status::OK();
}

Result<QueryAnswer> QueryEngine::Run(const std::string& query, bool optimize) {
  return Run(query, limits_, optimize);
}

Result<QueryAnswer> QueryEngine::Run(const std::string& query,
                                     const safety::QueryLimits& limits,
                                     bool optimize) {
  REGAL_ASSIGN_OR_RETURN(PreparedQuery prepared,
                         Prepare(query, limits, optimize));
  return Execute(prepared);
}

Result<QueryAnswer> QueryEngine::RunExpr(const ExprPtr& expr, bool optimize,
                                         bool profile) {
  REGAL_ASSIGN_OR_RETURN(
      PreparedQuery prepared,
      PrepareStatement(profile ? QueryVerb::kExplainAnalyze : QueryVerb::kRun,
                       expr, limits_, optimize));
  return Execute(prepared);
}

Result<PreparedQuery> QueryEngine::Prepare(const std::string& query,
                                           const safety::QueryLimits& limits,
                                           bool optimize) {
  Result<QueryStatement> statement = ParseStatement(query);
  if (!statement.ok()) {
    // The lexer/parser admission caps (token count, nesting depth) report
    // ResourceExhausted; count those rejections with the admission-control
    // ones so all refused work is visible in one place.
    if (statement.status().code() == StatusCode::kResourceExhausted) {
      obs::Registry::Default()
          .GetCounter("regal_safety_queries_rejected_total",
                      {{"reason", "parse"}})
          ->Increment();
    }
    return statement.status();
  }
  return PrepareStatement(statement->verb, statement->expr, limits, optimize);
}

Result<PreparedQuery> QueryEngine::PrepareStatement(
    QueryVerb verb, const ExprPtr& expr, const safety::QueryLimits& limits,
    bool optimize) {
  PreparedQuery prepared;
  // Shared with every other in-flight query and held until the prepared
  // query dies; excluded against Apply / ReloadSnapshot / Checkpoint, so
  // preparation, evaluation and rendering all see one catalog.
  prepared.catalog_lock_ = std::shared_lock<std::shared_mutex>(*catalog_mu_);
  prepared.verb_ = verb;
  prepared.limits_ = limits;
  prepared.answer_.parsed = expr;
  ExprPtr resolved = ResolveViews(expr);
  // Plain `explain` executes nothing: it is neither admitted nor recorded.
  const bool executes = verb != QueryVerb::kExplain;
  // Pre-execution rejections (unknown names, admission control) reach the
  // flight recorder — they are exactly the queries operators get asked
  // about. Nothing ran, so the plan is an estimate-only skeleton.
  auto reject = [&](Status status) {
    obs::FlightRecorder* recorder =
        executes && telemetry_enabled_ ? flight_recorder() : nullptr;
    if (recorder == nullptr) return status;
    obs::QueryRecord record;
    record.query_id = recorder->NextQueryId();
    record.ok = false;
    record.status = status.ToString();
    record.status_code = StatusCodeLabel(status.code());
    record.sampled = recorder->ShouldSample(record.query_id);
    record.query = resolved->ToString();
    record.plan = PlanFromExpr(resolved, stats_);
    recorder->Record(std::move(record));
    return status;
  };
  Status names_ok = CheckNames(instance_, materialized_views_, resolved);
  if (!names_ok.ok()) return reject(std::move(names_ok));
  if (executes && limits.Any()) {
    Status admitted = safety::AdmitExpr(resolved, limits);
    if (!admitted.ok()) {
      obs::Registry::Default()
          .GetCounter("regal_safety_queries_rejected_total",
                      {{"reason", "complexity"}})
          ->Increment();
      return reject(std::move(admitted));
    }
  }
  prepared.answer_.executed = resolved;
  if (optimize) {
    OptimizerOptions options;
    options.stats = stats_;
    if (rig_.has_value()) options.rig = &*rig_;
    OptimizeOutcome outcome = Optimize(resolved, options);
    prepared.answer_.executed = std::move(outcome.expr);
    prepared.answer_.rewrite_rules_applied = outcome.rules_applied;
    prepared.answer_.rewrites = std::move(outcome.rewrites);
  }
  return prepared;
}

bool QueryEngine::IsCacheResident(const PreparedQuery& prepared) {
  // explain / explain analyze always run machinery; only plain `run`
  // statements can be answered from warm state.
  if (prepared.verb_ != QueryVerb::kRun) return false;
  const ExprPtr& executed = prepared.answer_.executed;
  // A raw name scan shares the instance's set — always warm, never in the
  // result cache (the evaluator excludes kName on purpose).
  if (executed->kind() == OpKind::kName) return true;
  if (!result_cache_enabled_) return false;
  // The same key the evaluator looks up first for the executed root.
  CacheKeyer keyer(&instance_, &materialized_views_);
  return result_cache_
      ->Lookup(keyer.Key(executed), keyer.Canonical(executed), nullptr)
      .has_value();
}

QueryEngine::QueryMetrics QueryEngine::ResolveQueryMetrics() {
  obs::Registry& registry = obs::Registry::Default();
  return QueryMetrics{
      registry.GetGauge("regal_engine_inflight_queries"),
      registry.GetCounter("regal_queries_total", {{"verb", "run"}}),
      registry.GetCounter("regal_queries_total", {{"verb", "explain"}}),
      registry.GetCounter("regal_queries_total",
                          {{"verb", "explain_analyze"}}),
      registry.GetCounter("regal_safety_queries_admitted_total"),
      registry.GetHistogram("regal_query_latency_ms"),
      registry.GetHistogram("regal_query_peak_memory_bytes", {},
                            obs::Registry::DefaultSizeBytesBuckets())};
}

Result<QueryAnswer> QueryEngine::Execute(const PreparedQuery& prepared) {
  QueryAnswer answer = prepared.answer_;
  if (prepared.verb_ == QueryVerb::kExplain) {
    // Estimates only: nothing is executed.
    QueryProfile query_profile;
    query_profile.plan = PlanFromExpr(answer.executed, stats_);
    answer.profile = std::move(query_profile);
    metrics_.explain->Increment();
    return answer;
  }
  const bool profile = prepared.verb_ == QueryVerb::kExplainAnalyze;
  const safety::QueryLimits& limits = prepared.limits_;
  obs::FlightRecorder* recorder =
      telemetry_enabled_ ? flight_recorder() : nullptr;
  const uint64_t query_id =
      recorder != nullptr ? recorder->NextQueryId() : 0;
  // Sampling is decided before execution so a sampled query can collect a
  // live trace for /tracez (a post-hoc decision could only rebuild an
  // estimate skeleton).
  const bool sampled = recorder != nullptr && recorder->ShouldSample(query_id);
  const bool governed = limits.Any();
  if (governed) metrics_.admitted->Increment();
  std::optional<obs::Tracer> tracer;
  if (profile || sampled) tracer.emplace();
  std::optional<safety::QueryContext> context;
  if (governed) context.emplace(limits);
  bool degraded = false;
  std::vector<std::string> fallbacks;
  // Per-query, not the global metrics counter: concurrent queries must not
  // attribute each other's kernel fallbacks to this profile.
  std::atomic<int64_t> kernel_fallbacks{0};
  cache::CacheQueryStats cache_stats;
  Status eval_status = Status::OK();
  metrics_.inflight->Add(1);
  {
    ScopedTimer timed(&answer.elapsed_ms);
    EvalOptions eval_options;
    eval_options.bindings = &materialized_views_;
    eval_options.kernel_fallbacks = &kernel_fallbacks;
    if (result_cache_enabled_) {
      eval_options.result_cache = result_cache_.get();
      eval_options.cache_stats = &cache_stats;
    }
    if (tracer.has_value()) eval_options.tracer = &*tracer;
    if (context.has_value()) eval_options.context = &*context;
    if (parallel_enabled_ &&
        EstimateCost(answer.executed, stats_).cost >=
            parallel_cost_threshold_) {
      exec::ThreadPool* pool = parallel_policy_.pool != nullptr
                                   ? parallel_policy_.pool
                                   : &exec::ThreadPool::Default();
      if (pool->Saturated()) {
        // Graceful degradation: an overloaded pool means queued parallel
        // work would only deepen the backlog, so this query runs on the
        // (bit-identical) sequential path instead of failing or stalling.
        degraded = true;
        fallbacks.push_back("pool saturated: sequential evaluation");
        obs::Registry::Default()
            .GetCounter("regal_safety_queries_degraded_total",
                        {{"reason", "pool_saturated"}})
            ->Increment();
      } else {
        eval_options.parallel = &parallel_policy_;
      }
    }
    Evaluator evaluator(&instance_, eval_options);
    Result<RegionSet> result = evaluator.Evaluate(answer.executed);
    answer.eval_stats = evaluator.stats();
    if (result.ok()) {
      answer.regions = std::move(result).value();
    } else {
      eval_status = result.status();
    }
  }
  metrics_.inflight->Add(-1);
  const int64_t degraded_kernels =
      kernel_fallbacks.load(std::memory_order_relaxed);
  if (degraded_kernels > 0) {
    degraded = true;
    fallbacks.push_back("kernel fallback x" +
                        std::to_string(degraded_kernels) +
                        ": sequential operators");
  }
  if (recorder != nullptr) {
    obs::QueryRecord record;
    record.query_id = query_id;
    record.ok = eval_status.ok();
    record.elapsed_ms = answer.elapsed_ms;
    record.rows_out = static_cast<int64_t>(answer.regions.size());
    record.sampled = sampled;
    if (!eval_status.ok()) {
      record.status = eval_status.ToString();
      record.status_code = StatusCodeLabel(eval_status.code());
    }
    // Strings and plan trees are built only for records the keep policy
    // will accept, so the common skip path stays allocation-free.
    if (recorder->WouldKeep(record.ok, record.elapsed_ms, record.sampled)) {
      record.query = answer.executed->ToString();
      if (tracer.has_value()) {
        record.plan = tracer->Build();
        AttachEstimates(&record.plan, answer.executed, stats_);
        record.traced = true;
      } else {
        // A slow/errored query that was neither profiled nor sampled has no
        // trace; /tracez still gets the plan shape with estimates, stamped
        // with the whole-query outcome at the root.
        record.plan = PlanFromExpr(answer.executed, stats_);
        record.plan.rows_out = static_cast<int64_t>(answer.regions.size());
        record.plan.dur_us = answer.elapsed_ms * 1000.0;
      }
    }
    recorder->Record(std::move(record));
  }
  if (!eval_status.ok()) {
    const char* reason = nullptr;
    switch (eval_status.code()) {
      case StatusCode::kCancelled:
        reason = "cancelled";
        break;
      case StatusCode::kDeadlineExceeded:
        reason = "deadline_exceeded";
        break;
      case StatusCode::kResourceExhausted:
        reason = "over_memory";
        break;
      default:
        break;
    }
    if (reason != nullptr) {
      obs::Registry::Default()
          .GetCounter("regal_safety_queries_stopped_total",
                      {{"reason", reason}})
          ->Increment();
    }
    return eval_status;
  }
  if (profile) {
    QueryProfile query_profile;
    query_profile.plan = tracer->Build();
    AttachEstimates(&query_profile.plan, answer.executed, stats_);
    query_profile.counters = tracer->counters();
    query_profile.total_ms = answer.elapsed_ms;
    query_profile.analyzed = true;
    query_profile.limits_enforced = governed;
    query_profile.degraded = degraded;
    query_profile.fallbacks = std::move(fallbacks);
    if (context.has_value()) {
      query_profile.peak_memory_bytes = context->peak_memory_bytes();
    }
    query_profile.cache_enabled = result_cache_enabled_;
    query_profile.cache = cache_stats;
    if (result_cache_enabled_) {
      query_profile.cache_bytes = result_cache_->bytes();
    }
    answer.profile = std::move(query_profile);
  }
  if (context.has_value()) {
    metrics_.peak_memory_bytes->Observe(
        static_cast<double>(context->peak_memory_bytes()));
  }
  (profile ? metrics_.explain_analyze : metrics_.run)->Increment();
  metrics_.latency_ms->Observe(answer.elapsed_ms);
  return answer;
}

void QueryEngine::RegisterCpuStatusSection(admin::AdminServer* server) {
  server->AddStatusSection("cpu", [] {
    admin::StatusRows rows;
    const util::CpuFeatures& f = util::CpuInfo();
    rows.emplace_back("sse42", f.sse42 ? "true" : "false");
    rows.emplace_back("avx2", f.avx2 ? "true" : "false");
    rows.emplace_back("kernel_isa", simd::ActiveKernels().name);
    const char* simd_override = std::getenv("REGAL_SIMD");
    rows.emplace_back("simd_override",
                      simd_override != nullptr ? simd_override : "(none)");
    return rows;
  });
}

void QueryEngine::RegisterStatusSections(admin::AdminServer* server,
                                         const std::string& prefix) {
  // Sections run on the server thread. Catalog-derived rows take the
  // catalog lock shared (a scrape must not observe a half-swapped reload);
  // the rest read internally synchronized state (cache, pool, recorder).
  server->AddStatusSection(prefix + "catalog", [this] {
    admin::StatusRows rows;
    std::shared_lock<std::shared_mutex> lock(*catalog_mu_);
    rows.emplace_back("instance_id", std::to_string(instance_.id()));
    rows.emplace_back("epoch", std::to_string(instance_.epoch()));
    rows.emplace_back("region_names", std::to_string(instance_.names().size()));
    rows.emplace_back("regions", std::to_string(instance_.NumRegions()));
    rows.emplace_back("text_bytes",
                      std::to_string(instance_.text() != nullptr
                                         ? instance_.text()->size()
                                         : 0));
    rows.emplace_back("views",
                      std::to_string(expression_views_.size() +
                                     materialized_views_.size()));
    return rows;
  });
  server->AddStatusSection(prefix + "cache", [this] {
    admin::StatusRows rows;
    rows.emplace_back("enabled", result_cache_enabled_ ? "true" : "false");
    rows.emplace_back("bytes", std::to_string(result_cache_->bytes()));
    rows.emplace_back("payload_bytes",
                      std::to_string(result_cache_->payload_bytes()));
    rows.emplace_back("entries", std::to_string(result_cache_->entries()));
    rows.emplace_back("max_bytes", std::to_string(result_cache_->max_bytes()));
    return rows;
  });
  server->AddStatusSection(prefix + "exec", [this] {
    admin::StatusRows rows;
    exec::ThreadPool* pool = parallel_policy_.pool != nullptr
                                 ? parallel_policy_.pool
                                 : &exec::ThreadPool::Default();
    rows.emplace_back("parallel_enabled",
                      parallel_enabled_ ? "true" : "false");
    rows.emplace_back("cost_threshold",
                      std::to_string(parallel_cost_threshold_));
    rows.emplace_back("threads", std::to_string(pool->num_threads()));
    rows.emplace_back("queue_depth", std::to_string(pool->ApproxQueueDepth()));
    return rows;
  });
  server->AddStatusSection(prefix + "telemetry", [this] {
    admin::StatusRows rows;
    obs::FlightRecorder* recorder = flight_recorder();
    rows.emplace_back("enabled", telemetry_enabled_ ? "true" : "false");
    rows.emplace_back("recorder_entries", std::to_string(recorder->entries()));
    rows.emplace_back("recorder_capacity",
                      std::to_string(recorder->capacity()));
    rows.emplace_back("last_query_id",
                      std::to_string(recorder->last_query_id()));
    rows.emplace_back("slow_threshold_ms",
                      std::to_string(recorder->slow_threshold_ms()));
    rows.emplace_back("sample_period",
                      std::to_string(recorder->sample_period()));
    return rows;
  });
  if (durable_ != nullptr) {
    server->AddStatusSection(prefix + "recovery", [this] {
      admin::StatusRows rows;
      std::shared_lock<std::shared_mutex> lock(*catalog_mu_);
      const recovery::RecoveryHealth& health = durable_->health();
      rows.emplace_back("degraded", durable_->degraded() ? "true" : "false");
      rows.emplace_back("checkpoint_lsn",
                        std::to_string(durable_->checkpoint_lsn()));
      rows.emplace_back("last_lsn", std::to_string(durable_->last_lsn()));
      rows.emplace_back("records_since_checkpoint",
                        std::to_string(durable_->records_since_checkpoint()));
      rows.emplace_back("replayed_records",
                        std::to_string(health.replayed_records));
      rows.emplace_back("torn_tail_bytes",
                        std::to_string(health.torn_tail_bytes));
      rows.emplace_back("salvaged_sections",
                        std::to_string(health.salvage.sections_kept));
      rows.emplace_back("dropped_sections",
                        std::to_string(health.salvage.sections_dropped));
      rows.emplace_back("quarantined",
                        health.quarantined.empty() ? "(none)"
                                                   : health.quarantined.back());
      if (!health.notes.empty()) {
        rows.emplace_back("last_note", health.notes.back());
      }
      return rows;
    });
  }
}

Status QueryEngine::CheckViewName(const std::string& name) const {
  if (instance_.Has(name)) {
    return Status::AlreadyExists("'" + name + "' is a region name");
  }
  if (expression_views_.count(name) > 0 ||
      materialized_views_.count(name) > 0) {
    return Status::AlreadyExists("view '" + name + "' already defined");
  }
  return Status::OK();
}

ExprPtr QueryEngine::ResolveViews(const ExprPtr& expr) const {
  if (expr->kind() == OpKind::kName) {
    auto it = expression_views_.find(expr->name());
    return it == expression_views_.end() ? expr : it->second;
  }
  std::vector<ExprPtr> children;
  bool changed = false;
  for (const ExprPtr& c : expr->children()) {
    ExprPtr nc = ResolveViews(c);
    changed |= (nc.get() != c.get());
    children.push_back(std::move(nc));
  }
  if (!changed) return expr;
  switch (expr->kind()) {
    case OpKind::kSelect:
      return Expr::Select(expr->pattern(), children[0]);
    case OpKind::kBothIncluded:
      return Expr::BothIncluded(children[0], children[1], children[2]);
    default:
      return Expr::Binary(expr->kind(), children[0], children[1]);
  }
}

Status QueryEngine::DefineView(const std::string& name,
                               const std::string& query) {
  std::unique_lock<std::shared_mutex> lock(*catalog_mu_);
  REGAL_RETURN_NOT_OK(CheckViewName(name));
  REGAL_ASSIGN_OR_RETURN(ExprPtr expr, ParseQuery(query));
  // Splice existing views now, so later definitions cannot create cycles.
  ExprPtr resolved = ResolveViews(expr);
  for (const std::string& used : resolved->NamesUsed()) {
    if (!instance_.Has(used) && materialized_views_.count(used) == 0) {
      return Status::NotFound("view references unknown name '" + used + "'");
    }
  }
  expression_views_[name] = std::move(resolved);
  return Status::OK();
}

Status QueryEngine::DefineSpanView(const std::string& name,
                                   const std::string& starts_query,
                                   const std::string& ends_query) {
  {
    std::shared_lock<std::shared_mutex> lock(*catalog_mu_);
    REGAL_RETURN_NOT_OK(CheckViewName(name));
  }
  // Run() takes the catalog lock shared itself, so it must not be held
  // here (shared_mutex is not recursive).
  REGAL_ASSIGN_OR_RETURN(QueryAnswer starts, Run(starts_query));
  REGAL_ASSIGN_OR_RETURN(QueryAnswer ends, Run(ends_query));
  RegionSet spans = SpanJoin(starts.regions, ends.regions);
  std::unique_lock<std::shared_mutex> lock(*catalog_mu_);
  // Re-check under the write lock: the name may have appeared while the
  // defining queries ran.
  REGAL_RETURN_NOT_OK(CheckViewName(name));
  stats_.cardinality[name] = static_cast<double>(spans.size());
  materialized_views_[name] = std::move(spans);
  return Status::OK();
}

Status QueryEngine::DefineWindowView(const std::string& name,
                                     const Pattern& pattern, Offset before,
                                     Offset after) {
  if (before < 0 || after < 0) {
    return Status::InvalidArgument(
        "window view '" + name + "' needs non-negative before and after, got " +
        std::to_string(before) + " and " + std::to_string(after));
  }
  std::unique_lock<std::shared_mutex> lock(*catalog_mu_);
  REGAL_RETURN_NOT_OK(CheckViewName(name));
  if (instance_.text() == nullptr || instance_.word_index() == nullptr) {
    return Status::FailedPrecondition(
        "window views need a text-backed catalog");
  }
  RegionSet windows =
      Windows(instance_.word_index()->Matches(pattern), before, after,
              instance_.text()->size());
  stats_.cardinality[name] = static_cast<double>(windows.size());
  materialized_views_[name] = std::move(windows);
  return Status::OK();
}

}  // namespace regal
