#include "core/eval.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/algebra.h"
#include "core/extended.h"
#include "exec/thread_pool.h"
#include "safety/failpoint.h"

namespace regal {

namespace {

bool IsLeaf(const Expr& e) {
  return e.kind() == OpKind::kName || e.kind() == OpKind::kWordMatch;
}

}  // namespace

const char* ExprSpanName(const Expr& e) {
  switch (e.kind()) {
    case OpKind::kName:
      return "scan";
    case OpKind::kUnion:
      return "union";
    case OpKind::kIntersect:
      return "intersect";
    case OpKind::kDifference:
      return "difference";
    default:
      return OpKindToken(e.kind());
  }
}

std::string ExprSpanDetail(const Expr& e) {
  switch (e.kind()) {
    case OpKind::kName:
      return e.name();
    case OpKind::kSelect:
    case OpKind::kWordMatch:
      // As Expr::ToString renders the pattern: wildcards and the `~` flag.
      return (e.pattern().case_insensitive() ? "~\"" : "\"") +
             e.pattern().ToString() + "\"";
    default:
      return "";
  }
}

cache::ResultCache::Key CacheKeyer::Key(const ExprPtr& e) {
  ExprPtr canonical = canonicalizer_.Canonical(e);
  return cache::ResultCache::Key{instance_->id(), Stamp(canonical),
                                 canonicalizer_.Hash(e)};
}

uint64_t CacheKeyer::Stamp(const ExprPtr& canonical) {
  auto it = stamps_.find(canonical.get());
  if (it != stamps_.end()) return it->second;
  uint64_t stamp = 0;
  switch (canonical->kind()) {
    case OpKind::kName:
      if (bindings_ == nullptr || bindings_->count(canonical->name()) == 0) {
        stamp = instance_->NameStamp(canonical->name());
      }
      break;
    case OpKind::kDirectIncluding:
    case OpKind::kDirectIncluded:
      stamp = instance_->epoch();
      break;
    case OpKind::kSelect:
    case OpKind::kWordMatch:
      stamp = instance_->content_stamp();
      [[fallthrough]];
    default:
      for (const ExprPtr& child : canonical->children()) {
        stamp = std::max(stamp, Stamp(child));
      }
      break;
  }
  stamps_.emplace(canonical.get(), stamp);
  return stamp;
}

Result<RegionSet> Evaluator::Evaluate(const ExprPtr& e) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    memo_.clear();
  }
  if (options_.result_cache != nullptr) {
    std::lock_guard<std::mutex> lock(key_mu_);
    keyer_.emplace(instance_, options_.bindings);
  }
  REGAL_ASSIGN_OR_RETURN(RegionSet result, Eval(e));
  // A partitioned kernel whose chunks saw ShouldAbort() bails and leaves a
  // truncated set; under the ROOT operator there is no later operator
  // boundary to surface the violation. Abort conditions are monotone, so
  // one final Check() here turns any such partial result into the proper
  // non-OK Status instead of a silently wrong answer.
  if (options_.context != nullptr) {
    REGAL_RETURN_NOT_OK(options_.context->Check());
  }
  return result;
}

bool Evaluator::SubtreeParallelismEnabled() const {
  // Span trees are strictly nested per thread, so a Tracer pins evaluation
  // to the coordinating thread (parallel *kernels* stay available: they
  // flush their counters on the coordinating thread).
  return options_.parallel != nullptr && options_.parallel->parallel_subtrees &&
         options_.tracer == nullptr;
}

Result<RegionSet> Evaluator::Eval(const ExprPtr& e) {
  obs::SpanScope span(options_.tracer, ExprSpanName(*e),
                      options_.tracer != nullptr ? ExprSpanDetail(*e) : "");
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = memo_.find(e.get());
    if (it != memo_.end()) {
      MemoEntry& entry = it->second;
      memo_cv_.wait(lock, [&] { return entry.ready; });
      if (!entry.status.ok()) return entry.status;
      span.MarkCached();
      span.SetRows(0, static_cast<int64_t>(entry.value.size()));
      return entry.value;
    }
    memo_.emplace(e.get(), MemoEntry{});  // Claim the slot; others wait.
  }

  // Cross-query cache probe (first arrival only — the memo guarantees one
  // probe per node per query). Name scans share the instance's set for free
  // and the naive oracle must stay a pure re-execution, so neither
  // participates.
  const bool cacheable = options_.result_cache != nullptr &&
                         !options_.use_naive && e->kind() != OpKind::kName;
  cache::ResultCache::Key cache_key;
  ExprPtr canonical;
  // This node's cache activity, added to the query's under mu_: sibling
  // subtrees may probe and publish on different threads.
  cache::CacheQueryStats node_cache;
  if (cacheable) {
    {
      std::lock_guard<std::mutex> lock(key_mu_);
      canonical = keyer_->Canonical(e);
      cache_key = keyer_->Key(e);
    }
    std::optional<RegionSet> hit =
        options_.result_cache->Lookup(cache_key, canonical, &node_cache);
    if (hit.has_value()) {
      // Seed the memo so every further mention short-circuits, and charge
      // the set against the budget — it is part of this query's live
      // footprint whether computed or recalled.
      Result<RegionSet> seeded = *hit;
      if (options_.context != nullptr) {
        Status charged = options_.context->ChargeMemory(
            static_cast<int64_t>(hit->size() * sizeof(Region)));
        if (!charged.ok()) seeded = charged;
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        MemoEntry& entry = memo_[e.get()];
        if (seeded.ok()) {
          entry.value = seeded.value();
        } else {
          entry.status = seeded.status();
        }
        entry.ready = true;
        if (options_.cache_stats != nullptr) {
          options_.cache_stats->Add(node_cache);
        }
      }
      memo_cv_.notify_all();
      if (seeded.ok()) {
        span.MarkCached();
        span.SetRows(0, static_cast<int64_t>(hit->size()));
      }
      return seeded;
    }
  }

  int64_t rows_in = 0;
  Result<RegionSet> result = EvalNode(e, &rows_in);
  // Charge materialized results (leaf name scans share the instance's set,
  // not new memory) so a runaway intermediate trips the budget at the node
  // that produced it.
  if (result.ok() && options_.context != nullptr &&
      e->kind() != OpKind::kName) {
    Status charged = options_.context->ChargeMemory(
        static_cast<int64_t>(result.value().size() * sizeof(Region)));
    if (!charged.ok()) result = charged;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    MemoEntry& entry = memo_[e.get()];
    if (result.ok()) {
      entry.value = result.value();
      stats_.rows_produced += static_cast<int64_t>(entry.value.size());
    } else {
      entry.status = result.status();
    }
    entry.ready = true;
  }
  memo_cv_.notify_all();
  if (result.ok()) {
    span.SetRows(rows_in, static_cast<int64_t>(result.value().size()));
    // Publish to the shared cache — but never from a query whose context
    // has tripped: abort conditions are monotone and a partitioned kernel
    // that saw ShouldAbort() mid-chunk leaves a truncated set, which must
    // not outlive this (failing) query.
    if (cacheable && (options_.context == nullptr ||
                      !options_.context->ShouldAbort())) {
      options_.result_cache->Insert(cache_key, canonical, result.value(),
                                    &node_cache);
    }
  }
  if (cacheable && options_.cache_stats != nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    options_.cache_stats->Add(node_cache);
  }
  return result;
}

RegionSet Evaluator::ShareOperand(RegionSet result, const RegionSet& first,
                                  const RegionSet* second) const {
  // A tripped context may have truncated a partitioned kernel's result, so
  // its size proves nothing. The naive oracle keeps its fresh payloads.
  if (options_.use_naive ||
      (options_.context != nullptr && options_.context->ShouldAbort())) {
    return result;
  }
  if (result.size() == first.size()) return first;
  if (second != nullptr && result.size() == second->size()) return *second;
  return result;
}

Status Evaluator::EvalChildren(const ExprPtr& e, RegionSet* a, RegionSet* b) {
  const ExprPtr& left = e->child(0);
  const ExprPtr& right = e->child(1);
  // Concurrency only pays when both sides have operator work; a leaf child
  // is a memo or instance lookup.
  if (SubtreeParallelismEnabled() && !IsLeaf(*left) && !IsLeaf(*right)) {
    // Failpoint: a fault while handing a subtree to the pool must surface
    // as a Status, not a lost task or a stuck Wait().
    REGAL_RETURN_NOT_OK(safety::CheckFailpoint("exec.pool.subtree"));
    exec::ThreadPool& pool = options_.parallel->pool != nullptr
                                 ? *options_.parallel->pool
                                 : exec::ThreadPool::Default();
    std::optional<Result<RegionSet>> left_result;
    exec::ThreadPool::TaskHandle task =
        pool.Submit([this, &left, &left_result] {
          left_result.emplace(Eval(left));
        });
    Result<RegionSet> right_result = Eval(right);
    task.Wait();
    // Prefer the left error so the surfaced diagnostic is deterministic.
    if (!left_result->ok()) return left_result->status();
    if (!right_result.ok()) return right_result.status();
    *a = std::move(*left_result).value();
    *b = std::move(right_result).value();
    return Status::OK();
  }
  REGAL_ASSIGN_OR_RETURN(*a, Eval(left));
  REGAL_ASSIGN_OR_RETURN(*b, Eval(right));
  return Status::OK();
}

Result<RegionSet> Evaluator::EvalNode(const ExprPtr& e, int64_t* rows_in) {
  // Operator-boundary checkpoint: cancellation, deadline and budget are
  // polled once per executed node, bounding the time from a violated limit
  // to a clean non-OK return by one operator's work.
  if (options_.context != nullptr) {
    REGAL_RETURN_NOT_OK(options_.context->Check());
  }
  REGAL_RETURN_NOT_OK(safety::CheckFailpoint("eval.node"));
  switch (e->kind()) {
    case OpKind::kName: {
      if (options_.bindings != nullptr) {
        auto it = options_.bindings->find(e->name());
        if (it != options_.bindings->end()) return it->second;
      }
      REGAL_ASSIGN_OR_RETURN(const RegionSet* set, instance_->Get(e->name()));
      return *set;
    }
    case OpKind::kWordMatch: {
      if (instance_->word_index() == nullptr) {
        return Status::FailedPrecondition(
            "'word' queries need a text-backed instance");
      }
      std::vector<Token> matches = instance_->word_index()->Matches(e->pattern());
      std::vector<Region> tokens;
      tokens.reserve(matches.size());
      for (const Token& t : matches) tokens.push_back(Region{t.left, t.right});
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.operator_evals;
      }
      return RegionSet::FromUnsorted(std::move(tokens));
    }
    case OpKind::kSelect: {
      REGAL_ASSIGN_OR_RETURN(RegionSet child, Eval(e->child(0)));
      *rows_in = static_cast<int64_t>(child.size());
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.operator_evals;
        stats_.rows_scanned += *rows_in;
      }
      const ParallelEvalPolicy* pp = options_.parallel;
      if (pp != nullptr && instance_->word_index() != nullptr &&
          !options_.use_naive) {
        REGAL_RETURN_NOT_OK(safety::CheckFailpoint("exec.kernel.fault"));
        exec::ParallelConfig cfg{pp->pool, pp->min_rows, 0, options_.context,
                                 options_.kernel_fallbacks};
        return ShareOperand(
            exec::ParallelSelectByTokens(
                child, instance_->word_index()->Matches(e->pattern()), cfg),
            child);
      }
      return ShareOperand(instance_->Select(child, e->pattern()), child);
    }
    case OpKind::kBothIncluded: {
      REGAL_ASSIGN_OR_RETURN(RegionSet r, Eval(e->child(0)));
      REGAL_ASSIGN_OR_RETURN(RegionSet s, Eval(e->child(1)));
      REGAL_ASSIGN_OR_RETURN(RegionSet t, Eval(e->child(2)));
      *rows_in = static_cast<int64_t>(r.size() + s.size() + t.size());
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.operator_evals;
        stats_.rows_scanned += *rows_in;
      }
      return ShareOperand(options_.use_naive ? naive::BothIncluded(r, s, t)
                                             : BothIncluded(r, s, t),
                          r);
    }
    default: {
      RegionSet a, b;
      REGAL_RETURN_NOT_OK(EvalChildren(e, &a, &b));
      *rows_in = static_cast<int64_t>(a.size() + b.size());
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.operator_evals;
        stats_.rows_scanned += *rows_in;
      }
      const bool naive_mode = options_.use_naive;
      const ParallelEvalPolicy* pp = naive_mode ? nullptr : options_.parallel;
      exec::ParallelConfig cfg;
      if (pp != nullptr) {
        REGAL_RETURN_NOT_OK(safety::CheckFailpoint("exec.kernel.fault"));
        cfg = exec::ParallelConfig{pp->pool, pp->min_rows, 0, options_.context,
                                   options_.kernel_fallbacks};
      }
      RegionSet out;
      switch (e->kind()) {
        case OpKind::kUnion:
          out = naive_mode ? naive::Union(a, b)
                : pp != nullptr ? exec::ParallelUnion(a, b, cfg)
                                : Union(a, b);
          break;
        case OpKind::kIntersect:
          out = naive_mode ? naive::Intersect(a, b)
                : pp != nullptr ? exec::ParallelIntersect(a, b, cfg)
                                : Intersect(a, b);
          break;
        case OpKind::kDifference:
          out = naive_mode ? naive::Difference(a, b)
                : pp != nullptr ? exec::ParallelDifference(a, b, cfg)
                                : Difference(a, b);
          break;
        case OpKind::kIncluding:
          out = naive_mode ? naive::Including(a, b)
                : pp != nullptr ? exec::ParallelIncluding(a, b, cfg)
                                : Including(a, b);
          break;
        case OpKind::kIncluded:
          out = naive_mode ? naive::Included(a, b)
                : pp != nullptr ? exec::ParallelIncluded(a, b, cfg)
                                : Included(a, b);
          break;
        case OpKind::kPrecedes:
          out = naive_mode ? naive::Precedes(a, b)
                : pp != nullptr ? exec::ParallelPrecedes(a, b, cfg)
                                : Precedes(a, b);
          break;
        case OpKind::kFollows:
          out = naive_mode ? naive::Follows(a, b)
                : pp != nullptr ? exec::ParallelFollows(a, b, cfg)
                                : Follows(a, b);
          break;
        case OpKind::kDirectIncluding:
          out = naive_mode ? naive::DirectIncluding(*instance_, a, b)
                           : DirectIncluding(*instance_, a, b);
          break;
        case OpKind::kDirectIncluded:
          out = naive_mode ? naive::DirectIncluded(*instance_, a, b)
                           : DirectIncluded(*instance_, a, b);
          break;
        default:
          return Status::Internal("unexpected operator kind in Eval");
      }
      const bool both = e->kind() == OpKind::kUnion ||
                        e->kind() == OpKind::kIntersect;
      return ShareOperand(std::move(out), a, both ? &b : nullptr);
    }
  }
}

Result<RegionSet> Evaluate(const Instance& instance, const ExprPtr& e,
                           EvalOptions options) {
  Evaluator evaluator(&instance, options);
  return evaluator.Evaluate(e);
}

}  // namespace regal
