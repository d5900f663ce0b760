#ifndef REGAL_RECOVERY_RETRY_H_
#define REGAL_RECOVERY_RETRY_H_

#include <cstdint>
#include <functional>

#include "safety/context.h"
#include "util/status.h"

namespace regal {
namespace recovery {

/// Capped exponential backoff with deterministic jitter for transient
/// storage I/O. The WAL writer and the checkpointer wrap every env
/// operation in RetryWithBackoff, so a momentary EIO or a filling disk
/// (ENOSPC that a log-rotation is about to relieve) does not fail a
/// mutation that one more attempt would have landed.
struct RetryPolicy {
  /// Total tries including the first; <= 1 disables retrying.
  int max_attempts = 4;
  /// Sleep before the first retry; doubled (times `multiplier`) per retry.
  double initial_backoff_ms = 0.5;
  /// Ceiling on a single sleep.
  double max_backoff_ms = 50.0;
  double multiplier = 2.0;
  /// Seed for the jitter Rng: the sleep sequence is reproducible from
  /// (policy, seed) alone, like everything else in the fault harnesses.
  uint64_t jitter_seed = 0x5eed;
  /// Test hook: when set, called instead of actually sleeping (the fake
  /// clock that makes backoff tests take microseconds, not seconds).
  std::function<void(double ms)> sleeper;
};

/// The retryability predicate: true for the Status codes transient I/O
/// surfaces as — kResourceExhausted (ENOSPC/EDQUOT, which log rotation or
/// an operator can relieve) and kInternal (EIO and friends, which a
/// controller hiccup produces and a re-issue often cures). Permanent
/// verdicts — kDataLoss (the bytes rotted; retrying re-reads the same rot),
/// kNotFound, kInvalidArgument, kFailedPrecondition — are never retried.
bool IsTransientIo(const Status& status);

/// Runs `op` until it succeeds, fails permanently, exhausts
/// `policy.max_attempts`, or `context` (optional) reports its deadline
/// passed / cancellation — whichever comes first. Sleeps between attempts
/// per the policy, with each sleep capped so it cannot overrun the
/// context's deadline. Returns the last non-OK status on failure. Records
/// regal_recovery_retries_total{outcome}.
Status RetryWithBackoff(const RetryPolicy& policy,
                        const safety::QueryContext* context, const char* what,
                        const std::function<Status()>& op);

}  // namespace recovery
}  // namespace regal

#endif  // REGAL_RECOVERY_RETRY_H_
