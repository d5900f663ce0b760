#include "recovery/retry.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/metrics.h"
#include "util/random.h"

namespace regal {
namespace recovery {

bool IsTransientIo(const Status& status) {
  switch (status.code()) {
    case StatusCode::kResourceExhausted:  // ENOSPC / EDQUOT.
    case StatusCode::kInternal:           // EIO and other device hiccups.
      return true;
    default:
      return false;
  }
}

Status RetryWithBackoff(const RetryPolicy& policy,
                        const safety::QueryContext* context, const char* what,
                        const std::function<Status()>& op) {
  obs::Registry& registry = obs::Registry::Default();
  Rng jitter(policy.jitter_seed);
  double backoff_ms = policy.initial_backoff_ms;
  const int attempts = std::max(1, policy.max_attempts);
  Status last;
  for (int attempt = 1;; ++attempt) {
    if (context != nullptr) {
      // An expired deadline or a cancelled query must not keep hammering
      // the device; the governance status wins over the I/O one.
      REGAL_RETURN_NOT_OK(context->Check());
    }
    last = op();
    if (last.ok()) {
      if (attempt > 1) {
        registry
            .GetCounter("regal_recovery_retries_total",
                        {{"outcome", "recovered"}})
            ->Increment();
      }
      return last;
    }
    if (!IsTransientIo(last) || attempt >= attempts) {
      registry
          .GetCounter("regal_recovery_retries_total",
                      {{"outcome",
                        IsTransientIo(last) ? "exhausted" : "permanent"}})
          ->Increment();
      return last;
    }
    registry
        .GetCounter("regal_recovery_retries_total", {{"outcome", "retry"}})
        ->Increment();
    // Full jitter over (backoff/2, backoff]: deterministic from the seed,
    // yet two writers with different seeds never thunder in lockstep.
    double sleep_ms =
        backoff_ms * (0.5 + 0.5 * (static_cast<double>(jitter.Next() >> 11) *
                                   (1.0 / 9007199254740992.0)));
    sleep_ms = std::min(sleep_ms, policy.max_backoff_ms);
    if (policy.sleeper) {
      policy.sleeper(sleep_ms);
    } else {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          std::min(sleep_ms, 1000.0)));
    }
    backoff_ms = std::min(backoff_ms * policy.multiplier,
                          policy.max_backoff_ms);
    (void)what;
  }
}

}  // namespace recovery
}  // namespace regal
