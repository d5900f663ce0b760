#ifndef REGAL_SAFETY_ADMISSION_H_
#define REGAL_SAFETY_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "obs/metrics.h"

namespace regal {
namespace safety {

/// Tuning for the CoDel-style admission controller (see AdmissionController).
struct AdmissionOptions {
  /// Concurrent execution slots — the query service's one global
  /// concurrency cap. Requests beyond this queue; the queue's sojourn
  /// time is the controller's congestion signal. Values below 1 mean 1.
  int capacity = 64;
  /// Requests waiting beyond this are refused outright (kQueueFull):
  /// an unbounded queue is exactly the failure mode this controller
  /// exists to prevent.
  int max_queue = 64;
  /// Upper bound on how long one request may wait for a slot before it is
  /// shed as kTimedOut. Keeps worst-case added latency explicit.
  int64_t max_wait_ms = 1000;
  /// CoDel target: the acceptable standing sojourn time. Below this the
  /// queue is "good" (absorbing bursts); above it for a full interval the
  /// queue is "bad" (standing) and shedding starts.
  double target_ms = 5.0;
  /// CoDel interval: how long sojourn must stay above target before the
  /// first shed, and the base period of the shedding cadence.
  int64_t interval_ms = 100;
  /// Sustained shedding for this long latches brownout mode.
  int64_t brownout_after_ms = 2000;
  /// Out of the shedding state for this long unlatches it.
  int64_t brownout_exit_ms = 1000;
  /// Test hook: monotonic milliseconds. Defaults to steady_clock.
  std::function<int64_t()> clock_ms;
};

enum class AdmitOutcome {
  kAdmitted,   ///< Caller owns a slot; must call Leave() when done.
  kShed,       ///< CoDel shed: standing queue, lowest-priority first.
  kQueueFull,  ///< The bounded wait queue is at max_queue.
  kTimedOut,   ///< Waited max_wait_ms without reaching a slot.
  kShutdown,   ///< The controller is shutting down; nothing is admitted.
};

/// What Admit() decided, plus the hints a typed kOverloaded reply carries.
struct AdmitDecision {
  AdmitOutcome outcome = AdmitOutcome::kAdmitted;
  /// Time this request spent queued before the decision.
  double sojourn_ms = 0;
  /// Server-suggested client backoff; > 0 on every non-admitted outcome.
  double retry_after_ms = 0;
};

/// Point-in-time state for /statusz.
struct AdmissionSnapshot {
  int in_flight = 0;
  int queued = 0;
  bool dropping = false;
  bool brownout = false;
  int64_t drop_count = 0;
  int64_t admitted_total = 0;
  int64_t shed_total = 0;
  int64_t brownout_entries = 0;
};

/// Adaptive admission control for the query service, adapted from the
/// CoDel AQM (Nichols & Jacobson, "Controlling Queue Delay", CACM 2012)
/// with the packet queue replaced by a bounded slot-wait queue:
///
///  * Each request Admit()s before executing; up to `capacity` run at
///    once, the rest wait (bounded by max_queue / max_wait_ms).
///  * The congestion signal is *sojourn time* — how long a request waited
///    for its slot — not queue length, so a burst that drains quickly is
///    never punished.
///  * When sojourn stays above target_ms for a full interval_ms, the
///    controller enters the dropping state and sheds one sheddable
///    (priority <= 0) request per drop period, with the period shrinking
///    as interval/sqrt(drop_count) — the classic CoDel control law, which
///    ramps pressure until the standing queue dissolves.
///  * Shedding continuously for brownout_after_ms latches *brownout*;
///    the service degrades (cache-hot answers only, tightened deadlines,
///    paused checkpointer) until the controller has been out of the
///    dropping state for brownout_exit_ms.
///
/// Every decision is cheap (one mutex; no allocation on the admit path)
/// and every transition is exported as regal_resilience_* metrics.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options);

  /// Blocks until a slot is free (admitted) or the controller decides to
  /// refuse. Requests with priority >= 1 are never CoDel-shed — only
  /// queue-full/timeout can refuse them.
  AdmitDecision Admit(int64_t priority);

  /// Releases a slot previously granted by an kAdmitted decision.
  void Leave();

  /// Wakes every waiter with kShutdown and refuses all future Admits.
  void Shutdown();

  /// True while brownout is latched (evaluates the exit condition).
  bool InBrownout();

  AdmissionSnapshot Snapshot();

  const AdmissionOptions& options() const { return options_; }

 private:
  int64_t NowMs() const;
  /// Updates the dropping/brownout latches; callers hold mu_.
  void NoteDropping(bool dropping, int64_t now);
  void EvaluateBrownout(int64_t now);
  double RetryAfterMs(int queued) const;

  AdmissionOptions options_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool shutdown_ = false;

  int in_flight_ = 0;
  int queued_ = 0;

  // CoDel state (all guarded by mu_).
  int64_t first_above_ms_ = 0;  // 0: sojourn not above target.
  bool dropping_ = false;
  int64_t drop_next_ms_ = 0;
  int64_t drop_count_ = 0;
  int64_t last_drop_count_ = 0;

  // Brownout latch.
  bool brownout_ = false;
  int64_t dropping_since_ms_ = 0;
  int64_t calm_since_ms_ = 0;

  int64_t admitted_total_ = 0;
  int64_t shed_total_ = 0;
  int64_t brownout_entries_ = 0;

  // Cached metric handles (families registered in the constructor).
  obs::Histogram* sojourn_ms_ = nullptr;
  obs::Counter* admitted_counter_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
  obs::Gauge* brownout_active_ = nullptr;
  obs::Counter* brownout_entries_counter_ = nullptr;
};

/// RAII slot release for an kAdmitted decision.
class AdmissionSlot {
 public:
  AdmissionSlot() = default;
  explicit AdmissionSlot(AdmissionController* controller)
      : controller_(controller) {}
  ~AdmissionSlot() {
    if (controller_ != nullptr) controller_->Leave();
  }
  AdmissionSlot(AdmissionSlot&& other) noexcept
      : controller_(other.controller_) {
    other.controller_ = nullptr;
  }
  AdmissionSlot& operator=(AdmissionSlot&& other) noexcept {
    if (this != &other) {
      if (controller_ != nullptr) controller_->Leave();
      controller_ = other.controller_;
      other.controller_ = nullptr;
    }
    return *this;
  }
  AdmissionSlot(const AdmissionSlot&) = delete;
  AdmissionSlot& operator=(const AdmissionSlot&) = delete;

 private:
  AdmissionController* controller_ = nullptr;
};

/// Stable label for shed metrics and log lines.
const char* AdmitOutcomeLabel(AdmitOutcome outcome);

}  // namespace safety
}  // namespace regal

#endif  // REGAL_SAFETY_ADMISSION_H_
