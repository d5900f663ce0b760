#include "exec/thread_pool.h"

#include <cstdlib>
#include <string>

#include "obs/metrics.h"
#include "safety/failpoint.h"

namespace regal {
namespace exec {

namespace {

// Dispatch bookkeeping happens on the submitting thread only;
// ActiveLaneScope additionally updates the utilization gauge from whichever
// lane runs the work.
void RecordDispatch(size_t queue_depth, int64_t tasks, int64_t steals) {
  obs::Registry& registry = obs::Registry::Default();
  registry.GetGauge("regal_exec_queue_depth")
      ->Set(static_cast<double>(queue_depth));
  if (tasks > 0) registry.GetCounter("regal_exec_tasks_total")->Increment(tasks);
  if (steals > 0) {
    registry.GetCounter("regal_exec_steals_total")->Increment(steals);
  }
}

// Up-down gauge of lanes currently executing pool work — the utilization
// numerator against the regal_exec_threads denominator. One registry fetch
// + two atomic adds per lane *participation* (a Submit task or one lane's
// share of a ParallelFor), not per claimed index, so the always-on cost is
// amortized over the chunk work the lane does.
class ActiveLaneScope {
 public:
  ActiveLaneScope()
      : gauge_(obs::Registry::Default().GetGauge("regal_exec_active_lanes")) {
    gauge_->Add(1);
  }
  ~ActiveLaneScope() { gauge_->Add(-1); }
  ActiveLaneScope(const ActiveLaneScope&) = delete;
  ActiveLaneScope& operator=(const ActiveLaneScope&) = delete;

 private:
  obs::Gauge* gauge_;
};

}  // namespace

/// One Submit()ed task. `claimed` arbitrates between a worker and the
/// waiting caller; whoever wins the compare-exchange runs `fn` exactly once.
struct ThreadPool::TaskHandle::State {
  std::function<void()> fn;
  std::atomic<bool> claimed{false};
  std::atomic<bool> ran_on_worker{false};
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;

  // Returns true if this call claimed and ran the task.
  bool TryRun(bool on_worker) {
    bool expected = false;
    if (!claimed.compare_exchange_strong(expected, true)) return false;
    if (on_worker) ran_on_worker.store(true, std::memory_order_relaxed);
    {
      ActiveLaneScope active;
      fn();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    cv.notify_all();
    return true;
  }
};

void ThreadPool::TaskHandle::Wait() {
  if (state_ == nullptr) return;
  if (!state_->TryRun(/*on_worker=*/false)) {
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return state_->done; });
  }
  RecordDispatch(0, 1,
                 state_->ran_on_worker.load(std::memory_order_relaxed) ? 1 : 0);
  state_.reset();
}

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  workers_.reserve(static_cast<size_t>(num_threads - 1));
  for (int i = 0; i < num_threads - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

ThreadPool& ThreadPool::Default() {
  static ThreadPool* pool = [] {
    auto* p = new ThreadPool(DefaultNumThreads());
    obs::Registry::Default().GetGauge("regal_exec_threads")
        ->Set(static_cast<double>(p->num_threads()));
    return p;
  }();
  return *pool;
}

int ThreadPool::ParseThreads(const char* value, int fallback) {
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0') return fallback;
  if (parsed < 1 || parsed > 512) return fallback;
  return static_cast<int>(parsed);
}

int ThreadPool::DefaultNumThreads() {
  static int threads = [] {
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    if (hw < 1) hw = 1;
    return ParseThreads(std::getenv("REGAL_THREADS"), hw);
  }();
  return threads;
}

size_t ThreadPool::ApproxQueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

bool ThreadPool::Saturated() const {
  if (safety::FailpointFires("exec.pool.saturated")) return true;
  // Two queued tasks per lane means every lane is busy and has a full
  // backlog behind it; adding parallel work then only grows the queue.
  return ApproxQueueDepth() >
         static_cast<size_t>(2 * num_threads());
}

void ThreadPool::Enqueue(std::shared_ptr<TaskHandle::State> task) {
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  work_cv_.notify_one();
  RecordDispatch(depth, 0, 0);
}

ThreadPool::TaskHandle ThreadPool::Submit(std::function<void()> fn) {
  TaskHandle handle;
  handle.state_ = std::make_shared<TaskHandle::State>();
  handle.state_->fn = std::move(fn);
  if (workers_.empty()) return handle;  // Wait() runs it inline.
  Enqueue(handle.state_);
  return handle;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<TaskHandle::State> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task->TryRun(/*on_worker=*/true);  // Skips tasks the caller already ran.
  }
}

/// Shared state of one ParallelFor: indices are claimed via `next`, and the
/// caller waits until `done` reaches `n`. Queued helper jobs that find no
/// index left exit immediately, so stale helpers are harmless.
struct ThreadPool::ForState {
  const std::function<void(size_t)>* fn = nullptr;
  size_t n = 0;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::atomic<int64_t> stolen{0};
  std::mutex mu;
  std::condition_variable cv;

  void Drive(bool on_worker) {
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      (*fn)(i);
      // Tally the steal before the done increment that may release the
      // waiter, so the caller's metric read sees it.
      if (on_worker) stolen.fetch_add(1, std::memory_order_relaxed);
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        {
          std::lock_guard<std::mutex> lock(mu);  // Pairs with the waiter.
        }
        cv.notify_all();
      }
    }
  }
};

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    RecordDispatch(0, static_cast<int64_t>(n), 0);
    return;
  }
  auto state = std::make_shared<ForState>();
  state->fn = &fn;
  state->n = n;
  size_t helpers = workers_.size() < n - 1 ? workers_.size() : n - 1;
  for (size_t i = 0; i < helpers; ++i) {
    auto task = std::make_shared<TaskHandle::State>();
    task->fn = [state] { state->Drive(/*on_worker=*/true); };
    Enqueue(task);
  }
  {
    // Worker-side drives are counted by TryRun; the caller's lane counts
    // itself here.
    ActiveLaneScope active;
    state->Drive(/*on_worker=*/false);
  }
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] {
      return state->done.load(std::memory_order_acquire) == state->n;
    });
  }
  RecordDispatch(0, static_cast<int64_t>(n),
                 state->stolen.load(std::memory_order_relaxed));
}

}  // namespace exec
}  // namespace regal
