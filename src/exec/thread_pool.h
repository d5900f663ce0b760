#ifndef REGAL_EXEC_THREAD_POOL_H_
#define REGAL_EXEC_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace regal {
namespace exec {

/// Fixed-size thread pool shared by the parallel operator kernels and the
/// evaluator's concurrent subtree execution.
///
/// A pool of `num_threads` *lanes* runs `num_threads - 1` worker threads:
/// the submitting thread is always the extra lane, participating in every
/// ParallelFor and running unclaimed Submit tasks inline on Wait. This
/// caller-runs discipline makes nested parallelism (a pool task that itself
/// fans out) deadlock-free — a waiter never blocks on work that no thread
/// has picked up — and makes `ThreadPool(1)` exactly the sequential path
/// (zero workers, every task inline).
///
/// The process-wide Default() pool is created lazily on first use and sized
/// by the REGAL_THREADS environment variable (falling back to
/// std::thread::hardware_concurrency).
///
/// Observability (obs::Registry::Default(), updated from the submitting
/// thread):
///   regal_exec_threads            gauge    lanes of the default pool
///   regal_exec_queue_depth        gauge    queue length sampled at submit
///   regal_exec_tasks_total        counter  chunk/task executions
///   regal_exec_steals_total       counter  executions claimed by a worker
///                                          (i.e. stolen from the caller's
///                                          inline path)
class ThreadPool {
 public:
  /// `num_threads` lanes (>= 1): num_threads - 1 workers plus the caller.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The lazily-started process-wide pool, sized by REGAL_THREADS.
  static ThreadPool& Default();

  /// Lanes of Default(): REGAL_THREADS if set and valid, else
  /// hardware_concurrency (minimum 1). Stable after first call.
  static int DefaultNumThreads();

  /// Parses a REGAL_THREADS-style value; returns `fallback` when null,
  /// empty, non-numeric or out of [1, 512]. Exposed for tests.
  static int ParseThreads(const char* value, int fallback);

  /// Total lanes (workers + caller).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Handle to a Submit()ed task. Wait() runs the task inline if no worker
  /// has claimed it yet, then blocks until it finished.
  class TaskHandle {
   public:
    TaskHandle() = default;
    void Wait();

   private:
    friend class ThreadPool;
    struct State;
    std::shared_ptr<State> state_;
  };

  /// Schedules `fn`. `fn` must not throw.
  TaskHandle Submit(std::function<void()> fn);

  /// Runs fn(0) .. fn(n - 1), distributing indices over the workers with
  /// the caller participating; returns when all n calls completed. Indices
  /// are claimed dynamically, so chunk sizes self-balance. `fn` must not
  /// throw and must tolerate concurrent invocation on distinct indices.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Queue length at this instant (tasks submitted but not yet claimed).
  size_t ApproxQueueDepth() const;

  /// Admission signal for graceful degradation: true when the backlog
  /// exceeds a small multiple of the lane count (every lane busy plus a
  /// full round of queued work), or when the "exec.pool.saturated"
  /// failpoint fires. The engine answers saturation by evaluating
  /// sequentially instead of queueing more parallel work — see
  /// QueryEngine::Execute and DESIGN.md "Resource governance".
  bool Saturated() const;

 private:
  struct ForState;

  void WorkerLoop();
  void Enqueue(std::shared_ptr<TaskHandle::State> task);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<TaskHandle::State>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace exec
}  // namespace regal

#endif  // REGAL_EXEC_THREAD_POOL_H_
