// A small fixed-size worker pool for fork/join parallelism: a caller
// dispatches a batch of independent tasks, blocks at a barrier, and merges
// the results on the calling thread. The engine's fixpoint rounds fan out
// (rule, delta-literal) evaluations this way, the grounder fans out
// per-rule instance-emission jobs into per-worker graph shards plus the
// three CSR index builds of GroundGraph::Finalize, and the perfect-model
// interpreter fans out the SCC components of one topological wave
// (core/perfect_model.cc), the alternating fixpoint the rule blocks of one
// sweep (core/alternating.cc). Tasks are distributed
// by an atomic claim counter (the cheap half of work stealing: idle
// workers pull the next unclaimed task instead of owning a fixed slice),
// so uneven task costs self-balance without per-task queues.
//
// Threading contract: ParallelFor publishes the batch under a mutex and
// joins on a condition variable, so everything written by the caller
// before ParallelFor happens-before every task body, and everything
// written by task bodies happens-before ParallelFor's return. Callers can
// therefore hand workers read-only shared state plus a private slot per
// worker id and never touch an atomic themselves.
#ifndef TIEBREAK_UTIL_THREAD_POOL_H_
#define TIEBREAK_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "util/function_view.h"

namespace tiebreak {

// Forward-declared; see util/execution_context.h.
class ExecutionContext;

/// A persistent pool of `num_threads - 1` worker threads; the thread that
/// calls ParallelFor participates as worker 0, so `num_threads = 1` spawns
/// nothing and runs everything inline (the serial reference path).
class ThreadPool {
 public:
  /// `num_threads <= 0` means std::thread::hardware_concurrency().
  explicit ThreadPool(int32_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The pool's fixed lane count (including the calling thread as lane 0).
  int32_t num_threads() const { return num_threads_; }

  /// Runs `body(task, worker)` for every task in [0, num_tasks), spread
  /// across the pool; blocks until all tasks finished. `worker` is in
  /// [0, num_threads()) and identifies the executing lane (stable for the
  /// duration of one task, distinct for concurrently running tasks), so it
  /// can index per-worker scratch. Not reentrant: one batch at a time
  /// (violations abort; see InParallelRegion for the testable predicate).
  ///
  /// With a non-null `context`, workers poll it between claimed tasks and
  /// stop claiming once it trips — tasks already running finish (their
  /// bodies observe the trip through their own checkpoints), unclaimed
  /// tasks are abandoned, and ParallelFor still joins normally, so callers
  /// unwind from a barrier-consistent state.
  void ParallelFor(int32_t num_tasks,
                   FunctionView<void(int32_t task, int32_t worker)> body,
                   const ExecutionContext* context = nullptr);

  /// True while a ParallelFor batch is in flight on this pool. Calling
  /// ParallelFor when this holds is the non-reentrancy violation (it
  /// aborts); exposed so callers and tests can detect the condition
  /// without dying.
  bool InParallelRegion() const {
    return in_batch_.load(std::memory_order_relaxed);
  }

  /// Resolves a thread-count request: n <= 0 → hardware concurrency
  /// (at least 1), otherwise n.
  static int32_t EffectiveThreads(int32_t requested);

 private:
  void WorkerLoop(int32_t worker);
  /// Claims and runs tasks of the current batch until none remain.
  void DrainTasks(int32_t worker);

  const int32_t num_threads_;

  std::mutex mu_;
  std::condition_variable batch_cv_;  // signals workers: new batch / shutdown
  std::condition_variable done_cv_;   // signals caller: workers drained
  uint64_t batch_generation_ = 0;     // bumped per ParallelFor (guarded by mu_)
  int32_t batch_tasks_ = 0;
  int32_t workers_active_ = 0;  // spawned workers still inside current batch
  bool shutdown_ = false;
  // Points at ParallelFor's argument; valid while a batch runs because
  // ParallelFor does not return before every task has finished.
  const FunctionView<void(int32_t, int32_t)>* body_ = nullptr;
  // Current batch's cancellation context (null = none); same lifetime
  // argument as body_.
  const ExecutionContext* context_ = nullptr;
  // Set for the duration of one batch, including serial (1-thread) runs.
  std::atomic<bool> in_batch_{false};

  std::atomic<int32_t> next_task_{0};

  std::vector<std::thread> workers_;
};

}  // namespace tiebreak

#endif  // TIEBREAK_UTIL_THREAD_POOL_H_
