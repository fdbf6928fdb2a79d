// sgpool — the process-wide compute executor.
//
// The paper delegates every local computation to a vendor DGEMM (MKL on the
// CPU/Phi, CUBLAS on the GPU) that owns one persistent, correctly-sized
// worker pool per abstract processor. This is the reproduction's equivalent:
// one shared work-stealing thread pool per process that all compute
// parallelism (blas::dgemm row bands, out-of-core tile stages, parallel
// matrix fills) is routed through. The thread running a job's sgmpi rank
// fibers submits tasks and *helps execute them while waiting*, so the host
// is never oversubscribed beyond `reserved threads + pool workers` — sized
// together to hardware_concurrency() (DESIGN.md "Compute executor").
//
// Shape: persistent workers, one mutex-guarded deque per worker. Owners
// push/pop LIFO at the back (cache-warm), thieves steal FIFO from the
// front (oldest == biggest remaining work under divide-and-conquer
// submission order). TaskGroup::wait() participates in execution, which
// makes nested parallelism (an OOC tile task issuing a pooled dgemm)
// deadlock-free by construction.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace summagen::sgpool {

class TaskGroup;

/// Thread-local task token, inherited by pooled work: every submitted task
/// captures the submitting thread's token and installs it on the executing
/// thread for the task's duration (workers, thieves, and helping waiters
/// alike), restoring the executor's own token afterwards. The pool never
/// interprets the value — it is an attribution channel for layers above
/// (util::StatsSink rides it so concurrent jobs' data-plane events bill
/// the right job even from stolen tasks).
void* current_task_token();
void set_current_task_token(void* token);

/// Observability counters (test hooks; monotonically increasing).
struct PoolStats {
  std::int64_t threads_spawned = 0;  ///< workers ever created by this pool
  std::int64_t tasks_executed = 0;   ///< tasks completed (workers + helpers)
  std::int64_t steals = 0;  ///< tasks taken from a non-home deque
};

/// A fixed set of persistent worker threads with work-stealing deques.
///
/// Most code should use the shared process pool via `Pool::instance()` /
/// `TaskGroup`; separate instances exist for tests. Thread-safe: any thread
/// may submit; pool workers submitting go to their own deque.
class Pool {
 public:
  /// Spawns `threads` workers (clamped to >= 0; 0 = callers execute
  /// everything inline during wait(), still a valid executor).
  explicit Pool(int threads);
  ~Pool();
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  int size() const;
  PoolStats stats() const;

  /// The shared process-wide pool. Lazily created with
  /// `recommended_size(reserved_threads())` workers; never destroyed.
  static Pool& instance();

  /// Resizes the shared pool (no-op when the size already matches). Must be
  /// called at a quiescent point — no tasks in flight. The experiment
  /// runner calls this once per run with `hardware_concurrency()` minus the
  /// one thread that runs the rank fibers.
  static void configure(int threads);

  /// Worker count that fills the machine alongside `reserved_threads`
  /// always-running threads (the threads that run sgmpi rank fibers):
  /// max(1, hw_concurrency - reserved).
  static int recommended_size(int reserved_threads);

  /// Threads reserved for rank execution, used by the lazy default size.
  /// Late reservations are honored: when the shared pool already exists and
  /// the reservation changes, the pool is resized via configure() — so this
  /// is quiescent-only once the shared pool has tasks in flight.
  static void set_reserved_threads(int reserved);
  static int reserved_threads();

  /// Registers a callback run at every quiescent point — currently the top
  /// of configure(), i.e. once per experiment run, before any tasks of the
  /// new run are in flight. Used by process-wide caches (the core
  /// SharedSchedule cache) to drop the previous run's entries. Hooks are
  /// never removed and must be safe to call with no tasks in flight.
  static void add_quiescent_hook(std::function<void()> hook);

  /// Total worker threads ever spawned by any Pool in this process — the
  /// test hook proving dgemm does not construct threads per call.
  static std::int64_t process_threads_spawned();

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
    void* token = nullptr;  ///< submitter's task token (see above)
  };

  struct Worker {
    std::mutex mu;
    std::deque<Task> tasks;
    std::thread thread;
  };

  void start(int threads);
  void shutdown();
  void submit(Task task);
  /// Runs one task if any is available (own deque back first when called
  /// from a worker, then steal sweep). Returns false when idle.
  bool try_run_one();
  void run_task(Task& task);
  void worker_loop(std::size_t index);

  mutable std::mutex sleep_mu_;  ///< guards sleep/wake + worker vector swap
  std::condition_variable sleep_cv_;
  bool stop_ = false;  ///< guarded by sleep_mu_
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::uint64_t> rr_{0};  ///< round-robin external submission
  std::atomic<std::int64_t> spawned_{0};
  std::atomic<std::int64_t> executed_{0};
  std::atomic<std::int64_t> steals_{0};
};

/// A set of tasks submitted together and awaited together (TBB task_group
/// shape). `wait()` helps execute pool tasks while the group is pending and
/// rethrows the first task exception. Groups nest freely.
class TaskGroup {
 public:
  explicit TaskGroup(Pool& pool = Pool::instance());
  /// Blocks until pending tasks finish; exceptions from unawaited tasks are
  /// dropped — call wait() to observe them.
  ~TaskGroup();
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Submits one task to the pool.
  void run(std::function<void()> fn);
  /// Waits for every submitted task, executing pool tasks in the meantime.
  /// Rethrows the first exception thrown by a task of this group.
  void wait();

 private:
  friend class Pool;
  void finish_task(std::exception_ptr error);
  void wait_nothrow();

  Pool& pool_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::int64_t pending_ = 0;   ///< guarded by mu_
  std::exception_ptr error_;   ///< first task failure, guarded by mu_
};

/// Splits [begin, end) into chunks of at most `grain` and runs
/// `body(chunk_begin, chunk_end)` on the pool; the caller participates.
/// Chunk boundaries depend only on (begin, end, grain), never on the worker
/// count, so any per-chunk seeding is reproducible across pool sizes.
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& body,
                  Pool& pool = Pool::instance());

}  // namespace summagen::sgpool
