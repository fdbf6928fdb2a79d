// Modeled execution engine: many ranks on one OS thread.
//
// The thread engine (the historical default) backs every sgmpi rank with a
// std::thread, which caps the simulated cluster at a few dozen ranks — a
// p=4096 run would need four thousand OS threads and their stacks. The
// modeled engine replaces them with cooperative fibers: each rank body runs
// unchanged on a stackful coroutine (ucontext), and one scheduler thread
// resumes the fibers round-robin in rank order. A rank that would block on a
// peer (rendezvous, async-slot wait, shrink/commit gate) yields back to the
// scheduler instead of sleeping on a condition variable, so the whole
// parallel region is a deterministic single-threaded event loop over virtual
// time.
//
// Determinism: fibers are resumed in ascending rank order every sweep, and
// all cross-rank arithmetic in the runtime is arrival-order independent (max
// reductions; buffer sums in ascending communicator-rank order), so results
// AND virtual times are bit-identical to the thread engine.
//
// Stacks are mmap'd lazily-committed with a PROT_NONE guard page below, so
// p=4096 fibers reserve address space but only commit the pages each rank
// actually touches — the RSS that matters for the large-p smoke budget.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

namespace summagen::sgmpi::detail {

/// Cooperative scheduler hosting one fiber per rank on the calling thread.
class FiberHost {
 public:
  /// Stack reservation per fiber when Config::fiber_stack_bytes == 0.
  static constexpr std::size_t kDefaultStackBytes = 1u << 20;  // 1 MiB

  /// Prepares `nfibers` fibers with `stack_bytes` of stack each (rounded up
  /// to whole pages; a guard page is added on top of the reservation).
  FiberHost(int nfibers, std::size_t stack_bytes);
  ~FiberHost();
  FiberHost(const FiberHost&) = delete;
  FiberHost& operator=(const FiberHost&) = delete;

  /// Runs `body(i)` for every fiber i to completion on the calling thread.
  /// Fibers are started and resumed in ascending index order; an exception
  /// escaping a body terminates that fiber and is captured in errors()[i]
  /// (the others keep running — runtime-level unwind is the caller's job,
  /// exactly as with detached rank threads).
  void run(const std::function<void(int)>& body);

  /// Per-fiber captured exceptions after run() (null = clean exit).
  const std::vector<std::exception_ptr>& errors() const { return errors_; }

  /// The host driving the calling thread, or null when the caller is a
  /// plain thread (pool workers, the thread engine's ranks). Blocking wait
  /// sites branch on this: yield to the scheduler instead of sleeping.
  static FiberHost* current() noexcept;

  /// Index of the fiber currently running on this thread (-1 outside one).
  int current_fiber() const noexcept { return running_; }

  /// Returns control to the scheduler; the calling fiber is resumed on the
  /// next round-robin sweep. Must be called from inside a fiber with no
  /// locks held.
  void yield();

 private:
  struct Fiber;
  static void trampoline();
  void switch_to(int index);
  void switch_back(Fiber& fiber, bool dying);

  std::size_t stack_bytes_ = 0;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<std::exception_ptr> errors_;
  const std::function<void(int)>* body_ = nullptr;
  int running_ = -1;   ///< fiber index executing now, -1 = scheduler
  int finished_ = 0;   ///< fibers that have returned/thrown

  // Sanitizer bookkeeping for the scheduler's own (thread) stack.
  void* host_fake_stack_ = nullptr;
  const void* host_stack_bottom_ = nullptr;
  std::size_t host_stack_size_ = 0;
  void* host_tsan_fiber_ = nullptr;
};

/// One step of a blocking wait loop, engine-aware: under a FiberHost the
/// calling fiber releases `lock`, yields one scheduler sweep, and re-locks;
/// on a plain thread it sleeps on `cv` with exponential backoff capped at
/// `poll_interval_s`. The caller's loop re-checks its predicate (and unwind
/// state) after every step, so both paths observe identical wake-up points.
template <typename Lock, typename Cv>
inline void engine_wait_step(Lock& lock, Cv& cv, double& backoff_s,
                             double poll_interval_s) {
  if (FiberHost* host = FiberHost::current()) {
    lock.unlock();
    host->yield();
    lock.lock();
    return;
  }
  cv.wait_for(lock, std::chrono::duration<double>(backoff_s));
  backoff_s = std::min(backoff_s * 2.0, poll_interval_s);
}

}  // namespace summagen::sgmpi::detail
