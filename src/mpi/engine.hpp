// Rank engine: every sgmpi rank of a run is a fiber on the calling thread.
//
// The paper runs one MPI process per abstract processor. Here each rank body
// runs unchanged on a stackful coroutine (ucontext), and one scheduler loop
// on the thread that called Runtime::run resumes the fibers round-robin in
// rank order. A rank that would block on a peer (rendezvous, async-slot
// wait, shrink/commit gate) yields back to the scheduler, so the whole
// parallel region is a deterministic single-threaded event loop over
// virtual time, and a p=4096 run costs one OS thread plus its fiber stacks.
//
// Determinism: fibers are resumed in ascending rank order every sweep, so
// the interleaving is a pure function of the program: results, virtual
// times and fault outcomes repeat bit for bit from run to run.
//
// Stacks are mmap'd lazily-committed with a PROT_NONE guard page below, so
// p=4096 fibers reserve address space but only commit the pages each rank
// actually touches — the RSS that matters for the large-p smoke budget.
// Every fiber yields to the same scheduler loop, so the host keeps one
// saved scheduler context for all of them; a fiber keeps only its own.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

namespace summagen::sgmpi::detail {

/// Cooperative scheduler hosting one fiber per rank on the calling thread.
class FiberHost {
 public:
  /// Stack reservation per fiber when the constructor is given 0.
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
  /// (the others keep running — runtime-level unwind is the caller's job).
  void run(const std::function<void(int)>& body);

  /// Per-fiber captured exceptions after run() (null = clean exit).
  const std::vector<std::exception_ptr>& errors() const { return errors_; }

  /// The host driving the calling thread, or null outside a run (pool
  /// workers, service executors between jobs). Blocking wait sites yield
  /// to it.
  static FiberHost* current() noexcept;

  /// Index of the fiber currently running on this thread (-1 outside one).
  int current_fiber() const noexcept { return running_; }

  /// Returns control to the scheduler; the calling fiber is resumed on the
  /// next round-robin sweep. Must be called from inside a fiber with no
  /// locks held.
  void yield();

 private:
  struct Fiber;
  struct HostContext;
  static void trampoline();
  void switch_to(int index);
  void switch_back(Fiber& fiber, bool dying);

  std::size_t stack_bytes_ = 0;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  /// The scheduler's saved context: where every yielding fiber resumes it.
  std::unique_ptr<HostContext> host_ctx_;
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

/// One step of a blocking wait loop: the calling fiber releases `lock`,
/// yields one scheduler sweep, and re-locks. The caller's loop re-checks
/// its predicate (and unwind state) after every step. Ranks only ever run
/// as fibers, so a blocking wait on a thread without a FiberHost is a
/// misuse and throws std::logic_error.
template <typename Lock>
inline void engine_wait_step(Lock& lock) {
  FiberHost* host = FiberHost::current();
  if (host == nullptr) {
    throw std::logic_error("sgmpi: blocking wait outside a rank fiber");
  }
  lock.unlock();
  host->yield();
  lock.lock();
}

}  // namespace summagen::sgmpi::detail
