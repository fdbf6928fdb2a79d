#include "src/mpi/engine.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdint>
#include <new>
#include <stdexcept>

// Fiber switches move the stack pointer between unrelated allocations, which
// ASan and TSan must be told about or they report false positives (and ASan's
// fake-stack bookkeeping leaks). Both interfaces ship with GCC >= 10 / Clang.
#if defined(__SANITIZE_ADDRESS__)
#define SUMMAGEN_ASAN_FIBERS 1
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#define SUMMAGEN_TSAN_FIBERS 1
#include <sanitizer/tsan_interface.h>
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) && !defined(SUMMAGEN_ASAN_FIBERS)
#define SUMMAGEN_ASAN_FIBERS 1
#include <sanitizer/common_interface_defs.h>
#endif
#if __has_feature(thread_sanitizer) && !defined(SUMMAGEN_TSAN_FIBERS)
#define SUMMAGEN_TSAN_FIBERS 1
#include <sanitizer/tsan_interface.h>
#endif
#endif

namespace summagen::sgmpi::detail {

namespace {
thread_local FiberHost* g_current_host = nullptr;

std::size_t page_size() {
  static const std::size_t ps =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return ps;
}

std::size_t round_up_pages(std::size_t bytes) {
  const std::size_t ps = page_size();
  return (bytes + ps - 1) / ps * ps;
}
}  // namespace

struct FiberHost::HostContext {
  ucontext_t ctx{};
};

struct FiberHost::Fiber {
  ucontext_t ctx{};
  void* mapping = nullptr;  ///< guard page + stack
  std::size_t mapping_bytes = 0;
  void* stack = nullptr;  ///< usable stack (above the guard page)
  std::size_t stack_bytes = 0;
  FiberHost* host = nullptr;
  int index = -1;
  bool started = false;
  bool done = false;
  void* fake_stack = nullptr;  ///< ASan fake-stack save slot
  void* tsan_fiber = nullptr;

  ~Fiber() {
#if defined(SUMMAGEN_TSAN_FIBERS)
    if (tsan_fiber != nullptr) __tsan_destroy_fiber(tsan_fiber);
#endif
    if (mapping != nullptr) ::munmap(mapping, mapping_bytes);
  }
};

FiberHost::FiberHost(int nfibers, std::size_t stack_bytes)
    : host_ctx_(std::make_unique<HostContext>()) {
  if (nfibers < 0) {
    throw std::invalid_argument("sgmpi: FiberHost with negative fiber count");
  }
  stack_bytes_ =
      round_up_pages(stack_bytes == 0 ? kDefaultStackBytes : stack_bytes);
  if (stack_bytes_ < 4 * page_size()) stack_bytes_ = 4 * page_size();
  fibers_.reserve(static_cast<std::size_t>(nfibers));
  errors_.resize(static_cast<std::size_t>(nfibers));
  for (int i = 0; i < nfibers; ++i) {
    auto f = std::make_unique<Fiber>();
    f->host = this;
    f->index = i;
    // One anonymous mapping per fiber: [guard page][stack]. Pages commit
    // lazily on first touch, so idle fibers cost address space, not RSS.
    f->mapping_bytes = stack_bytes_ + page_size();
    void* m = ::mmap(nullptr, f->mapping_bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    if (m == MAP_FAILED) throw std::bad_alloc();
    f->mapping = m;
    ::mprotect(m, page_size(), PROT_NONE);  // overflow faults, not corrupts
    f->stack = static_cast<std::byte*>(m) + page_size();
    f->stack_bytes = stack_bytes_;
    fibers_.push_back(std::move(f));
  }
}

FiberHost::~FiberHost() = default;

FiberHost* FiberHost::current() noexcept { return g_current_host; }

void FiberHost::trampoline() {
  // The scheduler sets g_current_host and running_ before the first switch
  // into this fiber, so no arguments need to survive makecontext's int-only
  // calling convention.
  FiberHost* host = g_current_host;
  Fiber* f = host->fibers_[static_cast<std::size_t>(host->running_)].get();
#if defined(SUMMAGEN_ASAN_FIBERS)
  // First entry on this stack: tell ASan the switch completed and learn the
  // scheduler stack's bounds for the switches back.
  __sanitizer_finish_switch_fiber(f->fake_stack, &host->host_stack_bottom_,
                                  &host->host_stack_size_);
#endif
  try {
    (*host->body_)(f->index);
  } catch (...) {
    host->errors_[static_cast<std::size_t>(f->index)] =
        std::current_exception();
  }
  f->done = true;
  ++host->finished_;
  host->switch_back(*f, /*dying=*/true);
  // Unreachable: a dead fiber is never resumed.
}

void FiberHost::switch_to(int index) {
  Fiber& f = *fibers_[static_cast<std::size_t>(index)];
  running_ = index;
  if (!f.started) {
    f.started = true;
    ::getcontext(&f.ctx);
    f.ctx.uc_stack.ss_sp = f.stack;
    f.ctx.uc_stack.ss_size = f.stack_bytes;
    f.ctx.uc_link = nullptr;
    ::makecontext(&f.ctx, &FiberHost::trampoline, 0);
  }
#if defined(SUMMAGEN_TSAN_FIBERS)
  if (f.tsan_fiber == nullptr) f.tsan_fiber = __tsan_create_fiber(0);
  __tsan_switch_to_fiber(f.tsan_fiber, 0);
#endif
#if defined(SUMMAGEN_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(&host_fake_stack_, f.stack, f.stack_bytes);
#endif
  ::swapcontext(&host_ctx_->ctx, &f.ctx);
#if defined(SUMMAGEN_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(host_fake_stack_, nullptr, nullptr);
#endif
  running_ = -1;
}

void FiberHost::switch_back(Fiber& fiber, bool dying) {
#if defined(SUMMAGEN_TSAN_FIBERS)
  __tsan_switch_to_fiber(host_tsan_fiber_, 0);
#endif
#if defined(SUMMAGEN_ASAN_FIBERS)
  // A dying fiber passes null so ASan releases its fake stack.
  __sanitizer_start_switch_fiber(dying ? nullptr : &fiber.fake_stack,
                                 host_stack_bottom_, host_stack_size_);
#endif
  ::swapcontext(&fiber.ctx, &host_ctx_->ctx);
#if defined(SUMMAGEN_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(fiber.fake_stack, nullptr, nullptr);
#endif
  (void)dying;
}

void FiberHost::yield() {
  if (running_ < 0) {
    throw std::logic_error("sgmpi: FiberHost::yield outside a fiber");
  }
  switch_back(*fibers_[static_cast<std::size_t>(running_)], /*dying=*/false);
}

void FiberHost::run(const std::function<void(int)>& body) {
  if (g_current_host != nullptr) {
    throw std::logic_error("sgmpi: nested FiberHost::run on one thread");
  }
  body_ = &body;
  g_current_host = this;
#if defined(SUMMAGEN_TSAN_FIBERS)
  host_tsan_fiber_ = __tsan_get_current_fiber();
#endif
  const int n = static_cast<int>(fibers_.size());
  // Round-robin sweeps in ascending rank order until every fiber returns.
  // Each resumed fiber runs until it finishes or hits a blocking wait site
  // (which yields); the sweep order is the whole scheduling policy, so the
  // interleaving — and therefore every max/sum over rank arrival state — is
  // exactly reproducible.
  while (finished_ < n) {
    for (int i = 0; i < n; ++i) {
      if (!fibers_[static_cast<std::size_t>(i)]->done) switch_to(i);
    }
  }
  g_current_host = nullptr;
  body_ = nullptr;
}

}  // namespace summagen::sgmpi::detail
