#include <exception>
#include <stdexcept>
#include <vector>

#include "src/mpi/context.hpp"
#include "src/mpi/engine.hpp"
#include "src/mpi/mpi.hpp"

namespace summagen::sgmpi {

Runtime::Runtime(Config config) : config_(config) {
  if (config_.nranks < 1) {
    throw std::invalid_argument("sgmpi: nranks must be >= 1");
  }
  ctx_ = std::make_shared<Context>(config_);
}

Runtime::~Runtime() = default;

void Runtime::run(const std::function<void(Comm&)>& body) {
  if (ctx_->poisoned) {
    throw std::logic_error(
        "sgmpi: Runtime was poisoned by an aborted run; create a new one");
  }
  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(config_.nranks));
  // All ranks as fibers on this thread, resumed round-robin in rank order;
  // blocked operations yield back here.
  detail::FiberHost host(config_.nranks,
                         detail::FiberHost::kDefaultStackBytes);
  host.run([this, &body, &errors](int r) {
    try {
      Comm world(ctx_, 0, r);
      body(world);
    } catch (const RankCrashedError&) {
      // A planned crash that the body did not handle: the victim exits
      // quietly. Its peers observe the failure as PeerFailedError and
      // either recover (fault-tolerant bodies) or unwind the run with a
      // typed error instead of waiting forever.
    } catch (...) {
      // Blocked peers see the flag at their next turn and unwind.
      errors[static_cast<std::size_t>(r)] = std::current_exception();
      ctx_->aborted.store(true, std::memory_order_relaxed);
    }
  });

  if (ctx_->aborted.load()) {
    ctx_->poisoned = true;
    // Surface the first real error, preferring non-Aborted exceptions so the
    // root cause is reported rather than a sympathetic unwind.
    std::exception_ptr aborted_error;
    for (const auto& e : errors) {
      if (!e) continue;
      try {
        std::rethrow_exception(e);
      } catch (const AbortedError&) {
        aborted_error = e;
      } catch (...) {
        std::rethrow_exception(e);
      }
    }
    if (aborted_error) std::rethrow_exception(aborted_error);
    throw std::logic_error("sgmpi: aborted without recorded error");
  }
}

const trace::VirtualClock& Runtime::clock(int rank) const {
  if (rank < 0 || rank >= config_.nranks) {
    throw std::out_of_range("sgmpi: clock rank out of range");
  }
  return ctx_->clocks[static_cast<std::size_t>(rank)];
}

double Runtime::max_vtime() const {
  double worst = 0.0;
  for (const auto& c : ctx_->clocks) worst = std::max(worst, c.now());
  return worst;
}

trace::EventLog& Runtime::events() { return ctx_->event_log; }

void Runtime::reset_clocks() {
  for (auto& c : ctx_->clocks) c.reset();
}

std::vector<FaultRecord> Runtime::fault_records() const {
  if (!ctx_->faults) return {};
  return ctx_->faults->records();
}

}  // namespace summagen::sgmpi
