#include "src/core/runtime_context.hpp"

#include <atomic>
#include <stdexcept>
#include <utility>

#include "src/pool/pool.hpp"

namespace summagen::core {
namespace {

std::atomic<RuntimeContext*> g_current{nullptr};

}  // namespace

RuntimeContext::RuntimeContext() : RuntimeContext(Options()) {}

RuntimeContext::RuntimeContext(const Options& options)
    : capacity_(options.plan_cache_capacity) {
  RuntimeContext* expected = nullptr;
  if (!g_current.compare_exchange_strong(expected, this,
                                         std::memory_order_acq_rel)) {
    throw std::logic_error(
        "RuntimeContext: another context is already active");
  }
  // Size the pool once for the context's lifetime. Both calls are quiescent
  // points (nothing of this context is in flight yet); their hooks trim the
  // schedule cache left over from earlier standalone runs, after which it
  // accumulates across jobs until the context is destroyed.
  if (options.reserved_threads >= 0) {
    sgpool::Pool::set_reserved_threads(options.reserved_threads);
  }
  const int workers =
      options.pool_threads > 0
          ? options.pool_threads
          : sgpool::Pool::recommended_size(sgpool::Pool::reserved_threads());
  sgpool::Pool::configure(workers);
}

RuntimeContext::~RuntimeContext() {
  g_current.store(nullptr, std::memory_order_release);
}

RuntimeContext* RuntimeContext::current() {
  return g_current.load(std::memory_order_acquire);
}

std::shared_ptr<const JobPlan> RuntimeContext::plan_for(
    std::uint64_t key, const std::function<JobPlan()>& build, bool* hit) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++lookups_;
    auto it = index_.find(key);
    if (it != index_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second);
      if (hit != nullptr) *hit = true;
      return it->second->plan;
    }
  }
  // Build outside the lock: plans are deterministic functions of the key's
  // asserted configuration, so a concurrent same-key builder produces an
  // identical plan and either copy may win the cache slot.
  auto plan = std::make_shared<const JobPlan>(build());
  if (hit != nullptr) *hit = false;
  std::lock_guard<std::mutex> lk(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) return it->second->plan;  // raced: reuse the winner
  lru_.push_front(Entry{key, plan});
  index_[key] = lru_.begin();
  if (capacity_ > 0 && lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
  return plan;
}

RuntimeContext::PlanCacheStats RuntimeContext::plan_cache_stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  PlanCacheStats s;
  s.lookups = lookups_;
  s.hits = hits_;
  s.entries = static_cast<std::int64_t>(lru_.size());
  return s;
}

}  // namespace summagen::core
