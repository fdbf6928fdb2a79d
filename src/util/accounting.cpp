#include "src/util/accounting.hpp"

#include <atomic>

#include "src/pool/pool.hpp"

namespace summagen::util {
namespace {

std::atomic<std::int64_t> g_allocs{0};
std::atomic<std::int64_t> g_alloc_bytes{0};
std::atomic<std::int64_t> g_copy_calls{0};
std::atomic<std::int64_t> g_copy_bytes{0};
std::atomic<std::int64_t> g_pool_acquires{0};
std::atomic<std::int64_t> g_pool_hits{0};
std::atomic<std::int64_t> g_pool_resident{0};
std::atomic<std::int64_t> g_pool_peak_resident{0};
std::atomic<std::int64_t> g_sched_lookups{0};
std::atomic<std::int64_t> g_sched_hits{0};
std::atomic<std::int64_t> g_fastmm_leases{0};
std::atomic<std::int64_t> g_fastmm_bytes{0};

constexpr auto kRelaxed = std::memory_order_relaxed;

}  // namespace

DataPlaneStats DataPlaneStats::since(const DataPlaneStats& base) const {
  DataPlaneStats d = *this;
  d.allocs -= base.allocs;
  d.alloc_bytes -= base.alloc_bytes;
  d.copy_calls -= base.copy_calls;
  d.copy_bytes -= base.copy_bytes;
  d.pool_acquires -= base.pool_acquires;
  d.pool_hits -= base.pool_hits;
  d.sched_lookups -= base.sched_lookups;
  d.sched_hits -= base.sched_hits;
  d.fastmm_leases -= base.fastmm_leases;
  d.fastmm_bytes -= base.fastmm_bytes;
  return d;
}

DataPlaneStats data_plane_stats() {
  DataPlaneStats s;
  s.allocs = g_allocs.load(kRelaxed);
  s.alloc_bytes = g_alloc_bytes.load(kRelaxed);
  s.copy_calls = g_copy_calls.load(kRelaxed);
  s.copy_bytes = g_copy_bytes.load(kRelaxed);
  s.pool_acquires = g_pool_acquires.load(kRelaxed);
  s.pool_hits = g_pool_hits.load(kRelaxed);
  s.pool_resident_bytes = g_pool_resident.load(kRelaxed);
  s.pool_peak_resident_bytes = g_pool_peak_resident.load(kRelaxed);
  s.sched_lookups = g_sched_lookups.load(kRelaxed);
  s.sched_hits = g_sched_hits.load(kRelaxed);
  s.fastmm_leases = g_fastmm_leases.load(kRelaxed);
  s.fastmm_bytes = g_fastmm_bytes.load(kRelaxed);
  return s;
}

DataPlaneStats StatsSink::snapshot() const {
  DataPlaneStats s;
  s.allocs = allocs_.load(kRelaxed);
  s.alloc_bytes = alloc_bytes_.load(kRelaxed);
  s.copy_calls = copy_calls_.load(kRelaxed);
  s.copy_bytes = copy_bytes_.load(kRelaxed);
  s.pool_acquires = pool_acquires_.load(kRelaxed);
  s.pool_hits = pool_hits_.load(kRelaxed);
  s.sched_lookups = sched_lookups_.load(kRelaxed);
  s.sched_hits = sched_hits_.load(kRelaxed);
  s.fastmm_leases = fastmm_leases_.load(kRelaxed);
  s.fastmm_bytes = fastmm_bytes_.load(kRelaxed);
  return s;
}

void StatsSink::add(const DataPlaneStats& d) {
  allocs_.fetch_add(d.allocs, kRelaxed);
  alloc_bytes_.fetch_add(d.alloc_bytes, kRelaxed);
  copy_calls_.fetch_add(d.copy_calls, kRelaxed);
  copy_bytes_.fetch_add(d.copy_bytes, kRelaxed);
  pool_acquires_.fetch_add(d.pool_acquires, kRelaxed);
  pool_hits_.fetch_add(d.pool_hits, kRelaxed);
  sched_lookups_.fetch_add(d.sched_lookups, kRelaxed);
  sched_hits_.fetch_add(d.sched_hits, kRelaxed);
  fastmm_leases_.fetch_add(d.fastmm_leases, kRelaxed);
  fastmm_bytes_.fetch_add(d.fastmm_bytes, kRelaxed);
}

// The sink pointer rides the sgpool task token so pooled tasks inherit the
// submitting thread's attribution (src/pool/pool.hpp).
StatsSink* current_stats_sink() {
  return static_cast<StatsSink*>(sgpool::current_task_token());
}

ScopedStatsSink::ScopedStatsSink(StatsSink* sink)
    : prev_(sgpool::current_task_token()) {
  sgpool::set_current_task_token(sink);
}

ScopedStatsSink::~ScopedStatsSink() { sgpool::set_current_task_token(prev_); }

void record_alloc(std::int64_t bytes) {
  if (bytes <= 0) return;
  g_allocs.fetch_add(1, kRelaxed);
  g_alloc_bytes.fetch_add(bytes, kRelaxed);
  if (StatsSink* s = current_stats_sink()) {
    s->allocs_.fetch_add(1, kRelaxed);
    s->alloc_bytes_.fetch_add(bytes, kRelaxed);
  }
}

void record_copy(std::int64_t bytes) {
  g_copy_calls.fetch_add(1, kRelaxed);
  g_copy_bytes.fetch_add(bytes, kRelaxed);
  if (StatsSink* s = current_stats_sink()) {
    s->copy_calls_.fetch_add(1, kRelaxed);
    s->copy_bytes_.fetch_add(bytes, kRelaxed);
  }
}

void record_pool_acquire(bool hit) {
  g_pool_acquires.fetch_add(1, kRelaxed);
  if (hit) g_pool_hits.fetch_add(1, kRelaxed);
  if (StatsSink* s = current_stats_sink()) {
    s->pool_acquires_.fetch_add(1, kRelaxed);
    if (hit) s->pool_hits_.fetch_add(1, kRelaxed);
  }
}

void record_sched_lookup(bool hit) {
  g_sched_lookups.fetch_add(1, kRelaxed);
  if (hit) g_sched_hits.fetch_add(1, kRelaxed);
  if (StatsSink* s = current_stats_sink()) {
    s->sched_lookups_.fetch_add(1, kRelaxed);
    if (hit) s->sched_hits_.fetch_add(1, kRelaxed);
  }
}

void record_fastmm_lease(std::int64_t bytes) {
  if (bytes <= 0) return;
  g_fastmm_leases.fetch_add(1, kRelaxed);
  g_fastmm_bytes.fetch_add(bytes, kRelaxed);
  if (StatsSink* s = current_stats_sink()) {
    s->fastmm_leases_.fetch_add(1, kRelaxed);
    s->fastmm_bytes_.fetch_add(bytes, kRelaxed);
  }
}

void record_pool_resident_delta(std::int64_t delta) {
  const std::int64_t now = g_pool_resident.fetch_add(delta, kRelaxed) + delta;
  // Racy max update is fine for a statistic: a lost update can only
  // under-report the peak by one in-flight allocation.
  std::int64_t peak = g_pool_peak_resident.load(kRelaxed);
  while (now > peak &&
         !g_pool_peak_resident.compare_exchange_weak(peak, now, kRelaxed)) {
  }
}

}  // namespace summagen::util
