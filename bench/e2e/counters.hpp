// The one place the benchmark reads counters out of core::ExperimentResult
// and util::DataPlaneStats. When those counters move (for instance into a
// single counter registry), only this file changes.
#pragma once

#include <algorithm>
#include <cstdint>

#include "src/core/runner.hpp"

namespace summagen::e2e {

/// Counters of one run_pmm, or the sum over several.
struct OpCounters {
  std::int64_t ops = 0;
  bool verified = true;     ///< every summed numeric run verified
  double exec_time_s = 0;   ///< virtual execution time (model answer)
  double comm_time_s = 0;   ///< virtual communication time
  double hidden_comm_s = 0; ///< virtual communication hidden by compute
  std::int64_t gemm_calls = 0;
  std::int64_t flops = 0;
  std::int64_t bcasts = 0;
  std::int64_t bcast_bytes = 0;
  std::int64_t allocs = 0;
  std::int64_t alloc_bytes = 0;
  std::int64_t copy_bytes = 0;
  std::int64_t pool_acquires = 0;
  std::int64_t pool_hits = 0;
  std::int64_t pool_peak_bytes = 0;  ///< max over the summed runs
  std::int64_t pack_lookups = 0;
  std::int64_t pack_hits = 0;
  std::int64_t sched_lookups = 0;
  std::int64_t sched_hits = 0;

  OpCounters& operator+=(const OpCounters& o) {
    ops += o.ops;
    verified = verified && o.verified;
    exec_time_s += o.exec_time_s;
    comm_time_s += o.comm_time_s;
    hidden_comm_s += o.hidden_comm_s;
    gemm_calls += o.gemm_calls;
    flops += o.flops;
    bcasts += o.bcasts;
    bcast_bytes += o.bcast_bytes;
    allocs += o.allocs;
    alloc_bytes += o.alloc_bytes;
    copy_bytes += o.copy_bytes;
    pool_acquires += o.pool_acquires;
    pool_hits += o.pool_hits;
    pool_peak_bytes = std::max(pool_peak_bytes, o.pool_peak_bytes);
    pack_lookups += o.pack_lookups;
    pack_hits += o.pack_hits;
    sched_lookups += o.sched_lookups;
    sched_hits += o.sched_hits;
    return *this;
  }
};

/// Reads one run's counters. `numeric` says whether the run multiplied and
/// verified real data; a modeled run only prices its GEMMs, so its kernel
/// counts stay 0 (its virtual times carry the model's answer).
inline OpCounters read_counters(const core::ExperimentResult& r,
                                bool numeric) {
  OpCounters c;
  c.ops = 1;
  c.verified = !numeric || r.verified;
  c.exec_time_s = r.exec_time_s;
  c.comm_time_s = r.comm_time_s;
  c.hidden_comm_s = r.hidden_comm_time_s;
  for (const core::RankReport& rep : r.reports) {
    if (numeric) {
      c.gemm_calls += rep.gemm_calls;
      c.flops += rep.flops;
    }
    c.bcasts += rep.bcasts;
    c.bcast_bytes += rep.bcast_bytes;
  }
  c.allocs = r.alloc.allocs;
  c.alloc_bytes = r.alloc.alloc_bytes;
  c.copy_bytes = r.alloc.copy_bytes;
  c.pool_acquires = r.alloc.pool_acquires;
  c.pool_hits = r.alloc.pool_hits;
  c.pool_peak_bytes = r.alloc.pool_peak_resident_bytes;
  c.pack_lookups = r.alloc.pack_lookups;
  c.pack_hits = r.alloc.pack_hits;
  c.sched_lookups = r.alloc.sched_lookups;
  c.sched_hits = r.alloc.sched_hits;
  return c;
}

}  // namespace summagen::e2e
