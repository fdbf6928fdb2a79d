// summagen_e2e — the repository's end-to-end benchmark binary.
//
// One process runs one workload (README.md records why each exists):
//   node_numeric    closed loop, verified numeric run_pmm on HCLServer1
//   paper_sweep     closed loop, the Fig. 6 CPM and Fig. 7 FPM modeled sweeps
//   cluster_p2048   closed loop, modeled PMM on 512 four-rank nodes
//   service_steady  open loop, PmmService at 6 jobs/s
//   service_peak    open loop, PmmService at 10 jobs/s
//
// Usage: summagen_e2e --workload NAME --seed S --seconds T --json OUT
//                     [--trace FILE] [--quick] [--rate JOBS_PER_S]
//                     [--spawned-at T0] [--setup-only] [--setup-rounds S1,S2]
//
// A run first brings its workload up. That set-up round lasts from process
// start (T0, the CLOCK_MONOTONIC second the caller spawned the process; this
// file's static initialisation without it) until the workload is ready for
// its first operation. --setup-only stops there and writes the round.
// Otherwise the run does one untimed warm-up operation, measures for T
// seconds and writes its metrics to OUT; setup_s is the median of its own
// round and the --setup-rounds of earlier set-up-only processes. With
// --trace it also replays each layer's public call on the inputs of every
// timed operation — after the operation, never inside it — derives the
// per-layer metrics from the recorded spans, and writes the spans to FILE
// as Chrome-trace JSON. --quick shrinks every
// problem size; --rate replaces an open-loop workload's arrival rate (to
// find the service's ceiling).
//
// Exit status: 0 when OUT was written (its "correct" field says whether
// every result checked out), 2 on bad usage or when an open-loop run is
// invalid because its generator ran late, 1 on any other error.
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "counters.hpp"
#include "spans.hpp"
#include "src/blas/gemm.hpp"
#include "src/blas/microkernel.hpp"
#include "src/blas/simd.hpp"
#include "src/blas/tune.hpp"
#include "src/core/plan.hpp"
#include "src/core/reference.hpp"
#include "src/core/runner.hpp"
#include "src/core/taskgraph/taskgraph.hpp"
#include "src/partition/areas.hpp"
#include "src/partition/nrrp.hpp"
#include "src/partition/shapes.hpp"
#include "src/pool/pool.hpp"
#include "src/service/service.hpp"
#include "src/util/cli.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace summagen;
using e2e::OpCounters;
using e2e::Span;
using e2e::SpanRecorder;
using e2e::wall_s;

/// Process start for runs not given --spawned-at: static initialisation of
/// this file, which precedes main.
const double kStaticInitS = wall_s();

/// Open-loop latency limit: a job slower than this is not goodput.
constexpr double kLatencyLimitS = 1.0;
/// An open-loop run whose generator ran later than this (p99) is invalid.
constexpr double kMaxGenLagS = 0.010;
/// Open-loop warm-up: blocks of the service mix, and the seed of their
/// order and fresh fill seeds (fixed, so every run warms up alike).
constexpr std::size_t kWarmUpBlocks = 8;
constexpr std::uint64_t kWarmUpSeed = 0x3a7;
constexpr double kMiB = 1024.0 * 1024.0;

const std::vector<partition::Shape> kThreeShapes = {
    partition::Shape::kSquareCorner, partition::Shape::kSquareRectangle,
    partition::Shape::kBlockRectangle};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool quick = false;
  bool setup_only = false;
  double spawned_at_s = -1.0;  ///< < 0: use kStaticInitS
  std::vector<double> setup_rounds;  ///< earlier set-up-only processes
  double rate = 0.0;                 ///< open-loop rate override; 0 = none
  std::string trace_path;            ///< empty = plain run
  std::string json_path;
};

// ---- statistics -----------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank quantile, q in (0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// The highest percentile with at least ten samples beyond it. Below 21
/// samples that percentile lies under the median, and the median stands in.
double tail(std::vector<double> v) {
  if (v.size() < 21) return median(v);
  std::sort(v.begin(), v.end());
  return v[v.size() - 11];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

// ---- run state --------------------------------------------------------------

/// Layer breakdown of one traced operation, from the replays that follow it.
struct TracedOp {
  double op_s = 0.0;  ///< the timed operation itself
  double plan_s = 0.0;
  double fill_s = 0.0;
  double reference_s = 0.0;
  double build_plan_s = 0.0;
  double build_graph_s = 0.0;
  double gemm_s = 0.0;
  double gemm_flops = 0.0;
};

/// Everything one workload run measured.
struct Run {
  explicit Run(const Options& o)
      : opt(o),
        spans(!o.trace_path.empty()),
        started_s(o.spawned_at_s >= 0.0 ? o.spawned_at_s : kStaticInitS) {}

  const Options opt;
  SpanRecorder spans;
  const double started_s;  ///< process start
  double ready_s = 0.0;    ///< process start -> ready for the first operation
  /// Closed loops: the warm-up operation's wall seconds and configuration.
  double first_run_s = 0.0;
  std::int64_t first_run_key = 0;
  /// One per timed operation; open loops: latency from the time it was due.
  std::vector<double> latency_s;
  /// Closed loops: timed wall seconds per configuration.
  std::map<std::int64_t, std::vector<double>> op_s;
  std::int64_t good_ops = 0;  ///< open loop: correct jobs within the limit
  double window_s = 0.0;      ///< open loop: measured arrival window
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  OpCounters warm;  ///< summed over the timed operations
  OpCounters cold;  ///< the warm-up operation
  std::vector<TracedOp> traced;
  /// Schedule-build replay times per distinct spec (replayed once each).
  std::map<std::int64_t, std::pair<double, double>> schedule_s;
  double rss_per_rank_kib = 0.0;
  int pool_width = 0;
  std::map<std::string, double> layer;  ///< layer metrics set by a workload
  bool invalid = false;                 ///< open-loop generator ran late

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }

  /// Ends the set-up round; true when this process does nothing more.
  bool setup_done() {
    ready_s = wall_s() - started_s;
    return opt.setup_only;
  }
};

// ---- layer replays (traced runs only) ---------------------------------------

/// One caller thread per rank replays that rank's owned-cell
/// (h x n)·(n x w) DGEMMs through blas::dgemm into C, as run_pmm's ranks
/// call them. Returns the flops done.
double replay_local_gemms(Run& run, const partition::PartitionSpec& spec,
                          const util::Matrix& a, const util::Matrix& b,
                          std::int64_t op) {
  const std::int64_t n = spec.n;
  const std::vector<std::int64_t> rows = spec.row_offsets();
  const std::vector<std::int64_t> cols = spec.col_offsets();
  util::Matrix c(n, n);
  double flops = 0.0;
  for (int bi = 0; bi < spec.subplda; ++bi) {
    for (int bj = 0; bj < spec.subpldb; ++bj) {
      flops += 2.0 * static_cast<double>(spec.subph[bi] * spec.subpw[bj]) *
               static_cast<double>(n);
    }
  }
  Span all(run.spans, "blas.local_gemm", op);
  std::vector<std::string> errors(static_cast<std::size_t>(spec.nprocs()));
  std::vector<std::thread> ranks;
  for (int r = 0; r < spec.nprocs(); ++r) {
    ranks.emplace_back([&, r] {
      try {
        Span s(run.spans, "blas.rank_gemm", op, all.id());
        for (int bi = 0; bi < spec.subplda; ++bi) {
          for (int bj = 0; bj < spec.subpldb; ++bj) {
            const std::int64_t h = spec.subph[bi];
            const std::int64_t w = spec.subpw[bj];
            if (spec.owner(bi, bj) != r || h == 0 || w == 0) continue;
            blas::dgemm(h, w, n, 1.0, a.data() + rows[bi] * n, n,
                        b.data() + cols[bj], n, 0.0,
                        c.data() + rows[bi] * n + cols[bj], n);
          }
        }
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(r)] = e.what();
      }
    });
  }
  for (std::thread& t : ranks) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) run.check(false, "local DGEMM replay: " + e);
  }
  return flops;
}

/// Replays, on `config`'s inputs, the public call of each layer run_pmm
/// goes through, every call under its own span. The schedule build is
/// replayed once per distinct `spec_key`.
TracedOp replay_layers(Run& run, const core::ExperimentConfig& config,
                       std::int64_t op, std::int64_t spec_key) {
  SpanRecorder& rec = run.spans;
  TracedOp t;
  core::JobPlan plan;
  {
    Span s(rec, "core.plan_pmm", op);
    plan = core::plan_pmm(config);
  }
  if (config.preset_spec.n == 0) {
    // plan_pmm's two steps, one public call each.
    std::vector<std::int64_t> areas;
    if (config.regime == core::Regime::kFunctional) {
      std::vector<device::SpeedFunction> models;
      {
        Span s(rec, "device.fpm_models", op);
        models = core::default_fpm_models(config.platform, config.n);
      }
      Span s(rec, "partition.areas", op);
      areas = partition::partition_areas_fpm(config.n, models,
                                             config.fpm_options)
                  .areas;
    } else {
      Span s(rec, "partition.areas", op);
      areas = partition::partition_areas_cpm(config.n * config.n,
                                             config.cpm_speeds);
    }
    Span s(rec, "partition.build_shape", op);
    partition::build_shape(config.shape, config.n, areas, config.granularity);
  }
  if (!run.schedule_s.contains(spec_key)) {
    core::ExecutionPlan xplan;
    {
      Span s(rec, "core.build_plan", op);
      xplan = core::build_plan(plan.spec, config.summagen_options);
    }
    {
      Span s(rec, "core.build_graph", op);
      core::taskgraph::build_summagen_graph(plan.spec, xplan);
    }
    run.schedule_s[spec_key] = {rec.seconds("core.build_plan", op),
                                rec.seconds("core.build_graph", op)};
  }
  if (config.numeric) {
    util::Matrix a(config.n, config.n);
    util::Matrix b(config.n, config.n);
    {
      Span s(rec, "util.fill_random", op);
      util::fill_random(a, util::derive_seed(config.seed, 1));
      util::fill_random(b, util::derive_seed(config.seed, 2));
    }
    {
      Span s(rec, "core.reference_multiply", op);
      core::reference_multiply(a, b);
    }
    t.gemm_flops = replay_local_gemms(run, plan.spec, a, b, op);
  }
  t.plan_s = rec.seconds("core.plan_pmm", op);
  t.fill_s = rec.seconds("util.fill_random", op);
  t.reference_s = rec.seconds("core.reference_multiply", op);
  std::tie(t.build_plan_s, t.build_graph_s) = run.schedule_s[spec_key];
  t.gemm_s = rec.seconds("blas.local_gemm", op);
  return t;
}

/// In-L1 GFLOP/s of one core running the best tier's microkernel on packed
/// operands: the ceiling the kernel layers are set against.
double microkernel_peak_gflops() {
  const blas::detail::MicroKernel mk =
      blas::detail::microkernel_for(blas::best_simd_tier());
  constexpr std::int64_t kc = 128;  // A quad + B panel stay inside L1
  constexpr int kCalls = 20000;
  std::vector<double> pa(static_cast<std::size_t>(kc * mk.mr), 0.5);
  std::vector<double> pb(static_cast<std::size_t>(kc * mk.nr), 0.25);
  std::vector<double> c(static_cast<std::size_t>(mk.mr * mk.nr), 0.0);
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = wall_s();
    for (int i = 0; i < kCalls; ++i) {
      mk.fn(pa.data(), pb.data(), kc, mk.mr, mk.nr, /*first_block=*/false,
            1.0, c.data(), mk.nr);
    }
    const double dt = wall_s() - t0;
    best = std::max(best, 2.0 * static_cast<double>(mk.mr * mk.nr * kc) *
                              kCalls / dt / 1e9);
  }
  return best;
}

// ---- closed loops -----------------------------------------------------------

/// One operation of a closed-loop workload: runs operation `i` (cold: the
/// warm-up, operation 0), checks its result, and returns its wall seconds.
using OpFn = std::function<double(std::int64_t i, bool cold)>;

/// One caller, back to back: `bring_up` (the set-up round ends there), the
/// untimed warm-up operation 0, then batches of `batch` timed operations
/// until the run's seconds have passed.
void closed_loop(Run& run, std::int64_t batch,
                 const std::function<void()>& bring_up, const OpFn& op) {
  bring_up();
  if (run.setup_done()) return;
  op(0, true);
  run.pool_width = sgpool::Pool::instance().size();
  std::int64_t i = 1;
  const double start = wall_s();
  while (wall_s() - start < run.opt.seconds) {
    for (std::int64_t j = 0; j < batch; ++j) {
      run.latency_s.push_back(op(i++, false));
    }
  }
}

/// Says what is wrong with an operation's counters; empty when correct.
using CheckFn = std::function<std::string(const OpCounters&)>;

/// Closed-loop operation `i`: times run_pmm on `config`, books its
/// counters and wall time under `spec_key` (its configuration), applies
/// `check`, and in traced runs replays the layers of a timed operation.
/// Returns its wall seconds.
double closed_op(Run& run, const core::ExperimentConfig& config,
                 std::int64_t i, bool cold, std::int64_t spec_key,
                 const CheckFn& check) {
  const double rss0 = cold ? peak_rss_kib() : 0.0;
  const double t0 = wall_s();
  core::ExperimentResult r;
  {
    Span s(run.spans, "core.run_pmm", i);
    r = core::run_pmm(config);
  }
  const double seconds = wall_s() - t0;
  const OpCounters c = e2e::read_counters(r, config.numeric);
  const std::string error = check(c);
  run.check(error.empty(), error);
  if (cold) {
    run.rss_per_rank_kib =
        (peak_rss_kib() - rss0) / config.platform.nprocs();
    run.cold += c;
    run.first_run_s = seconds;
    run.first_run_key = spec_key;
    return seconds;
  }
  run.warm += c;
  run.op_s[spec_key].push_back(seconds);
  if (run.spans.enabled()) {
    TracedOp t = replay_layers(run, config, i, spec_key);
    t.op_s = seconds;
    run.traced.push_back(t);
  }
  return seconds;
}

/// Check of a modeled workload: repeats of one configuration must give a
/// bit-identical virtual execution time. `expected` holds the first.
std::string same_virtual_time(const OpCounters& c, double* expected,
                              const std::string& what) {
  if (*expected < 0.0) *expected = c.exec_time_s;
  return c.exec_time_s == *expected
             ? ""
             : what + " changed its virtual time between repeats";
}

/// A verified numeric PMM on HCLServer1 (three rank threads) at the paper's
/// CPM speeds under the dataflow scheduler, with the default engine and
/// kernel.
core::ExperimentConfig numeric_job(std::int64_t n, partition::Shape shape,
                                   std::uint64_t seed) {
  core::ExperimentConfig c;
  c.platform = device::Platform::hclserver1();
  c.n = n;
  c.shape = shape;
  c.cpm_speeds = {1.0, 2.0, 0.9};
  c.numeric = true;
  c.summagen_options.scheduler = core::Scheduler::kTaskGraph;
  c.seed = seed;
  return c;
}

/// N=2048 (96 MiB of operands); shapes rotate and run i fills its matrices
/// from a seed derived from (seed, i).
void node_numeric(Run& run) {
  const std::int64_t n = run.opt.quick ? 512 : 2048;
  closed_loop(run, 1, [] {}, [&run, n](std::int64_t i, bool cold) {
    const std::int64_t shape = i % 3;
    const core::ExperimentConfig config =
        numeric_job(n, kThreeShapes[static_cast<std::size_t>(shape)],
                    util::derive_seed(run.opt.seed,
                                      static_cast<std::uint64_t>(i)));
    return closed_op(run, config, i, cold, shape, [i](const OpCounters& c) {
      return c.verified ? std::string()
                        : "node_numeric: run " + std::to_string(i) +
                              " failed verification";
    });
  });
}

/// The paper's Fig. 6 (CPM) and Fig. 7 (FPM) problem sizes across its four
/// shapes on the modeled plane, each run planning from scratch.
std::vector<core::ExperimentConfig> sweep_configs(bool quick) {
  const std::vector<std::int64_t> cpm =
      quick ? std::vector<std::int64_t>{25600, 30720}
            : std::vector<std::int64_t>{25600, 28160, 30720,
                                        33280, 35840, 38416};
  const std::vector<std::int64_t> fpm =
      quick ? std::vector<std::int64_t>{1024, 4096}
            : std::vector<std::int64_t>{1024,  2048,  4096,  6144,
                                        8192,  10240, 12288, 14336,
                                        16384, 18432, 20480, 35008};
  std::vector<core::ExperimentConfig> configs;
  for (const bool functional : {true, false}) {
    for (const std::int64_t n : functional ? fpm : cpm) {
      for (const partition::Shape shape : partition::all_shapes()) {
        core::ExperimentConfig c;
        c.platform = device::Platform::hclserver1();
        c.n = n;
        c.shape = shape;
        if (functional) {
          c.regime = core::Regime::kFunctional;
        } else {
          c.cpm_speeds = {1.0, 2.0, 0.9};
        }
        configs.push_back(c);
      }
    }
  }
  return configs;
}

/// The warm-up is the first FPM configuration; the timed window runs whole
/// sweeps, each in its own seeded order. A repeated configuration must give
/// a bit-identical virtual execution time.
void paper_sweep(Run& run) {
  const std::vector<core::ExperimentConfig> configs =
      sweep_configs(run.opt.quick);
  const auto m = static_cast<std::int64_t>(configs.size());
  std::vector<std::size_t> order(configs.size());
  std::vector<double> expected(configs.size(), -1.0);
  closed_loop(run, m, [] {}, [&](std::int64_t i, bool cold) {
    const std::int64_t pos = cold ? 0 : (i - 1) % m;
    if (!cold && pos == 0) {
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::mt19937_64 rng(util::derive_seed(
          run.opt.seed, static_cast<std::uint64_t>((i - 1) / m)));
      std::shuffle(order.begin(), order.end(), rng);
    }
    const std::size_t k = cold ? 0 : order[static_cast<std::size_t>(pos)];
    return closed_op(run, configs[k], i, cold, static_cast<std::int64_t>(k),
                     [&expected, k](const OpCounters& c) {
                       return same_virtual_time(
                           c, &expected[k],
                           "paper_sweep: config " + std::to_string(k));
                     });
  });
}

/// 512 homogeneous four-processor nodes (p = 2048) on an NRRP preset
/// layout, fiber engine, dataflow scheduler. Bring-up computes the NRRP
/// partition; repeats must give a bit-identical virtual time.
void cluster_p2048(Run& run) {
  const int nodes = run.opt.quick ? 32 : 512;
  core::ExperimentConfig config;
  config.platform = device::Platform::cluster(
      device::Platform::homogeneous(4), nodes);
  config.n = run.opt.quick ? 8192 : 30720;
  config.engine = sgmpi::Engine::kModeled;
  config.summagen_options.scheduler = core::Scheduler::kTaskGraph;
  const int p = config.platform.nprocs();
  double expected = -1.0;
  const auto bring_up = [&] {
    Span s(run.spans, "partition.nrrp", -1);
    config.preset_spec = partition::nrrp_partition(
        config.n, partition::partition_areas_cpm(
                      config.n * config.n,
                      std::vector<double>(static_cast<std::size_t>(p), 1.0)));
  };
  closed_loop(run, 1, bring_up, [&](std::int64_t i, bool cold) {
    return closed_op(run, config, i, cold, 0, [&expected](const OpCounters& c) {
      return same_virtual_time(c, &expected, "cluster_p2048");
    });
  });
}

// ---- open loop: the job service ---------------------------------------------

struct Arrival {
  double due_s = 0.0;  ///< offset into the arrival window
  std::string tenant;
  int combo = 0;  ///< size index * 3 + shape index
  core::ExperimentConfig config;
};

/// Service job `combo` (size index * 3 + shape index).
core::ExperimentConfig service_job(const Options& o, int combo,
                                   std::uint64_t seed) {
  const std::int64_t sizes[] = {384, 512, 768};
  const std::int64_t quick_sizes[] = {128, 192, 256};
  const auto size = static_cast<std::size_t>(combo / 3);
  return numeric_job(o.quick ? quick_sizes[size] : sizes[size],
                     kThreeShapes[static_cast<std::size_t>(combo % 3)], seed);
}

/// `count` service jobs in blocks of 18. Each block holds every (size,
/// shape) once with `hot_seed` and once with a fresh fill seed derived from
/// `fresh_seed`, in an order drawn from `rng`, so seeds move the order but
/// not the mix. Hot jobs share signatures (plan, pack and batch reuse
/// apply); fresh ones share nothing. Tenants alternate.
std::vector<Arrival> service_mix(const Options& o, std::size_t count,
                                 std::uint64_t hot_seed,
                                 std::uint64_t fresh_seed,
                                 std::mt19937_64& rng) {
  std::vector<int> block(18);
  std::vector<Arrival> jobs;
  for (std::size_t j = 0; j < count; ++j) {
    if (j % 18 == 0) {
      std::iota(block.begin(), block.end(), 0);
      std::shuffle(block.begin(), block.end(), rng);
    }
    const int slot = block[j % 18];
    Arrival a;
    a.combo = slot % 9;
    a.tenant = j % 2 == 0 ? "gold" : "bronze";
    a.config = service_job(
        o, a.combo,
        slot < 9 ? hot_seed : util::derive_seed(fresh_seed, j + 1000));
    jobs.push_back(std::move(a));
  }
  return jobs;
}

/// Seeded Poisson arrivals of the service mix at `rate` over the window,
/// conditioned on their count: round(rate x seconds) due times drawn
/// uniformly and sorted, so every seed offers the same load.
std::vector<Arrival> service_arrivals(const Options& o, double rate,
                                      std::uint64_t hot_seed) {
  std::mt19937_64 rng(util::derive_seed(o.seed, 0x5e41ce));
  const auto count = static_cast<std::size_t>(std::llround(rate * o.seconds));
  std::uniform_real_distribution<double> uniform(0.0, o.seconds);
  std::vector<double> due(count);
  for (double& d : due) d = uniform(rng);
  std::sort(due.begin(), due.end());
  std::vector<Arrival> jobs = service_mix(o, count, hot_seed, o.seed, rng);
  for (std::size_t j = 0; j < count; ++j) jobs[j].due_s = due[j];
  return jobs;
}

void sleep_until_s(double t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(t))));
}

/// PmmService with its default options (2 executors, the recommended pool)
/// and tenants weighted 2:1, fed by one generator thread. The set-up round
/// ends once the service is up. Latency counts from the time each job was
/// due, so generator stalls count against the service.
///
/// The untimed warm-up runs kWarmUpBlocks blocks of the window's mix, one
/// block at a time. Its order and fresh seeds are the same in every run;
/// its hot jobs use this run's hot seed, so the window's hot jobs find
/// their plans and packs cached. Resident memory creeps up while the
/// buffer pool's free lists grow to cover each new mix of pack-cache
/// entries and in-flight jobs; the warm-up brings it close to where a
/// long-running service settles, so peak RSS measures that level rather
/// than how far one window happened to climb.
///
/// The generator stands in for clients on other machines. Its jobs keep
/// more threads busy than the host has CPUs (two executors of three rank
/// threads, plus the pool), so the service is built on a thread at nice 10:
/// its executors, pool workers and rank threads inherit that, and only the
/// host, never the service, can make the generator late.
void service_open_loop(Run& run, double rate) {
  if (run.opt.rate > 0.0) rate = run.opt.rate;
  const std::uint64_t hot_seed = util::derive_seed(run.opt.seed, 0x407);
  std::unique_ptr<service::PmmService> svc;
  std::thread([&svc] {
    setpriority(PRIO_PROCESS, static_cast<id_t>(syscall(SYS_gettid)), 10);
    svc = std::make_unique<service::PmmService>();
  }).join();
  svc->set_tenant_weight("gold", 2.0);
  svc->set_tenant_weight("bronze", 1.0);
  if (run.setup_done()) return;
  std::mt19937_64 warm_rng(kWarmUpSeed);
  const std::vector<Arrival> warm_up = service_mix(
      run.opt, kWarmUpBlocks * 18, hot_seed, kWarmUpSeed, warm_rng);
  for (std::size_t b = 0; b < kWarmUpBlocks; ++b) {
    std::vector<std::future<service::JobResult>> block;
    for (std::size_t j = b * 18; j < (b + 1) * 18; ++j) {
      block.push_back(svc->submit(warm_up[j].tenant, warm_up[j].config));
    }
    for (auto& f : block) {
      const service::JobResult jr = f.get();
      const OpCounters c = e2e::read_counters(jr.result, true);
      run.check(jr.status == service::JobStatus::kCompleted && c.verified,
                "service warm-up job failed");
      run.cold += c;
    }
  }
  run.pool_width = sgpool::Pool::instance().size();
  const std::vector<Arrival> jobs = service_arrivals(run.opt, rate, hot_seed);
  const service::PmmService::Counters before = svc->counters();
  const core::RuntimeContext::PlanCacheStats plan_before =
      svc->runtime().plan_cache_stats();

  std::vector<std::future<service::JobResult>> futures;
  std::vector<double> submitted_at;
  std::vector<double> lag;
  const double start = wall_s() + 0.05;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const double due = start + jobs[j].due_s;
    sleep_until_s(due);
    const double t = wall_s();
    lag.push_back(t - due);
    submitted_at.push_back(t);
    futures.push_back(svc->submit(jobs[j].tenant, jobs[j].config));
  }
  sleep_until_s(start + run.opt.seconds);
  run.window_s = wall_s() - start;

  std::vector<double> queue_wait;
  std::vector<double> exec;
  std::map<int, std::vector<double>> exec_by_combo;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const service::JobResult jr = futures[j].get();
    const bool completed = jr.status == service::JobStatus::kCompleted;
    const OpCounters c = e2e::read_counters(jr.result, true);
    const bool ok = completed && c.verified;
    run.check(ok, "service job " + std::to_string(j) + " " +
                      service::to_string(jr.status) +
                      (completed ? " but unverified" : ""));
    if (!ok) continue;
    run.warm += c;
    const double due = start + jobs[j].due_s;
    const double done = submitted_at[j] + jr.latency_s;
    run.latency_s.push_back(done - due);
    if (done - due <= kLatencyLimitS) ++run.good_ops;
    queue_wait.push_back(jr.queue_wait_s);
    exec.push_back(jr.service_s);
    exec_by_combo[jobs[j].combo].push_back(jr.service_s);
    const auto op = static_cast<std::int64_t>(j);
    const int job = run.spans.add("service.job", due, done, op);
    run.spans.add("service.queue_wait", submitted_at[j],
                  done - jr.service_s, op, job);
    run.spans.add("service.exec", done - jr.service_s, done, op, job);
  }
  // Every future has resolved, and the service books a job before it
  // fulfils the job's promise.
  const service::PmmService::Counters after = svc->counters();
  const core::RuntimeContext::PlanCacheStats plan_after =
      svc->runtime().plan_cache_stats();
  svc.reset();

  const double lag_p99 = quantile(lag, 0.99);
  if (lag_p99 > kMaxGenLagS) {
    std::cerr << "summagen_e2e: invalid open-loop run, generator p99 lag "
              << lag_p99 * 1e3 << " ms exceeds " << kMaxGenLagS * 1e3
              << " ms\n";
    run.invalid = true;
  }

  const double completed =
      static_cast<double>(after.completed - before.completed);
  const double batches = static_cast<double>(after.batches - before.batches);
  const double submitted =
      static_cast<double>(after.submitted - before.submitted);
  run.layer["service.queue_wait_p50_s"] = median(queue_wait);
  run.layer["service.queue_wait_p95_s"] = quantile(queue_wait, 0.95);
  run.layer["service.exec_p50_s"] = median(exec);
  run.layer["service.exec_p95_s"] = quantile(exec, 0.95);
  run.layer["service.batch_size_mean"] = ratio(completed, batches);
  run.layer["service.batched_fraction"] = ratio(
      static_cast<double>(after.batched_jobs - before.batched_jobs),
      completed);
  run.layer["service.plan_cache_hit_rate"] =
      ratio(static_cast<double>(plan_after.hits - plan_before.hits),
            static_cast<double>(plan_after.lookups - plan_before.lookups));
  run.layer["service.shed_fraction"] =
      ratio(static_cast<double>(after.shed - before.shed), submitted);
  run.layer["bench.gen_lag_p99_s"] = lag_p99;

  if (!run.spans.enabled()) return;
  // One replay per (size, shape), paired with that mix's median service time.
  for (const auto& [combo, times] : exec_by_combo) {
    TracedOp t = replay_layers(run, service_job(run.opt, combo, hot_seed),
                               1000000 + combo, combo);
    t.op_s = median(times);
    run.traced.push_back(t);
  }
}

// ---- metrics and output -----------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// setup_s: the median set-up round, this process's and the earlier
/// set-up-only processes'.
double setup_s(const Run& run) {
  std::vector<double> rounds = run.opt.setup_rounds;
  rounds.push_back(run.ready_s);
  return median(rounds);
}

std::vector<Metric> end_to_end_metrics(const Run& run) {
  return {{"setup_s", "s", setup_s(run)},
          {"peak_rss_mib", "MiB", peak_rss_kib() / 1024.0}};
}

/// The wall-clock measures of the timed window. Each wanders by more than a
/// tenth between runs on a shared host, so BENCHMARK.json lists them among
/// the per-layer metrics; run.py takes them from a plain run. A measure of
/// the other loop kind reports 0, and so does core.first_run_extra_s when
/// no timed run repeated the warm-up's configuration.
std::vector<Metric> wall_metrics(const Run& run) {
  const bool closed = !run.op_s.empty();
  // Closed loops: one run of each configuration, each at its median.
  double sweep_s = 0.0;
  for (const auto& [key, times] : run.op_s) sweep_s += median(times);
  const auto open = [closed](double v) { return closed ? 0.0 : v; };
  const auto same_config = run.op_s.find(run.first_run_key);
  return {
      {"core.run_pmm_p50_s", "s", closed ? median(run.latency_s) : 0.0},
      {"core.runs_per_s", "1/s",
       ratio(static_cast<double>(run.op_s.size()), sweep_s)},
      {"core.first_run_extra_s", "s",
       same_config == run.op_s.end()
           ? 0.0
           : run.first_run_s - median(same_config->second)},
      {"service.latency_p50_s", "s", open(median(run.latency_s))},
      {"service.latency_tail_s", "s", open(tail(run.latency_s))},
      {"service.goodput_per_s", "1/s",
       open(ratio(static_cast<double>(run.good_ops), run.window_s))},
  };
}

/// Per-layer metrics of a traced run, every one on every workload: a layer
/// a workload does not exercise reports 0. bench.trace_overhead needs a
/// plain run as well, so run.py adds it.
std::vector<Metric> per_layer_metrics(const Run& run) {
  const std::vector<TracedOp>& t = run.traced;
  const auto over_ops = [&t](const std::function<double(const TracedOp&)>& f) {
    std::vector<double> v;
    for (const TracedOp& op : t) v.push_back(f(op));
    return median(v);
  };
  const auto execute = [](const TracedOp& o) {
    return o.op_s - o.plan_s - o.fill_s - o.reference_s;
  };
  const auto span_median = [&run](const char* name) {
    return median(run.spans.durations(name));
  };
  const OpCounters& w = run.warm;
  const auto ops = static_cast<double>(std::max<std::int64_t>(w.ops, 1));
  const double gemm_gflops = over_ops(
      [](const TracedOp& o) { return ratio(o.gemm_flops, o.gemm_s) / 1e9; });
  const double peak = microkernel_peak_gflops();
  const auto layer = [&run](const char* name) {
    const auto it = run.layer.find(name);
    return it == run.layer.end() ? 0.0 : it->second;
  };
  return {
      {"core.reference_s", "s",
       over_ops([](const TracedOp& o) { return o.reference_s; })},
      {"core.reference_share", "fraction",
       over_ops([](const TracedOp& o) { return ratio(o.reference_s, o.op_s); })},
      {"core.execute_s", "s", over_ops(execute)},
      {"core.serial_speedup", "ratio",
       over_ops([&](const TracedOp& o) {
         return ratio(o.reference_s, execute(o));
       })},
      {"core.plan_pmm_s", "s",
       over_ops([](const TracedOp& o) { return o.plan_s; })},
      {"core.build_plan_s", "s", span_median("core.build_plan")},
      {"core.build_graph_s", "s", span_median("core.build_graph")},
      {"core.sched_hit_rate", "fraction",
       ratio(static_cast<double>(w.sched_hits),
             static_cast<double>(w.sched_lookups))},
      {"device.fpm_models_s", "s", span_median("device.fpm_models")},
      {"partition.areas_s", "s", span_median("partition.areas")},
      {"partition.build_shape_s", "s", span_median("partition.build_shape")},
      {"partition.nrrp_s", "s", span_median("partition.nrrp")},
      {"blas.local_gemm_s", "s",
       over_ops([](const TracedOp& o) { return o.gemm_s; })},
      {"blas.local_gemm_gflops", "GFLOP/s", gemm_gflops},
      {"blas.peak_gflops", "GFLOP/s", peak},
      {"blas.peak_fraction", "fraction",
       ratio(gemm_gflops,
             peak * static_cast<double>(std::thread::hardware_concurrency()))},
      {"blas.gemm_calls", "count", static_cast<double>(w.gemm_calls) / ops},
      {"blas.gflop", "GFLOP", static_cast<double>(w.flops) / ops / 1e9},
      {"blas.pack_hit_rate", "fraction",
       ratio(static_cast<double>(w.pack_hits),
             static_cast<double>(w.pack_lookups))},
      {"util.fill_s", "s", over_ops([](const TracedOp& o) { return o.fill_s; })},
      {"dataplane.alloc_mib", "MiB",
       static_cast<double>(w.alloc_bytes) / ops / kMiB},
      {"dataplane.allocs", "count", static_cast<double>(w.allocs) / ops},
      {"dataplane.copy_mib", "MiB",
       static_cast<double>(w.copy_bytes) / ops / kMiB},
      {"dataplane.pool_hit_rate", "fraction",
       ratio(static_cast<double>(w.pool_hits),
             static_cast<double>(w.pool_acquires))},
      {"dataplane.pool_peak_mib", "MiB",
       static_cast<double>(w.pool_peak_bytes) / kMiB},
      {"dataplane.cold_alloc_mib", "MiB",
       ratio(static_cast<double>(run.cold.alloc_bytes),
             static_cast<double>(run.cold.ops)) /
           kMiB},
      {"mpi.engine_s", "s",
       over_ops([&](const TracedOp& o) {
         return std::max(0.0, execute(o) - o.build_plan_s - o.build_graph_s);
       })},
      {"mpi.rss_per_rank_kib", "KiB", run.rss_per_rank_kib},
      {"mpi.bcasts", "count", static_cast<double>(w.bcasts) / ops},
      {"mpi.bcast_mib", "MiB", static_cast<double>(w.bcast_bytes) / ops / kMiB},
      {"service.queue_wait_p50_s", "s", layer("service.queue_wait_p50_s")},
      {"service.queue_wait_p95_s", "s", layer("service.queue_wait_p95_s")},
      {"service.exec_p50_s", "s", layer("service.exec_p50_s")},
      {"service.exec_p95_s", "s", layer("service.exec_p95_s")},
      {"service.batch_size_mean", "count", layer("service.batch_size_mean")},
      {"service.batched_fraction", "fraction",
       layer("service.batched_fraction")},
      {"service.plan_cache_hit_rate", "fraction",
       layer("service.plan_cache_hit_rate")},
      {"service.shed_fraction", "fraction", layer("service.shed_fraction")},
      {"model.exec_vs", "vs", w.exec_time_s / ops},
      {"model.comm_vs", "vs", w.comm_time_s / ops},
      {"model.hidden_vs", "vs", w.hidden_comm_s / ops},
      {"bench.gen_lag_p99_s", "s", layer("bench.gen_lag_p99_s")},
  };
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

void write_metrics(std::ostream& out, const char* key,
                   const std::vector<Metric>& metrics) {
  out << ",\n  " << json_string(key) << ": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out << (i == 0 ? "\n" : ",\n") << "    " << json_string(m.name)
        << ": {\"value\": " << (std::isfinite(m.value) ? m.value : 0.0)
        << ", \"unit\": " << json_string(m.unit) << "}";
  }
  out << "\n  }";
}

/// A set-up-only run writes its round and correctness; a full run adds its
/// sample counts, machine context and metrics.
bool write_result(const Run& run, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out.precision(17);
  out << "{\n  \"workload\": " << json_string(run.opt.workload)
      << ",\n  \"seed\": " << run.opt.seed
      << ",\n  \"correct\": " << (run.failed == 0 ? "true" : "false")
      << ",\n  \"attempted\": " << run.attempted
      << ",\n  \"failed\": " << run.failed << ",\n  \"errors\": [";
  for (std::size_t i = 0; i < run.errors.size(); ++i) {
    out << (i == 0 ? "" : ", ") << json_string(run.errors[i]);
  }
  out << "],\n  \"setup_round_s\": " << run.ready_s;
  if (!run.opt.setup_only) {
    out << ",\n  \"samples\": {\"setup_rounds\": "
        << run.opt.setup_rounds.size() + 1
        << ", \"latency\": " << run.latency_s.size() << "}"
        << ",\n  \"context\": {\"cpu_model\": "
        << json_string(blas::cpu_model_key())
        << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
        << ", \"simd_tier\": "
        << json_string(blas::simd_tier_name(blas::best_simd_tier()))
        << ", \"pool_width\": " << run.pool_width << "}";
    write_metrics(out, "end_to_end", end_to_end_metrics(run));
    write_metrics(out, "wall", wall_metrics(run));
    if (run.spans.enabled()) {
      write_metrics(out, "per_layer", per_layer_metrics(run));
    }
  }
  out << "\n}\n";
  return static_cast<bool>(out);
}

const std::map<std::string, std::function<void(Run&)>>& workloads() {
  static const std::map<std::string, std::function<void(Run&)>> table = {
      {"node_numeric", node_numeric},
      {"paper_sweep", paper_sweep},
      {"cluster_p2048", cluster_p2048},
      {"service_steady", [](Run& run) { service_open_loop(run, 6.0); }},
      {"service_peak", [](Run& run) { service_open_loop(run, 10.0); }},
  };
  return table;
}

void usage() {
  std::cerr << "usage: summagen_e2e --workload NAME --seed S --seconds T "
               "--json OUT [--trace FILE] [--quick] [--rate JOBS_PER_S] "
               "[--spawned-at T0] [--setup-only] [--setup-rounds S1,S2]\n"
               "workloads:";
  for (const auto& [name, fn] : workloads()) std::cerr << " " << name;
  std::cerr << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    const util::Cli cli(argc, argv);
    opt.workload = cli.get("workload", "");
    opt.seed = static_cast<std::uint64_t>(cli.get_int_min("seed", 1, 0));
    opt.seconds = static_cast<double>(cli.get_int_min("seconds", 10, 1));
    opt.quick = cli.get_bool("quick", false);
    opt.setup_only = cli.get_bool("setup-only", false);
    opt.spawned_at_s = cli.get_double("spawned-at", -1.0);
    opt.setup_rounds = cli.get_double_list("setup-rounds", {});
    opt.rate = cli.get_double("rate", 0.0);
    opt.trace_path = cli.get("trace", "");
    opt.json_path = cli.get("json", "");
  } catch (const std::exception& e) {
    std::cerr << "summagen_e2e: " << e.what() << "\n";
    usage();
    return 2;
  }
  const auto it = workloads().find(opt.workload);
  const bool spawned_ok =
      opt.spawned_at_s < 0.0 ||
      (opt.spawned_at_s <= wall_s() && wall_s() - opt.spawned_at_s < 60.0);
  if (it == workloads().end() || opt.json_path.empty() || !spawned_ok ||
      opt.rate < 0.0) {
    usage();
    return 2;
  }

  Run run(opt);
  try {
    it->second(run);
  } catch (const std::exception& e) {
    std::cerr << "summagen_e2e: " << opt.workload << ": " << e.what() << "\n";
    return 1;
  }
  if (run.invalid) return 2;
  if (!write_result(run, opt.json_path)) {
    std::cerr << "summagen_e2e: cannot write " << opt.json_path << "\n";
    return 1;
  }
  if (run.spans.enabled() && !opt.setup_only &&
      !run.spans.write_chrome_trace(opt.trace_path)) {
    std::cerr << "summagen_e2e: cannot write " << opt.trace_path << "\n";
    return 1;
  }
  return 0;
}
