#include "src/core/runner.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/blas/fastmm.hpp"
#include "src/core/recovery.hpp"
#include "src/core/reference.hpp"
#include "src/pool/pool.hpp"
#include "src/util/rng.hpp"

namespace summagen::core {

namespace {

/// Per-rank totals across all recovery phases of one fault-tolerant run.
void accumulate_report(RankReport& into, const RankReport& r) {
  into.bcasts += r.bcasts;
  into.bcast_bytes += r.bcast_bytes;
  into.mpi_time_s += r.mpi_time_s;
  into.gemm_calls += r.gemm_calls;
  into.flops += r.flops;
  into.kernel_compute_s += r.kernel_compute_s;
  into.kernel_transfer_s += r.kernel_transfer_s;
  into.hidden_comm_s += r.hidden_comm_s;
}

/// One execution phase of a fault-tolerant run: the distribution it ran
/// under, every rank's local store with the phase's workspace lease
/// (numeric plane) and the completed-cell set it started from.
struct Phase {
  partition::PartitionSpec spec;
  RunStores stores;
  CellSet done_at_start;
  std::int64_t redistributed = 0;
  /// Drift-triggered re-partitions already performed when this phase
  /// started: arms the detectors (budget) and sets their warmup backoff.
  int drift_rounds = 0;
};

}  // namespace

std::vector<device::SpeedFunction> default_fpm_models(
    const device::Platform& platform, std::int64_t n,
    device::Interpolation interp) {
  // The largest zone edge is n (one processor owning everything); profile a
  // little past it so interpolation, not clamping, covers the working range.
  const double hi = std::max<double>(256.0, static_cast<double>(n) * 1.05);
  const auto grid = device::profile_grid(64.0, hi, 48);
  return platform.profiles(grid, /*contended=*/true, interp);
}

std::vector<double> default_cpm_speeds(const device::Platform& platform) {
  // Mean contended speeds over the zone-edge range corresponding to the
  // paper's constant problem-size range (N in [25600, 35840] => zone edges
  // roughly in [14000, 22000]).
  return platform.constant_relative_speeds(14000.0, 22000.0);
}

std::vector<std::int64_t> compute_areas(const ExperimentConfig& config) {
  const std::int64_t total = config.n * config.n;
  if (!config.preset_areas.empty()) {
    if (static_cast<int>(config.preset_areas.size()) !=
        config.platform.nprocs()) {
      throw std::invalid_argument(
          "run_pmm: preset_areas size differs from platform processor count");
    }
    return config.preset_areas;
  }
  if (config.regime == Regime::kConstant) {
    std::vector<double> speeds = config.cpm_speeds;
    if (speeds.empty()) speeds = default_cpm_speeds(config.platform);
    if (static_cast<int>(speeds.size()) != config.platform.nprocs()) {
      throw std::invalid_argument(
          "run_pmm: cpm_speeds size differs from platform processor count");
    }
    return partition::partition_areas_cpm(total, speeds);
  }
  std::vector<device::SpeedFunction> models = config.fpm_models;
  if (models.empty()) {
    models = default_fpm_models(config.platform, config.n);
  }
  if (static_cast<int>(models.size()) != config.platform.nprocs()) {
    throw std::invalid_argument(
        "run_pmm: fpm_models size differs from platform processor count");
  }
  return partition::partition_areas_fpm(config.n, models, config.fpm_options)
      .areas;
}

JobPlan plan_pmm(const ExperimentConfig& config) {
  if (config.n <= 0) throw std::invalid_argument("run_pmm: n <= 0");
  const int p = config.platform.nprocs();
  if (p < 1) throw std::invalid_argument("run_pmm: empty platform");
  JobPlan plan;
  if (config.preset_spec.n > 0) {
    if (config.preset_spec.n != config.n) {
      throw std::invalid_argument("run_pmm: preset_spec.n != n");
    }
    config.preset_spec.validate(p);
    plan.spec = config.preset_spec;
    for (int r = 0; r < p; ++r) {
      plan.areas.push_back(plan.spec.area_of(r));
    }
  } else {
    plan.areas = compute_areas(config);
    plan.spec = partition::build_shape(config.shape, config.n, plan.areas,
                                       config.granularity);
  }
  return plan;
}

ExperimentResult run_pmm(const ExperimentConfig& config) {
  if (config.n <= 0) throw std::invalid_argument("run_pmm: n <= 0");
  const int p = config.platform.nprocs();
  if (p < 1) throw std::invalid_argument("run_pmm: empty platform");
  if (config.numeric && config.n > 8192) {
    throw std::invalid_argument(
        "run_pmm: numeric plane beyond n=8192 is a mistake; use the modeled "
        "plane for paper-scale sweeps");
  }
  if (config.kernel.fastmm != blas::FastMmKind::kClassical &&
      (!config.faults.empty() || config.repartition.enabled)) {
    // Recovery and re-partitioning re-execute work and audit it against
    // what a clean rank computed, relying on run-to-run bit-determinism of
    // the same (m, n, k) call; fast MM keeps that, but a re-executed cell
    // can present DIFFERENT sub-shapes to the kernel (recovered fragments,
    // re-partitioned tiles), and fast results are only norm-close — not
    // bit-equal — across shape splits. Refuse rather than silently flag
    // every recovered run as corrupt.
    throw std::invalid_argument(
        "run_pmm: fastmm is incompatible with fault injection / online "
        "re-partitioning (their verify paths demand bit-determinism across "
        "re-executed shapes); use the classical kernel there");
  }

  RuntimeContext* const ctx = RuntimeContext::current();
  if (ctx == nullptr) {
    // Size the shared compute pool so this thread + pool workers together
    // fill the host — the paper's one-persistent-MKL-pool-per-processor
    // setup, instead of per-call thread spawns oversubscribing the machine.
    // Every rank is a fiber on this thread, so one thread is reserved no
    // matter how large p gets. config.kernel.threads > 0 overrides
    // (clamped to hardware_concurrency).
    sgpool::Pool::set_reserved_threads(1);
    sgpool::Pool::configure(config.kernel.threads > 0
                                ? blas::resolve_gemm_threads(
                                      config.kernel.threads)
                                : sgpool::Pool::recommended_size(1));
  }
  // else: the context sized the pool once; skipping configure() here is
  // what keeps the schedule cache alive across jobs (and what makes
  // concurrent run_pmm calls safe — configure is quiescent-only).

  ExperimentResult result;
  std::shared_ptr<const JobPlan> plan;
  if (ctx != nullptr && config.plan_cache_key != 0) {
    plan = ctx->plan_for(config.plan_cache_key,
                         [&config] { return plan_pmm(config); },
                         &result.plan_cache_hit);
  } else {
    plan = std::make_shared<const JobPlan>(plan_pmm(config));
  }
  result.spec = plan->spec;
  result.areas = plan->areas;
  result.total_half_perimeter = result.spec.total_half_perimeter();

  device::Platform platform = config.platform;
  if (config.noise_sigma > 0.0) {
    for (std::size_t r = 0; r < platform.devices.size(); ++r) {
      platform.devices[r].temporal_jitter_sigma = config.noise_sigma;
      platform.devices[r].temporal_jitter_seed =
          util::derive_seed(config.noise_seed, r);
    }
  }
  const auto processors = platform.processors(config.kernel);

  sgmpi::Config mpi_config;
  mpi_config.nranks = p;
  mpi_config.link = config.platform.mpi_link;
  mpi_config.node_of = config.platform.node_of;
  mpi_config.internode_link = config.platform.internode_link;
  mpi_config.record_events = config.record_events;
  mpi_config.faults = config.faults;
  mpi_config.fault_detect_s = config.fault_detect_s;
  mpi_config.adaptive = config.repartition.enabled;
  mpi_config.bcast_algo = config.bcast_algo;
  mpi_config.two_level_collectives = config.two_level_collectives;
  sgmpi::Runtime runtime(mpi_config);
  const bool adaptive = config.repartition.enabled;
  const bool fault_tolerant = !config.faults.empty() || adaptive;

  // Per-rank live drift multiplier over the configured plan; null with no
  // plan so the static path stays exactly as before.
  const device::DriftPlan* drift_plan = &config.drift;
  const auto drift_for = [drift_plan](int r) -> std::function<double(double)> {
    if (drift_plan->empty()) return nullptr;
    return [drift_plan, r](double t) {
      return device::drift_factor(*drift_plan, r, t);
    };
  };

  // Numeric plane: build the global inputs (and the gather target) and each
  // rank's local store.
  util::Matrix a, b, c;
  RunStores stores;  // stays empty on the modeled plane, which never leases
  if (config.numeric) {
    a = util::Matrix(config.n, config.n);
    b = util::Matrix(config.n, config.n);
    c = util::Matrix(config.n, config.n);
    util::fill_random(a, util::derive_seed(config.seed, 1));
    util::fill_random(b, util::derive_seed(config.seed, 2));
  }
  // Accounting window opens after the global inputs exist: what follows is
  // the data plane proper (local stores, broadcasts, workspaces, gather).
  // The window is a per-job StatsSink, not a process-wide snapshot delta —
  // overlapping service jobs would misattribute each other's events to
  // whichever window happened to be open. The calling thread installs the
  // sink here for the whole run: the rank fibers run on this thread, and
  // sgpool propagates the sink to pooled tasks, so even stolen DGEMM packs
  // bill this job.
  util::StatsSink job_stats;
  std::optional<util::ScopedStatsSink> stats_guard;
  stats_guard.emplace(&job_stats);
  const auto take_alloc_window = [&result, &job_stats] {
    util::DataPlaneStats window = job_stats.snapshot();
    const util::DataPlaneStats now = util::data_plane_stats();
    window.pool_resident_bytes = now.pool_resident_bytes;
    window.pool_peak_resident_bytes = now.pool_peak_resident_bytes;
    result.alloc = window;
  };
  if (config.numeric) {
    // Single-phase runs write C in place: each rank's owned cells are
    // disjoint, so its LocalData views the global C directly and the final
    // gather is a no-op. Fault-tolerant runs must keep a private pooled C
    // per phase — a re-executed phase accumulates its cells from zero, and
    // only copy_cell_c decides which phase's value survives. Either way
    // every rank's receive slots are slices of the one workspace lease the
    // stores take here, inside the accounting window.
    stores = RunStores(result.spec, p, a, b, fault_tolerant ? nullptr : &c);
  }

  result.reports.resize(static_cast<std::size_t>(p));

  // Fault-tolerant runs re-execute in phases; rec_mutex guards the shared
  // recovery state (completed-cell set and phase list) across ranks.
  std::mutex rec_mutex;
  CellSet done;
  std::vector<std::unique_ptr<Phase>> phases;

  // Survivor weights for re-partitioning: the configured CPM speeds / FPM
  // models, with every rank a handled slowdown degraded divided down by its
  // factor — a slowed rank keeps working, just proportionally less.
  const auto survivor_weights = [&](const std::vector<int>& survivors) {
    std::vector<double> degrade(static_cast<std::size_t>(p), 1.0);
    for (const sgmpi::FaultRecord& rec : runtime.fault_records()) {
      if (rec.event.kind == sgmpi::FaultKind::kSlowdown && rec.triggered) {
        degrade[static_cast<std::size_t>(rec.event.rank)] *= rec.event.factor;
      }
    }
    std::vector<double> weights;
    if (config.regime == Regime::kConstant) {
      std::vector<double> speeds = config.cpm_speeds;
      if (static_cast<int>(speeds.size()) != p) {
        speeds = default_cpm_speeds(config.platform);
      }
      for (int s : survivors) {
        weights.push_back(speeds[static_cast<std::size_t>(s)] /
                          degrade[static_cast<std::size_t>(s)]);
      }
    } else {
      std::vector<device::SpeedFunction> models = config.fpm_models;
      if (static_cast<int>(models.size()) != p) {
        models = default_fpm_models(config.platform, config.n);
      }
      std::vector<device::SpeedFunction> scaled;
      for (int s : survivors) {
        const device::SpeedFunction& m = models[static_cast<std::size_t>(s)];
        const double f = degrade[static_cast<std::size_t>(s)];
        if (f == 1.0) {
          scaled.push_back(m);
        } else {
          std::vector<device::SpeedPoint> pts = m.points();
          for (device::SpeedPoint& pt : pts) pt.flops_per_s /= f;
          scaled.push_back(
              device::SpeedFunction::from_points(pts, m.interpolation()));
        }
      }
      // The load-imbalancing partitioner's areas over the degraded models
      // are exactly the relative capabilities we want as weights.
      const auto fpm =
          partition::partition_areas_fpm(config.n, scaled, config.fpm_options);
      for (std::int64_t area : fpm.areas) {
        weights.push_back(std::max(1.0, static_cast<double>(area)));
      }
    }
    return weights;
  };

  // Live-measured slowdown ratios (the confirming step's observed/predicted
  // — the EWMA debounces the *decision* but lags the true factor at confirm
  // time, so the weight correction uses the instantaneous ratio the
  // hysteresis just validated) and pending detector confirmations of the
  // current phase; both guarded by rec_mutex, read only inside the shrink
  // agreement.
  std::vector<double> measured_ratio(static_cast<std::size_t>(p), 1.0);
  std::vector<std::pair<int, double>> confirms;  // (rank, vtime)

  if (!fault_tolerant) {
    runtime.run([&](sgmpi::Comm& world) {
      const int r = world.rank();
      // Drift without re-partitioning: the static plan limps along under
      // the time-varying speeds (the ablation baseline).
      FtContext ftctx;
      ftctx.drift_factor = drift_for(r);
      result.reports[static_cast<std::size_t>(r)] = summagen_rank(
          world, result.spec, processors[static_cast<std::size_t>(r)],
          stores.at(r), config.contended, config.summagen_options,
          config.drift.empty() ? nullptr : &ftctx);
    });
    stores.release_workspace();
  } else {
    auto ph0 = std::make_unique<Phase>();
    ph0->spec = result.spec;
    ph0->stores = std::move(stores);
    phases.push_back(std::move(ph0));

    runtime.run([&](sgmpi::Comm& world) {
      const int wr = world.rank();  // world comm: comm rank == world rank
      std::size_t round = 0;
      for (;;) {
        try {
          world.fault_check();
          Phase* ph;
          {
            std::lock_guard<std::mutex> lk(rec_mutex);
            ph = phases[round].get();
          }
          FtContext ftctx;
          ftctx.done = &ph->done_at_start;
          ftctx.on_gemm_done = [&](int bi, int bj) {
            std::lock_guard<std::mutex> lk(rec_mutex);
            done.insert({bi, bj});
          };
          ftctx.drift_factor = drift_for(wr);
          // The detector arms only while re-partition budget remains; its
          // confirmation is a pure function of this rank's own observation
          // stream, so identical runs confirm at the identical step.
          DriftController detector(config.repartition, ph->drift_rounds);
          if (adaptive &&
              ph->drift_rounds < config.repartition.max_repartitions) {
            ftctx.on_step = [&](const trace::StepSample& sample) {
              if (!detector.observe(sample)) return false;
              std::lock_guard<std::mutex> lk(rec_mutex);
              measured_ratio[static_cast<std::size_t>(wr)] =
                  trace::step_ratio(sample);
              confirms.emplace_back(wr, sample.vtime);
              return true;
            };
          }
          const RankReport rep = summagen_rank(
              world, ph->spec, processors[static_cast<std::size_t>(wr)],
              ph->stores.at(wr), config.contended, config.summagen_options,
              &ftctx);
          {
            std::lock_guard<std::mutex> lk(rec_mutex);
            accumulate_report(result.reports[static_cast<std::size_t>(wr)],
                              rep);
          }
          // All-live commit: a fault racing the tail of the phase surfaces
          // here as PeerFailedError on every survivor, not on a subset.
          world.ft_commit();
          return;
        } catch (const sgmpi::PeerFailedError&) {
          const sgmpi::ShrinkResult res = world.shrink();
          {
            std::lock_guard<std::mutex> lk(rec_mutex);
            if (phases.size() == round + 1) {
              // First survivor out of the shrink builds the next phase; the
              // completed-cell set is stable here because every live rank
              // has unwound into the shrink gate — and with it out of the
              // finished phase's receive slots.
              bool drift_round = false;
              for (const sgmpi::FaultEvent& ev : res.handled) {
                if (ev.kind == sgmpi::FaultKind::kDrift) drift_round = true;
              }
              auto np = std::make_unique<Phase>();
              np->done_at_start = done;
              np->drift_rounds = phases[round]->drift_rounds;
              std::vector<double> weights = survivor_weights(res.survivors);
              if (drift_round) {
                // Correct the static weights by the live-measured slowdown
                // ratios (clamped: a near-stalled device keeps a sliver so
                // the partitioners stay well-posed), then let the grid and
                // layered re-owners compete on predicted makespan.
                for (std::size_t s = 0; s < res.survivors.size(); ++s) {
                  weights[s] /= std::max(
                      0.05, measured_ratio[static_cast<std::size_t>(
                                res.survivors[s])]);
                }
                RepartitionFamily family = RepartitionFamily::kGrid;
                np->spec = choose_repartition(phases[round]->spec, done,
                                              res.survivors, weights,
                                              &np->redistributed, &family);
                ++np->drift_rounds;

                RepartitionEvent event;
                event.epoch = static_cast<int>(round) + 1;
                event.family = family;
                event.measured_speeds = weights;
                event.redone_area = np->redistributed;
                const partition::PartitionSpec& old_spec = phases[round]->spec;
                for (int bi = 0; bi < old_spec.subplda; ++bi) {
                  for (int bj = 0; bj < old_spec.subpldb; ++bj) {
                    if (done.count({bi, bj}) != 0) continue;
                    if (np->spec.owner(bi, bj) != old_spec.owner(bi, bj)) {
                      ++event.redone_cells;
                    }
                  }
                }
                for (const auto& [cr, ct] : confirms) {
                  if (event.trigger_rank < 0 || ct < event.trigger_vtime ||
                      (ct == event.trigger_vtime && cr < event.trigger_rank)) {
                    event.trigger_rank = cr;
                    event.trigger_vtime = ct;
                  }
                }
                confirms.clear();
                result.repartitions.push_back(std::move(event));
              } else {
                np->spec = repartition_unfinished(phases[round]->spec, done,
                                                  res.survivors, weights,
                                                  &np->redistributed);
              }
              if (config.numeric) {
                // Swap the finished phase's workspace lease for one over
                // the survivors' receive slots (dead ranks own nothing in
                // the new spec). Its private C stays leased until the
                // gather.
                phases[round]->stores.release_workspace();
                np->stores = RunStores(np->spec, p, a, b);
              }
              phases.push_back(std::move(np));
            }
          }
          ++round;
        }
      }
    });

    result.fault_records = runtime.fault_records();
    result.recoveries = static_cast<int>(phases.size()) - 1;
    double first_trigger = -1.0;
    for (const sgmpi::FaultRecord& rec : result.fault_records) {
      const bool interrupting =
          rec.event.kind == sgmpi::FaultKind::kCrash ||
          rec.event.kind == sgmpi::FaultKind::kSlowdown;
      if (!interrupting || !rec.triggered) continue;
      if (rec.first_detect_vtime >= 0.0 &&
          (first_trigger < 0.0 || rec.trigger_vtime < first_trigger)) {
        first_trigger = rec.trigger_vtime;
        result.detection_latency_s = rec.first_detect_vtime - rec.trigger_vtime;
      }
      if (rec.handled && rec.handled_vtime >= 0.0) {
        result.recovery_vtime_s += rec.handled_vtime - rec.trigger_vtime;
      }
    }
    for (const auto& ph : phases) result.redistributed_area += ph->redistributed;
    phases.back()->stores.release_workspace();
  }

  for (int r = 0; r < p; ++r) {
    const auto& clk = runtime.clock(r);
    result.rank_exec_s.push_back(clk.now());
    result.rank_comp_s.push_back(clk.compute_seconds());
    result.rank_comm_s.push_back(clk.comm_seconds());
    result.rank_idle_s.push_back(clk.idle_seconds());
    result.rank_hidden_s.push_back(clk.hidden_comm_seconds());
    result.exec_time_s = std::max(result.exec_time_s, clk.now());
    result.comp_time_s = std::max(result.comp_time_s, clk.compute_seconds());
    result.comm_time_s = std::max(result.comm_time_s, clk.comm_seconds());
    result.hidden_comm_time_s =
        std::max(result.hidden_comm_time_s, clk.hidden_comm_seconds());
  }
  const double n3 = static_cast<double>(config.n) *
                    static_cast<double>(config.n) *
                    static_cast<double>(config.n);
  result.tflops = 2.0 * n3 / result.exec_time_s / 1.0e12;

  if (config.record_events) {
    result.events = runtime.events().sorted();
    result.energy = energy::dynamic_energy_exact(
        result.events, config.platform, result.exec_time_s);
    result.has_energy = true;
  }

  take_alloc_window();

  if (config.numeric) {
    if (!fault_tolerant) {
      stores.gather_c(c);
    } else {
      // Assemble each C sub-partition from the phase that completed it:
      // the cells a phase finished are its successor's done_at_start minus
      // its own (the final phase completes everything still in `done`).
      for (std::size_t k = 0; k < phases.size(); ++k) {
        const CellSet& start = phases[k]->done_at_start;
        const CellSet& end =
            k + 1 < phases.size() ? phases[k + 1]->done_at_start : done;
        for (const auto& cell : end) {
          if (start.count(cell) != 0) continue;
          const int owner = phases[k]->spec.owner(cell.first, cell.second);
          copy_cell_c(phases[k]->spec, *phases[k]->stores.at(owner),
                      cell.first, cell.second, c);
        }
      }
      phases.clear();  // the private C stores have been gathered
    }
    // Re-take the window with the gather included, then close the sink:
    // verification is measurement harness, not data plane, and must not
    // bill the job. The check is exact and memory-flat: scalar-tier
    // reference bands, pinned bit for bit to reference_multiply, are built
    // across the shared pool and compared with C's rows one band at a time,
    // so no n x n reference exists.
    take_alloc_window();
    stats_guard.reset();
    result.max_abs_error = max_abs_error_vs_reference(a, b, c);
    result.tolerance = gemm_tolerance(config.n);
    if (config.kernel.fastmm != blas::FastMmKind::kClassical) {
      // Fast MM is norm-bound, not bit-identical: widen the element-wise
      // tolerance by the worst-case per-level amplification (12x in max
      // norm, Higham's Strassen bound) at the deepest split this run's
      // largest local product could reach.
      result.tolerance *= std::pow(
          12.0, blas::fastmm_max_reachable_depth(config.n, config.n,
                                                 config.n, config.kernel));
    }
    // A NaN error compares false: a C with a NaN never verifies.
    result.verified = result.max_abs_error <= result.tolerance;
  }
  return result;
}

}  // namespace summagen::core
