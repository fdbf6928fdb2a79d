#include "src/service/job.hpp"

#include <cstring>

namespace summagen::service {
namespace {

/// Order-sensitive 64-bit fold (FNV-1a over words with an avalanche
/// finisher), accumulating so vectors of unknown length fold in without
/// materialising an initializer list.
class Mixer {
 public:
  void fold(std::uint64_t v) {
    h_ ^= v;
    h_ *= 0x100000001b3ull;
    h_ ^= h_ >> 29;
  }
  void fold_double(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    fold(bits);
  }
  template <typename T>
  void fold_all(const std::vector<T>& values) {
    fold(values.size());
    for (const T& v : values) fold(static_cast<std::uint64_t>(v));
  }

  /// Finalised, never-zero digest (0 means "unbatchable" to callers).
  std::uint64_t digest() const {
    std::uint64_t h = h_;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return h == 0 ? 1 : h;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace

const char* to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kCompleted:
      return "completed";
    case JobStatus::kShed:
      return "shed";
    case JobStatus::kFailed:
      return "failed";
  }
  return "?";
}

double job_cost_units(const core::ExperimentConfig& config) {
  const double n = static_cast<double>(config.n);
  return n * n * n / (1024.0 * 1024.0 * 1024.0);
}

std::uint64_t job_signature(const core::ExperimentConfig& config,
                            std::uint64_t salt) {
  // Executions that are not a pure function of the folded fields never
  // share: fault/drift plans and online re-partitioning mutate the
  // schedule mid-run, and measurement noise is explicitly run-varying.
  if (!config.faults.empty() || !config.drift.empty() ||
      config.repartition.enabled || config.noise_sigma != 0.0) {
    return 0;
  }
  Mixer m;
  m.fold(salt);
  m.fold(static_cast<std::uint64_t>(config.platform.nprocs()));
  m.fold(static_cast<std::uint64_t>(config.n));
  m.fold(static_cast<std::uint64_t>(config.shape));
  m.fold(static_cast<std::uint64_t>(config.regime));
  m.fold(static_cast<std::uint64_t>(config.granularity));
  for (double s : config.cpm_speeds) m.fold_double(s);
  m.fold(static_cast<std::uint64_t>(config.fpm_options.grid_step));
  m.fold(static_cast<std::uint64_t>(config.fpm_options.refine_iters));
  m.fold_all(config.preset_areas);
  m.fold(static_cast<std::uint64_t>(config.preset_spec.n));
  if (config.preset_spec.n > 0) {
    m.fold(static_cast<std::uint64_t>(config.preset_spec.subplda));
    m.fold(static_cast<std::uint64_t>(config.preset_spec.subpldb));
    m.fold_all(config.preset_spec.subp);
    m.fold_all(config.preset_spec.subph);
    m.fold_all(config.preset_spec.subpw);
  }
  m.fold(static_cast<std::uint64_t>(config.summagen_options.bcast_panel_rows));
  m.fold(static_cast<std::uint64_t>(config.summagen_options.scheduler));
  m.fold(static_cast<std::uint64_t>(config.summagen_options.overlap_depth));
  m.fold(config.numeric ? 1 : 0);
  m.fold(config.record_events ? 1 : 0);
  m.fold(config.contended ? 1 : 0);
  m.fold(config.seed);
  m.fold(static_cast<std::uint64_t>(config.kernel.kernel));
  m.fold(static_cast<std::uint64_t>(config.kernel.tier));
  m.fold(static_cast<std::uint64_t>(config.kernel.fastmm));
  m.fold(static_cast<std::uint64_t>(config.kernel.fastmm_crossover));
  m.fold(static_cast<std::uint64_t>(config.kernel.fastmm_max_depth));
  m.fold(static_cast<std::uint64_t>(config.engine));
  m.fold(static_cast<std::uint64_t>(config.bcast_algo));
  m.fold(config.two_level_collectives ? 1 : 0);
  return m.digest();
}

}  // namespace summagen::service
