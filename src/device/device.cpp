#include "src/device/device.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/blas/fastmm.hpp"
#include "src/device/ooc.hpp"
#include "src/util/rng.hpp"

namespace summagen::device {

const char* to_string(DeviceKind kind) {
  switch (kind) {
    case DeviceKind::kMulticoreCpu:
      return "multicore CPU";
    case DeviceKind::kGpu:
      return "GPU";
    case DeviceKind::kManycoreCoprocessor:
      return "manycore coprocessor";
  }
  return "?";
}

double variation_multiplier(const DeviceSpec& spec, double edge) {
  if (spec.variation_amplitude <= 0.0 && spec.variation_boost <= 0.0) {
    return 1.0;
  }
  // Base amplitude, optionally decaying with size (paper: "the variations
  // decrease for AbsCPU and AbsGPU as problem size increases").
  double amp = spec.variation_amplitude;
  if (spec.variation_decays) {
    amp *= std::exp(-edge / spec.variation_decay_edge);
  }
  // Boost window (paper: AbsXeonPhi "maximum variations occur for problem
  // sizes in the range [12800^2, 19200^2]").
  if (spec.variation_hi_edge > spec.variation_lo_edge) {
    const double mid =
        0.5 * (spec.variation_lo_edge + spec.variation_hi_edge);
    const double half =
        0.5 * (spec.variation_hi_edge - spec.variation_lo_edge);
    const double d = (edge - mid) / half;
    amp += spec.variation_boost * std::exp(-d * d);
  }
  if (amp <= 0.0) return 1.0;
  // Deterministic, reproducible "noise": hash-seeded phase mixture of
  // incommensurate oscillations, so the profile is non-smooth but replays
  // identically. Strictly within (0, 1].
  const double phase1 =
      static_cast<double>(util::derive_seed(spec.noise_seed, 1) % 10007) /
      10007.0 * 6.283185307;
  const double phase2 =
      static_cast<double>(util::derive_seed(spec.noise_seed, 2) % 10007) /
      10007.0 * 6.283185307;
  const double w = 0.5 * std::sin(edge / 689.0 + phase1) +
                   0.35 * std::sin(edge / 233.0 + phase2) +
                   0.15 * std::sin(edge / 97.0 + phase1 * 1.7);
  const double drop = amp * (0.5 + 0.5 * w);  // in [0, amp]
  return std::clamp(1.0 - drop, 0.05, 1.0);
}

std::int64_t gemm_footprint_bytes(std::int64_t m, std::int64_t n,
                                  std::int64_t k) {
  return static_cast<std::int64_t>(sizeof(double)) *
         (m * k + k * n + 2 * m * n);
}

AbstractProcessor::AbstractProcessor(DeviceSpec spec,
                                     blas::GemmOptions numeric_kernel)
    : spec_(std::move(spec)), numeric_kernel_(numeric_kernel) {
  if (spec_.peak_flops <= 0.0 || spec_.asymptotic_efficiency <= 0.0 ||
      spec_.asymptotic_efficiency > 1.0) {
    throw std::invalid_argument("AbstractProcessor: bad peak/efficiency");
  }
  if (spec_.memory_bytes <= 0) {
    throw std::invalid_argument("AbstractProcessor: non-positive memory");
  }
}

double AbstractProcessor::effective_flops(double edge, bool contended) const {
  if (edge <= 0.0) edge = 1.0;
  // Saturating efficiency ramp: small problems underutilise wide devices.
  const double ramp = 1.0 - std::exp(-edge / spec_.ramp_edge);
  double s = spec_.peak_flops * spec_.asymptotic_efficiency * ramp;
  s *= variation_multiplier(spec_, edge);
  if (contended) s *= spec_.contention_factor;
  return std::max(s, 1.0);
}

KernelCost AbstractProcessor::kernel_cost(std::int64_t m, std::int64_t n,
                                          std::int64_t k,
                                          bool contended) const {
  KernelCost cost;
  if (m <= 0 || n <= 0 || k <= 0) return cost;
  // Work actually executed by the configured kernel: 2mnk classically,
  // less when a fast-MM kind splits (src/blas/fastmm.hpp). With the
  // default classical kernel this is exactly gemm_flops, so every
  // committed virtual-time baseline is unchanged; under --fastmm the
  // partitioners see the modified s(x) shape (profile() still normalises
  // speeds to classical flops, the paper's convention).
  const double flops = blas::fastmm_modeled_flops(m, n, k, numeric_kernel_);
  const double edge = std::cbrt(static_cast<double>(m) *
                                static_cast<double>(n) *
                                static_cast<double>(k));
  cost.compute_s = flops / effective_flops(edge, contended);

  if (spec_.temporal_jitter_sigma > 0.0) {
    // Deterministic per (seed, kernel shape) lognormal factor: hashing the
    // shape keeps a run internally consistent, varying the seed across
    // repetitions produces iid run-to-run noise (Box-Muller on two
    // hash-derived uniforms).
    const std::uint64_t base = util::derive_seed(
        spec_.temporal_jitter_seed,
        static_cast<std::uint64_t>(m) * 1000003ULL +
            static_cast<std::uint64_t>(n) * 1009ULL +
            static_cast<std::uint64_t>(k));
    const double u1 =
        (static_cast<double>(util::derive_seed(base, 1) >> 11) + 0.5) /
        9007199254740992.0;
    const double u2 =
        (static_cast<double>(util::derive_seed(base, 2) >> 11) + 0.5) /
        9007199254740992.0;
    const double z =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    cost.compute_s *= std::exp(spec_.temporal_jitter_sigma * z);
  }

  const std::int64_t footprint = gemm_footprint_bytes(m, n, k);
  if (spec_.needs_staging || footprint > spec_.memory_bytes) {
    const OutOfCorePlan plan =
        plan_out_of_core(m, n, k, spec_.memory_bytes, spec_.needs_staging);
    cost.transferred_bytes = plan.transferred_bytes;
    cost.ooc_passes = plan.passes;
    // The base staging of A/B in and C out is unavoidable; traffic beyond
    // that comes from out-of-core slab cycling, most of which the OOC
    // engines hide behind computation (double buffering).
    const std::int64_t base_bytes = std::min(
        plan.transferred_bytes,
        static_cast<std::int64_t>(sizeof(double)) * (m * k + k * n + m * n));
    const std::int64_t extra_bytes = plan.transferred_bytes - base_bytes;
    const double exposed =
        static_cast<double>(base_bytes) +
        (1.0 - spec_.ooc_overlap) * static_cast<double>(extra_bytes);
    cost.transfer_s =
        static_cast<double>(plan.transfer_messages) * spec_.pcie.alpha_s +
        exposed * spec_.pcie.beta_s_per_byte;
    if (plan.passes > 1 && spec_.ooc_extra_variation > 0.0) {
      // Out-of-core execution is noisier: add deterministic jitter on top
      // of the in-core variation model.
      const double u =
          0.5 + 0.5 * std::sin(edge / 311.0 +
                               static_cast<double>(spec_.noise_seed));
      cost.compute_s *= 1.0 + spec_.ooc_extra_variation * u;
    }
  }
  return cost;
}

KernelCost AbstractProcessor::run_gemm(std::int64_t m, std::int64_t n,
                                       std::int64_t k, const double* a,
                                       std::int64_t lda, const double* b,
                                       std::int64_t ldb, double* c,
                                       std::int64_t ldc, bool contended) const {
  const KernelCost cost = kernel_cost(m, n, k, contended);
  if (m <= 0 || n <= 0 || k <= 0) return cost;
  if (cost.ooc_passes > 1) {
    // Real out-of-core path: exercises the ZZGemmOOC-style slab engine.
    out_of_core_gemm(m, n, k, a, lda, b, ldb, c, ldc, spec_.memory_bytes,
                     numeric_kernel_);
  } else {
    blas::dgemm(m, n, k, 1.0, a, lda, b, ldb, 1.0, c, ldc, numeric_kernel_);
  }
  return cost;
}

SpeedFunction AbstractProcessor::profile(const std::vector<double>& edges,
                                         bool contended,
                                         Interpolation interp) const {
  if (edges.empty()) {
    throw std::invalid_argument("profile: empty edge grid");
  }
  std::vector<SpeedPoint> points;
  points.reserve(edges.size());
  for (double e : edges) {
    const auto x = static_cast<std::int64_t>(std::llround(e));
    if (x <= 0) throw std::invalid_argument("profile: non-positive edge");
    const KernelCost cost = kernel_cost(x, x, x, contended);
    const double flops = static_cast<double>(blas::gemm_flops(x, x, x));
    points.push_back({e, flops / cost.total_s()});
  }
  return SpeedFunction::from_points(std::move(points), interp);
}

}  // namespace summagen::device
