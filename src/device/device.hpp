// Heterogeneous device models and abstract processors.
//
// The paper's platform (Table I) has three computing devices; each group
// "accelerator + dedicated host core" (or the 22-core CPU partition) is
// modelled as an *abstract processor* whose kernel execution time includes
// host<->device transfers. None of that hardware exists here, so a
// DeviceSpec captures the performance-relevant characteristics — peak flops,
// an in-core efficiency ramp, device memory capacity (out-of-core knee),
// a PCIe staging link, resource-contention degradation, non-smooth profile
// variations, and dynamic power — and the model produces DGEMM times from
// which Figure 5's speed functions are derived.
//
// Numeric execution (tests/examples) really computes with sgblas kernels;
// time always comes from the model, keeping figure shapes hardware-
// independent (DESIGN.md §2, §5).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/blas/gemm.hpp"
#include "src/device/speed_function.hpp"
#include "src/trace/hockney.hpp"

namespace summagen::device {

/// Kind of computing device, for reporting only.
enum class DeviceKind { kMulticoreCpu, kGpu, kManycoreCoprocessor };

const char* to_string(DeviceKind kind);

/// Performance-relevant description of one abstract processor's device.
struct DeviceSpec {
  std::string name;
  DeviceKind kind = DeviceKind::kMulticoreCpu;

  // --- compute model ---
  double peak_flops = 1.0e12;     ///< theoretical peak (datasheet)
  double asymptotic_efficiency = 0.85;  ///< fraction of peak at large sizes
  double ramp_edge = 512.0;       ///< efficiency ramp constant (small sizes)
  double contention_factor = 0.92;  ///< speed multiplier when co-loaded

  // --- non-smooth FPM character (deterministic pseudo-variations) ---
  double variation_amplitude = 0.05;  ///< base relative amplitude
  double variation_boost = 0.0;       ///< extra amplitude inside boost range
  double variation_lo_edge = 0.0;     ///< boost range lower edge
  double variation_hi_edge = 0.0;     ///< boost range upper edge
  bool variation_decays = true;  ///< CPU/GPU: variations shrink with size
  double variation_decay_edge = 8192.0;  ///< decay length when they do
  std::uint64_t noise_seed = 1;

  // --- memory / staging model ---
  std::int64_t memory_bytes = 16LL << 30;  ///< device (or host) memory
  bool needs_staging = false;  ///< accelerators copy A/B in and C out
  trace::HockneyParams pcie{10.0e-6, 1.0 / 10.0e9};  ///< host<->device link
  /// Fraction of *extra* out-of-core traffic hidden behind computation
  /// (the OOC packages double-buffer slabs); the base staging of A/B/C is
  /// never hidden.
  double ooc_overlap = 0.85;
  /// Additional relative compute jitter once out-of-core (paper: Phi
  /// variations "increase for larger problem sizes where out-of-card
  /// computations are invoked").
  double ooc_extra_variation = 0.0;

  // --- run-to-run measurement noise (off by default) ---
  /// Lognormal sigma of per-kernel compute time across repetitions; the
  /// experiment runner varies `temporal_jitter_seed` per run so the
  /// Student-t repetition driver (paper Section VI methodology) has real
  /// variance to chew on. 0 = deterministic.
  double temporal_jitter_sigma = 0.0;
  std::uint64_t temporal_jitter_seed = 0;

  // --- energy model ---
  double dynamic_power_w = 150.0;  ///< while computing
  double comm_power_w = 20.0;      ///< while communicating / transferring

  // --- reporting (Table I) ---
  std::string cores_description;
  std::string memory_description;
  std::string bandwidth_description;
};

/// Deterministic relative speed multiplier in (0, 1] representing the
/// non-smooth variations real FPM profiles show (paper Fig. 5 discussion).
double variation_multiplier(const DeviceSpec& spec, double edge);

/// Device memory needed by an (m x k)*(k x n) DGEMM including a C-sized
/// accumulation workspace, in bytes.
std::int64_t gemm_footprint_bytes(std::int64_t m, std::int64_t n,
                                  std::int64_t k);

/// Breakdown of a modeled kernel invocation.
struct KernelCost {
  double compute_s = 0.0;   ///< in-core arithmetic time
  double transfer_s = 0.0;  ///< host<->device staging + out-of-core traffic
  std::int64_t transferred_bytes = 0;
  int ooc_passes = 1;  ///< 1 = fits in device memory
  double total_s() const { return compute_s + transfer_s; }
};

/// An abstract processor: one device spec + a numeric kernel.
class AbstractProcessor {
 public:
  AbstractProcessor(DeviceSpec spec, blas::GemmOptions numeric_kernel = {});

  const DeviceSpec& spec() const { return spec_; }

  /// Effective in-core speed (flops/s) for a workload with the given
  /// equivalent square edge; `contended` applies the contention factor
  /// (the paper measures all profiles under full co-load).
  double effective_flops(double edge, bool contended) const;

  /// Modeled cost of an (m x k)*(k x n) DGEMM on this processor, including
  /// staging and out-of-core slab traffic when the footprint exceeds device
  /// memory (the ZZGemmOOC / XeonPhiOOC behaviour).
  KernelCost kernel_cost(std::int64_t m, std::int64_t n, std::int64_t k,
                         bool contended = true) const;

  /// Numerically computes C += A*B with the configured sgblas kernel and
  /// returns the modeled cost. When the footprint exceeds device memory the
  /// computation takes the real out-of-core path (slabbed; see ooc.hpp).
  KernelCost run_gemm(std::int64_t m, std::int64_t n, std::int64_t k,
                      const double* a, std::int64_t lda, const double* b,
                      std::int64_t ldb, double* c, std::int64_t ldc,
                      bool contended = true) const;

  /// Builds this processor's Figure-5 speed function by sampling the model
  /// at the given edges (speed = 2*edge^3 / modeled time).
  SpeedFunction profile(const std::vector<double>& edges, bool contended = true,
                        Interpolation interp =
                            Interpolation::kPiecewiseLinear) const;

 private:
  DeviceSpec spec_;
  blas::GemmOptions numeric_kernel_;
};

}  // namespace summagen::device
