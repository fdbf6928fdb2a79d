// Row-major DGEMM kernels: C := alpha * A * B + beta * C.
//
// Substrate for the vendor DGEMM the paper delegates local computations to
// (Intel MKL on the CPU/Phi, CUBLAS on the GPU). SummaGen's `localDgemm`
// multiplies a (height x n) slice of WA by an (n x width) slice of WB,
// here one block pair at a time, each read where it lives (in place or in
// a receive slot), so everything takes explicit leading dimensions.
//
// Two implementations:
//  * kNaive  - triple loop, the oracle used in tests;
//  * kPacked - five-loop BLIS blocking (NC -> KC -> MC -> NR -> MR) over
//              contiguous alpha*A quads and B column-panels, with the
//              microkernel selected at runtime by CPUID among AVX2+FMA /
//              SSE2 / scalar tiers (src/blas/simd.hpp), row bands on the
//              shared pool (default; see DESIGN.md §5.11).
//
// At alpha = 1, beta = 0 the scalar/SSE2 tiers of kPacked are bit-identical
// to kNaive: packing, blocking and the band split preserve the per-element
// l-ascending accumulation chain. The AVX2 tier fuses multiply-add (one
// rounding) and is bit-identical only per tier.
//
// No kernel ever constructs a std::thread: all parallelism is task
// submission into the persistent process-wide pool (sgpool::Pool), which
// the experiment runner sizes to hardware_concurrency() minus the thread
// that runs the rank fibers — mirroring the paper's one-MKL-pool-per-abstract-processor
// setup instead of oversubscribing the host per call.
#pragma once

#include <cstdint>
#include <string>

#include "src/blas/simd.hpp"
#include "src/util/matrix.hpp"
#include "src/util/matrix_view.hpp"

namespace summagen::blas {

/// The values are kept from when two more kernels sat between these two,
/// so a kernel prints, hashes and names its test instances as before.
enum class GemmKernel { kNaive = 0, kPacked = 3 };

/// Fast (Strassen-family) matrix-multiplication mode layered on top of the
/// classical kernels (src/blas/fastmm.hpp). Fast MM trades the classical
/// per-element accumulation chain for fewer leaf multiplications: results
/// are norm-bound accurate (not bit-identical to classical) but remain
/// run-to-run bit-identical per SIMD tier.
enum class FastMmKind {
  kClassical = 0,  ///< plain kernels, the bit-determinism baseline (default)
  kStrassen,       ///< recursive <2,2,2;7> (Strassen) above the crossover
  kS223,           ///< recursive <2,2,3;11> (rectangular-friendly variant)
  kAuto,           ///< pick classical/<2,2,2;7>/<2,2,3;11> per (m,n,k)
};

/// "classical" | "strassen" | "s223" | "auto".
const char* fastmm_kind_name(FastMmKind kind);

/// Inverse of fastmm_kind_name; throws std::invalid_argument on anything
/// else (the CLI wraps this into a CliError).
FastMmKind parse_fastmm_kind(const std::string& name);

/// Options for dgemm. `threads`, `tier` and the blocking overrides apply to
/// kPacked only.
struct GemmOptions {
  GemmKernel kernel = GemmKernel::kPacked;
  /// Parallel width of the pool-backed kPacked. 0 (default) = auto: the
  /// shared pool's workers plus the calling thread (which participates).
  /// Explicit values are clamped to [1, hardware_concurrency] — a larger
  /// request cannot oversubscribe the host, it only splits finer.
  int threads = 0;
  /// Microkernel dispatch tier. kAuto (default) picks the best tier this
  /// CPU supports (capped to scalar by SUMMAGEN_FORCE_SCALAR); an explicit
  /// unavailable tier throws std::invalid_argument.
  SimdTier tier = SimdTier::kAuto;
  /// Cache-blocking overrides for the five-loop scheme; 0 (default) = auto
  /// (the persisted tune cache for this CPU, else per-tier defaults — see
  /// src/blas/tune.hpp). Block sizes never change numeric results.
  std::int64_t mc = 0;
  std::int64_t nc = 0;
  std::int64_t kc = 0;
  /// Fast-MM mode (src/blas/fastmm.hpp). kClassical (default) is the plain
  /// kernel path; the fast kinds recurse Strassen-family block algorithms
  /// down to the classical kernel below `fastmm_crossover`. Fast results
  /// satisfy the norm-wise bound of fastmm_error_budget(), not bit equality
  /// with classical; per tier they stay run-to-run bit-identical.
  FastMmKind fastmm = FastMmKind::kClassical;
  /// Smallest block dimension fast recursion may produce; splits stop once
  /// any sub-block dimension would drop below it. 0 (default) = auto (the
  /// persisted tune cache for this CPU, else default_fastmm_crossover()).
  std::int64_t fastmm_crossover = 0;
  /// Recursion-depth cap for the fast kinds; 0 degenerates to classical.
  int fastmm_max_depth = 3;
};

/// Resolves `threads` (see GemmOptions::threads): 0 maps to the shared
/// pool size + 1, explicit requests clamp to [1, hardware_concurrency].
int resolve_gemm_threads(int threads);

/// General row-major dgemm with leading dimensions (in elements):
///   C[m x n] (ld ldc) := alpha * A[m x k] (ld lda) * B[k x n] (ld ldb)
///                        + beta * C.
/// Preconditions: lda >= k, ldb >= n, ldc >= n; no aliasing between C and
/// A/B. Throws std::invalid_argument on violations detectable from sizes.
void dgemm(std::int64_t m, std::int64_t n, std::int64_t k, double alpha,
           const double* a, std::int64_t lda, const double* b,
           std::int64_t ldb, double beta, double* c, std::int64_t ldc,
           const GemmOptions& opts = {});

/// View-based dgemm: C := alpha * A * B + beta * C with shapes and strides
/// taken from the views (A is m x k, B is k x n, C is m x n; inner and
/// outer extents are validated, and C must not alias A or B). Because the
/// raw-pointer form already takes leading dimensions, this is a pure
/// adapter — the operation sequence, and therefore the result, is
/// bit-identical to the pointer call on the same storage.
void dgemm(double alpha, util::ConstMatrixView a, util::ConstMatrixView b,
           double beta, util::MatrixView c, const GemmOptions& opts = {});

/// Whole-matrix convenience: C := A * B (shapes validated).
util::Matrix multiply(const util::Matrix& a, const util::Matrix& b,
                      const GemmOptions& opts = {});

/// Number of floating-point operations of an m x n x k GEMM (2*m*n*k).
constexpr std::int64_t gemm_flops(std::int64_t m, std::int64_t n,
                                  std::int64_t k) {
  return 2 * m * n * k;
}

}  // namespace summagen::blas
