#include "src/blas/gemm.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>

#include "src/blas/fastmm.hpp"
#include "src/blas/microkernel.hpp"
#include "src/blas/tune.hpp"
#include "src/pool/pool.hpp"
#include "src/util/buffer_pool.hpp"

namespace summagen::blas {
namespace {

// Scales rows [row_begin, row_end) of C by beta (zero-fill when beta == 0,
// so prior NaNs are overwritten). Runs inside pool tasks for the
// C-scaling-only calls of kPacked, and as a serial full-matrix prepass on
// kNaive.
void scale_rows(std::int64_t row_begin, std::int64_t row_end, std::int64_t n,
                double beta, double* c, std::int64_t ldc) {
  if (beta == 1.0) return;
  for (std::int64_t i = row_begin; i < row_end; ++i) {
    double* row = c + i * ldc;
    if (beta == 0.0) {
      std::fill(row, row + n, 0.0);
    } else {
      for (std::int64_t j = 0; j < n; ++j) row[j] *= beta;
    }
  }
}

void gemm_naive(std::int64_t m, std::int64_t n, std::int64_t k, double alpha,
                const double* a, std::int64_t lda, const double* b,
                std::int64_t ldb, double* c, std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t l = 0; l < k; ++l) {
        acc += a[i * lda + l] * b[l * ldb + j];
      }
      c[i * ldc + j] += alpha * acc;
    }
  }
}

// ---------------------------------------------------------------------------
// kPacked: full five-loop BLIS blocking ("Anatomy of High-Performance
// Matrix Multiplication" shape):
//
//   jc over NC columns of B      — packed-B block resident in L3
//     pc over KC depth           — one packed block per (jc, pc)
//       ic over MC rows of A     — alpha-folded A band resident in L2
//         jr over NR panels, ir over MR quads
//           -> register-tiled MR x NR microkernel
//
// The microkernel (MR/NR shape and instruction set) is chosen at runtime
// by CPUID among AVX2+FMA 6x8 / SSE2 4x4 / scalar 4x8 (src/blas/simd.hpp);
// MC/NC/KC come from GemmOptions overrides, the persisted tune cache, or
// per-tier defaults (src/blas/tune.hpp).
//
// Bit-identity: every C element's value is the chain  beta*c, then
// += (alpha*a[i][l]) * b[l][j] for l ascending — packing, blocking and the
// band split change where operands live and which worker computes what,
// never the per-element operation sequence (stores/loads of doubles
// between k-blocks are exact). Hence any MC/NC/KC and any thread width
// give the same bits for a given tier, the scalar tier reproduces the
// pre-dispatch kPacked exactly, and only the AVX2 tier (fused
// multiply-add, one rounding) differs across tiers.
//
// Each (jc, pc) block of B is packed by the call that multiplies it, into
// a buffer leased from the shared BufferPool and released once the block's
// bands are done, so no packed panel outlives its call.
// ---------------------------------------------------------------------------

// Packs rows [row_begin, row_end) of alpha*A, k-slice [l0, l0+kc), into
// MR-row quads: quad q holds interleaved rows at [q*kc*MR + l*MR + r].
// Rows past row_end are zero (the microkernel discards those lanes).
void pack_a_band(const double* a, std::int64_t lda, double alpha,
                 std::int64_t row_begin, std::int64_t row_end,
                 std::int64_t l0, std::int64_t kc, std::int64_t mr,
                 double* pa) {
  const std::int64_t quads = (row_end - row_begin + mr - 1) / mr;
  for (std::int64_t q = 0; q < quads; ++q) {
    double* quad = pa + q * kc * mr;
    for (std::int64_t l = 0; l < kc; ++l) {
      for (std::int64_t r = 0; r < mr; ++r) {
        const std::int64_t i = row_begin + q * mr + r;
        quad[l * mr + r] =
            i < row_end ? alpha * a[i * lda + (l0 + l)] : 0.0;
      }
    }
  }
}

// Packs columns [col0, col0+ncols) of B, k-slice [l0, l0+kc), into
// NR-column panels: panel p holds columns [col0+p*NR, ...) at
// [p*kc*NR + l*NR + c], zero-padded past the block edge.
void pack_b_panels(const double* b, std::int64_t ldb, std::int64_t col0,
                   std::int64_t ncols, std::int64_t l0, std::int64_t kc,
                   std::int64_t nr, std::int64_t panel_begin,
                   std::int64_t panel_end, double* pb) {
  for (std::int64_t p = panel_begin; p < panel_end; ++p) {
    double* panel = pb + p * kc * nr;
    const std::int64_t j0 = p * nr;
    const std::int64_t w = std::min(nr, ncols - j0);
    for (std::int64_t l = 0; l < kc; ++l) {
      const double* brow = b + (l0 + l) * ldb + col0 + j0;
      double* prow = panel + l * nr;
      for (std::int64_t cix = 0; cix < w; ++cix) prow[cix] = brow[cix];
      for (std::int64_t cix = w; cix < nr; ++cix) prow[cix] = 0.0;
    }
  }
}

// One row band's share of one (jc, pc) block: pack the band's A rows, then
// sweep quads x panels of microkernels over C[band, col0:col0+ncols]. Runs
// as a pool task; the A scratch is leased from the shared buffer pool per
// band (steady state: a freelist pop).
void packed_band(const double* a, std::int64_t lda, double alpha,
                 std::int64_t row_begin, std::int64_t row_end,
                 std::int64_t l0, std::int64_t kc, const double* pb,
                 std::int64_t col0, std::int64_t ncols, bool first_block,
                 double beta, double* c, std::int64_t ldc,
                 const detail::MicroKernel& mk) {
  const std::int64_t quads = (row_end - row_begin + mk.mr - 1) / mk.mr;
  util::PooledBuffer pa =
      util::BufferPool::instance().acquire(quads * kc * mk.mr);
  pack_a_band(a, lda, alpha, row_begin, row_end, l0, kc, mk.mr, pa.data());
  const std::int64_t panels = (ncols + mk.nr - 1) / mk.nr;
  for (std::int64_t q = 0; q < quads; ++q) {
    const std::int64_t i = row_begin + q * mk.mr;
    const std::int64_t rows = std::min(mk.mr, row_end - i);
    for (std::int64_t p = 0; p < panels; ++p) {
      const std::int64_t j = p * mk.nr;
      mk.fn(pa.data() + q * kc * mk.mr, pb + p * kc * mk.nr, kc, rows,
            std::min(mk.nr, ncols - j), first_block, beta,
            c + i * ldc + col0 + j, ldc);
    }
  }
}

void gemm_packed(std::int64_t m, std::int64_t n, std::int64_t k, double alpha,
                 const double* a, std::int64_t lda, const double* b,
                 std::int64_t ldb, double beta, double* c, std::int64_t ldc,
                 int width, const detail::MicroKernel& mk,
                 const BlockSizes& bs) {
  const std::int64_t quads = (m + mk.mr - 1) / mk.mr;
  // Row bands are quad-aligned and capped at MC rows; the split depends
  // only on (m, width, MC, MR), so results are independent of which worker
  // runs which band.
  const std::int64_t mc_quads =
      std::max<std::int64_t>(1, bs.mc / mk.mr);
  const std::int64_t band_quads =
      width <= 1 ? mc_quads
                 : std::min(mc_quads, std::max<std::int64_t>(
                                          1, (quads + width - 1) / width));
  for (std::int64_t jc = 0; jc < n; jc += bs.nc) {
    const std::int64_t nc = std::min(bs.nc, n - jc);
    const std::int64_t panels = (nc + mk.nr - 1) / mk.nr;
    for (std::int64_t l0 = 0; l0 < k; l0 += bs.kc) {
      const std::int64_t kc = std::min(bs.kc, k - l0);
      const bool first_block = l0 == 0;

      // Packed-B block for (jc, l0), released when the block is done.
      util::PooledBuffer packed =
          util::BufferPool::instance().acquire(panels * kc * mk.nr);
      const double* pb = packed.data();
      if (width <= 1) {
        pack_b_panels(b, ldb, jc, nc, l0, kc, mk.nr, 0, panels,
                      packed.data());
      } else {
        sgpool::parallel_for(
            0, panels,
            std::max<std::int64_t>(1, (panels + width - 1) / width),
            [&](std::int64_t p0, std::int64_t p1) {
              pack_b_panels(b, ldb, jc, nc, l0, kc, mk.nr, p0, p1,
                            packed.data());
            });
      }

      if (width <= 1) {
        for (std::int64_t q0 = 0; q0 < quads; q0 += band_quads) {
          const std::int64_t r0 = q0 * mk.mr;
          const std::int64_t r1 =
              std::min(m, (q0 + band_quads) * mk.mr);
          packed_band(a, lda, alpha, r0, r1, l0, kc, pb, jc, nc,
                      first_block, beta, c, ldc, mk);
        }
        continue;
      }
      sgpool::TaskGroup group;
      for (std::int64_t q0 = 0; q0 < quads; q0 += band_quads) {
        const std::int64_t r0 = q0 * mk.mr;
        const std::int64_t r1 = std::min(m, (q0 + band_quads) * mk.mr);
        group.run([=, &mk] {
          packed_band(a, lda, alpha, r0, r1, l0, kc, pb, jc, nc,
                      first_block, beta, c, ldc, mk);
        });
      }
      group.wait();
    }
  }
}

}  // namespace

int resolve_gemm_threads(int threads) {
  if (threads <= 0) {
    // Auto: the shared pool's workers plus the calling thread, which helps
    // execute its own tasks while waiting.
    return sgpool::Pool::instance().size() + 1;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const int cap = static_cast<int>(hw == 0 ? 1 : hw);
  return std::clamp(threads, 1, cap);
}

void dgemm(std::int64_t m, std::int64_t n, std::int64_t k, double alpha,
           const double* a, std::int64_t lda, const double* b,
           std::int64_t ldb, double beta, double* c, std::int64_t ldc,
           const GemmOptions& opts) {
  if (m < 0 || n < 0 || k < 0) {
    throw std::invalid_argument("dgemm: negative dimension");
  }
  if (lda < std::max<std::int64_t>(1, k) ||
      ldb < std::max<std::int64_t>(1, n) ||
      ldc < std::max<std::int64_t>(1, n)) {
    throw std::invalid_argument("dgemm: leading dimension too small");
  }
  if (opts.mc < 0 || opts.nc < 0 || opts.kc < 0) {
    throw std::invalid_argument(
        "dgemm: mc/nc/kc must be non-negative (0 = auto)");
  }
  if (opts.fastmm_crossover < 0) {
    throw std::invalid_argument(
        "dgemm: fastmm_crossover must be non-negative (0 = auto)");
  }
  if (opts.fastmm_max_depth < 0) {
    throw std::invalid_argument("dgemm: fastmm_max_depth must be >= 0");
  }
  if (m == 0 || n == 0) return;

  if (k == 0 || alpha == 0.0) {
    // Pure C-scaling call: still worth the pool on the packed kernel.
    if (opts.kernel == GemmKernel::kPacked && m > 1) {
      const int width = resolve_gemm_threads(opts.threads);
      sgpool::parallel_for(
          0, m, std::max<std::int64_t>(1, (m + width - 1) / width),
          [&](std::int64_t r0, std::int64_t r1) {
            scale_rows(r0, r1, n, beta, c, ldc);
          });
    } else {
      scale_rows(0, m, n, beta, c, ldc);
    }
    return;
  }

  if (opts.fastmm != FastMmKind::kClassical) {
    // Strassen-family layer (src/blas/fastmm.hpp): recurses over block
    // algorithms and re-enters dgemm with fastmm cleared for the leaves
    // and the peeled fringe strips.
    detail::fastmm_dgemm(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, opts);
    return;
  }

  switch (opts.kernel) {
    case GemmKernel::kNaive:
      scale_rows(0, m, n, beta, c, ldc);
      gemm_naive(m, n, k, alpha, a, lda, b, ldb, c, ldc);
      return;
    case GemmKernel::kPacked: {
      const SimdTier tier = resolve_simd_tier(opts.tier);
      const detail::MicroKernel mk = detail::microkernel_for(tier);
      const BlockSizes bs = resolve_block_sizes(opts, tier);
      const int want = resolve_gemm_threads(opts.threads);
      const int width = static_cast<int>(
          std::min<std::int64_t>(want, (m + mk.mr - 1) / mk.mr));
      gemm_packed(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, width, mk,
                  bs);
      return;
    }
  }
  throw std::logic_error("dgemm: unknown kernel");
}

void dgemm(double alpha, util::ConstMatrixView a, util::ConstMatrixView b,
           double beta, util::MatrixView c, const GemmOptions& opts) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("dgemm: inner dimensions differ (A is " +
                                std::to_string(a.rows()) + "x" +
                                std::to_string(a.cols()) + ", B is " +
                                std::to_string(b.rows()) + "x" +
                                std::to_string(b.cols()) + ")");
  }
  if (c.rows() != a.rows() || c.cols() != b.cols()) {
    throw std::invalid_argument("dgemm: C shape differs from A*B");
  }
  if (util::views_overlap(c, a) || util::views_overlap(c, b)) {
    throw std::invalid_argument("dgemm: C aliases an input view");
  }
  dgemm(a.rows(), b.cols(), a.cols(), alpha, a.data(),
        std::max<std::int64_t>(1, a.ld()), b.data(),
        std::max<std::int64_t>(1, b.ld()), beta, c.data(),
        std::max<std::int64_t>(1, c.ld()), opts);
}

util::Matrix multiply(const util::Matrix& a, const util::Matrix& b,
                      const GemmOptions& opts) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("multiply: inner dimensions differ");
  }
  util::Matrix c(a.rows(), b.cols());
  dgemm(a.rows(), b.cols(), a.cols(), 1.0, a.data(), a.cols(), b.data(),
        b.cols(), 0.0, c.data(), c.cols(), opts);
  return c;
}

}  // namespace summagen::blas
