#include "src/blas/fastmm.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "src/blas/tune.hpp"
#include "src/pool/pool.hpp"
#include "src/util/accounting.hpp"
#include "src/util/buffer_pool.hpp"

namespace summagen::blas {
namespace {

// ---------------------------------------------------------------------------
// Coefficient tables. Row-major block indices (see FastMmAlgorithm docs).
// Both tables are checked against the Brent triple-product equations by
// tests/blas/fastmm_test.cpp, so a transcription error fails the suite.
// ---------------------------------------------------------------------------

// <2,2,2;7> (Strassen 1969). A/B/C blocks = [X11 X12; X21 X22]:
//   M0 = (A11+A22)(B11+B22)   M1 = (A21+A22) B11    M2 = A11 (B12-B22)
//   M3 = A22 (B21-B11)        M4 = (A11+A12) B22    M5 = (A21-A11)(B11+B12)
//   M6 = (A12-A22)(B21+B22)
constexpr signed char kStrassenU[7 * 4] = {
    1,  0, 0, 1,   // M0
    0,  0, 1, 1,   // M1
    1,  0, 0, 0,   // M2
    0,  0, 0, 1,   // M3
    1,  1, 0, 0,   // M4
    -1, 0, 1, 0,   // M5
    0,  1, 0, -1,  // M6
};
constexpr signed char kStrassenV[7 * 4] = {
    1,  0, 0, 1,   // M0
    1,  0, 0, 0,   // M1
    0,  1, 0, -1,  // M2
    -1, 0, 1, 0,   // M3
    0,  0, 0, 1,   // M4
    1,  1, 0, 0,   // M5
    0,  0, 1, 1,   // M6
};
constexpr signed char kStrassenW[4 * 7] = {
    1, 0,  0, 1, -1, 0, 1,  // C11 = M0 + M3 - M4 + M6
    0, 0,  1, 0, 1,  0, 0,  // C12 = M2 + M4
    0, 1,  0, 1, 0,  0, 0,  // C21 = M1 + M3
    1, -1, 1, 0, 0,  1, 0,  // C22 = M0 - M1 + M2 + M5
};

// <2,2,3;11>: Strassen applied to the 2x2 sub-operator on B's first two
// block columns, direct-summed with the 4 classical products of the third
// block column (M7..M10). 11 products equal the known rank of the <2,2,3>
// tensor (2*7 - 3 via <2,2,2>+<2,2,1> splitting is 10+... classical would
// be 12), so the variant is rank-optimal, and its skew towards wide C
// fits SUMMA's (height x n) * (n x width) panel products with width > n.
// B blocks are indexed p*3+j over [B11 B12 B13; B21 B22 B23]; C likewise.
constexpr signed char kS223U[11 * 4] = {
    1,  0, 0, 1,   // M0
    0,  0, 1, 1,   // M1
    1,  0, 0, 0,   // M2
    0,  0, 0, 1,   // M3
    1,  1, 0, 0,   // M4
    -1, 0, 1, 0,   // M5
    0,  1, 0, -1,  // M6
    1,  0, 0, 0,   // M7 = A11 B13
    0,  1, 0, 0,   // M8 = A12 B23
    0,  0, 1, 0,   // M9 = A21 B13
    0,  0, 0, 1,   // M10 = A22 B23
};
constexpr signed char kS223V[11 * 6] = {
    1,  0, 0, 0, 1,  0,  // M0: B11 + B22
    1,  0, 0, 0, 0,  0,  // M1: B11
    0,  1, 0, 0, -1, 0,  // M2: B12 - B22
    -1, 0, 0, 1, 0,  0,  // M3: B21 - B11
    0,  0, 0, 0, 1,  0,  // M4: B22
    1,  1, 0, 0, 0,  0,  // M5: B11 + B12
    0,  0, 0, 1, 1,  0,  // M6: B21 + B22
    0,  0, 1, 0, 0,  0,  // M7: B13
    0,  0, 0, 0, 0,  1,  // M8: B23
    0,  0, 1, 0, 0,  0,  // M9: B13
    0,  0, 0, 0, 0,  1,  // M10: B23
};
constexpr signed char kS223W[6 * 11] = {
    1, 0,  0, 1, -1, 0, 1, 0, 0, 0, 0,  // C11
    0, 0,  1, 0, 1,  0, 0, 0, 0, 0, 0,  // C12
    0, 0,  0, 0, 0,  0, 0, 1, 1, 0, 0,  // C13 = M7 + M8
    0, 1,  0, 1, 0,  0, 0, 0, 0, 0, 0,  // C21
    1, -1, 1, 0, 0,  1, 0, 0, 0, 0, 0,  // C22
    0, 0,  0, 0, 0,  0, 0, 0, 0, 1, 1,  // C23 = M9 + M10
};

// ---------------------------------------------------------------------------
// Pooled temporaries and block linear combinations
// ---------------------------------------------------------------------------

// Every fast-MM workspace goes through here: BufferPool lease (warm runs
// pop a freelist, no heap) plus the distinct fastmm accounting so the CLI
// and the alloc gates can see fast-MM traffic separately.
util::PooledBuffer lease_fastmm(std::int64_t doubles) {
  util::PooledBuffer buf =
      util::BufferPool::instance().acquire(static_cast<std::size_t>(doubles));
  util::record_fastmm_lease(doubles *
                            static_cast<std::int64_t>(sizeof(double)));
  return buf;
}

// An S_r / T_r operand: either a zero-copy view into the parent matrix
// (single +1 term) or a leased contiguous buffer holding the combination.
struct Operand {
  const double* p = nullptr;
  std::int64_t ld = 0;
  util::PooledBuffer buf;
};

// Builds the coef-weighted sum of `src`'s (rows x cols) blocks, where
// block i sits at src + (i / grid_cols)*rows*ld + (i % grid_cols)*cols.
// Terms are applied in ascending block order — part of the run-to-run
// determinism contract.
Operand combine_blocks(const signed char* coef, int nblocks, int grid_cols,
                       const double* src, std::int64_t ld, std::int64_t rows,
                       std::int64_t cols) {
  const auto block = [&](int i) {
    return src + (i / grid_cols) * rows * ld + (i % grid_cols) * cols;
  };
  int terms = 0;
  int only = -1;
  for (int i = 0; i < nblocks; ++i) {
    if (coef[i] != 0) {
      ++terms;
      only = i;
    }
  }
  Operand out;
  if (terms == 1 && coef[only] == 1) {
    out.p = block(only);
    out.ld = ld;
    return out;
  }
  out.buf = lease_fastmm(rows * cols);
  double* dst = out.buf.data();
  out.p = dst;
  out.ld = cols;
  if (terms == 0) {  // impossible for the shipped tables; keep it defined
    std::fill(dst, dst + rows * cols, 0.0);
    return out;
  }
  bool first = true;
  for (int i = 0; i < nblocks; ++i) {
    if (coef[i] == 0) continue;
    const double s = static_cast<double>(coef[i]);
    const double* bp = block(i);
    for (std::int64_t r = 0; r < rows; ++r) {
      const double* srow = bp + r * ld;
      double* drow = dst + r * cols;
      if (first) {
        for (std::int64_t c = 0; c < cols; ++c) drow[c] = s * srow[c];
      } else {
        for (std::int64_t c = 0; c < cols; ++c) drow[c] += s * srow[c];
      }
    }
    first = false;
  }
  return out;
}

// ---------------------------------------------------------------------------
// The recursion
// ---------------------------------------------------------------------------

void fastmm_recurse(std::int64_t m, std::int64_t n, std::int64_t k,
                    double alpha, const double* a, std::int64_t lda,
                    const double* b, std::int64_t ldb, double beta, double* c,
                    std::int64_t ldc, const GemmOptions& leaf, FastMmKind kind,
                    std::int64_t crossover, int depth, int max_depth,
                    int width) {
  const FastMmAlgorithm* alg =
      detail::choose_fastmm(m, n, k, kind, crossover, depth, max_depth);
  if (alg == nullptr) {
    dgemm(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, leaf);
    return;
  }
  const std::int64_t ms = m / alg->mt;
  const std::int64_t ks = k / alg->kt;
  const std::int64_t ns = n / alg->nt;
  const std::int64_t mc = ms * alg->mt;
  const std::int64_t kc = ks * alg->kt;
  const std::int64_t nc = ns * alg->nt;
  const int rank = alg->rank;
  const int na = alg->mt * alg->kt;
  const int nb = alg->kt * alg->nt;

  // The R recursive block products of the divisible core. All R product
  // buffers stay alive until the W combination, so they are leased up
  // front (serially — the lease order is deterministic); the S/T operand
  // buffers live only inside their product.
  std::vector<util::PooledBuffer> mbuf(static_cast<std::size_t>(rank));
  for (int r = 0; r < rank; ++r) mbuf[r] = lease_fastmm(ms * ns);

  const auto product = [&](int r) {
    Operand s = combine_blocks(alg->u + r * na, na, alg->kt, a, lda, ms, ks);
    Operand t = combine_blocks(alg->v + r * nb, nb, alg->nt, b, ldb, ks, ns);
    fastmm_recurse(ms, ns, ks, 1.0, s.p, s.ld, t.p, t.ld, 0.0,
                   mbuf[static_cast<std::size_t>(r)].data(), ns, leaf, kind,
                   crossover, depth + 1, max_depth, width);
  };
  if (width <= 1) {
    for (int r = 0; r < rank; ++r) product(r);
  } else {
    // Products are independent; TaskGroup::wait() helps execute, so the
    // nesting (recursion inside products, pooled leaves inside that) is
    // deadlock-free. Results don't depend on scheduling: each product owns
    // its buffer and the W pass below has a fixed accumulation order.
    sgpool::TaskGroup group;
    for (int r = 0; r < rank; ++r) {
      group.run([&product, r] { product(r); });
    }
    group.wait();
  }

  // W combination: every core C element gets its fixed ascending-r sum,
  // then one beta/alpha application (beta == 0 never reads C).
  std::vector<const double*> mdat(static_cast<std::size_t>(rank));
  for (int r = 0; r < rank; ++r) {
    mdat[static_cast<std::size_t>(r)] = mbuf[static_cast<std::size_t>(r)].data();
  }
  for (int bi = 0; bi < alg->mt; ++bi) {
    for (int bj = 0; bj < alg->nt; ++bj) {
      const signed char* wrow = alg->w + (bi * alg->nt + bj) * rank;
      const double* terms_m[16];
      double terms_w[16];
      int nterms = 0;
      for (int q = 0; q < rank; ++q) {
        if (wrow[q] != 0) {
          terms_m[nterms] = mdat[static_cast<std::size_t>(q)];
          terms_w[nterms] = static_cast<double>(wrow[q]);
          ++nterms;
        }
      }
      double* cblk = c + bi * ms * ldc + bj * ns;
      const auto combine_rows = [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          double* crow = cblk + r * ldc;
          for (std::int64_t col = 0; col < ns; ++col) {
            double acc = 0.0;
            for (int t = 0; t < nterms; ++t) {
              acc += terms_w[t] * terms_m[t][r * ns + col];
            }
            crow[col] =
                beta == 0.0 ? alpha * acc : beta * crow[col] + alpha * acc;
          }
        }
      };
      if (width <= 1 || ms < 2) {
        combine_rows(0, ms);
      } else {
        sgpool::parallel_for(
            0, ms, std::max<std::int64_t>(1, (ms + width - 1) / width),
            combine_rows);
      }
    }
  }
  mbuf.clear();  // return the product buffers before the fringe leaves run

  // Dynamic peeling: thin classical strips cover the non-divisible edges.
  // The k-strip accumulates into the core's C region (beta was already
  // applied above); the n- and m-strips own disjoint C regions and carry
  // the caller's alpha/beta themselves.
  if (kc < k) {
    dgemm(mc, nc, k - kc, alpha, a + kc, lda, b + kc * ldb, ldb, 1.0, c, ldc,
          leaf);
  }
  if (nc < n) {
    dgemm(m, n - nc, k, alpha, a, lda, b + nc, ldb, beta, c + nc, ldc, leaf);
  }
  if (mc < m) {
    dgemm(m - mc, nc, k, alpha, a + mc * lda, lda, b, ldb, beta,
          c + mc * ldc, ldc, leaf);
  }
}

int table_nnz(const signed char* t, int len) {
  int nnz = 0;
  for (int i = 0; i < len; ++i) nnz += t[i] != 0;
  return nnz;
}

double modeled_flops_recurse(std::int64_t m, std::int64_t n, std::int64_t k,
                             FastMmKind kind, std::int64_t crossover,
                             int depth, int max_depth) {
  const FastMmAlgorithm* alg =
      detail::choose_fastmm(m, n, k, kind, crossover, depth, max_depth);
  if (alg == nullptr) {
    return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
           static_cast<double>(k);
  }
  const std::int64_t ms = m / alg->mt;
  const std::int64_t ks = k / alg->kt;
  const std::int64_t ns = n / alg->nt;
  const std::int64_t mc = ms * alg->mt;
  const std::int64_t kc = ks * alg->kt;
  const std::int64_t nc = ns * alg->nt;
  double f = alg->rank * modeled_flops_recurse(ms, ns, ks, kind, crossover,
                                               depth + 1, max_depth);
  // One flop per coefficient application in the S/T/W combinations.
  f += static_cast<double>(table_nnz(alg->u, alg->rank * alg->mt * alg->kt)) *
       static_cast<double>(ms * ks);
  f += static_cast<double>(table_nnz(alg->v, alg->rank * alg->kt * alg->nt)) *
       static_cast<double>(ks * ns);
  f += static_cast<double>(table_nnz(alg->w, alg->mt * alg->nt * alg->rank)) *
       static_cast<double>(ms * ns);
  // Classical peeled strips.
  f += 2.0 * static_cast<double>(mc * nc) * static_cast<double>(k - kc);
  f += 2.0 * static_cast<double>(m * (n - nc)) * static_cast<double>(k);
  f += 2.0 * static_cast<double>((m - mc) * nc) * static_cast<double>(k);
  return f;
}

}  // namespace

const FastMmAlgorithm& strassen_algorithm() {
  static constexpr FastMmAlgorithm alg{"<2,2,2;7>", 2,          2,
                                       2,           7,          kStrassenU,
                                       kStrassenV,  kStrassenW};
  return alg;
}

const FastMmAlgorithm& s223_algorithm() {
  static constexpr FastMmAlgorithm alg{"<2,2,3;11>", 2,      2,     3,
                                       11,           kS223U, kS223V, kS223W};
  return alg;
}

std::vector<const FastMmAlgorithm*> fastmm_algorithms() {
  return {&strassen_algorithm(), &s223_algorithm()};
}

bool verify_brent_equations(const FastMmAlgorithm& alg) {
  const int mt = alg.mt, kt = alg.kt, nt = alg.nt;
  for (int i = 0; i < mt; ++i) {
    for (int p = 0; p < kt; ++p) {
      for (int p2 = 0; p2 < kt; ++p2) {
        for (int j = 0; j < nt; ++j) {
          for (int i2 = 0; i2 < mt; ++i2) {
            for (int j2 = 0; j2 < nt; ++j2) {
              long sum = 0;
              for (int r = 0; r < alg.rank; ++r) {
                sum += static_cast<long>(alg.u[r * (mt * kt) + i * kt + p]) *
                       alg.v[r * (kt * nt) + p2 * nt + j] *
                       alg.w[(i2 * nt + j2) * alg.rank + r];
              }
              const long want = (i == i2 && p == p2 && j == j2) ? 1 : 0;
              if (sum != want) return false;
            }
          }
        }
      }
    }
  }
  return true;
}

std::int64_t default_fastmm_crossover() { return 512; }

std::int64_t resolve_fastmm_crossover(const GemmOptions& opts) {
  if (opts.fastmm_crossover > 0) return opts.fastmm_crossover;
  const std::int64_t tuned =
      tuned_fastmm_crossover(resolve_simd_tier(opts.tier));
  return tuned > 0 ? tuned : default_fastmm_crossover();
}

double fastmm_error_budget(std::int64_t k, int depth) {
  // Leaf products carry the classical accumulation-length bound (~k*eps
  // per element; the 64 mirrors gemm_tolerance's slack constant), and each
  // fast level can amplify it by at most the coefficient mass of the S/T/W
  // combinations — < 6 for both shipped tables (Higham's Strassen analysis
  // gives the same per-level geometric growth). `depth` is the deepest
  // fast split applied (fastmm_max_reachable_depth for a whole call).
  return 64.0 * static_cast<double>(std::max<std::int64_t>(k, 1)) *
         std::pow(6.0, depth);
}

int fastmm_max_reachable_depth(std::int64_t m, std::int64_t n, std::int64_t k,
                               const GemmOptions& opts) {
  if (opts.fastmm == FastMmKind::kClassical) return 0;
  const std::int64_t crossover = resolve_fastmm_crossover(opts);
  int depth = 0;
  while (const FastMmAlgorithm* alg = detail::choose_fastmm(
             m, n, k, opts.fastmm, crossover, depth, opts.fastmm_max_depth)) {
    m /= alg->mt;
    k /= alg->kt;
    n /= alg->nt;
    ++depth;
  }
  return depth;
}

double fastmm_modeled_flops(std::int64_t m, std::int64_t n, std::int64_t k,
                            const GemmOptions& opts) {
  if (m <= 0 || n <= 0 || k <= 0) return 0.0;
  if (opts.fastmm == FastMmKind::kClassical) {
    return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
           static_cast<double>(k);
  }
  return modeled_flops_recurse(m, n, k, opts.fastmm,
                               resolve_fastmm_crossover(opts), 0,
                               opts.fastmm_max_depth);
}

const char* fastmm_kind_name(FastMmKind kind) {
  switch (kind) {
    case FastMmKind::kClassical: return "classical";
    case FastMmKind::kStrassen: return "strassen";
    case FastMmKind::kS223: return "s223";
    case FastMmKind::kAuto: return "auto";
  }
  return "classical";
}

FastMmKind parse_fastmm_kind(const std::string& name) {
  if (name == "classical") return FastMmKind::kClassical;
  if (name == "strassen") return FastMmKind::kStrassen;
  if (name == "s223") return FastMmKind::kS223;
  if (name == "auto") return FastMmKind::kAuto;
  throw std::invalid_argument("unknown fast-MM kind: \"" + name +
                              "\" (expected classical|strassen|s223|auto)");
}

namespace detail {

const FastMmAlgorithm* choose_fastmm(std::int64_t m, std::int64_t n,
                                     std::int64_t k, FastMmKind kind,
                                     std::int64_t crossover, int depth,
                                     int max_depth) {
  if (kind == FastMmKind::kClassical || depth >= max_depth) return nullptr;
  const std::int64_t x = std::max<std::int64_t>(1, crossover);
  const bool can2 = m / 2 >= x && k / 2 >= x && n / 2 >= x;
  const bool can223 = m / 2 >= x && k / 2 >= x && n / 3 >= x;
  switch (kind) {
    case FastMmKind::kStrassen:
      return can2 ? &strassen_algorithm() : nullptr;
    case FastMmKind::kS223:
      return can223 ? &s223_algorithm() : nullptr;
    case FastMmKind::kAuto:
      // Wide-C problems (SUMMA panel products with n well past the other
      // extents) take the <2,2,3> split; square-ish ones take Strassen.
      if (can223 && 2 * n >= 3 * std::max(m, k)) return &s223_algorithm();
      if (can2) return &strassen_algorithm();
      if (can223) return &s223_algorithm();
      return nullptr;
    case FastMmKind::kClassical:
      break;
  }
  return nullptr;
}

void fastmm_dgemm(std::int64_t m, std::int64_t n, std::int64_t k, double alpha,
                  const double* a, std::int64_t lda, const double* b,
                  std::int64_t ldb, double beta, double* c, std::int64_t ldc,
                  const GemmOptions& opts) {
  const std::int64_t crossover = resolve_fastmm_crossover(opts);
  GemmOptions leaf = opts;
  leaf.fastmm = FastMmKind::kClassical;
  fastmm_recurse(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, leaf,
                 opts.fastmm, crossover, 0, opts.fastmm_max_depth,
                 resolve_gemm_threads(opts.threads));
}

}  // namespace detail

}  // namespace summagen::blas
