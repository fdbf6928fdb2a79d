#include "src/core/reference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "src/pool/pool.hpp"
#include "src/util/buffer_pool.hpp"

namespace summagen::core {
namespace {

// One verify band is kBandRows rows of the reference. Packing B 512
// columns at a time keeps a thread's scratch to the band plus a 256 x 512
// B block and a 64 x 256 A block: about 2 MiB at n = 2048. Block sizes
// never change the scalar tier's bits.
constexpr std::int64_t kBandRows = 64;
constexpr blas::GemmOptions kBandGemm{
    .threads = 1, .tier = blas::SimdTier::kScalar, .nc = 512, .kc = 256};

}  // namespace

util::Matrix reference_multiply(const util::Matrix& a, const util::Matrix& b) {
  return blas::multiply(a, b,
                        {.threads = 1, .tier = blas::SimdTier::kScalar});
}

double max_abs_error_vs_reference(const util::Matrix& a, const util::Matrix& b,
                                  const util::Matrix& c) {
  if (a.cols() != b.rows() || c.rows() != a.rows() || c.cols() != b.cols()) {
    throw std::invalid_argument("max_abs_error_vs_reference: shape mismatch");
  }
  const std::int64_t m = c.rows();
  const std::int64_t n = c.cols();
  const std::int64_t k = a.cols();
  const std::int64_t bands = (m + kBandRows - 1) / kBandRows;
  std::vector<double> worst(static_cast<std::size_t>(bands), 0.0);
  sgpool::parallel_for(0, bands, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t band = lo; band < hi; ++band) {
      const std::int64_t r0 = band * kBandRows;
      const std::int64_t rows = std::min(kBandRows, m - r0);
      const auto len = static_cast<std::size_t>(rows * n);
      util::PooledBuffer ref = util::BufferPool::instance().acquire(len);
      blas::dgemm(rows, n, k, 1.0, a.data() + r0 * k,
                  std::max<std::int64_t>(1, k), b.data(),
                  std::max<std::int64_t>(1, n), 0.0, ref.data(),
                  std::max<std::int64_t>(1, n), kBandGemm);
      worst[static_cast<std::size_t>(band)] =
          util::max_abs_diff({c.data() + r0 * n, len}, {ref.data(), len});
    }
  });
  // Band order, not completion order: the fold is deterministic and a NaN
  // band makes the whole result NaN.
  double result = 0.0;
  for (double w : worst) {
    if (std::isnan(w)) return w;
    result = std::max(result, w);
  }
  return result;
}

double gemm_tolerance(std::int64_t n) {
  return 64.0 * static_cast<double>(n) *
         std::numeric_limits<double>::epsilon();
}

}  // namespace summagen::core
