#include "src/core/reference.hpp"

#include <limits>

namespace summagen::core {

util::Matrix reference_multiply(const util::Matrix& a, const util::Matrix& b) {
  return blas::multiply(a, b,
                        {.threads = 1, .tier = blas::SimdTier::kScalar});
}

double gemm_tolerance(std::int64_t n) {
  return 64.0 * static_cast<double>(n) *
         std::numeric_limits<double>::epsilon();
}

}  // namespace summagen::core
