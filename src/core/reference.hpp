// Serial reference for verification.
#pragma once

#include <cstdint>

#include "src/blas/gemm.hpp"
#include "src/util/matrix.hpp"

namespace summagen::core {

/// C = A * B with the serial scalar tier of the packed kernel — the oracle
/// SummaGen results are checked against in tests and numeric experiments.
/// Bit-identical to blas::GemmKernel::kNaive (same per-element ascending-k
/// chain), at packed-kernel speed.
util::Matrix reference_multiply(const util::Matrix& a, const util::Matrix& b);

/// Tolerance scale for comparing two n x n products of matrices with
/// entries in [-1, 1]: |error| grows like n * eps under reassociation.
double gemm_tolerance(std::int64_t n);

}  // namespace summagen::core
