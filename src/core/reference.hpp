// Reference product and exact verification for the numeric plane.
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

/// max |C - A*B| against the same scalar-tier reference, computed without
/// ever holding it whole: fixed 64-row bands of the reference are built in
/// pooled scratch on the shared pool (sgpool::parallel_for), compared with
/// C's rows and dropped. The scalar chain of each element does not depend
/// on the band split, and the max is exact, so the result equals
/// `Matrix::max_abs_diff(c, reference_multiply(a, b))` bit for bit on any
/// pool width — NaN when any difference is NaN. Throws
/// std::invalid_argument unless A is m x k, B is k x n and C is m x n.
double max_abs_error_vs_reference(const util::Matrix& a, const util::Matrix& b,
                                  const util::Matrix& c);

/// Tolerance scale for comparing two n x n products of matrices with
/// entries in [-1, 1]: |error| grows like n * eps under reassociation.
double gemm_tolerance(std::int64_t n);

}  // namespace summagen::core
