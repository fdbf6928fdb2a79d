// The serial verify reference must stay pinned to the naive oracle: every
// numeric run is checked against core::reference_multiply, so a reference
// that drifts from the triple loop would silently move every verdict.
#include "src/core/reference.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "src/util/rng.hpp"

namespace summagen::core {
namespace {

struct Dims {
  std::int64_t m, k, n;
};

// Square and ragged shapes; 515 leaves a remainder against the scalar
// tier's MR = 4, NR = 8 and KC = 256, and crosses two KC blocks.
const Dims kDims[] = {{1, 1, 1},       {7, 7, 7},       {127, 127, 127},
                      {384, 384, 384}, {515, 515, 515}, {7, 384, 127},
                      {515, 7, 1},     {127, 515, 384}};

TEST(Reference, MemcmpIdenticalToNaiveKernel) {
  for (const Dims& d : kDims) {
    util::Matrix a(d.m, d.k), b(d.k, d.n);
    util::fill_random(a, 71);
    util::fill_random(b, 72);
    const util::Matrix got = reference_multiply(a, b);
    const util::Matrix want =
        blas::multiply(a, b, {.kernel = blas::GemmKernel::kNaive});
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          static_cast<std::size_t>(d.m * d.n) *
                              sizeof(double)),
              0)
        << d.m << "x" << d.k << " * " << d.k << "x" << d.n;
  }
}

}  // namespace
}  // namespace summagen::core
