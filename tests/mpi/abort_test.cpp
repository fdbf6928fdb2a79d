// Abort/unwind coverage: when one rank throws mid-operation, every sibling
// blocked in any collective primitive must unwind with a typed AbortedError
// instead of polling forever — and the original error, not the sympathetic
// unwind, must surface from Runtime::run.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <vector>

#include "src/mpi/mpi.hpp"

namespace summagen::sgmpi {
namespace {

Config small_config(int nranks) {
  Config config;
  config.nranks = nranks;
  config.poll_interval_s = 0.005;
  return config;
}

/// Rank 0 throws before touching the fabric; every other rank enters `op`
/// and must unwind via AbortedError. The root cause is what run() throws.
void expect_unwind(int nranks, const std::function<void(Comm&)>& op) {
  Runtime rt(small_config(nranks));
  EXPECT_THROW(rt.run([&](Comm& world) {
    if (world.rank() == 0) throw std::range_error("sibling failure");
    EXPECT_THROW(op(world), AbortedError);
    throw AbortedError();  // propagate like a real unwind would
  }),
               std::range_error);
}

TEST(AbortUnwind, Barrier) {
  expect_unwind(3, [](Comm& world) { world.barrier(); });
}

TEST(AbortUnwind, Bcast) {
  expect_unwind(3, [](Comm& world) {
    std::vector<double> buf(32, 0.0);
    world.bcast(buf.data(), 32, 1);
  });
}

TEST(AbortUnwind, BcastFromDeadRoot) {
  expect_unwind(3, [](Comm& world) {
    std::vector<double> buf(32, 1.0);
    world.bcast(buf.data(), 32, 0);  // root is the rank that threw
  });
}

TEST(AbortUnwind, IbcastWait) {
  expect_unwind(3, [](Comm& world) {
    std::vector<double> buf(32, 0.0);
    Request r = world.ibcast_bytes(buf.data(), 32 * sizeof(double), 1);
    world.wait(r);
  });
}

TEST(AbortUnwind, AllreduceMax) {
  expect_unwind(3, [](Comm& world) { world.allreduce_max(1.0); });
}

TEST(AbortUnwind, AllreduceSum) {
  expect_unwind(3, [](Comm& world) { world.allreduce_sum(1.0); });
}

TEST(AbortUnwind, AllreduceSumBuffer) {
  expect_unwind(3, [](Comm& world) {
    std::vector<double> buf(16, 1.0);
    world.allreduce_sum_buffer(buf.data(), 16);
  });
}

TEST(AbortUnwind, Gather) {
  expect_unwind(3, [](Comm& world) { world.gather(1.0, 1); });
}

TEST(AbortUnwind, SubgroupCollective) {
  expect_unwind(4, [](Comm& world) {
    if (world.rank() == 1) {
      // Subgroup {1, 2} can complete on its own; the next world-wide
      // operation is where the abort must surface.
      Comm g = world.subgroup({1, 2});
      g.allreduce_sum(1.0);
    } else if (world.rank() == 2) {
      Comm g = world.subgroup({1, 2});
      g.allreduce_sum(1.0);
    }
    world.barrier();
  });
}

TEST(AbortUnwind, PendingRequestsTolerateUnwind) {
  // A pending request destroyed *during* exception unwind must not abort
  // the process (the loud-failure check is for forgotten requests on the
  // happy path).
  Runtime rt(small_config(2));
  EXPECT_THROW(rt.run([&](Comm& world) {
    if (world.rank() == 0) throw std::range_error("sibling failure");
    double sink = 0.0;
    Request r = world.ibcast_bytes(&sink, sizeof(double), 0);
    world.wait(r);  // throws AbortedError; `r` unwinds while pending
  }),
               std::range_error);
}

TEST(AbortUnwind, MidOperationThrowIsPromptVirtualTime) {
  // The unwound ranks' clocks must not have been dragged forward by the
  // abort: unwinding is a host-level event, not a modeled one.
  Runtime rt(small_config(2));
  EXPECT_THROW(rt.run([&](Comm& world) {
    if (world.rank() == 0) throw std::range_error("boom");
    EXPECT_THROW(world.barrier(), AbortedError);
    EXPECT_EQ(world.clock().now(), 0.0);
    throw AbortedError();
  }),
               std::range_error);
}

}  // namespace
}  // namespace summagen::sgmpi
