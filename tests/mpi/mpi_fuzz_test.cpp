// Randomised schedule fuzzing of the sgmpi runtime: random sequences of
// collectives over random (but consistently chosen) subgroups, with
// payload values and virtual-clock outcomes checked against a sequential
// reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <vector>

#include "src/mpi/mpi.hpp"
#include "src/util/rng.hpp"

namespace summagen::sgmpi {
namespace {

// A deterministic program of operations all ranks agree on up front.
struct Op {
  enum Kind { kBcast, kBarrier, kAllreduceSum, kAllreduceMax, kCompute };
  Kind kind;
  std::vector<int> members;  // participating world ranks (sorted)
  int root = 0;              // comm-rank root for bcast
  std::int64_t bytes = 0;    // bcast payload
  double seconds = 0.0;      // compute advance (kCompute: members[0] only)
  double value = 0.0;        // contribution base for reductions
};

std::vector<Op> random_program(util::Rng& rng, int nranks, int length) {
  std::vector<Op> program;
  for (int i = 0; i < length; ++i) {
    Op op;
    const int kind = static_cast<int>(rng.uniform_int(0, 4));
    op.kind = static_cast<Op::Kind>(kind);
    if (op.kind == Op::kCompute) {
      op.members = {static_cast<int>(rng.uniform_int(0, nranks - 1))};
      op.seconds = rng.uniform(0.0, 0.01);
    } else {
      // Random subgroup of size >= 2.
      std::vector<int> all(static_cast<std::size_t>(nranks));
      std::iota(all.begin(), all.end(), 0);
      std::shuffle(all.begin(), all.end(), rng.engine());
      const auto size = static_cast<std::size_t>(
          rng.uniform_int(2, nranks));
      op.members.assign(all.begin(), all.begin() + size);
      std::sort(op.members.begin(), op.members.end());
      op.root = static_cast<int>(
          rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
      op.bytes = rng.uniform_int(1, 4096) * 8;
      op.value = rng.uniform(-10.0, 10.0);
    }
    program.push_back(op);
  }
  return program;
}

// Sequential reference: simulates the virtual clocks of the whole program.
std::vector<double> reference_clocks(const std::vector<Op>& program,
                                     int nranks,
                                     const trace::HockneyParams& link) {
  std::vector<double> clock(static_cast<std::size_t>(nranks), 0.0);
  for (const Op& op : program) {
    if (op.kind == Op::kCompute) {
      clock[static_cast<std::size_t>(op.members[0])] += op.seconds;
      continue;
    }
    double entry_max = 0.0;
    for (int r : op.members) {
      entry_max = std::max(entry_max, clock[static_cast<std::size_t>(r)]);
    }
    const int q = static_cast<int>(op.members.size());
    double cost = 0.0;
    switch (op.kind) {
      case Op::kBcast:
        cost = trace::bcast_cost(link, op.bytes, q);
        break;
      case Op::kBarrier:
        cost = trace::barrier_cost(link, q);
        break;
      case Op::kAllreduceSum:
      case Op::kAllreduceMax:
        cost = trace::allreduce_cost(link, sizeof(double), q);
        break;
      case Op::kCompute:
        break;
    }
    for (int r : op.members) {
      clock[static_cast<std::size_t>(r)] = entry_max + cost;
    }
  }
  return clock;
}

TEST(MpiFuzz, RandomProgramsMatchTheReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    const int nranks = static_cast<int>(rng.uniform_int(2, 6));
    const auto program = random_program(rng, nranks, 60);

    Config config;
    config.nranks = nranks;
    config.link = trace::HockneyParams{2.0e-6, 1.0e-9};
    Runtime runtime(config);

    std::vector<std::vector<double>> bcast_received(
        static_cast<std::size_t>(nranks));
    std::vector<std::vector<double>> reduce_results(
        static_cast<std::size_t>(nranks));

    runtime.run([&](Comm& world) {
      const int me = world.rank();
      for (const Op& op : program) {
        if (op.kind == Op::kCompute) {
          if (op.members[0] == me) world.clock().advance_compute(op.seconds);
          continue;
        }
        if (std::find(op.members.begin(), op.members.end(), me) ==
            op.members.end()) {
          continue;
        }
        Comm sub = world.subgroup(op.members);
        switch (op.kind) {
          case Op::kBcast: {
            std::vector<double> buf(
                static_cast<std::size_t>(op.bytes / 8),
                sub.rank() == op.root ? op.value : 0.0);
            sub.bcast(buf.data(), op.bytes / 8, op.root);
            bcast_received[static_cast<std::size_t>(me)].push_back(
                buf.front());
            break;
          }
          case Op::kBarrier:
            sub.barrier();
            break;
          case Op::kAllreduceSum:
            reduce_results[static_cast<std::size_t>(me)].push_back(
                sub.allreduce_sum(op.value + me));
            break;
          case Op::kAllreduceMax:
            reduce_results[static_cast<std::size_t>(me)].push_back(
                sub.allreduce_max(op.value + me));
            break;
          case Op::kCompute:
            break;
        }
      }
    });

    // Clocks match the sequential model exactly.
    const auto expected = reference_clocks(program, nranks, config.link);
    for (int r = 0; r < nranks; ++r) {
      EXPECT_NEAR(runtime.clock(r).now(),
                  expected[static_cast<std::size_t>(r)], 1e-9)
          << "seed " << seed << " rank " << r;
    }

    // Payloads match the program semantics.
    std::vector<std::size_t> bcast_idx(static_cast<std::size_t>(nranks), 0);
    std::vector<std::size_t> reduce_idx(static_cast<std::size_t>(nranks), 0);
    for (const Op& op : program) {
      if (op.kind == Op::kBcast) {
        for (int r : op.members) {
          const double got =
              bcast_received[static_cast<std::size_t>(r)]
                            [bcast_idx[static_cast<std::size_t>(r)]++];
          EXPECT_EQ(got, op.value) << "seed " << seed;
        }
      } else if (op.kind == Op::kAllreduceSum ||
                 op.kind == Op::kAllreduceMax) {
        double want = op.kind == Op::kAllreduceSum ? 0.0 : -1e300;
        for (int r : op.members) {
          if (op.kind == Op::kAllreduceSum) {
            want += op.value + r;
          } else {
            want = std::max(want, op.value + r);
          }
        }
        for (int r : op.members) {
          const double got =
              reduce_results[static_cast<std::size_t>(r)]
                            [reduce_idx[static_cast<std::size_t>(r)]++];
          EXPECT_NEAR(got, want, 1e-9) << "seed " << seed;
        }
      }
    }
  }
}

}  // namespace
}  // namespace summagen::sgmpi
