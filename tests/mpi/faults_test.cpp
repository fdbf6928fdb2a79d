// Fault injection at the sgmpi layer: planned crashes, slowdowns and link
// degradation, and the typed failure + shrink agreement survivors use to
// recover (DESIGN.md "Fault model").
#include <gtest/gtest.h>

#include <atomic>
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

TEST(Faults, EmptyPlanMakesShrinkALogicError) {
  Runtime rt(small_config(2));
  rt.run([](Comm& world) {
    EXPECT_THROW(world.shrink(), std::logic_error);
    EXPECT_THROW(world.ft_commit(), std::logic_error);
    EXPECT_EQ(world.compute_slowdown(), 1.0);
  });
}

TEST(Faults, PlanValidationRejectsBadEvents) {
  Config config = small_config(2);
  config.faults.events.push_back({FaultKind::kCrash, /*rank=*/7, 0.0});
  EXPECT_THROW(Runtime{config}, std::invalid_argument);

  Config config2 = small_config(2);
  config2.faults.events.push_back(
      {FaultKind::kSlowdown, /*rank=*/0, 0.0, /*factor=*/-1.0});
  EXPECT_THROW(Runtime{config2}, std::invalid_argument);
}

TEST(Faults, CrashSurfacesAsTypedPeerFailureAndShrinks) {
  Config config = small_config(3);
  config.faults.events.push_back({FaultKind::kCrash, /*rank=*/1, 0.0});
  Runtime rt(config);
  std::atomic<int> peer_failures{0};
  rt.run([&](Comm& world) {
    try {
      world.barrier();
      // Rank 1 dies inside the barrier; 0 and 2 must not get here.
      ADD_FAILURE() << "rank " << world.rank() << " passed the barrier";
    } catch (const PeerFailedError& e) {
      EXPECT_EQ(e.rank, 1);
      EXPECT_EQ(e.kind, FaultKind::kCrash);
      EXPECT_GE(e.detected_vtime, config.fault_detect_s);
      peer_failures.fetch_add(1);
      const ShrinkResult res = world.shrink();
      EXPECT_EQ(res.survivors, (std::vector<int>{0, 2}));
      ASSERT_EQ(res.handled.size(), 1u);
      EXPECT_EQ(res.handled[0].kind, FaultKind::kCrash);
      // The shrunk communicator works after the fabric reset.
      Comm group = world.subgroup(res.survivors);
      group.barrier();
      EXPECT_EQ(group.allreduce_sum(1.0), 2.0);
    }
  });
  EXPECT_EQ(peer_failures.load(), 2);

  const auto records = rt.fault_records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].triggered);
  EXPECT_TRUE(records[0].handled);
  EXPECT_GE(records[0].first_detect_vtime,
            records[0].trigger_vtime + config.fault_detect_s);
  EXPECT_GE(records[0].handled_vtime, records[0].first_detect_vtime);
}

TEST(Faults, SlowdownInterruptsEveryoneButNobodyDies) {
  Config config = small_config(2);
  config.faults.events.push_back(
      {FaultKind::kSlowdown, /*rank=*/0, 0.0, /*factor=*/4.0});
  Runtime rt(config);
  std::atomic<int> recovered{0};
  rt.run([&](Comm& world) {
    try {
      world.barrier();
      ADD_FAILURE() << "rank " << world.rank() << " passed the barrier";
    } catch (const PeerFailedError& e) {
      EXPECT_EQ(e.rank, 0);
      EXPECT_EQ(e.kind, FaultKind::kSlowdown);
      const ShrinkResult res = world.shrink();
      // A degraded rank is not removed: both survive.
      EXPECT_EQ(res.survivors, (std::vector<int>{0, 1}));
      EXPECT_EQ(world.compute_slowdown(), world.rank() == 0 ? 4.0 : 1.0);
      recovered.fetch_add(1);
    }
  });
  EXPECT_EQ(recovered.load(), 2);
}

TEST(Faults, LinkSlowdownStretchesTheVictimsCommunication) {
  const auto bcast_time = [](FaultPlan plan) {
    Config config = small_config(2);
    config.faults = std::move(plan);
    Runtime rt(config);
    std::vector<double> buf(128, 0.0);
    rt.run([&](Comm& world) {
      world.bcast(buf.data(), 128, 0);
    });
    return rt.clock(1).now();
  };
  FaultPlan slow;
  slow.events.push_back(
      {FaultKind::kLinkSlowdown, /*rank=*/1, 0.0, /*factor=*/8.0});
  const double clean = bcast_time({});
  const double degraded = bcast_time(slow);
  EXPECT_GT(clean, 0.0);
  EXPECT_GT(degraded, clean);
}

TEST(Faults, CommitGateConvergesAfterLateFault) {
  // The fault triggers while ranks sit in the commit gate: both must throw
  // PeerFailedError (not just one), then agree via shrink.
  Config config = small_config(2);
  config.faults.events.push_back(
      {FaultKind::kSlowdown, /*rank=*/1, 0.0, /*factor=*/2.0});
  Runtime rt(config);
  std::atomic<int> threw{0};
  rt.run([&](Comm& world) {
    try {
      world.ft_commit();
      ADD_FAILURE() << "rank " << world.rank() << " committed";
    } catch (const PeerFailedError&) {
      threw.fetch_add(1);
      world.shrink();
      // After handling, the commit succeeds.
      EXPECT_GE(world.ft_commit(), 0.0);
    }
  });
  EXPECT_EQ(threw.load(), 2);
}

TEST(Faults, FaultFreePlanLeavesTimingUntouched) {
  // A plan whose events never trigger must not change virtual timing.
  const auto run_time = [](FaultPlan plan) {
    Config config = small_config(3);
    config.faults = std::move(plan);
    Runtime rt(config);
    rt.run([](Comm& world) {
      world.barrier();
      world.allreduce_sum(static_cast<double>(world.rank()));
      std::vector<double> buf(64, 0.0);
      world.bcast(buf.data(), 64, 2);
    });
    return rt.max_vtime();
  };
  FaultPlan dormant;
  dormant.events.push_back({FaultKind::kCrash, /*rank=*/0, 1.0e9});
  EXPECT_EQ(run_time({}), run_time(dormant));
}

TEST(Faults, ParsePlanAcceptsTheDocumentedGrammar) {
  const FaultPlan plan =
      parse_fault_plan("crash@0.5:1,slow@0.25:0x4,link@0.2:2x8");
  ASSERT_EQ(plan.events.size(), 3u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kCrash);
  EXPECT_EQ(plan.events[0].rank, 1);
  EXPECT_DOUBLE_EQ(plan.events[0].at_vtime, 0.5);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kSlowdown);
  EXPECT_DOUBLE_EQ(plan.events[1].factor, 4.0);
  EXPECT_EQ(plan.events[2].kind, FaultKind::kLinkSlowdown);
  EXPECT_DOUBLE_EQ(plan.events[2].factor, 8.0);
  // Defaults when 'x' is omitted.
  EXPECT_DOUBLE_EQ(parse_fault_plan("slow@1:0").events[0].factor, 2.0);
  EXPECT_TRUE(parse_fault_plan("").empty());
}

TEST(Faults, ParsePlanRejectsMalformedEvents) {
  EXPECT_THROW(parse_fault_plan("meteor@0.5:1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("drop@0.1:2x3"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("crash@0.5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("crash:1@0.5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("crash@0.5:1x2"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("slow@abc:1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("slow@1:zz"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("crash@0.5:1,,slow@1:0"),
               std::invalid_argument);
}

}  // namespace
}  // namespace summagen::sgmpi
