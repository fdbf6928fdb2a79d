// Shrink-and-repartition recovery: SummaGen survives rank crashes and
// slowdowns with the numeric C still matching the serial reference.
#include "src/core/recovery.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "src/core/runner.hpp"

namespace summagen::core {
namespace {

// ---------------------------------------------------------------- unit ----

partition::PartitionSpec three_by_three() {
  partition::PartitionSpec spec;
  spec.n = 12;
  spec.subplda = 3;
  spec.subpldb = 3;
  spec.subp = {0, 0, 1,  //
               0, 1, 1,  //
               2, 2, 2};
  spec.subph = {4, 4, 4};
  spec.subpw = {4, 4, 4};
  spec.validate(3);
  return spec;
}

TEST(Repartition, CrashMovesOnlyUnfinishedCells) {
  const auto old_spec = three_by_three();
  const CellSet done = {{0, 0}, {0, 1}};  // rank 0 finished two cells
  std::int64_t moved = -1;
  const auto spec = repartition_unfinished(old_spec, done, {0, 2},
                                           {1.0, 1.0}, &moved);
  // Grid preserved.
  EXPECT_EQ(spec.subph, old_spec.subph);
  EXPECT_EQ(spec.subpw, old_spec.subpw);
  // Done cells keep their surviving owner and carry no work.
  EXPECT_EQ(spec.owner(0, 0), 0);
  EXPECT_EQ(spec.owner(0, 1), 0);
  // No cell is owned by the dead rank.
  for (int bi = 0; bi < 3; ++bi) {
    for (int bj = 0; bj < 3; ++bj) EXPECT_NE(spec.owner(bi, bj), 1);
  }
  // At least the dead rank's unfinished cells moved: (0,2), (1,1), (1,2).
  // (Rebalancing toward the weight targets may move survivor cells too.)
  EXPECT_GE(moved, 3 * 16);
}

TEST(Repartition, WeightsSkewTheAssignment) {
  const auto old_spec = three_by_three();
  // Everything unfinished, rank 1 dead, rank 2 nine times faster: rank 2
  // must receive (much) more than rank 0.
  const auto spec = repartition_unfinished(old_spec, {}, {0, 2},
                                           {1.0, 9.0}, nullptr);
  EXPECT_GT(spec.area_of(2), spec.area_of(0));
}

TEST(Repartition, SurvivingOwnersKeepTheirUnfinishedCells) {
  const auto old_spec = three_by_three();
  std::int64_t moved = -1;
  const auto spec = repartition_unfinished(old_spec, {}, {0, 1, 2},
                                           {1.0, 1.0, 1.0}, &moved);
  // Nobody died and the old layout is balanced, so nothing moves.
  EXPECT_EQ(moved, 0);
  EXPECT_EQ(spec.subp, old_spec.subp);
}

TEST(Repartition, AllDoneYieldsNoMovement) {
  const auto old_spec = three_by_three();
  CellSet done;
  for (int bi = 0; bi < 3; ++bi) {
    for (int bj = 0; bj < 3; ++bj) done.insert({bi, bj});
  }
  std::int64_t moved = -1;
  const auto spec =
      repartition_unfinished(old_spec, done, {0, 2}, {1.0, 1.0}, &moved);
  EXPECT_EQ(moved, 0);
  spec.validate(3);
}

TEST(Repartition, RejectsBadWeights) {
  const auto old_spec = three_by_three();
  EXPECT_THROW(repartition_unfinished(old_spec, {}, {0, 1}, {1.0}, nullptr),
               std::invalid_argument);
  EXPECT_THROW(
      repartition_unfinished(old_spec, {}, {0, 1}, {1.0, 0.0}, nullptr),
      std::invalid_argument);
  EXPECT_THROW(repartition_unfinished(old_spec, {}, {}, {}, nullptr),
               std::invalid_argument);
}

// ---------------------------------------------------- end-to-end runner ----

ExperimentConfig numeric_config() {
  ExperimentConfig config;
  config.platform = device::Platform::hclserver1();
  config.n = 192;
  config.shape = partition::Shape::kSquareCorner;
  config.regime = Regime::kConstant;
  config.cpm_speeds = {1.0, 2.0, 0.9};
  config.numeric = true;
  return config;
}

double fault_free_time(const ExperimentConfig& config) {
  ExperimentConfig clean = config;
  clean.faults = {};
  return run_pmm(clean).exec_time_s;
}

TEST(FaultRecovery, MidPhaseCrashStillVerifies) {
  auto config = numeric_config();
  const double t0 = fault_free_time(config);
  ASSERT_GT(t0, 0.0);
  config.faults.events.push_back(
      {sgmpi::FaultKind::kCrash, /*rank=*/1, /*at_vtime=*/0.4 * t0});
  const auto res = run_pmm(config);
  EXPECT_TRUE(res.verified) << "max_abs_error=" << res.max_abs_error;
  EXPECT_GE(res.recoveries, 1);
  EXPECT_GT(res.redistributed_area, 0);
  EXPECT_GE(res.detection_latency_s, config.fault_detect_s);
  EXPECT_GT(res.recovery_vtime_s, 0.0);
  ASSERT_EQ(res.fault_records.size(), 1u);
  EXPECT_TRUE(res.fault_records[0].handled);
}

TEST(FaultRecovery, ImmediateCrashRecoversFromScratch) {
  auto config = numeric_config();
  config.faults.events.push_back(
      {sgmpi::FaultKind::kCrash, /*rank=*/1, /*at_vtime=*/0.0});
  const auto res = run_pmm(config);
  EXPECT_TRUE(res.verified) << "max_abs_error=" << res.max_abs_error;
  EXPECT_GE(res.recoveries, 1);
}

TEST(FaultRecovery, SlowdownKeepsAllRanksAndVerifies) {
  auto config = numeric_config();
  const double t0 = fault_free_time(config);
  config.faults.events.push_back({sgmpi::FaultKind::kSlowdown, /*rank=*/1,
                                  /*at_vtime=*/0.4 * t0, /*factor=*/4.0});
  const auto res = run_pmm(config);
  EXPECT_TRUE(res.verified) << "max_abs_error=" << res.max_abs_error;
  EXPECT_GE(res.recoveries, 1);
  // Degraded, not dead: every rank's clock runs past the fault into the
  // recovery phase.
  for (double t : res.rank_exec_s) EXPECT_GT(t, 0.4 * t0);
}

// Recovery is re-scheduling the pruned task graph, so it works under the
// dataflow scheduler too — the surviving chunk->broadcast dependencies and
// the comm completion order are unchanged by pruning.
TEST(FaultRecovery, CrashUnderTaskGraphSchedulerVerifies) {
  auto config = numeric_config();
  config.summagen_options.scheduler = Scheduler::kTaskGraph;
  const double t0 = fault_free_time(config);
  config.faults.events.push_back(
      {sgmpi::FaultKind::kCrash, /*rank=*/2, /*at_vtime=*/0.5 * t0});
  const auto res = run_pmm(config);
  EXPECT_TRUE(res.verified) << "max_abs_error=" << res.max_abs_error;
  EXPECT_GE(res.recoveries, 1);
}

TEST(FaultRecovery, TransientDropIsAbsorbedWithoutRecovery) {
  auto config = numeric_config();
  config.summagen_options.scheduler = Scheduler::kTaskGraph;
  config.faults.events.push_back({sgmpi::FaultKind::kMessageDrop, /*rank=*/0,
                                  /*at_vtime=*/0.0, /*factor=*/1.0,
                                  /*drop_count=*/2});
  const auto res = run_pmm(config);
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(res.recoveries, 0);  // retries absorb drops; no shrink
}

TEST(FaultRecovery, LinkSlowdownOnlyStretchesTime) {
  auto config = numeric_config();
  const double t0 = fault_free_time(config);
  config.faults.events.push_back({sgmpi::FaultKind::kLinkSlowdown,
                                  /*rank=*/0, /*at_vtime=*/0.0,
                                  /*factor=*/8.0});
  const auto res = run_pmm(config);
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(res.recoveries, 0);
  EXPECT_GT(res.exec_time_s, t0);
}

TEST(FaultRecovery, CrashInFpmRegimeVerifies) {
  auto config = numeric_config();
  config.regime = Regime::kFunctional;
  config.cpm_speeds.clear();
  const double t0 = fault_free_time(config);
  config.faults.events.push_back(
      {sgmpi::FaultKind::kCrash, /*rank=*/1, /*at_vtime=*/0.4 * t0});
  const auto res = run_pmm(config);
  EXPECT_TRUE(res.verified) << "max_abs_error=" << res.max_abs_error;
  EXPECT_GE(res.recoveries, 1);
}

TEST(FaultRecovery, NeverTriggeringPlanStillCompletes) {
  auto config = numeric_config();
  config.faults.events.push_back(
      {sgmpi::FaultKind::kCrash, /*rank=*/1, /*at_vtime=*/1.0e9});
  const auto res = run_pmm(config);
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(res.recoveries, 0);
  ASSERT_EQ(res.fault_records.size(), 1u);
  EXPECT_FALSE(res.fault_records[0].triggered);
}

}  // namespace
}  // namespace summagen::core
