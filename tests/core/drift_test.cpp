// Dynamic load drift (DESIGN.md §5.13): the DriftController policy, the
// --drift/--repartition grammars, the layered re-partitioner selection, and
// the end-to-end online re-partitioning loop of the runner.
#include "src/core/drift.hpp"

#include <gtest/gtest.h>

#include "src/core/recovery.hpp"
#include "src/core/runner.hpp"
#include "src/partition/spec_io.hpp"

namespace summagen::core {
namespace {

// ------------------------------------------------------ DriftController ----

trace::StepSample sample(double ratio) {
  trace::StepSample s;
  s.predicted_s = 1.0;
  s.observed_s = ratio;
  return s;
}

RepartitionOptions tight_options() {
  RepartitionOptions o;
  o.enabled = true;
  o.threshold = 0.25;
  o.hysteresis = 3;
  o.ewma_alpha = 1.0;  // track the last sample exactly
  o.warmup_steps = 2;
  return o;
}

TEST(DriftController, WarmupThenHysteresisConfirmsExactlyOnce) {
  DriftController d(tight_options(), /*drift_round=*/0);
  // Steps 1-2: warmup. Steps 3-4: streak builds. Step 5: streak == 3.
  EXPECT_FALSE(d.observe(sample(2.0)));
  EXPECT_FALSE(d.observe(sample(2.0)));
  EXPECT_FALSE(d.observe(sample(2.0)));
  EXPECT_FALSE(d.observe(sample(2.0)));
  EXPECT_TRUE(d.observe(sample(2.0)));
  EXPECT_TRUE(d.confirmed());
  EXPECT_DOUBLE_EQ(d.smoothed_ratio(), 2.0);
  // Stays confirmed, never fires again.
  EXPECT_FALSE(d.observe(sample(2.0)));
  EXPECT_EQ(d.steps(), 6);
}

TEST(DriftController, TransientSpikeDoesNotConfirm) {
  auto o = tight_options();
  o.warmup_steps = 0;
  DriftController d(o, 0);
  EXPECT_FALSE(d.observe(sample(2.0)));
  EXPECT_FALSE(d.observe(sample(2.0)));
  EXPECT_FALSE(d.observe(sample(1.0)));  // back in band: streak resets
  EXPECT_FALSE(d.observe(sample(2.0)));
  EXPECT_FALSE(d.observe(sample(2.0)));
  EXPECT_FALSE(d.confirmed());
}

TEST(DriftController, SpeedupIsDriftToo) {
  auto o = tight_options();
  o.warmup_steps = 0;
  o.hysteresis = 2;
  DriftController d(o, 0);
  EXPECT_FALSE(d.observe(sample(0.5)));
  EXPECT_TRUE(d.observe(sample(0.5)));  // ratio < 1 / 1.25
}

TEST(DriftController, InBandRatioNeverConfirms) {
  auto o = tight_options();
  o.warmup_steps = 0;
  DriftController d(o, 0);
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(d.observe(sample(1.2)));
  EXPECT_FALSE(d.confirmed());
}

TEST(DriftController, BackoffDoublesWarmupPerRound) {
  auto o = tight_options();
  o.hysteresis = 1;
  // Round 2: warmup 2 -> 8. Confirmation lands on step 9.
  DriftController d(o, /*drift_round=*/2);
  int confirm_step = -1;
  for (int i = 1; i <= 12; ++i) {
    if (d.observe(sample(3.0))) confirm_step = i;
  }
  EXPECT_EQ(confirm_step, 9);
}

TEST(DriftController, RejectsInvalidOptions) {
  auto bad = tight_options();
  bad.threshold = 0.0;
  EXPECT_THROW(DriftController(bad, 0), std::invalid_argument);
  bad = tight_options();
  bad.hysteresis = 0;
  EXPECT_THROW(DriftController(bad, 0), std::invalid_argument);
  bad = tight_options();
  bad.ewma_alpha = 1.5;
  EXPECT_THROW(DriftController(bad, 0), std::invalid_argument);
}

// -------------------------------------------------------- CLI grammars ----

TEST(DriftGrammar, ParsesEveryKind) {
  const auto plan =
      parse_drift_plan("step@0.5:1x2.5,ramp@0:0x3/0.2,periodic@1:2/0.1");
  ASSERT_EQ(plan.events.size(), 3u);
  EXPECT_EQ(plan.events[0].kind, device::DriftKind::kStep);
  EXPECT_EQ(plan.events[0].rank, 1);
  EXPECT_DOUBLE_EQ(plan.events[0].at_vtime, 0.5);
  EXPECT_DOUBLE_EQ(plan.events[0].factor, 2.5);
  EXPECT_EQ(plan.events[1].kind, device::DriftKind::kRamp);
  EXPECT_DOUBLE_EQ(plan.events[1].factor, 3.0);
  EXPECT_DOUBLE_EQ(plan.events[1].duration_s, 0.2);
  EXPECT_EQ(plan.events[2].kind, device::DriftKind::kPeriodic);
  EXPECT_DOUBLE_EQ(plan.events[2].factor, 2.0);  // default factor
  EXPECT_DOUBLE_EQ(plan.events[2].period_s, 0.1);
}

TEST(DriftGrammar, EmptyTextIsEmptyPlan) {
  EXPECT_TRUE(parse_drift_plan("").empty());
}

TEST(DriftGrammar, ErrorsCarryEventIndexAndField) {
  try {
    parse_drift_plan("step@0:1,ramp@0:1x2");
    FAIL() << "expected SpecParseError";
  } catch (const partition::SpecParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.key(), "duration");
  }
  try {
    parse_drift_plan("step@oops:1");
    FAIL() << "expected SpecParseError";
  } catch (const partition::SpecParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_EQ(e.key(), "at");
  }
  EXPECT_THROW(parse_drift_plan("wobble@0:1"), partition::SpecParseError);
  EXPECT_THROW(parse_drift_plan("step@0:1/0.3"), partition::SpecParseError);
  EXPECT_THROW(parse_drift_plan("periodic@0:1"), partition::SpecParseError);
  EXPECT_THROW(parse_drift_plan("step@0:1.5"), partition::SpecParseError);
}

TEST(RepartitionGrammar, OnOffAndKeyValueList) {
  EXPECT_TRUE(parse_repartition_options("on").enabled);
  EXPECT_TRUE(parse_repartition_options("").enabled);
  EXPECT_FALSE(parse_repartition_options("off").enabled);
  const auto o = parse_repartition_options(
      "threshold=0.3,hysteresis=4,alpha=0.5,warmup=2,budget=1");
  EXPECT_TRUE(o.enabled);
  EXPECT_DOUBLE_EQ(o.threshold, 0.3);
  EXPECT_EQ(o.hysteresis, 4);
  EXPECT_DOUBLE_EQ(o.ewma_alpha, 0.5);
  EXPECT_EQ(o.warmup_steps, 2);
  EXPECT_EQ(o.max_repartitions, 1);
}

TEST(RepartitionGrammar, ErrorsCarryItemIndexAndKey) {
  try {
    parse_repartition_options("threshold=0.3,bogus=1");
    FAIL() << "expected SpecParseError";
  } catch (const partition::SpecParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.key(), "bogus");
  }
  EXPECT_THROW(parse_repartition_options("threshold=zero"),
               partition::SpecParseError);
  EXPECT_THROW(parse_repartition_options("alpha=2"),
               partition::SpecParseError);
  EXPECT_THROW(parse_repartition_options("hysteresis"),
               partition::SpecParseError);
}

// --------------------------------------------- layered re-partitioning ----

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

TEST(LayeredRepartition, DealsContiguousRowMajorRuns) {
  const auto old_spec = three_by_three();
  std::int64_t moved = -1;
  const auto spec = repartition_layered(old_spec, {}, {0, 1, 2},
                                        {1.0, 1.0, 1.0}, &moved);
  spec.validate(3);
  // Equal weights over a uniform grid: one full row of cells per rank.
  for (int bj = 0; bj < 3; ++bj) {
    EXPECT_EQ(spec.owner(0, bj), 0);
    EXPECT_EQ(spec.owner(1, bj), 1);
    EXPECT_EQ(spec.owner(2, bj), 2);
  }
}

TEST(LayeredRepartition, ParksDoneCellsAndSkipsTheDead) {
  const auto old_spec = three_by_three();
  const CellSet done = {{0, 0}, {2, 2}};
  std::int64_t moved = -1;
  const auto spec =
      repartition_layered(old_spec, done, {0, 2}, {1.0, 1.0}, &moved);
  spec.validate(3);
  for (int bi = 0; bi < 3; ++bi) {
    for (int bj = 0; bj < 3; ++bj) EXPECT_NE(spec.owner(bi, bj), 1);
  }
  // Unfinished area splits evenly over the two survivors: 7 cells -> 4 + 3
  // (or 3 + 4), so neither takes more than 4 * 16.
  std::int64_t a0 = 0;
  std::int64_t a2 = 0;
  for (int bi = 0; bi < 3; ++bi) {
    for (int bj = 0; bj < 3; ++bj) {
      if (done.count({bi, bj}) != 0) continue;
      (spec.owner(bi, bj) == 0 ? a0 : a2) += 16;
    }
  }
  EXPECT_EQ(a0 + a2, 7 * 16);
  EXPECT_LE(a0, 4 * 16);
  EXPECT_LE(a2, 4 * 16);
}

TEST(LayeredRepartition, WeightsSkewTheRuns) {
  const auto old_spec = three_by_three();
  const auto spec =
      repartition_layered(old_spec, {}, {0, 2}, {1.0, 8.0}, nullptr);
  EXPECT_GT(spec.area_of(2), spec.area_of(0));
}

TEST(ChooseRepartition, PicksTheSmallerPredictedMakespan) {
  const auto old_spec = three_by_three();
  const CellSet done = {{0, 0}};
  const std::vector<int> survivors = {0, 2};
  const std::vector<double> weights = {1.0, 3.0};
  const auto grid =
      repartition_unfinished(old_spec, done, survivors, weights, nullptr);
  const auto layered =
      repartition_layered(old_spec, done, survivors, weights, nullptr);
  const double grid_ms = predicted_makespan(grid, done, survivors, weights);
  const double layered_ms =
      predicted_makespan(layered, done, survivors, weights);
  RepartitionFamily family = RepartitionFamily::kGrid;
  const auto chosen =
      choose_repartition(old_spec, done, survivors, weights, nullptr, &family);
  const double chosen_ms =
      predicted_makespan(chosen, done, survivors, weights);
  EXPECT_DOUBLE_EQ(chosen_ms, std::min(grid_ms, layered_ms));
  if (family == RepartitionFamily::kLayered) {
    EXPECT_LT(layered_ms, grid_ms);  // layered only wins strictly
  }
  EXPECT_STREQ(repartition_family_name(RepartitionFamily::kGrid), "grid");
  EXPECT_STREQ(repartition_family_name(RepartitionFamily::kLayered),
               "layered");
}

// ------------------------------------------------- end-to-end (runner) ----

ExperimentConfig drift_config() {
  ExperimentConfig config;
  config.platform = device::Platform::hclserver1();
  config.n = 192;
  config.shape = partition::Shape::kSquareCorner;
  config.regime = Regime::kConstant;
  config.cpm_speeds = {1.0, 2.0, 0.9};
  config.numeric = true;
  // Chunked dataflow execution gives the detector enough per-rank steps.
  config.summagen_options.scheduler = Scheduler::kTaskGraph;
  config.summagen_options.bcast_panel_rows = 48;
  config.fault_detect_s = 1e-4;
  return config;
}

device::DriftEvent step_drift(int rank, double at, double factor) {
  device::DriftEvent e;
  e.kind = device::DriftKind::kStep;
  e.rank = rank;
  e.at_vtime = at;
  e.factor = factor;
  return e;
}

TEST(DriftRuns, UnmanagedDriftStretchesTimeButStaysCorrect) {
  auto config = drift_config();
  const double t0 = run_pmm(config).exec_time_s;
  ASSERT_GT(t0, 0.0);
  config.drift.events.push_back(step_drift(1, 0.0, 3.0));
  const auto res = run_pmm(config);
  EXPECT_TRUE(res.verified) << "max_abs_error=" << res.max_abs_error;
  EXPECT_GT(res.exec_time_s, t0);
  EXPECT_TRUE(res.repartitions.empty());  // detection is opt-in
}

TEST(DriftRuns, OnlineRepartitionVerifiesAndRecordsTheEvent) {
  auto config = drift_config();
  config.drift.events.push_back(step_drift(1, 0.0, 3.0));
  config.repartition.enabled = true;
  const auto res = run_pmm(config);
  EXPECT_TRUE(res.verified) << "max_abs_error=" << res.max_abs_error;
  ASSERT_GE(res.repartitions.size(), 1u);
  const auto& ev = res.repartitions[0];
  EXPECT_EQ(ev.epoch, 1);
  EXPECT_EQ(ev.trigger_rank, 1);  // the drifting rank detects first
  EXPECT_GE(ev.trigger_vtime, 0.0);
  ASSERT_EQ(ev.measured_speeds.size(), 3u);
  // The victim's corrected weight drops well below its static weight 2.
  EXPECT_LT(ev.measured_speeds[1], 1.0);
  EXPECT_GE(ev.redone_cells, 0);
  EXPECT_GE(ev.redone_area, 0);
  EXPECT_LE(static_cast<int>(res.repartitions.size()),
            config.repartition.max_repartitions);
}

TEST(DriftRuns, OnlineBeatsStaticUnderSustainedSlowdown) {
  auto config = drift_config();
  config.numeric = false;
  config.n = 1536;
  config.drift.events.push_back(step_drift(1, 0.0, 3.0));
  const double static_time = run_pmm(config).exec_time_s;
  config.repartition.enabled = true;
  config.repartition.max_repartitions = 1;
  const auto res = run_pmm(config);
  ASSERT_GE(res.repartitions.size(), 1u);
  EXPECT_LT(res.exec_time_s, static_time);
}

TEST(DriftRuns, AdaptiveRunWithoutDriftHasBoundedOverhead) {
  auto config = drift_config();
  const auto plain = run_pmm(config);
  config.repartition.enabled = true;
  const auto adaptive = run_pmm(config);
  EXPECT_TRUE(adaptive.verified);
  EXPECT_TRUE(adaptive.repartitions.empty());
  // The armed detector is observation-only; the only modeled cost a clean
  // adaptive run pays is the single commit-gate barrier every
  // fault-tolerant run charges (trace::barrier_cost, tens of microseconds).
  EXPECT_GE(adaptive.exec_time_s, plain.exec_time_s);
  EXPECT_LE(adaptive.exec_time_s, plain.exec_time_s + 1e-3);
}

TEST(DriftRuns, BudgetBoundsThrashingRepartitions) {
  auto config = drift_config();
  // Persistent drift keeps re-confirming against the static model; the
  // budget must cap the rounds.
  config.drift.events.push_back(step_drift(1, 0.0, 4.0));
  config.repartition.enabled = true;
  config.repartition.max_repartitions = 1;
  const auto res = run_pmm(config);
  EXPECT_TRUE(res.verified) << "max_abs_error=" << res.max_abs_error;
  EXPECT_EQ(res.repartitions.size(), 1u);
}

TEST(DriftRuns, DeterministicAcrossRepeatedRuns) {
  for (Scheduler scheduler : {Scheduler::kEager, Scheduler::kTaskGraph}) {
    auto config = drift_config();
    config.summagen_options.scheduler = scheduler;
    // Eager fuses each cell into one step; arm the detector accordingly.
    config.repartition.enabled = true;
    config.repartition.warmup_steps = 1;
    config.repartition.hysteresis = 2;
    config.drift.events.push_back(step_drift(1, 0.0, 3.0));
    const auto a = run_pmm(config);
    const auto b = run_pmm(config);
    EXPECT_TRUE(a.verified) << to_string(scheduler);
    EXPECT_TRUE(b.verified) << to_string(scheduler);
    EXPECT_EQ(a.exec_time_s, b.exec_time_s) << to_string(scheduler);
    ASSERT_EQ(a.repartitions.size(), b.repartitions.size())
        << to_string(scheduler);
    for (std::size_t i = 0; i < a.repartitions.size(); ++i) {
      EXPECT_EQ(a.repartitions[i].epoch, b.repartitions[i].epoch);
      EXPECT_EQ(a.repartitions[i].trigger_rank,
                b.repartitions[i].trigger_rank);
      EXPECT_EQ(a.repartitions[i].trigger_vtime,
                b.repartitions[i].trigger_vtime);
      EXPECT_EQ(a.repartitions[i].redone_cells,
                b.repartitions[i].redone_cells);
      EXPECT_EQ(a.repartitions[i].redone_area,
                b.repartitions[i].redone_area);
      EXPECT_EQ(a.repartitions[i].family, b.repartitions[i].family);
      EXPECT_EQ(a.repartitions[i].measured_speeds,
                b.repartitions[i].measured_speeds);
    }
  }
}

// A crash landing while a drift-triggered re-partition is being handled
// must still shrink and verify — under every scheduler.
TEST(DriftRuns, CrashDuringDriftRepartitionRecovers) {
  for (Scheduler scheduler : {Scheduler::kEager, Scheduler::kTaskGraph}) {
    auto config = drift_config();
    config.summagen_options.scheduler = scheduler;
    config.repartition.enabled = true;
    config.repartition.warmup_steps = 1;
    config.repartition.hysteresis = 2;
    config.drift.events.push_back(step_drift(1, 0.0, 3.0));
    const auto baseline = run_pmm(config);
    ASSERT_GE(baseline.repartitions.size(), 1u) << to_string(scheduler);
    const double trigger = baseline.repartitions[0].trigger_vtime;
    config.faults.events.push_back({sgmpi::FaultKind::kCrash, /*rank=*/2,
                                    /*at_vtime=*/trigger + 1e-6});
    const auto res = run_pmm(config);
    EXPECT_TRUE(res.verified)
        << to_string(scheduler) << " max_abs_error=" << res.max_abs_error;
    EXPECT_GE(res.recoveries, 1) << to_string(scheduler);
  }
}

}  // namespace
}  // namespace summagen::core
