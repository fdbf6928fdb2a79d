// Run-to-run determinism: every rank is a fiber resumed in rank order, so a
// run is a pure function of its configuration. Fault runs in particular
// must repeat bit for bit: which cells a rank finished before a crash, when
// each survivor detected it and where the shrink agreed are all decided in
// virtual time, never by which rank the host happened to run first.
//
// Each configuration runs three times and every run is reduced to a
// fingerprint of its timing, verify and fault-lifecycle doubles printed
// with %a, so a mismatch names the first differing bit pattern.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/runner.hpp"
#include "src/partition/nrrp.hpp"

namespace summagen {
namespace {

using core::ExperimentConfig;
using core::ExperimentResult;
using core::Scheduler;
using partition::Shape;

constexpr int kRepeats = 3;

std::string fingerprint(const ExperimentResult& r) {
  std::string out;
  const auto add = [&out](const char* name, const std::vector<double>& xs) {
    out += name;
    char buf[32];
    for (const double x : xs) {
      std::snprintf(buf, sizeof(buf), " %a", x);
      out += buf;
    }
    out += "; ";
  };
  add("exec/comp/comm/hidden", {r.exec_time_s, r.comp_time_s,
                                r.comm_time_s, r.hidden_comm_time_s});
  add("rank_exec", r.rank_exec_s);
  add("rank_comp", r.rank_comp_s);
  add("rank_comm", r.rank_comm_s);
  add("rank_idle", r.rank_idle_s);
  add("rank_hidden", r.rank_hidden_s);
  add("recoveries/max_abs_error",
      {static_cast<double>(r.recoveries), r.max_abs_error});
  for (const sgmpi::FaultRecord& f : r.fault_records) {
    add("trigger/first_detect/handled",
        {f.trigger_vtime, f.first_detect_vtime, f.handled_vtime});
  }
  return out;
}

/// Runs `config` kRepeats times; every run must verify (numeric plane) and
/// print the same fingerprint as the first.
void expect_repeatable(const ExperimentConfig& config,
                       const std::string& label) {
  std::string first;
  for (int run = 0; run < kRepeats; ++run) {
    const ExperimentResult result = core::run_pmm(config);
    if (config.numeric) {
      EXPECT_TRUE(result.verified) << label << " run " << run;
    }
    const std::string print = fingerprint(result);
    if (run == 0) {
      first = print;
    } else {
      EXPECT_EQ(print, first) << label << " run " << run;
    }
  }
}

class RepeatedFaultRuns : public ::testing::TestWithParam<Shape> {};

TEST_P(RepeatedFaultRuns, AreBitIdentical) {
  const Shape shape = GetParam();
  // A crash mid-run and at the first operation, a compute slowdown that
  // forces a re-partition, and a link slowdown that only reprices.
  const char* const plans[] = {"crash@0.0005:1", "crash@0:1",
                               "slow@0.0004:2x4", "link@0:0x2"};
  for (const Scheduler sched : {Scheduler::kEager, Scheduler::kTaskGraph}) {
    for (const char* plan : plans) {
      ExperimentConfig config;
      config.platform = device::Platform::hclserver1();
      config.n = 512;
      config.shape = shape;
      config.cpm_speeds = {1.0, 2.0, 0.9};
      config.numeric = true;
      config.summagen_options.scheduler = sched;
      config.faults = sgmpi::parse_fault_plan(plan);
      expect_repeatable(config, std::string(partition::shape_name(shape)) +
                                    " " + core::to_string(sched) + " " +
                                    plan);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RepeatedFaultRuns,
    ::testing::Values(Shape::kSquareCorner, Shape::kSquareRectangle,
                      Shape::kBlockRectangle, Shape::kOneDimensional),
    [](const auto& param_info) {
      return std::string(partition::shape_name(param_info.param));
    });

// Four homogeneous nodes of four ranks on an NRRP layout: subgroup
// communicators and inter-node pricing on the modeled plane.
TEST(RepeatedClusterRuns, MultiNodeTimelineIsBitIdentical) {
  const std::int64_t n = 1024;
  const trace::HockneyParams net{20.0e-6, 1.0 / 1.0e9};
  ExperimentConfig config;
  config.platform =
      device::Platform::cluster(device::Platform::homogeneous(4), 4, net);
  config.n = n;
  config.preset_spec = partition::nrrp_partition(
      n, partition::partition_areas_cpm(n * n, std::vector<double>(16, 1.0)));
  expect_repeatable(config, "nrrp p=16");
}

// A crash near the end of a 64-rank NRRP dataflow run (fault-free 12.2 s):
// the survivors re-schedule a heavily pruned graph, which the ranks of the
// recovery phase share.
TEST(RepeatedClusterRuns, LateCrashTimelineIsBitIdentical) {
  ExperimentConfig config;
  config.platform =
      device::Platform::cluster(device::Platform::homogeneous(4), 16);
  config.n = 30720;
  config.summagen_options.scheduler = Scheduler::kTaskGraph;
  config.preset_spec = partition::nrrp_partition(
      config.n, partition::partition_areas_cpm(config.n * config.n,
                                               std::vector<double>(64, 1.0)));
  config.faults = sgmpi::parse_fault_plan("crash@11.5:3");
  ASSERT_EQ(core::run_pmm(config).recoveries, 1);
  expect_repeatable(config, "nrrp p=64 crash@11.5:3");
}

}  // namespace
}  // namespace summagen
