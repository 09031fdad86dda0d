// Property suite for the scheduler zoo (ctest label: sched).
//
// Three families of invariants pin the new baselines:
//  1. Sampling: probe-based size estimates converge to the true sizes as
//     the probe fraction approaches 1 (and are *exact* at 1.0 — every
//     flow is a probe, and a finished flow's attained service is its
//     size).
//  2. DCoflow: the admission log never contains an admitted coflow whose
//     sigma-order completion bound exceeded its deadline at decision
//     time, deadline-free coflows are never rejected, and rejection never
//     prevents a run from terminating.
//  3. LP bound: the offline lower bound (sched/lp_bound.h) never exceeds
//     any live scheduler's achieved total CCT, across 200 fuzzed traces
//     with barriers, pipelines, multi-wave offsets, and deadlines.
//  4. Catalogue: every name in sched/catalog.h builds a scheduler that
//     finishes the deadlined golden trace at or above the LP bound.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sched/catalog.h"
#include "sched/dclas.h"
#include "sched/dcoflow.h"
#include "sched/fair.h"
#include "sched/las.h"
#include "sched/lp_bound.h"
#include "sched/sampling.h"
#include "sched/varys.h"
#include "sim/simulator.h"
#include "tests/helpers.h"
#include "util/rng.h"
#include "workload/deadlines.h"
#include "workload/facebook.h"
#include "workload/trace_io.h"

#ifndef AALO_TEST_DATA_DIR
#error "AALO_TEST_DATA_DIR must point at tests/data"
#endif

namespace aalo {
namespace {

// ---------------------------------------------------------------------------
// 1. Sampling estimate convergence
// ---------------------------------------------------------------------------

/// Mean relative estimate error over a run's finished coflows; coflows
/// that finished before their estimate matured count as fully wrong
/// (error 1) — probing that never converges must not look good.
double meanEstimateError(const std::vector<sched::SamplingEstimate>& log) {
  if (log.empty()) return 0;
  double total = 0;
  for (const sched::SamplingEstimate& f : log) {
    if (!f.mature || f.actual <= 0) {
      total += 1.0;
    } else {
      total += std::fabs(f.estimated - f.actual) / f.actual;
    }
  }
  return total / static_cast<double>(log.size());
}

TEST(SchedProperty, SamplingEstimatesConvergeWithProbeFraction) {
  workload::FacebookConfig cfg;
  cfg.num_jobs = 40;
  cfg.num_ports = 12;
  cfg.seed = 11;
  cfg.mean_interarrival = 0.4;
  const coflow::Workload wl = workload::generateFacebookWorkload(cfg);

  const double fractions[] = {0.1, 0.3, 0.6, 1.0};
  std::vector<double> errors;
  for (const double fraction : fractions) {
    sched::SamplingConfig sc;
    sc.probe_fraction = fraction;
    sc.min_probes = 1;
    sc.quantum = 0.5;
    sched::SamplingScheduler scheduler(sc);
    const sim::SimResult result = sim::runSimulation(
        wl, fabric::FabricConfig{cfg.num_ports, util::kGbps}, scheduler);
    EXPECT_EQ(result.coflows.size(), wl.coflowCount());
    EXPECT_EQ(scheduler.finishLog().size(), wl.coflowCount());
    errors.push_back(meanEstimateError(scheduler.finishLog()));
  }
  // Fully probed => exact: every flow is a probe and completed probes
  // report their true size.
  EXPECT_LE(errors.back(), 1e-12);
  // More probes => better estimates (deterministic workload, so this is
  // a hard ordering, not a statistical one).
  for (std::size_t i = 1; i < errors.size(); ++i) {
    EXPECT_LE(errors[i], errors[i - 1] + 1e-12)
        << "probe fraction " << fractions[i] << " estimated worse than "
        << fractions[i - 1];
  }
  EXPECT_LT(errors.back(), errors.front());
}

// ---------------------------------------------------------------------------
// 2. DCoflow admission-control invariants
// ---------------------------------------------------------------------------

TEST(SchedProperty, DCoflowNeverAdmitsProvablyLateCoflows) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    workload::FacebookConfig cfg;
    cfg.num_jobs = 30;
    cfg.num_ports = 10;
    cfg.seed = seed;
    cfg.mean_interarrival = 0.3;
    cfg.deadline_slack = 0.6;
    const coflow::Workload wl = workload::generateFacebookWorkload(cfg);

    sched::DCoflowScheduler scheduler;
    const sim::SimResult result = sim::runSimulation(
        wl, fabric::FabricConfig{cfg.num_ports, util::kGbps}, scheduler);

    // Every coflow got exactly one decision, and the run terminated with
    // all of them completed (rejection demotes, it does not starve).
    EXPECT_EQ(scheduler.admissionLog().size(), wl.coflowCount()) << seed;
    EXPECT_EQ(result.coflows.size(), wl.coflowCount()) << seed;

    std::size_t rejected = 0;
    for (const sched::AdmissionDecision& d : scheduler.admissionLog()) {
      if (d.admitted) {
        // The admission test itself: an admitted deadlined coflow's
        // sigma-order bound respected its deadline at decision time.
        if (d.deadline_abs < sim::kInfTime) {
          EXPECT_LE(d.bound, d.deadline_abs + 1e-6)
              << "seed " << seed << " coflow " << d.id.toString();
        }
      } else {
        ++rejected;
        // Deadline-free coflows sort last in sigma-order and can push
        // nobody — rejecting one is always a bug.
        EXPECT_LT(d.deadline_abs, sim::kInfTime)
            << "seed " << seed << " rejected deadline-free coflow";
      }
    }
    EXPECT_EQ(result.rejected_coflows, rejected) << seed;
    EXPECT_EQ(scheduler.rejectedCoflows(), rejected) << seed;
  }
}

// Deterministic two-coflow overload: both want the same port and the same
// deadline; sigma-order admits the first and must reject the second.
TEST(SchedProperty, DCoflowRejectsTheCoflowThatCannotFit) {
  coflow::JobSpec job;
  job.id = 0;
  job.arrival = 0;
  for (int c = 0; c < 2; ++c) {
    coflow::CoflowSpec spec;
    spec.id = {0, c};
    spec.deadline = 10.05;  // Isolated time is 10 s at unit capacity.
    spec.flows.push_back(coflow::FlowSpec{0, 1, 10.0, 0.0});
    job.coflows.push_back(std::move(spec));
  }
  const coflow::Workload wl =
      testing::makeWorkload(3, std::vector<coflow::JobSpec>{job});

  sched::DCoflowScheduler scheduler;
  const sim::SimResult result =
      sim::runSimulation(wl, testing::unitFabric(3), scheduler);

  ASSERT_EQ(scheduler.admissionLog().size(), 2u);
  EXPECT_TRUE(scheduler.admissionLog()[0].admitted);
  EXPECT_FALSE(scheduler.admissionLog()[1].admitted);
  EXPECT_EQ(result.rejected_coflows, 1u);
  EXPECT_EQ(result.deadline_coflows, 2u);
  // The admitted coflow makes its deadline; the rejected one runs in the
  // background afterwards, missing its deadline but still completing.
  EXPECT_EQ(result.deadline_misses, 1u);
  ASSERT_EQ(result.coflows.size(), 2u);
  EXPECT_GT(result.makespan, 19.0);  // Background service actually ran.
}

// ---------------------------------------------------------------------------
// 3. LP bound soundness on fuzzed traces
// ---------------------------------------------------------------------------

/// Small randomized workload exercising everything the bound must stay
/// sound against: barriers (unknown releases), pipelines (finish
/// adjustment), multi-wave start offsets, and deadlines (admission
/// rejection inflates CCTs — the bound must stay below even those runs).
coflow::Workload fuzzWorkload(std::uint64_t seed) {
  util::Rng rng(seed);
  const int ports = static_cast<int>(rng.uniformInt(3, 6));
  const int jobs = static_cast<int>(rng.uniformInt(2, 5));
  std::vector<coflow::JobSpec> out;
  for (int j = 0; j < jobs; ++j) {
    coflow::JobSpec job;
    job.id = j;
    job.arrival = rng.uniform(0, 4);
    const int coflows = static_cast<int>(rng.uniformInt(1, 3));
    for (int c = 0; c < coflows; ++c) {
      coflow::CoflowSpec spec;
      spec.id = {j, c};
      if (rng.chance(0.3)) spec.arrival_offset = rng.uniform(0, 2);
      const int flows = static_cast<int>(rng.uniformInt(1, 5));
      for (int f = 0; f < flows; ++f) {
        spec.flows.push_back(coflow::FlowSpec{
            static_cast<coflow::PortId>(rng.uniformInt(0, ports - 1)),
            static_cast<coflow::PortId>(rng.uniformInt(0, ports - 1)),
            rng.uniform(0.5, 20.0), rng.chance(0.3) ? rng.uniform(0.5, 3.0) : 0.0});
      }
      if (c > 0 && rng.chance(0.4)) {
        spec.starts_after.push_back(coflow::CoflowId{j, c - 1});
      } else if (c > 0 && rng.chance(0.4)) {
        spec.finishes_before.push_back(coflow::CoflowId{j, c - 1});
      }
      job.coflows.push_back(std::move(spec));
    }
    out.push_back(std::move(job));
  }
  coflow::Workload wl = testing::makeWorkload(ports, std::move(out));
  if (rng.chance(0.5)) {
    workload::DeadlineConfig dl;
    dl.slack = rng.uniform(0.2, 1.5);
    dl.seed = seed;
    dl.port_capacity = 1.0;  // Unit fabric below.
    workload::assignDeadlines(wl, dl);
  }
  return wl;
}

std::vector<std::unique_ptr<sim::Scheduler>> boundCheckedSchedulers() {
  std::vector<std::unique_ptr<sim::Scheduler>> out;
  out.push_back(std::make_unique<sched::DClasScheduler>());
  out.push_back(std::make_unique<sched::PerFlowFairScheduler>());
  out.push_back(std::make_unique<sched::VarysScheduler>());
  sched::LasConfig las_cfg;
  las_cfg.quantum = 0.5;
  out.push_back(std::make_unique<sched::DecentralizedLasScheduler>(las_cfg));
  sched::SamplingConfig sampling_cfg;
  sampling_cfg.min_probes = 1;
  sampling_cfg.quantum = 0.5;
  out.push_back(std::make_unique<sched::SamplingScheduler>(sampling_cfg));
  out.push_back(std::make_unique<sched::DCoflowScheduler>());
  return out;
}

TEST(SchedProperty, LpBoundNeverExceedsAchievedTotalCct) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const coflow::Workload wl = fuzzWorkload(9000 + seed);
    const fabric::FabricConfig fc =
        testing::unitFabric(wl.num_ports);
    const sched::LpBoundResult bound = sched::computeCctLowerBound(wl, fc);
    EXPECT_GE(bound.total_cct, 0.0);
    EXPECT_GE(bound.total_cct, bound.isolation_total - 1e-12);

    for (const auto& scheduler : boundCheckedSchedulers()) {
      const sim::SimResult result = sim::runSimulation(wl, fc, *scheduler);
      const double achieved = result.totalCct();
      // The engine's event batching (util::kEps) can shave O(eps) per
      // coflow off a CCT; anything beyond that is a soundness bug in the
      // bound.
      EXPECT_GE(achieved, bound.total_cct * (1.0 - 1e-9) - 1e-6)
          << "seed " << seed << " scheduler " << scheduler->name()
          << " achieved " << achieved << " < bound " << bound.total_cct;
    }
  }
}

// ---------------------------------------------------------------------------
// 4. Scheduler catalogue
// ---------------------------------------------------------------------------

// aalo_sim --lp-check for every catalogue name, not only the few the CI
// smoke passes: each scheduler finishes every coflow of the deadlined
// golden trace, and none beats the LP lower bound.
TEST(SchedulerCatalog, EveryNameFinishesAboveLpBound) {
  const coflow::Workload wl = workload::readTraceFile(
      std::string(AALO_TEST_DATA_DIR) + "/golden_deadline_50.trace");
  const fabric::FabricConfig fc{wl.num_ports, util::kGbps};
  const sched::LpBoundResult bound = sched::computeCctLowerBound(wl, fc);
  ASSERT_GT(bound.total_cct, 0.0);

  const std::vector<std::string_view> names = sched::schedulerNames();
  EXPECT_EQ(names.size(), 15u);
  for (const std::string_view name : names) {
    const auto scheduler = sched::makeScheduler(name, wl);
    const sim::SimResult result = sim::runSimulation(wl, fc, *scheduler);
    ASSERT_EQ(result.coflows.size(), wl.coflowCount()) << name;
    for (const auto& rec : result.coflows) {
      EXPECT_TRUE(std::isfinite(rec.finish) && rec.finish >= rec.release) << name;
    }
    EXPECT_GE(result.totalCct(), bound.total_cct * (1.0 - 1e-6)) << name;
  }
  EXPECT_THROW(sched::makeScheduler("no-such-scheduler", wl), std::invalid_argument);
}

}  // namespace
}  // namespace aalo
