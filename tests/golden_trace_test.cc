// Golden-trace regression suite: a canned 200-coflow Facebook-style trace
// (tests/data/golden_200.trace, generated once with
// `aalo_tracegen --kind fb --jobs 200 --ports 40 --seed 4242`) replayed
// under ten schedulers, with average and p95 CCT pinned to 17
// significant digits. Any change to scheduler arithmetic, the event
// engine, or trace parsing that shifts a completion time by more than
// 1e-9 (relative) fails here — the whole build uses -ffp-contract=off so
// the pins hold across build types and sanitizer presets.
//
// To regenerate after an *intentional* behavior change, run the suite
// with AALO_PRINT_GOLDEN=1 and paste the printed table.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "sched/catalog.h"
#include "sim/simulator.h"
#include "util/stats.h"
#include "workload/trace_io.h"

#ifndef AALO_TEST_DATA_DIR
#error "AALO_TEST_DATA_DIR must point at tests/data"
#endif

namespace aalo {
namespace {

struct GoldenRow {
  const char* scheduler;
  double avg_cct;
  double p95_cct;
};

// Pinned on the seed build (see header comment for regeneration). Rows
// name schedulers as the catalogue does (sched/catalog.h).
constexpr GoldenRow kGolden[] = {
    {"aalo", 4.4955040551873768, 22.881402995937474},
    {"fair", 6.0374573147352715, 32.933152432343739},
    {"varys", 3.6908135518936405, 20.119416646283426},
    {"fifo-lm", 10.915010822223874, 30.528219939735365},
    {"las", 6.4864594029344014, 38.462545230646569},
    // Deadline-free trace: dcoflow admits everything and degenerates to
    // its deterministic (release, id) sigma-order — these pins guard that
    // degenerate ordering as much as the arithmetic.
    {"sampling", 6.8978754383480716, 27.91557088935755},
    {"dcoflow", 10.788313616979684, 23.424693419741548},
    // Per-port D-CLAS on local bytes / on Push-Sum estimates, and plain
    // FIFO, which no other pin covers.
    {"uncoordinated", 5.8211082428034624, 28.611353090983688},
    {"gossip", 5.7233690601397118, 27.896031006632651},
    {"fifo", 179.23529198420084, 328.50698841214364},
};

TEST(GoldenTrace, PinnedCctPerScheduler) {
  const std::string path = std::string(AALO_TEST_DATA_DIR) + "/golden_200.trace";
  const coflow::Workload wl = workload::readTraceFile(path);
  ASSERT_EQ(wl.coflowCount(), 200u);
  ASSERT_EQ(wl.num_ports, 40);

  const bool print = std::getenv("AALO_PRINT_GOLDEN") != nullptr;
  for (const GoldenRow& row : kGolden) {
    auto scheduler = sched::makeScheduler(row.scheduler, wl);
    const sim::SimResult result = sim::runSimulation(
        wl, fabric::FabricConfig{wl.num_ports, util::kGbps}, *scheduler);
    ASSERT_EQ(result.coflows.size(), 200u) << row.scheduler;
    util::Summary cct;
    for (const auto& rec : result.coflows) cct.add(rec.cct());
    if (print) {
      std::printf("    {\"%s\", %.17g, %.17g},\n", row.scheduler, cct.mean(),
                  cct.percentile(95));
      continue;
    }
    const double tol_avg = 1e-9 * row.avg_cct;
    const double tol_p95 = 1e-9 * row.p95_cct;
    EXPECT_NEAR(cct.mean(), row.avg_cct, tol_avg) << row.scheduler;
    EXPECT_NEAR(cct.percentile(95), row.p95_cct, tol_p95) << row.scheduler;
    if (std::string(row.scheduler) == "dcoflow") {
      // Deadline-free input: admission control must be inert.
      EXPECT_EQ(result.rejected_coflows, 0u);
      EXPECT_EQ(result.deadline_coflows, 0u);
    }
  }
}

struct DeadlineGoldenRow {
  const char* scheduler;
  double avg_cct;
  double p95_cct;
  std::size_t deadline_misses;
  std::size_t rejected;
};

// Deadlined companion trace (tests/data/golden_deadline_50.trace,
// generated once with `aalo_tracegen --kind fb --jobs 50 --ports 40
// --seed 4242 --deadline-slack 0.5`). Pins the miss and rejection
// *counts* exactly — admission decisions are discrete, so any drift in
// the sigma-order bound shows up here before it moves a CCT pin.
constexpr DeadlineGoldenRow kDeadlineGolden[] = {
    {"aalo", 2.6138658650072886, 17.326170575280887, 27, 0},
    {"sampling", 4.1396524021556989, 19.315922712439644, 26, 0},
    {"dcoflow", 2.261546477190846, 12.095779790810038, 4, 1},
};

TEST(GoldenTrace, PinnedDeadlineTrace) {
  const std::string path =
      std::string(AALO_TEST_DATA_DIR) + "/golden_deadline_50.trace";
  const coflow::Workload wl = workload::readTraceFile(path);
  ASSERT_EQ(wl.coflowCount(), 50u);
  std::size_t deadlined = 0;
  for (const auto& job : wl.jobs) {
    for (const auto& c : job.coflows) deadlined += c.deadline > 0 ? 1 : 0;
  }
  ASSERT_EQ(deadlined, 50u) << "trace lost its dl= attributes";

  const bool print = std::getenv("AALO_PRINT_GOLDEN") != nullptr;
  for (const DeadlineGoldenRow& row : kDeadlineGolden) {
    auto scheduler = sched::makeScheduler(row.scheduler, wl);
    const sim::SimResult result = sim::runSimulation(
        wl, fabric::FabricConfig{wl.num_ports, util::kGbps}, *scheduler);
    ASSERT_EQ(result.coflows.size(), 50u) << row.scheduler;
    ASSERT_EQ(result.deadline_coflows, 50u) << row.scheduler;
    util::Summary cct;
    for (const auto& rec : result.coflows) cct.add(rec.cct());
    if (print) {
      std::printf("    {\"%s\", %.17g, %.17g, %zu, %zu},\n", row.scheduler,
                  cct.mean(), cct.percentile(95), result.deadline_misses,
                  result.rejected_coflows);
      continue;
    }
    EXPECT_NEAR(cct.mean(), row.avg_cct, 1e-9 * row.avg_cct) << row.scheduler;
    EXPECT_NEAR(cct.percentile(95), row.p95_cct, 1e-9 * row.p95_cct)
        << row.scheduler;
    EXPECT_EQ(result.deadline_misses, row.deadline_misses) << row.scheduler;
    EXPECT_EQ(result.rejected_coflows, row.rejected) << row.scheduler;
  }
}

}  // namespace
}  // namespace aalo
