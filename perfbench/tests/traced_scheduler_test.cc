// The forwarding wrapper must be invisible to the engine: replaying the
// golden trace through it gives a bit-identical SimResult.
#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "sim/simulator.h"
#include "sim_workload.h"
#include "traced_scheduler.h"
#include "workload/trace_io.h"

namespace perfbench {
namespace {

aalo::sim::SimResult replay(const aalo::coflow::Workload& wl, aalo::sim::Scheduler& s) {
  return aalo::sim::runSimulation(
      wl, aalo::fabric::FabricConfig{wl.num_ports, aalo::util::kGbps}, s);
}

void expectBitIdentical(const aalo::sim::SimResult& bare,
                        const aalo::sim::SimResult& traced) {
  EXPECT_EQ(bare.scheduler, traced.scheduler);
  EXPECT_EQ(bare.allocation_rounds, traced.allocation_rounds);
  EXPECT_EQ(bare.allocate_calls, traced.allocate_calls);
  EXPECT_EQ(bare.reused_allocations, traced.reused_allocations);
  EXPECT_EQ(bare.heap_rebuilds, traced.heap_rebuilds);
  EXPECT_EQ(bare.events_processed, traced.events_processed);
  EXPECT_EQ(bare.heap_rekeys, traced.heap_rekeys);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(bare.makespan),
            std::bit_cast<std::uint64_t>(traced.makespan));
  ASSERT_EQ(bare.coflows.size(), traced.coflows.size());
  for (std::size_t i = 0; i < bare.coflows.size(); ++i) {
    EXPECT_EQ(bare.coflows[i].id, traced.coflows[i].id);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(bare.coflows[i].finish),
              std::bit_cast<std::uint64_t>(traced.coflows[i].finish))
        << "coflow " << i;
  }
}

class TracedSchedulerTest : public ::testing::TestWithParam<SimDiscipline> {};

TEST_P(TracedSchedulerTest, GoldenTraceReplayIsBitIdentical) {
  const auto wl =
      aalo::workload::readTraceFile(std::string(PERFBENCH_TEST_DATA_DIR) + "/golden_200.trace");
  auto bare_sched = makeScheduler(GetParam());
  const aalo::sim::SimResult bare = replay(wl, *bare_sched);

  auto inner = makeScheduler(GetParam());
  SchedTimes times;
  SpanTrace spans(1000);
  TracedScheduler wrapper(*inner, times, &spans);
  wrapper.sampleDemands(10, 5);
  const aalo::sim::SimResult traced = replay(wl, wrapper);

  expectBitIdentical(bare, traced);
  // The wrapper saw every allocation and every round.
  EXPECT_EQ(times.allocate_calls, traced.allocate_calls);
  EXPECT_EQ(times.allocate_us.size(), traced.allocate_calls);
  EXPECT_EQ(times.rounds, traced.allocation_rounds);
  EXPECT_GT(times.totalSeconds(), 0);
  EXPECT_EQ(wrapper.demandSamples().size(), std::min<std::size_t>(5, traced.allocate_calls / 10));
  EXPECT_EQ(spans.size(), 1000u);
  EXPECT_GT(spans.dropped(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Disciplines, TracedSchedulerTest,
                         ::testing::Values(SimDiscipline::kDClas, SimDiscipline::kFifo),
                         [](const auto& info) {
                           return info.param == SimDiscipline::kDClas ? std::string("aalo")
                                                                      : std::string("fifo");
                         });

}  // namespace
}  // namespace perfbench
