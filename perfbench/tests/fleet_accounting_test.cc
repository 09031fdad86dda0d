// Staleness, RPC-latency and failure accounting on synthetic timelines.
#include <gtest/gtest.h>

#include "fleet_accounting.h"

namespace perfbench {
namespace {

using aalo::coflow::CoflowId;

constexpr CoflowId kA{.external = 1, .internal = 0};
constexpr CoflowId kB{.external = 2, .internal = 0};

TEST(FleetAccountingTest, RpcLatencyCountsFromDueTime) {
  FleetAccounting acc(3, 0.020);
  acc.rpcSent(7, 1.000);
  acc.rpcSent(8, 1.001);
  EXPECT_TRUE(acc.rpcReplied(7, 1.0005));
  EXPECT_FALSE(acc.rpcReplied(7, 1.0006));  // Duplicate reply.
  EXPECT_FALSE(acc.rpcReplied(99, 1.0));    // Unknown request.
  const auto totals = acc.finish();
  EXPECT_EQ(totals.rpc_attempted, 2u);
  EXPECT_EQ(totals.rpc_failed, 1u);  // Request 8 never answered.
  ASSERT_EQ(totals.rpc_latency_s.size(), 1u);
  EXPECT_NEAR(totals.rpc_latency_s[0], 0.0005, 1e-12);
}

TEST(FleetAccountingTest, StalenessEndsWhenEveryConnectionHasTheQueue) {
  FleetAccounting acc(3, 0.020);
  acc.crossing(kA, 2, 10.000);
  acc.scheduleEntry(0, kA, 2, 10.004);
  acc.scheduleEntry(1, kA, 1, 10.005);  // Older queue: does not count.
  acc.scheduleEntry(1, kA, 3, 10.006);  // Past the crossed queue: counts.
  EXPECT_TRUE(acc.finish().staleness_s.empty());
  acc.scheduleEntry(2, kA, 2, 10.009);
  const auto totals = acc.finish();
  EXPECT_EQ(totals.crossings_attempted, 1u);
  EXPECT_EQ(totals.crossings_failed, 0u);
  ASSERT_EQ(totals.staleness_s.size(), 1u);
  EXPECT_NEAR(totals.staleness_s[0], 0.009, 1e-12);
}

TEST(FleetAccountingTest, LateOrMissingCrossingsFail) {
  FleetAccounting acc(2, 0.020);
  acc.crossing(kA, 1, 0.0);
  acc.crossing(kA, 2, 0.010);
  acc.scheduleEntry(0, kA, 2, 0.025);
  acc.scheduleEntry(1, kA, 2, 0.026);  // Resolves both: 26 ms late, 16 ms ok.
  acc.crossing(kB, 1, 0.030);          // Never reflected on connection 1.
  acc.scheduleEntry(0, kB, 1, 0.031);
  const auto totals = acc.finish();
  EXPECT_EQ(totals.crossings_attempted, 3u);
  EXPECT_EQ(totals.crossings_failed, 2u);
  EXPECT_EQ(totals.staleness_s.size(), 2u);
}

TEST(FleetAccountingTest, UnregisteredCoflowsAreNotCounted) {
  FleetAccounting acc(3, 0.020);
  acc.crossing(kA, 1, 0.0);
  acc.crossing(kB, 1, 0.0);
  acc.cancel(kA);
  acc.cancel(kA);  // Idempotent.
  for (std::size_t c = 0; c < 3; ++c) acc.scheduleEntry(c, kB, 1, 0.005);
  const auto totals = acc.finish();
  EXPECT_EQ(totals.crossings_attempted, 1u);
  EXPECT_EQ(totals.crossings_failed, 0u);
}

TEST(FleetAccountingTest, EpochsMustReachEveryConnection) {
  FleetAccounting acc(3, 0.020);
  for (std::size_t c = 0; c < 3; ++c) acc.epochReceived(c, 5);
  acc.epochReceived(0, 6);
  acc.epochReceived(2, 6);
  EXPECT_EQ(acc.incompleteEpochs(5, 5), 0u);
  EXPECT_EQ(acc.incompleteEpochs(5, 6), 1u);
  EXPECT_EQ(acc.incompleteEpochs(5, 7), 2u);  // Epoch 7 never arrived.
}

}  // namespace
}  // namespace perfbench
