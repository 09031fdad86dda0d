// Trace I/O round-trip fuzz: 500 seeded random workloads — multi-wave
// flows, DAG dependencies, extreme sizes, fractional times — serialized,
// parsed back, and serialized again. The two texts must be byte-identical
// (writeTrace emits full round-trip precision, so parse ∘ format is the
// identity on the second pass), and the parsed workload must survive
// validation. Zero/negative-byte flows stay rejected: serializing one and
// reading it back throws, consistent with Workload::validate().
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "coflow/spec.h"
#include "sched/dclas.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/trace_io.h"

namespace aalo {
namespace {

coflow::Workload randomWorkload(std::uint64_t seed) {
  util::Rng rng(seed);
  coflow::Workload wl;
  wl.num_ports = static_cast<int>(rng.uniformInt(2, 64));
  const int num_jobs = static_cast<int>(rng.uniformInt(1, 6));
  for (int j = 0; j < num_jobs; ++j) {
    coflow::JobSpec job;
    job.id = j + 1;
    job.arrival = rng.uniform(0.0, 1000.0);
    if (rng.uniformInt(0, 1) == 1) job.compute_time = rng.uniform(0.0, 30.0);
    const int num_coflows = static_cast<int>(rng.uniformInt(1, 4));
    for (int c = 0; c < num_coflows; ++c) {
      coflow::CoflowSpec spec;
      spec.id = coflow::CoflowId{job.id, c};
      spec.arrival_offset = rng.uniform(0.0, 5.0);
      // Deadlines on a third of coflows: fractional seconds that only
      // survive the round trip at full precision.
      if (rng.uniformInt(0, 2) == 0) spec.deadline = rng.uniform(0.01, 500.0);
      // DAG edges point at earlier coflows of the same job only, so the
      // workload always validates.
      for (int p = 0; p < c; ++p) {
        if (rng.uniformInt(0, 3) == 0) {
          spec.starts_after.push_back(coflow::CoflowId{job.id, p});
        } else if (rng.uniformInt(0, 3) == 0) {
          spec.finishes_before.push_back(coflow::CoflowId{job.id, p});
        }
      }
      const int waves = static_cast<int>(rng.uniformInt(1, 3));
      const int num_flows = static_cast<int>(rng.uniformInt(1, 8));
      for (int f = 0; f < num_flows; ++f) {
        coflow::FlowSpec flow;
        flow.src = static_cast<coflow::PortId>(
            rng.uniformInt(0, wl.num_ports - 1));
        flow.dst = static_cast<coflow::PortId>(
            rng.uniformInt(0, wl.num_ports - 1));
        // Log-uniform over 12 decades: single bytes up to terabytes.
        flow.bytes = std::pow(10.0, rng.uniform(0.0, 12.0));
        flow.start_offset =
            static_cast<double>(rng.uniformInt(0, waves - 1)) * 7.5;
        spec.flows.push_back(flow);
      }
      job.coflows.push_back(std::move(spec));
    }
    wl.jobs.push_back(std::move(job));
  }
  return wl;
}

TEST(TraceFuzz, WriteReadWriteIsByteIdentical) {
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    const coflow::Workload wl = randomWorkload(seed);
    ASSERT_NO_THROW(wl.validate()) << "seed " << seed;

    std::ostringstream first;
    workload::writeTrace(first, wl);
    std::istringstream parse_in(first.str());
    coflow::Workload parsed;
    ASSERT_NO_THROW(parsed = workload::readTrace(parse_in)) << "seed " << seed;

    ASSERT_EQ(parsed.num_ports, wl.num_ports) << "seed " << seed;
    ASSERT_EQ(parsed.jobs.size(), wl.jobs.size()) << "seed " << seed;
    ASSERT_EQ(parsed.coflowCount(), wl.coflowCount()) << "seed " << seed;

    std::ostringstream second;
    workload::writeTrace(second, parsed);
    ASSERT_EQ(first.str(), second.str()) << "round-trip drift at seed " << seed;
  }
}

TEST(TraceFuzz, ExactValuesSurviveRoundTrip) {
  // Spot-check exact doubles (not just text): totals and DAG shape.
  const coflow::Workload wl = randomWorkload(42);
  std::ostringstream os;
  workload::writeTrace(os, wl);
  std::istringstream is(os.str());
  const coflow::Workload parsed = workload::readTrace(is);
  ASSERT_EQ(parsed.jobs.size(), wl.jobs.size());
  EXPECT_EQ(parsed.totalBytes(), wl.totalBytes());
  for (std::size_t j = 0; j < wl.jobs.size(); ++j) {
    EXPECT_EQ(parsed.jobs[j].arrival, wl.jobs[j].arrival);
    EXPECT_EQ(parsed.jobs[j].compute_time, wl.jobs[j].compute_time);
    ASSERT_EQ(parsed.jobs[j].coflows.size(), wl.jobs[j].coflows.size());
    for (std::size_t c = 0; c < wl.jobs[j].coflows.size(); ++c) {
      const auto& a = wl.jobs[j].coflows[c];
      const auto& b = parsed.jobs[j].coflows[c];
      EXPECT_EQ(a.starts_after, b.starts_after);
      EXPECT_EQ(a.finishes_before, b.finishes_before);
      EXPECT_EQ(a.deadline, b.deadline);
      ASSERT_EQ(a.flows.size(), b.flows.size());
      for (std::size_t f = 0; f < a.flows.size(); ++f) {
        EXPECT_EQ(a.flows[f].bytes, b.flows[f].bytes);
        EXPECT_EQ(a.flows[f].start_offset, b.flows[f].start_offset);
      }
    }
  }
}

TEST(TraceFuzz, DeadlineFreeTracesCarryNoDlAttribute) {
  // Backward compatibility in the other direction: a workload without
  // deadlines must serialize byte-identically to the pre-deadline format
  // (dl= is only emitted when set), so old traces and old readers agree.
  coflow::Workload wl = randomWorkload(5);
  for (auto& job : wl.jobs) {
    for (auto& c : job.coflows) c.deadline = 0;
  }
  std::ostringstream os;
  workload::writeTrace(os, wl);
  EXPECT_EQ(os.str().find("dl="), std::string::npos);
}

TEST(TraceFuzz, NegativeDeadlinesStayRejected) {
  coflow::Workload wl = randomWorkload(9);
  wl.jobs.front().coflows.front().deadline = -1.0;
  EXPECT_THROW(wl.validate(), std::invalid_argument);
  // The writer never emits a non-positive deadline, so craft the text by
  // hand: the reader must reject it rather than resurrect it silently.
  coflow::Workload clean = randomWorkload(9);
  std::ostringstream os;
  workload::writeTrace(os, clean);
  std::string text = os.str();
  const auto pos = text.find("coflow ");
  ASSERT_NE(pos, std::string::npos);
  const auto eol = text.find('\n', pos);
  text.insert(eol, " dl=-1");
  std::istringstream is(text);
  EXPECT_ANY_THROW(workload::readTrace(is));
}

TEST(TraceFuzz, DeadlinesAreInertForDeadlineBlindSchedulers) {
  // A deadlined trace replayed under a pre-deadline scheduler must behave
  // exactly as if the dl= attributes were absent — the field only feeds
  // deadline-aware disciplines and the result counters.
  const coflow::Workload deadlined = randomWorkload(3);
  coflow::Workload stripped = deadlined;
  std::size_t with_deadline = 0;
  for (auto& job : stripped.jobs) {
    for (auto& c : job.coflows) {
      with_deadline += c.deadline > 0 ? 1 : 0;
      c.deadline = 0;
    }
  }
  ASSERT_GT(with_deadline, 0u) << "seed lost its deadlines";

  const fabric::FabricConfig fc{deadlined.num_ports, 1.0};
  sched::DClasScheduler a;
  sched::DClasScheduler b;
  const sim::SimResult with = sim::runSimulation(deadlined, fc, a);
  const sim::SimResult without = sim::runSimulation(stripped, fc, b);
  EXPECT_EQ(with.makespan, without.makespan);
  ASSERT_EQ(with.coflows.size(), without.coflows.size());
  for (std::size_t i = 0; i < with.coflows.size(); ++i) {
    EXPECT_EQ(with.coflows[i].finish, without.coflows[i].finish) << i;
    EXPECT_EQ(with.coflows[i].release, without.coflows[i].release) << i;
  }
  // Only the counters differ: the deadlined run reports misses.
  EXPECT_EQ(with.deadline_coflows, with_deadline);
  EXPECT_EQ(without.deadline_coflows, 0u);
  EXPECT_EQ(without.deadline_misses, 0u);
}

TEST(TraceFuzz, ZeroByteFlowsStayRejected) {
  // validate() rejects non-positive flows; the reader must agree rather
  // than resurrect them silently.
  coflow::Workload wl = randomWorkload(7);
  wl.jobs.front().coflows.front().flows.front().bytes = 0.0;
  EXPECT_THROW(wl.validate(), std::invalid_argument);
  std::ostringstream os;
  workload::writeTrace(os, wl);
  std::istringstream is(os.str());
  EXPECT_ANY_THROW(workload::readTrace(is));
}

// Counts on job and coflow lines are claims, not allocations: a line
// that claims 1e11 entries must end in the reader's typed rejection (the
// entries never follow), not in bad_alloc from reserving them.
TEST(TraceFuzz, HugeCoflowCountIsRejectedNotReserved) {
  std::istringstream is(
      "aalo-trace 1\nports 2\njob 0 0 0 100000000000\n"
      "coflow 0.0 0 1\nflow 0 1 5 0\n");
  EXPECT_THROW(workload::readTrace(is), std::runtime_error);
}

TEST(TraceFuzz, HugeFlowCountIsRejectedNotReserved) {
  std::istringstream is(
      "aalo-trace 1\nports 2\njob 0 0 0 1\n"
      "coflow 0.0 0 100000000000\nflow 0 1 5 0\n");
  EXPECT_THROW(workload::readTrace(is), std::runtime_error);
}

}  // namespace
}  // namespace aalo
