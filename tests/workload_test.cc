#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "workload/distributions.h"
#include "workload/facebook.h"
#include "workload/tpcds.h"
#include "workload/trace_io.h"
#include "workload/transforms.h"
#include "sched/fair.h"
#include "sim/simulator.h"

namespace aalo::workload {
namespace {

using util::kMB;

TEST(Classify, Table3Bins) {
  EXPECT_EQ(classifyCoflow(1 * kMB, 10), CoflowBin::kShortNarrow);
  EXPECT_EQ(classifyCoflow(50 * kMB, 10), CoflowBin::kLongNarrow);
  EXPECT_EQ(classifyCoflow(1 * kMB, 200), CoflowBin::kShortWide);
  EXPECT_EQ(classifyCoflow(50 * kMB, 200), CoflowBin::kLongWide);
  // Boundary cases: exactly 5 MB is long; exactly 50 flows is narrow.
  EXPECT_EQ(classifyCoflow(kShortLengthLimit, 50), CoflowBin::kLongNarrow);
  EXPECT_EQ(classifyCoflow(1 * kMB, 51), CoflowBin::kShortWide);
}

TEST(IsolatedBottleneck, MaxOverPorts) {
  coflow::CoflowSpec spec;
  spec.flows = {{0, 1, 100.0, 0}, {0, 2, 50.0, 0}, {3, 1, 30.0, 0}};
  // Ingress 0 carries 150; egress 1 carries 130. Bottleneck 150 at rate 10.
  EXPECT_DOUBLE_EQ(isolatedBottleneckSeconds(spec, 10.0), 15.0);
}

class FacebookWorkload : public ::testing::Test {
 protected:
  static coflow::Workload make(std::uint64_t seed, std::size_t jobs = 400) {
    FacebookConfig cfg;
    cfg.seed = seed;
    cfg.num_jobs = jobs;
    return generateFacebookWorkload(cfg);
  }
};

TEST_F(FacebookWorkload, ValidatesAndIsDeterministic) {
  const auto a = make(5);
  EXPECT_NO_THROW(a.validate());
  const auto b = make(5);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  EXPECT_DOUBLE_EQ(a.totalBytes(), b.totalBytes());
  const auto c = make(6);
  EXPECT_NE(a.totalBytes(), c.totalBytes());
}

TEST_F(FacebookWorkload, MatchesTable3CoflowMix) {
  const auto wl = make(1, 2000);
  std::map<CoflowBin, int> counts;
  for (const auto& job : wl.jobs) {
    for (const auto& c : job.coflows) {
      counts[classifyCoflow(c.maxFlowBytes(), c.width())]++;
    }
  }
  const double n = static_cast<double>(wl.coflowCount());
  EXPECT_NEAR(counts[CoflowBin::kShortNarrow] / n, 0.52, 0.05);
  EXPECT_NEAR(counts[CoflowBin::kLongNarrow] / n, 0.16, 0.04);
  EXPECT_NEAR(counts[CoflowBin::kShortWide] / n, 0.15, 0.04);
  EXPECT_NEAR(counts[CoflowBin::kLongWide] / n, 0.17, 0.04);
}

TEST_F(FacebookWorkload, Bin4CarriesAlmostAllBytes) {
  const auto wl = make(2, 2000);
  std::map<CoflowBin, double> bytes;
  double total = 0;
  for (const auto& job : wl.jobs) {
    for (const auto& c : job.coflows) {
      bytes[classifyCoflow(c.maxFlowBytes(), c.width())] += c.totalBytes();
      total += c.totalBytes();
    }
  }
  // Paper: 99.1% of bytes in bin 4; bins 1-3 carry ~1%.
  EXPECT_GT(bytes[CoflowBin::kLongWide] / total, 0.90);
  EXPECT_LT(bytes[CoflowBin::kShortNarrow] / total, 0.01);
}

TEST_F(FacebookWorkload, ArrivalsAreIncreasing) {
  const auto wl = make(3);
  for (std::size_t j = 1; j < wl.jobs.size(); ++j) {
    EXPECT_GE(wl.jobs[j].arrival, wl.jobs[j - 1].arrival);
  }
}

TEST_F(FacebookWorkload, CommunicationFractionsSpreadAcrossTable2Bands) {
  const auto wl = make(4, 2000);
  // compute_time back-solved from a drawn fraction: all four bands occur.
  int bands[4] = {0, 0, 0, 0};
  for (const auto& job : wl.jobs) {
    const auto comm = isolatedBottleneckSeconds(job.coflows[0], util::kGbps);
    const double frac = comm / (comm + job.compute_time);
    bands[frac < 0.25 ? 0 : frac < 0.5 ? 1 : frac < 0.75 ? 2 : 3]++;
  }
  const double n = static_cast<double>(wl.jobs.size());
  EXPECT_NEAR(bands[0] / n, 0.61, 0.05);
  EXPECT_NEAR(bands[1] / n, 0.13, 0.04);
  EXPECT_NEAR(bands[2] / n, 0.14, 0.04);
  EXPECT_NEAR(bands[3] / n, 0.12, 0.04);
}

TEST(Tpcds, TwentyQueriesWithPaperNames) {
  const auto& queries = clouderaBenchmarkQueries();
  EXPECT_EQ(queries.size(), 20u);
  bool has_ss_max = false;
  for (const auto& q : queries) {
    EXPECT_GE(criticalPathLength(q), 1);
    EXPECT_LE(criticalPathLength(q), 5);
    if (q.name == "ss_max") has_ss_max = true;
  }
  EXPECT_TRUE(has_ss_max);
}

TEST(Tpcds, GeneratesValidDagWorkload) {
  TpcdsConfig cfg;
  const auto wl = generateTpcdsWorkload(cfg);
  EXPECT_NO_THROW(wl.validate());
  EXPECT_EQ(wl.jobs.size(), 20u);
  // Multi-level queries must carry pipelined dependencies.
  std::size_t with_deps = 0;
  for (const auto& job : wl.jobs) {
    for (const auto& c : job.coflows) {
      if (!c.finishes_before.empty()) ++with_deps;
      EXPECT_TRUE(c.starts_after.empty());  // Pipelined mode by default.
    }
  }
  EXPECT_GT(with_deps, 10u);
}

TEST(Tpcds, BarrierModeConvertsDependencies) {
  TpcdsConfig cfg;
  cfg.barriers_instead_of_pipelining = true;
  const auto wl = generateTpcdsWorkload(cfg);
  EXPECT_NO_THROW(wl.validate());
  for (const auto& job : wl.jobs) {
    for (const auto& c : job.coflows) {
      EXPECT_TRUE(c.finishes_before.empty());
    }
  }
}

TEST(Tpcds, ParentsHaveSmallerInternalIds) {
  const auto wl = generateTpcdsWorkload(TpcdsConfig{});
  for (const auto& job : wl.jobs) {
    std::map<coflow::CoflowId, const coflow::CoflowSpec*> by_id;
    for (const auto& c : job.coflows) by_id[c.id] = &c;
    for (const auto& c : job.coflows) {
      for (const auto& p : c.finishes_before) {
        EXPECT_EQ(p.external, c.id.external);
        EXPECT_LT(p.internal, c.id.internal);
      }
    }
  }
}

TEST(Distributions, UniformSizesStayInRange) {
  SizeDistributionConfig cfg;
  cfg.num_coflows = 200;
  const auto wl = generateUniformSizeWorkload(cfg, 100 * kMB);
  EXPECT_NO_THROW(wl.validate());
  for (const auto& job : wl.jobs) {
    EXPECT_LE(job.coflows[0].totalBytes(), 100 * kMB * 1.001);
  }
}

TEST(Distributions, FixedSizesAreExact) {
  SizeDistributionConfig cfg;
  cfg.num_coflows = 50;
  const auto wl = generateFixedSizeWorkload(cfg, 42 * kMB);
  for (const auto& job : wl.jobs) {
    EXPECT_NEAR(job.coflows[0].totalBytes(), 42 * kMB, 1.0);
  }
}

TEST(MultiWave, Table4Histogram) {
  FacebookConfig fb_cfg;
  fb_cfg.num_jobs = 2000;
  fb_cfg.seed = 9;
  auto wl = generateFacebookWorkload(fb_cfg);
  MultiWaveConfig mw;
  mw.max_waves = 4;
  const std::size_t changed = applyMultiWave(wl, mw);
  EXPECT_GT(changed, 0u);
  EXPECT_NO_THROW(wl.validate());
  const auto hist = waveHistogram(wl, 4);
  ASSERT_EQ(hist.size(), 4u);
  // Single-sender coflows can't be staggered, so 1-wave mass can exceed
  // the drawn 81% slightly.
  EXPECT_NEAR(hist[0], 0.81, 0.08);
  EXPECT_NEAR(hist[3], 0.06, 0.04);
}

TEST(MultiWave, MaxOneWaveIsIdentity) {
  FacebookConfig fb_cfg;
  fb_cfg.num_jobs = 50;
  auto wl = generateFacebookWorkload(fb_cfg);
  const auto before = wl.totalBytes();
  MultiWaveConfig mw;
  mw.max_waves = 1;
  EXPECT_EQ(applyMultiWave(wl, mw), 0u);
  EXPECT_DOUBLE_EQ(wl.totalBytes(), before);
  EXPECT_EQ(waveHistogram(wl, 1)[0], 1.0);
}

TEST(MultiWave, SplitPreservesBytesAndValidates) {
  FacebookConfig fb_cfg;
  fb_cfg.num_jobs = 300;
  fb_cfg.seed = 10;
  auto wl = generateFacebookWorkload(fb_cfg);
  MultiWaveConfig mw;
  mw.max_waves = 4;
  applyMultiWave(wl, mw);
  const auto split = splitWavesIntoCoflows(wl);
  EXPECT_NO_THROW(split.validate());
  EXPECT_NEAR(split.totalBytes(), wl.totalBytes(), 1.0);
  EXPECT_GE(split.coflowCount(), wl.coflowCount());
  // Every flow in the split workload starts with its coflow.
  for (const auto& job : split.jobs) {
    for (const auto& c : job.coflows) {
      for (const auto& f : c.flows) EXPECT_DOUBLE_EQ(f.start_offset, 0.0);
    }
  }
}

TEST(MultiWave, BarrierDelaysWholeCoflow) {
  coflow::Workload wl;
  wl.num_ports = 4;
  coflow::JobSpec job;
  job.id = 0;
  job.arrival = 1.0;
  coflow::CoflowSpec spec;
  spec.id = {0, 0};
  spec.flows = {{0, 1, 10.0, 0.0}, {2, 3, 10.0, 5.0}};
  job.coflows.push_back(spec);
  wl.jobs.push_back(job);

  const auto barriered = barrierWaves(wl);
  const auto& c = barriered.jobs[0].coflows[0];
  EXPECT_DOUBLE_EQ(c.arrival_offset, 5.0);
  for (const auto& f : c.flows) EXPECT_DOUBLE_EQ(f.start_offset, 0.0);
}

TEST(Transforms, AddBarriersToDags) {
  TpcdsConfig cfg;
  const auto pipelined = generateTpcdsWorkload(cfg);
  const auto barriered = addBarriersToDags(pipelined);
  EXPECT_NO_THROW(barriered.validate());
  std::size_t barriers = 0;
  for (const auto& job : barriered.jobs) {
    for (const auto& c : job.coflows) {
      EXPECT_TRUE(c.finishes_before.empty());
      barriers += c.starts_after.size();
    }
  }
  EXPECT_GT(barriers, 10u);
}

TEST(TraceIo, RoundTripsFacebookWorkload) {
  FacebookConfig cfg;
  cfg.num_jobs = 40;
  cfg.seed = 12;
  const auto wl = generateFacebookWorkload(cfg);
  std::stringstream ss;
  writeTrace(ss, wl);
  const auto parsed = readTrace(ss);
  ASSERT_EQ(parsed.jobs.size(), wl.jobs.size());
  EXPECT_EQ(parsed.num_ports, wl.num_ports);
  EXPECT_NEAR(parsed.totalBytes(), wl.totalBytes(), wl.totalBytes() * 1e-9);
  for (std::size_t j = 0; j < wl.jobs.size(); ++j) {
    EXPECT_EQ(parsed.jobs[j].id, wl.jobs[j].id);
    EXPECT_NEAR(parsed.jobs[j].arrival, wl.jobs[j].arrival, 1e-9);
    ASSERT_EQ(parsed.jobs[j].coflows.size(), wl.jobs[j].coflows.size());
  }
}

TEST(TraceIo, RoundTripsDependencies) {
  const auto wl = generateTpcdsWorkload(TpcdsConfig{});
  std::stringstream ss;
  writeTrace(ss, wl);
  const auto parsed = readTrace(ss);
  for (std::size_t j = 0; j < wl.jobs.size(); ++j) {
    for (std::size_t c = 0; c < wl.jobs[j].coflows.size(); ++c) {
      EXPECT_EQ(parsed.jobs[j].coflows[c].finishes_before,
                wl.jobs[j].coflows[c].finishes_before);
      EXPECT_EQ(parsed.jobs[j].coflows[c].id, wl.jobs[j].coflows[c].id);
    }
  }
}

TEST(TraceIo, RejectsMalformedInput) {
  auto parse = [](const std::string& text) {
    std::stringstream ss(text);
    return readTrace(ss);
  };
  EXPECT_THROW(parse("ports 2\n"), std::runtime_error);  // Missing header.
  EXPECT_THROW(parse("aalo-trace 2\n"), std::runtime_error);  // Bad version.
  EXPECT_THROW(parse("aalo-trace 1\nports 2\nflow 0 1 5 0\n"),
               std::runtime_error);  // Flow without coflow.
  EXPECT_THROW(parse("aalo-trace 1\nports 2\njob 0 0 0 1\ncoflow 0.0 0 2\n"
                     "flow 0 1 5 0\n"),
               std::runtime_error);  // Missing second flow.
  EXPECT_THROW(parse("aalo-trace 1\nports 2\njob 0 0 0 1\ncoflow zzz 0 1\n"
                     "flow 0 1 5 0\n"),
               std::runtime_error);  // Bad coflow id.
  EXPECT_THROW(parse("aalo-trace 1\nports 2\njob 0 0 0 2\ncoflow 0.0 0 1\n"
                     "flow 0 1 5 0\n"),
               std::runtime_error);  // Missing second coflow.
  EXPECT_THROW(parse("aalo-trace 1\nports 2\njob 0 0 0 1\ncoflow 0.0 0 1\n"
                     "flow 0 1 5 0\ncoflow 0.1 0 1\nflow 0 1 5 0\n"),
               std::runtime_error);  // More coflows than declared.
}

TEST(TraceIo, IgnoresCommentsAndBlankLines) {
  const std::string text =
      "aalo-trace 1\n# a comment\n\nports 2\n"
      "job 0 0.5 1.5 1\ncoflow 0.0 0 1\nflow 0 1 5 0  # trailing comment\n";
  std::stringstream ss(text);
  const auto wl = readTrace(ss);
  EXPECT_EQ(wl.jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(wl.jobs[0].arrival, 0.5);
}


TEST(Failures, InjectsRestartsAndGrowsTraffic) {
  FacebookConfig cfg;
  cfg.num_jobs = 300;
  cfg.seed = 31;
  auto wl = generateFacebookWorkload(cfg);
  const double before = wl.totalBytes();
  const std::size_t flows_before = [&] {
    std::size_t n = 0;
    for (const auto& job : wl.jobs) {
      for (const auto& c : job.coflows) n += c.flows.size();
    }
    return n;
  }();

  FailureConfig fcfg;
  fcfg.failure_probability = 0.2;
  const std::size_t failures = injectTaskFailures(wl, fcfg);
  EXPECT_NO_THROW(wl.validate());
  EXPECT_GT(failures, flows_before / 10);  // ~20% expected.
  EXPECT_LT(failures, flows_before / 3);
  // Restarts resend everything: total traffic strictly grows.
  EXPECT_GT(wl.totalBytes(), before);
  std::size_t flows_after = 0;
  for (const auto& job : wl.jobs) {
    for (const auto& c : job.coflows) flows_after += c.flows.size();
  }
  EXPECT_EQ(flows_after, flows_before + failures);
}

TEST(Failures, ZeroProbabilityIsIdentity) {
  FacebookConfig cfg;
  cfg.num_jobs = 30;
  auto wl = generateFacebookWorkload(cfg);
  const double before = wl.totalBytes();
  FailureConfig fcfg;
  fcfg.failure_probability = 0.0;
  EXPECT_EQ(injectTaskFailures(wl, fcfg), 0u);
  EXPECT_DOUBLE_EQ(wl.totalBytes(), before);
}

TEST(Failures, RejectsBadProbability) {
  coflow::Workload wl;
  FailureConfig fcfg;
  fcfg.failure_probability = 1.5;
  EXPECT_THROW(injectTaskFailures(wl, fcfg), std::invalid_argument);
}

TEST(Failures, RestartStartsAfterOriginalFailurePoint) {
  coflow::Workload wl;
  wl.num_ports = 2;
  coflow::JobSpec job;
  job.id = 0;
  job.arrival = 0;
  coflow::CoflowSpec spec;
  spec.id = {0, 0};
  spec.flows.push_back({0, 1, 100 * util::kMB, 0.0});
  job.coflows.push_back(spec);
  wl.jobs.push_back(job);

  FailureConfig fcfg;
  fcfg.failure_probability = 1.0;  // Deterministic failure.
  ASSERT_EQ(injectTaskFailures(wl, fcfg), 1u);
  const auto& flows = wl.jobs[0].coflows[0].flows;
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_LT(flows[0].bytes, 100 * util::kMB);        // Truncated original.
  EXPECT_DOUBLE_EQ(flows[1].bytes, 100 * util::kMB);  // Full restart.
  EXPECT_GT(flows[1].start_offset, 0.0);
}


TEST(CoflowBenchmarkTrace, ParsesPublishedFormat) {
  // Two jobs in the exact format of FB2010-1Hr-150-0.txt (1-based racks).
  const std::string text =
      "4 2\n"
      "1 0 2 1 2 2 3:100 4:50\n"
      "2 500 1 4 1 1:10\n";
  std::stringstream ss(text);
  const auto wl = readCoflowBenchmarkTrace(ss);
  EXPECT_EQ(wl.num_ports, 4);
  ASSERT_EQ(wl.jobs.size(), 2u);

  const auto& j1 = wl.jobs[0];
  EXPECT_EQ(j1.id, 1);
  EXPECT_DOUBLE_EQ(j1.arrival, 0.0);
  ASSERT_EQ(j1.coflows.size(), 1u);
  // 2 mappers x 2 reducers = 4 flows; 150 MB total.
  EXPECT_EQ(j1.coflows[0].width(), 4u);
  EXPECT_NEAR(j1.coflows[0].totalBytes(), 150 * util::kMB, 1.0);
  // Reducer 3 (port 2) receives 100 MB split across both mappers.
  double to_port2 = 0;
  for (const auto& f : j1.coflows[0].flows) {
    if (f.dst == 2) to_port2 += f.bytes;
  }
  EXPECT_NEAR(to_port2, 100 * util::kMB, 1.0);

  const auto& j2 = wl.jobs[1];
  EXPECT_DOUBLE_EQ(j2.arrival, 0.5);  // 500 ms.
  EXPECT_EQ(j2.coflows[0].width(), 1u);
  EXPECT_EQ(j2.coflows[0].flows[0].src, 3);  // Rack 4, 0-based port 3.
  EXPECT_EQ(j2.coflows[0].flows[0].dst, 0);
}

TEST(CoflowBenchmarkTrace, RejectsMalformedInput) {
  auto parse = [](const std::string& text) {
    std::stringstream ss(text);
    return readCoflowBenchmarkTrace(ss);
  };
  EXPECT_THROW(parse(""), std::runtime_error);
  EXPECT_THROW(parse("4 1\n1 0 0 1 1:10\n"), std::runtime_error);  // 0 mappers.
  EXPECT_THROW(parse("4 1\n1 0 1 9 1 1:10\n"), std::runtime_error);  // Rack 9.
  EXPECT_THROW(parse("4 1\n1 0 1 1 1 110\n"), std::runtime_error);  // No colon.
  EXPECT_THROW(parse("4 1\n1 0 1 1 1 1:0\n"), std::runtime_error);  // Zero MB.
}

TEST(CoflowBenchmarkTrace, ReplaysThroughSimulator) {
  const std::string text =
      "3 2\n"
      "1 0 1 1 1 2:50\n"
      "2 100 1 2 1 3:20\n";
  std::stringstream ss(text);
  const auto wl = readCoflowBenchmarkTrace(ss);
  // 50 MB at 1 Gbps = 0.4 s for job 1.
  sched::PerFlowFairScheduler fair;
  const auto result =
      sim::runSimulation(wl, fabric::FabricConfig{3, util::kGbps}, fair);
  EXPECT_EQ(result.coflows.size(), 2u);
  EXPECT_NEAR(result.coflows[0].cct(), 0.4, 1e-6);
}

}  // namespace
}  // namespace aalo::workload
