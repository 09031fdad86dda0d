#include "bench/common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace aalo::bench {

coflow::Workload standardWorkload(std::size_t jobs, int ports, std::uint64_t seed) {
  workload::FacebookConfig cfg;
  cfg.num_jobs = jobs;
  cfg.num_ports = ports;
  cfg.seed = seed;
  // High enough load that coflows actually contend (the paper's trace has
  // intense bursts); at 0.15 s mean spacing the fabric sees sustained
  // backlog and scheduling discipline dominates CCTs.
  cfg.mean_interarrival = 0.25;
  return workload::generateFacebookWorkload(cfg);
}

fabric::FabricConfig standardFabric(int ports) {
  return fabric::FabricConfig{ports, util::kGbps};
}

sim::SimResult run(const coflow::Workload& workload, fabric::FabricConfig fabric,
                   sim::Scheduler& scheduler, const std::string& label) {
  const auto start = std::chrono::steady_clock::now();
  sim::SimResult result = sim::runSimulation(workload, fabric, scheduler);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  std::fprintf(stderr, "  [%-24s] %zu coflows, %zu rounds, %.1fs wall\n",
               label.c_str(), result.coflows.size(), result.allocation_rounds, wall);
  return result;
}

sim::BatchJob job(const coflow::Workload& workload, fabric::FabricConfig fabric,
                  std::function<std::unique_ptr<sim::Scheduler>()> make_scheduler,
                  std::string label) {
  sim::BatchJob j;
  j.label = std::move(label);
  j.workload = &workload;
  j.fabric = fabric;
  j.make_scheduler = std::move(make_scheduler);
  return j;
}

std::vector<sim::SimResult> runBatch(std::vector<sim::BatchJob> jobs) {
  sim::BatchOptions opts;
  if (const char* env = std::getenv("AALO_BENCH_JOBS")) {
    opts.num_threads = std::atoi(env);
  }
  opts.on_done = [](std::size_t /*index*/, const sim::BatchJob& j,
                    const sim::SimResult& result, double wall) {
    const std::string& label = j.label.empty() ? result.scheduler : j.label;
    std::fprintf(stderr, "  [%-24s] %zu coflows, %zu rounds, %.1fs wall\n",
                 label.c_str(), result.coflows.size(), result.allocation_rounds,
                 wall);
  };
  return sim::runBatch(jobs, opts);
}

void printNormalizedByBin(const std::vector<sim::SimResult>& compared,
                          const sim::SimResult& aalo) {
  util::Table table({"scheme", "bin1 SN", "bin2 LN", "bin3 SW", "bin4 LW", "ALL",
                     "ALL p95"});
  for (const auto& result : compared) {
    std::vector<std::string> row = {result.scheduler};
    for (int bin = 1; bin <= 4; ++bin) {
      const auto n = analysis::normalizedCctForBin(result, aalo, bin);
      row.push_back(n.count == 0 ? "-" : util::Table::num(n.avg, 2) + "x");
    }
    const auto all = analysis::normalizedCct(result, aalo);
    row.push_back(util::Table::num(all.avg, 2) + "x");
    row.push_back(util::Table::num(all.p95, 2) + "x");
    table.addRow(std::move(row));
  }
  table.print(std::cout);
}

void printCctCdfs(const std::vector<sim::SimResult>& runs, std::size_t points) {
  // One shared set of log-spaced probe points spanning all runs.
  double lo = 1e18;
  double hi = 0;
  for (const auto& r : runs) {
    for (const auto& rec : r.coflows) {
      lo = std::min(lo, std::max(rec.cct(), 1e-4));
      hi = std::max(hi, rec.cct());
    }
  }
  std::vector<std::string> header = {"CCT <="};
  std::vector<util::Cdf> cdfs;
  for (const auto& r : runs) {
    header.push_back(r.scheduler);
    cdfs.emplace_back(analysis::cctSamples(r));
  }
  util::Table table(std::move(header));
  for (std::size_t i = 0; i < points; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(points - 1);
    const double x = lo * std::pow(hi / lo, t);
    std::vector<std::string> row = {util::formatSeconds(x)};
    for (const auto& cdf : cdfs) {
      row.push_back(util::Table::num(cdf.fractionAtOrBelow(x), 3));
    }
    table.addRow(std::move(row));
  }
  table.print(std::cout);
}

void header(const std::string& figure, const std::string& expectation) {
  std::printf("================================================================\n");
  std::printf("%s\n", figure.c_str());
  std::printf("Paper expectation: %s\n", expectation.c_str());
  std::printf("================================================================\n");
}

}  // namespace aalo::bench
