// Figure 11: TPC-DS query DAGs from the Cloudera benchmark. Aalo runs
// pipelined DAGs with dependency-aware CoflowIds; Varys needs barriers
// between stages; per-flow fairness ignores structure entirely.
#include <map>

#include "bench/common.h"
#include "workload/tpcds.h"
#include "workload/transforms.h"

using namespace aalo;

int main() {
  bench::header(
      "Figure 11: job-level communication times for TPC-DS query DAGs",
      "Aalo outperforms both baselines on multi-level DAGs: ~1.7x over "
      "per-flow fairness, ~3.7x over Varys-with-barriers on average");

  workload::TpcdsConfig cfg;
  // Cluster sized so that concurrent queries actually contend (the
  // Cloudera benchmark ran all 20 queries against one warehouse).
  cfg.num_ports = 20;
  cfg.mean_interarrival = 3.0;
  cfg.base_stage_bytes = 2 * util::kGB;
  const auto pipelined = workload::generateTpcdsWorkload(cfg);
  const auto barriered = workload::addBarriersToDags(pipelined);
  const auto fc = bench::standardFabric(cfg.num_ports);

  auto aalo = sched::makeScheduler("aalo", pipelined);
  const auto aalo_result = bench::run(pipelined, fc, *aalo, "aalo pipelined");
  auto fair = sched::makeScheduler("fair", pipelined);
  const auto fair_result = bench::run(pipelined, fc, *fair, "fair pipelined");
  auto varys = sched::makeScheduler("varys", barriered);
  const auto varys_result = bench::run(barriered, fc, *varys, "varys barriers");

  std::map<coflow::JobId, const sim::JobRecord*> aalo_jobs;
  std::map<coflow::JobId, const sim::JobRecord*> fair_jobs;
  std::map<coflow::JobId, const sim::JobRecord*> varys_jobs;
  for (const auto& j : aalo_result.jobs) aalo_jobs[j.id] = &j;
  for (const auto& j : fair_result.jobs) fair_jobs[j.id] = &j;
  for (const auto& j : varys_result.jobs) varys_jobs[j.id] = &j;

  const auto& queries = workload::clouderaBenchmarkQueries();
  util::Table table({"query (critical path)", "fair / aalo", "varys / aalo"});
  double fair_sum = 0;
  double varys_sum = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto id = static_cast<coflow::JobId>(q);
    const double aalo_t = aalo_jobs.at(id)->commTime();
    const double fair_ratio = fair_jobs.at(id)->commTime() / aalo_t;
    const double varys_ratio = varys_jobs.at(id)->commTime() / aalo_t;
    fair_sum += fair_ratio;
    varys_sum += varys_ratio;
    table.addRow({queries[q].name + " (" +
                      std::to_string(workload::criticalPathLength(queries[q])) + ")",
                  util::Table::num(fair_ratio, 2) + "x",
                  util::Table::num(varys_ratio, 2) + "x"});
  }
  const double n = static_cast<double>(queries.size());
  table.addRow({"Overall (avg)", util::Table::num(fair_sum / n, 2) + "x",
                util::Table::num(varys_sum / n, 2) + "x"});
  table.print(std::cout);
  std::printf("\n(normalized job communication time w.r.t. Aalo; >1 = Aalo faster)\n");
  return 0;
}
