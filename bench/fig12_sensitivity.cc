// Figure 12: Aalo's sensitivity to its queue structure, measured as the
// improvement over per-flow fairness (higher is better for Aalo).
//  (a) number of queues K            (b) first threshold Q1^hi
//  (c) (K, E, Q1^hi) combinations    (d) equal-sized (linear) queues
#include "bench/common.h"

using namespace aalo;

int main() {
  bench::header(
      "Figure 12: sensitivity to the queue structure",
      "(a) biggest jump going K=1 -> 2 (HOL blocking avoided), flat after; "
      "(b) steady for Q1 up to ~100MB, degrades beyond; (c) stable across "
      "(K,E,Q1) for K>2; (d) equal-sized queues need orders of magnitude "
      "more queues than exponential spacing");

  const auto wl = bench::standardWorkload(250, 40, 33);
  const auto fc = bench::standardFabric();

  // The whole figure is one sweep of independent runs (per-flow fair plus
  // 23 D-CLAS configurations); collect every point, then run the batch.
  std::vector<sim::BatchJob> jobs;
  jobs.push_back(bench::job(wl, fc, [&wl] { return sched::makeScheduler("fair", wl); },
                            "per-flow fair"));
  auto addPoint = [&](sched::DClasConfig cfg, std::string label) {
    jobs.push_back(bench::job(
        wl, fc, [cfg] { return std::make_unique<sched::DClasScheduler>(cfg); },
        std::move(label)));
  };

  // (a) Number of queues.
  const std::vector<int> ks = {1, 2, 5, 10, 15};
  for (const int k : ks) {
    sched::DClasConfig cfg;
    cfg.num_queues = k;
    addPoint(cfg, "K=" + std::to_string(k));
  }

  // (b) First queue threshold.
  const std::vector<double> q1s = {1e6, 1e7, 1e8, 1e9, 1e10};
  for (const double q1 : q1s) {
    sched::DClasConfig cfg;
    cfg.first_threshold = q1;
    addPoint(cfg, "Q1=" + util::formatBytes(q1));
  }

  // (c) Combinations.
  struct Combo {
    int k;
    double e;
    double q1;
  };
  const std::vector<Combo> combos = {{2, 10, 1e7},  {5, 10, 1e7},  {10, 10, 1e7},
                                     {10, 4, 1e7},  {10, 32, 1e7}, {5, 10, 1e8},
                                     {10, 10, 1e6}, {15, 4, 1e6},  {10, 32, 1e8}};
  for (const auto& combo : combos) {
    sched::DClasConfig cfg;
    cfg.num_queues = combo.k;
    cfg.exp_factor = combo.e;
    cfg.first_threshold = combo.q1;
    addPoint(cfg, "combo K=" + std::to_string(combo.k));
  }

  // (d) Equal-sized queues: linear thresholds over the max coflow size.
  util::Bytes max_size = 0;
  for (const auto& job : wl.jobs) {
    for (const auto& c : job.coflows) max_size = std::max(max_size, c.totalBytes());
  }
  const std::vector<int> linear_ks = {2, 10, 100, 1000};
  for (const int k : linear_ks) {
    sched::DClasConfig cfg;
    for (int q = 1; q < k; ++q) {
      cfg.explicit_thresholds.push_back(max_size * static_cast<double>(q) /
                                        static_cast<double>(k));
    }
    if (cfg.explicit_thresholds.empty()) cfg.num_queues = 1;
    addPoint(cfg, "linear K=" + std::to_string(k));
  }

  const auto results = bench::runBatch(std::move(jobs));
  const auto& fair_result = results[0];
  std::size_t next = 1;
  auto improvement = [&] {
    return util::Table::num(
               analysis::normalizedCct(fair_result, results[next++]).avg, 2) +
           "x";
  };

  {
    std::printf("\nFigure 12a — number of queues K (E=10, Q1=10MB):\n");
    util::Table table({"K", "improvement over fair (avg CCT)"});
    for (const int k : ks) table.addRow({std::to_string(k), improvement()});
    table.print(std::cout);
  }
  {
    std::printf("\nFigure 12b — Q1 upper limit (K=10, E=10):\n");
    util::Table table({"Q1^hi", "improvement over fair (avg CCT)"});
    for (const double q1 : q1s) table.addRow({util::formatBytes(q1), improvement()});
    table.print(std::cout);
  }
  {
    std::printf("\nFigure 12c — (K, E, Q1) combinations:\n");
    util::Table table({"K", "E", "Q1^hi", "improvement over fair"});
    for (const auto& combo : combos) {
      table.addRow({std::to_string(combo.k), util::Table::num(combo.e, 0),
                    util::formatBytes(combo.q1), improvement()});
    }
    table.print(std::cout);
  }
  {
    std::printf("\nFigure 12d — equal-sized queues (linear thresholds):\n");
    util::Table table({"num queues", "improvement over fair"});
    for (const int k : linear_ks) table.addRow({std::to_string(k), improvement()});
    table.print(std::cout);
    std::printf("(max coflow size in this trace: %s)\n",
                util::formatBytes(max_size).c_str());
  }
  return 0;
}
