// Ablations of Aalo's design choices (DESIGN.md §5):
//  1. weighted fair vs strict priority across queues
//  2. Varys admission overhead (the cost the paper attributes to full
//     centralization for tiny coflows)
//  3. queue-weight schemes
#include "bench/common.h"

using namespace aalo;

int main() {
  bench::header(
      "Ablation: D-CLAS design choices",
      "weighted queues trade a little average CCT for starvation freedom; "
      "strict priority is marginally better on average but unboundedly "
      "worse at the tail for demoted coflows; Varys's centralized "
      "admission delay hurts small coflows most");

  const auto wl = bench::standardWorkload(250, 40, 77);
  const auto fc = bench::standardFabric();

  auto weighted = sched::makeScheduler("aalo", wl);
  const auto weighted_result = bench::run(wl, fc, *weighted, "aalo weighted");

  // 1. Strict priority across queues.
  {
    auto strict = sched::makeScheduler("aalo-strict", wl);
    const auto strict_result = bench::run(wl, fc, *strict, "aalo strict");

    util::Table table({"policy", "avg CCT", "p95 CCT", "p99 CCT", "max CCT"});
    for (const auto* result : {&weighted_result, &strict_result}) {
      util::Summary s;
      for (const auto& rec : result->coflows) s.add(rec.cct());
      table.addRow({result->scheduler, util::formatSeconds(s.mean()),
                    util::formatSeconds(s.percentile(95)),
                    util::formatSeconds(s.percentile(99)),
                    util::formatSeconds(s.max())});
    }
    std::printf("\n1. Weighted fair vs strict priority across queues:\n");
    table.print(std::cout);
  }

  // 2. Varys admission delay.
  {
    std::printf("\n2. Varys centralized admission overhead (bin-1 = short/narrow "
                "coflows):\n");
    util::Table table({"admission delay", "bin1 avg CCT", "ALL avg CCT",
                       "normalized vs aalo (ALL)"});
    for (const double delay : {0.0, 0.1, 0.5}) {
      sched::VarysScheduler varys{sched::VarysConfig{delay}};
      const auto result =
          bench::run(wl, fc, varys, "varys delay=" + util::formatSeconds(delay));
      util::Summary bin1;
      util::Summary all;
      for (const auto& rec : result.coflows) {
        all.add(rec.cct());
        if (analysis::coflowBin(rec) == 1) bin1.add(rec.cct());
      }
      table.addRow({util::formatSeconds(delay), util::formatSeconds(bin1.mean()),
                    util::formatSeconds(all.mean()),
                    util::Table::num(
                        analysis::normalizedCct(result, weighted_result).avg, 2) +
                        "x"});
    }
    table.print(std::cout);
  }

  // 3. Queue-weight schemes: K-i+1 (paper) vs exponential decay vs equal.
  {
    std::printf("\n3. Queue-weight scheme (improvement over per-flow fairness):\n");
    auto fair = sched::makeScheduler("fair", wl);
    const auto fair_result = bench::run(wl, fc, *fair, "per-flow fair");
    util::Table table({"weights", "improvement over fair (avg CCT)"});
    table.addRow({"K-i+1 (paper)",
                  util::Table::num(
                      analysis::normalizedCct(fair_result, weighted_result).avg, 2) +
                      "x"});
    auto strict = sched::makeScheduler("aalo-strict", wl);
    const auto strict_result = bench::run(wl, fc, *strict, "strict (≈ weight ∞)");
    table.addRow({"strict priority",
                  util::Table::num(
                      analysis::normalizedCct(fair_result, strict_result).avg, 2) +
                      "x"});
    table.print(std::cout);
  }
  return 0;
}
