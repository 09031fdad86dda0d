// Figure 6: average and 95th-percentile CCT improvements over per-flow
// fairness and Varys, split by the Table 3 coflow bins.
#include "bench/common.h"

using namespace aalo;

int main() {
  bench::header(
      "Figure 6: CCT improvements by coflow bin (EC2 scale)",
      "Aalo beats fairness in every bin (more in bins 2/4 than 1/3: longer "
      "coflows give better size estimates); Aalo matches Varys on bin 4 "
      "(almost all bytes) and trails only on the short bins 1/3");

  const auto wl = bench::standardWorkload();
  const auto fc = bench::standardFabric();

  auto aalo = sched::makeScheduler("aalo", wl);
  auto fair = sched::makeScheduler("fair", wl);
  auto varys = sched::makeScheduler("varys", wl);
  const auto aalo_result = bench::run(wl, fc, *aalo, aalo->name());
  const auto fair_result = bench::run(wl, fc, *fair, fair->name());
  const auto varys_result = bench::run(wl, fc, *varys, varys->name());

  util::Table table({"bin", "coflows", "fair (avg)", "fair (p95)", "varys (avg)",
                     "varys (p95)"});
  const char* labels[5] = {"Bin 1 (SN)", "Bin 2 (LN)", "Bin 3 (SW)", "Bin 4 (LW)",
                           "ALL"};
  for (int bin = 0; bin <= 4; ++bin) {
    const int selector = bin == 4 ? 0 : bin + 1;  // 0 = all bins.
    const auto f = analysis::normalizedCctForBin(fair_result, aalo_result, selector);
    const auto v = analysis::normalizedCctForBin(varys_result, aalo_result, selector);
    table.addRow({labels[bin], std::to_string(f.count),
                  util::Table::num(f.avg, 2) + "x", util::Table::num(f.p95, 2) + "x",
                  util::Table::num(v.avg, 2) + "x", util::Table::num(v.p95, 2) + "x"});
  }
  table.print(std::cout);
  std::printf("\n(>1 = Aalo faster; <1 = the compared scheme faster)\n");
  return 0;
}
