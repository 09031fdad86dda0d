// Figure 10 (+ Table 4): multi-wave coflows. Aalo keeps one coflow per
// stage across waves; Varys must either split each wave into its own
// coflow (losing the stage-level objective) or add barriers (losing
// parallelism). Stage-level completion = the job's communication time.
#include <set>

#include "bench/common.h"
#include "workload/transforms.h"

using namespace aalo;

namespace {

/// Average stage-level communication time (the job's comm time: all
/// stage coflows done). With a filter, only the listed jobs count.
double avgStageTime(const sim::SimResult& result,
                    const std::set<coflow::JobId>* only = nullptr) {
  util::Summary s;
  for (const auto& job : result.jobs) {
    if (only != nullptr && !only->contains(job.id)) continue;
    s.add(job.commTime());
  }
  return s.empty() ? 0.0 : s.mean();
}

double p95StageTime(const sim::SimResult& result,
                    const std::set<coflow::JobId>* only = nullptr) {
  util::Summary s;
  for (const auto& job : result.jobs) {
    if (only != nullptr && !only->contains(job.id)) continue;
    s.add(job.commTime());
  }
  return s.empty() ? 0.0 : s.percentile(95);
}

/// Jobs whose stage actually has more than one wave.
std::set<coflow::JobId> multiWaveJobs(const coflow::Workload& wl) {
  std::set<coflow::JobId> jobs;
  for (const auto& job : wl.jobs) {
    for (const auto& c : job.coflows) {
      if (c.waveCount() > 1) jobs.insert(job.id);
    }
  }
  return jobs;
}

}  // namespace

int main() {
  bench::header(
      "Figure 10: multi-wave coflows (normalized w.r.t. Aalo, stage level)",
      "with max waves 1 -> 2 -> 4, Aalo goes from trailing Varys (0.94x) "
      "to beating it (1.21x, up to 7.91x): per-wave Varys coflows ignore "
      "that all waves must finish; barriers kill parallelism");

  const auto fc = bench::standardFabric();

  util::Table table({"max waves", "multi-wave coflows", "varys-per-wave",
                     "varys-barrier", "per-flow fair", "varys-bar (mw avg)",
                     "varys-bar (mw p95)"});
  for (const int max_waves : {1, 2, 4}) {
    // Moderate load: multi-wave effects concern stage structure, not
    // backlog, so queues should mostly drain between bursts.
    workload::FacebookConfig fb_cfg;
    fb_cfg.num_jobs = 200;
    fb_cfg.num_ports = 40;
    fb_cfg.seed = 21;
    fb_cfg.mean_interarrival = 0.8;
    auto wl = workload::generateFacebookWorkload(fb_cfg);
    workload::MultiWaveConfig mw;
    mw.max_waves = max_waves;
    mw.seed = 5;
    const std::size_t multi = workload::applyMultiWave(wl, mw);

    // Aalo handles waves natively: one coflow per stage, attained service
    // only grows (§5.2).
    auto aalo = sched::makeScheduler("aalo", wl);
    const auto aalo_result = bench::run(wl, fc, *aalo, "aalo waves<=" +
                                                           std::to_string(max_waves));

    // Varys pays its centralized admission cost once per *coflow* (§7.2:
    // "fully centralized solutions like Varys introduce high overheads");
    // per-wave splitting multiplies the number of coflows it must admit.
    const sched::VarysConfig varys_cfg{/*admission_delay=*/0.1};

    // Varys mode (i): each wave is its own clairvoyant coflow.
    const auto split = workload::splitWavesIntoCoflows(wl);
    sched::VarysScheduler varys_split{varys_cfg};
    const auto split_result = bench::run(split, fc, varys_split, "varys per-wave");

    // Varys mode (ii): barrier until the last wave arrives.
    const auto barrier = workload::barrierWaves(wl);
    sched::VarysScheduler varys_barrier{varys_cfg};
    const auto barrier_result = bench::run(barrier, fc, varys_barrier, "varys barrier");

    auto fair = sched::makeScheduler("fair", wl);
    const auto fair_result = bench::run(wl, fc, *fair, "per-flow fair");

    const auto mw_jobs = multiWaveJobs(wl);
    const double aalo_avg = avgStageTime(aalo_result);
    const double aalo_mw = avgStageTime(aalo_result, &mw_jobs);
    auto cell = [](double v, double base) {
      return base <= 0 ? std::string("-") : util::Table::num(v / base, 2) + "x";
    };
    const double aalo_mw_p95 = p95StageTime(aalo_result, &mw_jobs);
    table.addRow({std::to_string(max_waves), std::to_string(multi),
                  cell(avgStageTime(split_result), aalo_avg),
                  cell(avgStageTime(barrier_result), aalo_avg),
                  cell(avgStageTime(fair_result), aalo_avg),
                  cell(avgStageTime(barrier_result, &mw_jobs), aalo_mw),
                  cell(p95StageTime(barrier_result, &mw_jobs), aalo_mw_p95)});
  }
  std::printf("\nAverage stage-level communication time, normalized w.r.t. Aalo:\n");
  table.print(std::cout);
  std::printf(
      "\n(>1 = Aalo faster. The barrier mode loses parallelism, so its\n"
      "multi-wave columns grow past 1x with the wave count — the paper's\n"
      "trend. Our per-wave Varys stays competitive because it is an\n"
      "idealized SEBF with instantaneous, starvation-free admission; the\n"
      "paper's 7.91x against the real Varys came from straggler waves its\n"
      "admission pipeline scheduled much later, see EXPERIMENTS.md.)\n");
  return 0;
}
