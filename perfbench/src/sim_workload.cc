#include "sim_workload.h"

#include <bit>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <vector>

#include "fabric/maxmin.h"
#include "host.h"
#include "sched/dclas.h"
#include "sched/fifo.h"
#include "sched/lp_bound.h"
#include "sim/simulator.h"
#include "span_trace.h"
#include "traced_scheduler.h"
#include "workload/facebook.h"
#include "workload/trace_io.h"

namespace perfbench {

namespace aw = aalo::workload;
using aalo::coflow::Workload;
using aalo::sim::SimResult;

namespace {

// Input shape. 150 ports as in the paper's 150-rack Facebook trace, at the
// load bench/common.cc uses for its fb-shaped runs (0.25 s mean job
// spacing). The input of one run is several independent traces rather
// than one long one: CCT means and replay cost then vary less from seed
// to seed, and FIFO's backlog (which grows with trace length) stays at
// the same depth in every run.
constexpr int kPorts = 150;
constexpr std::size_t kJobsPerTrace = 150;
constexpr std::size_t kTraces = 48;
constexpr double kMeanInterarrival = 0.25;
constexpr double kSyncInterval = 0.010;  // D-CLAS Δ, the paper's headline.
constexpr int kSetups = 3;
// Traced runs keep this many spans and allocator samples in memory.
constexpr std::size_t kMaxSpans = 100'000;
constexpr std::size_t kDemandSampleEvery = 50;
constexpr std::size_t kMaxDemandSamples = 400;
// Incremental vs legacy engine agreement (engine_equivalence_test's bound).
constexpr double kEngineTolerance = 1e-9;

struct TraceSet {
  std::vector<Workload> traces;
  double generate_s = 0;
  double write_s = 0;
  double read_s = 0;
  double total_s = 0;
};

TraceSet buildTraces(std::uint64_t seed, const std::string& work_dir, SpanTrace* spans) {
  ScopedSpan setup_span(spans, "workload.setup");
  const double start = nowSeconds();
  TraceSet set;
  for (std::size_t k = 0; k < kTraces; ++k) {
    aw::FacebookConfig config;
    config.num_ports = kPorts;
    config.num_jobs = kJobsPerTrace;
    config.mean_interarrival = kMeanInterarrival;
    config.seed = seed * 1'000'003 + k;
    const std::string path = work_dir + "/fb-" + std::to_string(k) + ".trace";

    double t0 = nowSeconds();
    Workload generated;
    {
      ScopedSpan span(spans, "workload.generate");
      generated = aw::generateFacebookWorkload(config);
    }
    double t1 = nowSeconds();
    {
      ScopedSpan span(spans, "workload.trace_write");
      aw::writeTraceFile(path, generated);
    }
    double t2 = nowSeconds();
    {
      ScopedSpan span(spans, "workload.trace_read");
      set.traces.push_back(aw::readTraceFile(path));
    }
    double t3 = nowSeconds();
    set.generate_s += t1 - t0;
    set.write_s += t2 - t1;
    set.read_s += t3 - t2;
  }
  set.total_s = nowSeconds() - start;
  return set;
}

aalo::fabric::FabricConfig fabricFor(const Workload& wl) {
  return aalo::fabric::FabricConfig{wl.num_ports, aalo::util::kGbps};
}

/// FNV-1a over the bit patterns of every coflow's finish time: replays of
/// one input must agree bit for bit.
std::uint64_t finishChecksum(const std::vector<SimResult>& results) {
  std::uint64_t h = 1469598103934665603ull;
  for (const SimResult& r : results) {
    for (const auto& c : r.coflows) {
      h ^= std::bit_cast<std::uint64_t>(c.finish);
      h *= 1099511628211ull;
    }
  }
  return h;
}

struct Replay {
  /// Wall time of the traces' simulations, summed.
  double wall_s = 0;
  /// The same at the reference host's speed: each trace's wall time times
  /// kReferenceCalibrationSeconds over the mean of the calibration loops
  /// timed just before and just after it.
  double calibrated_s = 0;
  std::vector<SimResult> results;
};

double calibrate(SpanTrace* spans) {
  ScopedSpan span(spans, "bench.calibrate");
  return calibrationSeconds();
}

Replay replayAll(const TraceSet& set, aalo::sim::Scheduler& scheduler, SpanTrace* spans) {
  ScopedSpan span(spans, "sim.replay");
  Replay replay;
  replay.results.reserve(set.traces.size());
  double before = calibrate(spans);
  for (const Workload& wl : set.traces) {
    const double start = nowSeconds();
    {
      ScopedSpan trace_span(spans, "sim.run");
      replay.results.push_back(aalo::sim::runSimulation(wl, fabricFor(wl), scheduler));
    }
    const double wall = nowSeconds() - start;
    const double after = calibrate(spans);
    replay.wall_s += wall;
    replay.calibrated_s += wall * kReferenceCalibrationSeconds / (0.5 * (before + after));
    before = after;
  }
  return replay;
}

/// Outside the timed region: every coflow finished, no sub-trace beat
/// the LP lower bound, and the finish times match the first replay's.
bool replayIsCorrect(const TraceSet& set, const Replay& replay,
                     const std::vector<double>& lower_bounds, std::uint64_t checksum,
                     std::string& why) {
  for (std::size_t k = 0; k < set.traces.size(); ++k) {
    const SimResult& r = replay.results[k];
    if (r.coflows.size() != set.traces[k].coflowCount()) {
      why = "trace " + std::to_string(k) + ": not every coflow finished";
      return false;
    }
    for (const auto& c : r.coflows) {
      if (!std::isfinite(c.finish) || c.finish < c.release) {
        why = "trace " + std::to_string(k) + ": coflow without a finish time";
        return false;
      }
    }
    if (r.totalCct() < lower_bounds[k] * (1 - 1e-6)) {
      why = "trace " + std::to_string(k) + ": total CCT below the LP lower bound";
      return false;
    }
  }
  if (finishChecksum(replay.results) != checksum) {
    why = "finish times differ from the first replay";
    return false;
  }
  return true;
}

/// Once per run: the incremental engine against the legacy oracle on one
/// of the traces.
bool enginesAgree(const Workload& wl, SimDiscipline discipline, std::string& why) {
  auto incremental_sched = makeScheduler(discipline);
  auto legacy_sched = makeScheduler(discipline);
  aalo::sim::SimOptions legacy_options;
  legacy_options.incremental_engine = false;
  const SimResult incremental = aalo::sim::runSimulation(wl, fabricFor(wl), *incremental_sched);
  const SimResult legacy =
      aalo::sim::runSimulation(wl, fabricFor(wl), *legacy_sched, legacy_options);
  if (incremental.coflows.size() != legacy.coflows.size()) {
    why = "legacy engine finished a different number of coflows";
    return false;
  }
  for (std::size_t i = 0; i < legacy.coflows.size(); ++i) {
    const auto& a = incremental.coflows[i];
    const auto& b = legacy.coflows[i];
    if (a.id != b.id || std::abs(a.finish - b.finish) > kEngineTolerance ||
        std::abs(a.release - b.release) > kEngineTolerance) {
      why = "coflow " + std::to_string(i) + " differs from the legacy engine by " +
            std::to_string(std::abs(a.finish - b.finish)) + " s";
      return false;
    }
  }
  return true;
}

std::vector<double> allCcts(const Replay& replay) {
  std::vector<double> ccts;
  for (const SimResult& r : replay.results) {
    for (const auto& c : r.coflows) ccts.push_back(c.cct());
  }
  return ccts;
}

/// Per-layer numbers of one traced replay.
struct LayerSample {
  double wall_s = 0;
  double calibrated_s = 0;
  SchedTimes times;
};

void addSimLayerMetrics(RunResult& out, const TraceSet& set, const Replay& replay,
                        const std::vector<LayerSample>& traced,
                        const std::vector<double>& untraced_calibrated,
                        const std::vector<std::vector<aalo::fabric::Demand>>& samples,
                        const std::vector<double>& generate_s,
                        const std::vector<double>& write_s,
                        const std::vector<double>& read_s) {
  std::size_t coflows = 0, flows = 0;
  for (const Workload& wl : set.traces) {
    coflows += wl.coflowCount();
    for (const auto& job : wl.jobs) {
      for (const auto& c : job.coflows) flows += c.flows.size();
    }
  }
  out.add("workload.generate_s", "s", median(generate_s));
  out.add("workload.trace_write_s", "s", median(write_s));
  out.add("workload.trace_read_s", "s", median(read_s));
  out.add("workload.coflows", "count", static_cast<double>(coflows));
  out.add("workload.flows", "count", static_cast<double>(flows));

  std::vector<double> alloc_s, epoch_s, wakeup_s, hooks_s, share, self_s, walls, calibrated;
  for (const LayerSample& l : traced) {
    alloc_s.push_back(l.times.allocate_s);
    epoch_s.push_back(l.times.epoch_s);
    wakeup_s.push_back(l.times.wakeup_s);
    hooks_s.push_back(l.times.hooks_s);
    share.push_back(l.times.totalSeconds() / l.wall_s);
    self_s.push_back(l.wall_s - l.times.totalSeconds());
    walls.push_back(l.wall_s);
    calibrated.push_back(l.calibrated_s);
  }
  const SchedTimes& first = traced.front().times;
  out.add("sched.allocate_s", "s", median(alloc_s));
  out.add("sched.allocate_us_p50", "us", quantile(first.allocate_us, 0.5));
  out.add("sched.allocate_us_p99", "us", quantile(first.allocate_us, 0.99));
  out.add("sched.allocate_calls", "count", static_cast<double>(first.allocate_calls));
  out.add("sched.epoch_s", "s", median(epoch_s));
  out.add("sched.wakeup_s", "s", median(wakeup_s));
  out.add("sched.hooks_s", "s", median(hooks_s));
  out.add("sched.share", "ratio", median(share));

  // Allocator probe: water-filling over all active flows of sampled
  // rounds, against the full fabric; the rates are thrown away.
  std::vector<double> maxmin_us, demand_counts;
  {
    const aalo::fabric::Fabric fabric(aalo::fabric::FabricConfig{kPorts, aalo::util::kGbps});
    aalo::fabric::MaxMinScratch scratch;
    for (const auto& demands : samples) {
      aalo::fabric::ResidualCapacity residual(fabric);
      const double t0 = nowSeconds();
      aalo::fabric::maxMinAllocate(demands, residual, scratch);
      maxmin_us.push_back((nowSeconds() - t0) * 1e6);
      demand_counts.push_back(static_cast<double>(demands.size()));
    }
  }
  out.add("fabric.maxmin_us_p50", "us", quantile(maxmin_us, 0.5));
  out.add("fabric.maxmin_us_p99", "us", quantile(maxmin_us, 0.99));
  out.add("fabric.demands_p50", "count", quantile(demand_counts, 0.5));

  std::size_t rounds = 0, allocs = 0, reused = 0, rebuilds = 0, events = 0, rekeys = 0;
  for (const SimResult& r : replay.results) {
    rounds += r.allocation_rounds;
    allocs += r.allocate_calls;
    reused += r.reused_allocations;
    rebuilds += r.heap_rebuilds;
    events += r.events_processed;
    rekeys += r.heap_rekeys;
  }
  const double engine_self = median(self_s);
  out.add("sim.engine_self_s", "s", engine_self);
  out.add("sim.engine_share", "ratio", engine_self / median(walls));
  out.add("sim.engine_ns_per_round", "ns",
          engine_self * 1e9 / static_cast<double>(std::max<std::size_t>(rounds, 1)));
  out.add("sim.active_flows_mean", "count",
          static_cast<double>(first.active_flow_sum) /
              static_cast<double>(std::max<std::uint64_t>(first.rounds, 1)));
  out.add("sim.engine_ns_per_active_flow_round", "ns",
          engine_self * 1e9 /
              static_cast<double>(std::max<std::uint64_t>(first.active_flow_sum, 1)));
  out.add("sim.rounds", "count", static_cast<double>(rounds));
  out.add("sim.allocate_calls", "count", static_cast<double>(allocs));
  out.add("sim.reused_allocations", "count", static_cast<double>(reused));
  out.add("sim.reuse_ratio", "ratio",
          static_cast<double>(reused) / static_cast<double>(std::max<std::size_t>(rounds, 1)));
  out.add("sim.heap_rebuilds", "count", static_cast<double>(rebuilds));
  out.add("sim.events", "count", static_cast<double>(events));
  out.add("sim.heap_rekeys", "count", static_cast<double>(rekeys));
  out.add("sim.rekeys_per_install", "count",
          static_cast<double>(rekeys) / static_cast<double>(std::max<std::size_t>(allocs, 1)));
  out.add("bench.trace_overhead_share", "ratio",
          median(calibrated) / median(untraced_calibrated) - 1);
}

}  // namespace

std::unique_ptr<aalo::sim::Scheduler> makeScheduler(SimDiscipline discipline) {
  if (discipline == SimDiscipline::kFifo) {
    return std::make_unique<aalo::sched::FifoScheduler>();
  }
  aalo::sched::DClasConfig config;  // Paper defaults: K=10, E=10, Q1=10MB.
  config.sync_interval = kSyncInterval;
  return std::make_unique<aalo::sched::DClasScheduler>(config);
}

RunResult runSimWorkload(const SimRunOptions& options) {
  RunResult out;
  std::filesystem::create_directories(options.work_dir);
  std::unique_ptr<SpanTrace> spans =
      options.traced ? std::make_unique<SpanTrace>(kMaxSpans) : nullptr;

  // Set-up, several times; the last trace set is the one replayed.
  std::vector<double> setup_s, generate_s, write_s, read_s;
  TraceSet set;
  for (int i = 0; i < kSetups; ++i) {
    set = buildTraces(options.seed, options.work_dir, i == 0 ? spans.get() : nullptr);
    setup_s.push_back(set.total_s);
    generate_s.push_back(set.generate_s);
    write_s.push_back(set.write_s);
    read_s.push_back(set.read_s);
  }

  std::vector<double> lower_bounds;
  for (const Workload& wl : set.traces) {
    lower_bounds.push_back(aalo::sched::computeCctLowerBound(wl, fabricFor(wl)).total_cct);
  }
  {
    std::string why;
    const Workload& probe = set.traces[options.seed % set.traces.size()];
    out.check(enginesAgree(probe, options.discipline, why),
              "incremental vs legacy engine: " + why);
  }

  auto scheduler = makeScheduler(options.discipline);
  std::vector<double> untraced_walls;
  // Untraced replay times at the reference host's speed (Replay::calibrated_s):
  // on a shared VM a trace's time swings by ±30% within seconds, with
  // another tenant on the core, and the calibration loop timed around
  // each trace follows those swings (correlation 0.7) while the ratio
  // does not.
  std::vector<double> calibrated_walls;
  std::vector<LayerSample> traced;
  std::vector<std::vector<aalo::fabric::Demand>> demand_samples;
  Replay first_replay;
  std::uint64_t checksum = 0;
  const double window_start = nowSeconds();
  // Untraced runs replay back to back; a traced run alternates untraced
  // and traced replays so the overhead is measured under the same load.
  for (std::size_t i = 0;; ++i) {
    const bool traced_replay = options.traced && i % 2 == 1;
    Replay replay;
    try {
      if (traced_replay) {
        LayerSample sample;
        TracedScheduler wrapper(*scheduler, sample.times,
                                traced.empty() ? spans.get() : nullptr);
        if (traced.empty()) wrapper.sampleDemands(kDemandSampleEvery, kMaxDemandSamples);
        replay = replayAll(set, wrapper, traced.empty() ? spans.get() : nullptr);
        sample.wall_s = replay.wall_s;
        sample.calibrated_s = replay.calibrated_s;
        if (traced.empty()) demand_samples = wrapper.demandSamples();
        traced.push_back(std::move(sample));
      } else {
        replay = replayAll(set, *scheduler, nullptr);
        untraced_walls.push_back(replay.wall_s);
        calibrated_walls.push_back(replay.calibrated_s);
      }
    } catch (const std::exception& e) {
      out.check(false, std::string("replay threw: ") + e.what());
      break;
    }
    const double replay_wall = replay.wall_s;
    if (i == 0) checksum = finishChecksum(replay.results);
    std::string why;
    out.check(replayIsCorrect(set, replay, lower_bounds, checksum, why), "replay: " + why);
    if (i == 0) first_replay = std::move(replay);
    // Stop once the window is used up, or when one more replay would
    // overrun it by more than half a replay.
    const bool enough = !options.traced || !traced.empty();
    if (enough && nowSeconds() - window_start + 0.5 * replay_wall >= options.seconds) break;
  }
  if (first_replay.results.empty()) return out;

  const std::vector<double> ccts = allCcts(first_replay);
  const double replay_s = median(untraced_walls);
  // The fb size distribution is heavy tailed, so a seed's input can carry
  // 15% more bytes than another's, and the replay takes longer with it
  // (correlation 0.8 over ten seeds). Time per replayed gigabyte leaves
  // that out; for one seed it is the replay time over a constant.
  double input_gb = 0;
  for (const Workload& wl : set.traces) input_gb += wl.totalBytes() / 1e9;
  const double peak_rss_mb = peakRssMb();
  if (options.traced) {
    addSimLayerMetrics(out, set, first_replay, traced, calibrated_walls, demand_samples,
                       generate_s, write_s, read_s);
    if (!options.trace_out.empty() &&
        !spans->writeChromeJson(options.trace_out, hostFactsJson(readHostFacts()))) {
      out.notes.push_back("could not write " + options.trace_out);
    }
  } else {
    out.add("setup_s", "s", median(setup_s));
    out.add("peak_rss_mb", "MB", peak_rss_mb);
    out.add("host_us_per_op", "us", median(calibrated_walls) * 1e6 / input_gb);
    out.add("delay_mean_ms", "ms", mean(ccts) * 1e3);
    out.add("delay_tail_ms", "ms", quantile(ccts, 0.95) * 1e3);
  }
  out.notes.push_back("replays: " + std::to_string(untraced_walls.size()) + " untraced, " +
                      std::to_string(traced.size()) + " traced; " +
                      std::to_string(set.traces.size()) + " traces x " +
                      std::to_string(kJobsPerTrace) + " jobs, " + std::to_string(kPorts) +
                      " ports");
  out.notes.push_back("replay_s " + fmt(replay_s) + " s (" + fmt(median(calibrated_walls)) +
                      " s at the reference host's speed) for " + fmt(input_gb) +
                      " GB of flow bytes");
  out.notes.push_back("avg_cct_s " + fmt(mean(ccts)) + " s");
  out.notes.push_back("p95_cct_s " + fmt(quantile(ccts, 0.95)) + " s");
  out.notes.push_back("setup_s " + fmt(median(setup_s)) + " s");
  out.notes.push_back("peak_rss_mb " + fmt(peak_rss_mb) + " MB");
  return out;
}

}  // namespace perfbench
