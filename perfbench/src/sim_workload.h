// The trace-replay workloads: fb-shaped traces replayed through the
// flow-level simulator under D-CLAS (fb_dclas) or FIFO (fb_fifo).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sim/scheduler.h"
#include "stats.h"

namespace perfbench {

enum class SimDiscipline { kDClas, kFifo };

struct SimRunOptions {
  SimDiscipline discipline = SimDiscipline::kDClas;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  /// Directory for the written trace files (created if missing).
  std::string work_dir;
  /// Chrome trace output of a traced run; empty = none.
  std::string trace_out;
};

/// The scheduler a workload replays under: D-CLAS at the paper's defaults
/// with Δ = 10 ms, or FIFO without multiplexing.
std::unique_ptr<aalo::sim::Scheduler> makeScheduler(SimDiscipline discipline);

RunResult runSimWorkload(const SimRunOptions& options);

}  // namespace perfbench
