// The scheduler catalogue: the one table from a scheduler name to its
// configuration. Every paper default (D-CLAS K/E/Q1, the decentralized
// baselines' 2 s decision quantum) and every value derived from the
// workload (FIFO-LM's heavy threshold, the offline order) lives here, so
// aalo_sim, the benches and the golden tests build identical schedulers
// from the same name.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "coflow/spec.h"
#include "sched/fifo_lm.h"
#include "sim/scheduler.h"
#include "util/units.h"

namespace aalo::sched {

/// Every name makeScheduler accepts, in catalogue order.
std::vector<std::string_view> schedulerNames();

/// Builds the named scheduler for `workload`. `delta` is the coordination
/// interval Δ of "aalo"; no other entry reads it. Throws
/// std::invalid_argument for a name not in schedulerNames().
std::unique_ptr<sim::Scheduler> makeScheduler(std::string_view name,
                                              const coflow::Workload& workload,
                                              util::Seconds delta = 0);

/// FIFO-LM as the paper ran Baraat (§7.2.1): heavy threshold at the given
/// percentile of coflow total size over `workload` (the catalogue's
/// "fifo-lm" uses the 80th, the best point of the paper's sweep).
FifoLmConfig fifoLmConfig(const coflow::Workload& workload, double heavy_percentile);

}  // namespace aalo::sched
