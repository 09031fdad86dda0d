// The live-coordinator workload (coord_fleet): a runtime::Coordinator on
// its default path (delta coding, one shard, Δ = 10 ms) driven in-process
// over loopback by one generator thread — 1000 logical daemons on three
// connections reporting every Δ, plus an open-loop stream of coflow
// registrations and unregistrations on a fourth, taken from an fb-shaped
// trace.
#pragma once

#include <cstdint>
#include <string>

#include "stats.h"

namespace perfbench {

struct FleetOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  /// Chrome trace output of a traced run; empty = none.
  std::string trace_out;
};

RunResult runCoordFleet(const FleetOptions& options);

}  // namespace perfbench
