// aalo_perfbench: runs one benchmark workload and prints its metrics.
//
//   aalo_perfbench --workload fb_dclas|fb_fifo|coord_fleet --seed N
//                  --seconds S [--trace 0|1] [--work-dir DIR] [--trace-out FILE]
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {value, unit}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (from a separate, traced run). Exit code 1 when a correctness check
// failed, 2 on bad arguments or an unoptimized build.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "coord_fleet.h"
#include "host.h"
#include "sim_workload.h"
#include "stats.h"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload fb_dclas|fb_fifo|coord_fleet --seed N --seconds S "
               "[--trace 0|1] [--work-dir DIR] [--trace-out FILE]\n",
               argv0);
}

std::string jsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage(argv[0]);
      return 2;
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      traced = value == "1";
    } else if (arg == "--work-dir") {
      work_dir = value;
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (seconds <= 0) {
    usage(argv[0]);
    return 2;
  }

  const perfbench::HostFacts host = perfbench::readHostFacts();
  if (!host.optimized) {
    std::fprintf(stderr, "aalo_perfbench: refusing to measure an unoptimized build (%s)\n",
                 host.build_type.c_str());
    return 2;
  }

  perfbench::RunResult result;
  try {
    if (workload == "fb_dclas" || workload == "fb_fifo") {
      perfbench::SimRunOptions options;
      options.discipline = workload == "fb_fifo" ? perfbench::SimDiscipline::kFifo
                                                 : perfbench::SimDiscipline::kDClas;
      options.seed = seed;
      options.seconds = seconds;
      options.traced = traced;
      options.work_dir = work_dir;
      options.trace_out = trace_out;
      result = perfbench::runSimWorkload(options);
    } else if (workload == "coord_fleet") {
      perfbench::FleetOptions options;
      options.seed = seed;
      options.seconds = seconds;
      options.traced = traced;
      options.trace_out = trace_out;
      result = perfbench::runCoordFleet(options);
    } else {
      usage(argv[0]);
      return 2;
    }
  } catch (const std::exception& e) {
    result.check(false, std::string("workload threw: ") + e.what());
  }

  std::printf("host: %s\n", perfbench::hostFactsJson(host).c_str());
  std::printf("workload: %s seed %llu seconds %g trace %d\n", workload.c_str(),
              static_cast<unsigned long long>(seed), seconds, traced ? 1 : 0);
  for (const std::string& note : result.notes) std::printf("  %s\n", note.c_str());
  std::printf("  failed_share %s (%llu of %llu)\n",
              jsonNumber(result.attempted == 0
                             ? 1.0
                             : static_cast<double>(result.failed) /
                                   static_cast<double>(result.attempted))
                  .c_str(),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  for (const auto& m : result.metrics) {
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  const bool correct = result.failed == 0 && result.attempted > 0;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + jsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
