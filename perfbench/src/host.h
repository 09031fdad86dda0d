// Facts about the machine and the build, read at run time so every result
// describes the host it was measured on.
#pragma once

#include <string>

namespace perfbench {

struct HostFacts {
  unsigned nproc = 0;      ///< Online CPUs (sysconf).
  std::string cpu_model;   ///< /proc/cpuinfo "model name".
  std::string compiler;    ///< __VERSION__ of the compiler that built this.
  std::string build_type;  ///< CMAKE_BUILD_TYPE of the benchmark build.
  bool optimized = false;  ///< Built with optimization (__OPTIMIZE__).
};

HostFacts readHostFacts();
/// One-line JSON object of the facts, for the result's header lines.
std::string hostFactsJson(const HostFacts& facts);
/// Peak resident set size of this process so far, in MB.
double peakRssMb();

}  // namespace perfbench
