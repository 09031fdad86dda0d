#include "host.h"

#include <unistd.h>

#include <fstream>

namespace perfbench {

HostFacts readHostFacts() {
  HostFacts facts;
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  facts.nproc = online > 0 ? static_cast<unsigned>(online) : 0;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        facts.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  if (facts.cpu_model.empty()) facts.cpu_model = "unknown";
  facts.compiler = __VERSION__;
  facts.build_type = PERFBENCH_BUILD_TYPE;
#ifdef __OPTIMIZE__
  facts.optimized = true;
#endif
  return facts;
}

namespace {
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}
}  // namespace

std::string hostFactsJson(const HostFacts& facts) {
  return "{\"nproc\": " + std::to_string(facts.nproc) +
         ", \"cpu_model\": " + quoted(facts.cpu_model) +
         ", \"compiler\": " + quoted(facts.compiler) +
         ", \"build_type\": " + quoted(facts.build_type) +
         ", \"cxx_flags\": " + quoted(PERFBENCH_CXX_FLAGS) + "}";
}

double peakRssMb() {
  // VmHWM, not getrusage(): ru_maxrss survives execve, so it would report
  // the launching process's peak when that was higher.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB.
  }
  return 0;
}

}  // namespace perfbench
