#include "stats.h"

#include <time.h>

#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "util/stats.h"

namespace perfbench {

double quantile(const std::vector<double>& samples, double q) {
  if (samples.empty()) return 0;
  aalo::util::Summary summary;
  summary.addAll(samples);
  return summary.percentile(q * 100);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  aalo::util::Summary summary;
  summary.addAll(samples);
  return summary.mean();
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
/// Keeps the calibration loop's result alive.
volatile std::uint64_t calibration_sink = 0;

/// One random cycle through 256 Ki slots (1 MiB): chasing it is bound by
/// load latency from the core's own caches.
const std::vector<std::uint32_t>& chaseCycle() {
  static const std::vector<std::uint32_t> next = [] {
    constexpr std::uint32_t kSlots = 1u << 18;
    std::vector<std::uint32_t> order(kSlots);
    for (std::uint32_t i = 0; i < kSlots; ++i) order[i] = i;
    std::uint64_t x = 88172645463325252ull;
    for (std::uint32_t i = kSlots - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(order[i], order[x % (i + 1)]);
    }
    std::vector<std::uint32_t> cycle(kSlots);
    for (std::uint32_t i = 0; i < kSlots; ++i) cycle[order[i]] = order[(i + 1) % kSlots];
    return cycle;
  }();
  return next;
}
}  // namespace

double calibrationSeconds() {
  const std::vector<std::uint32_t>& cycle = chaseCycle();
  const double start = nowSeconds();
  // Four independent chains: bound by how many integer operations the
  // core retires per cycle, not by one chain's latency.
  std::uint64_t x[4] = {88172645463325252ull, 1, 2, 3};
  for (int i = 0; i < 1'500'000; ++i) {
    for (std::uint64_t& v : x) {
      v ^= v << 13;
      v ^= v >> 7;
      v ^= v << 17;
    }
  }
  std::uint32_t slot = 0;
  for (int i = 0; i < 200'000; ++i) slot = cycle[slot];
  calibration_sink = x[0] ^ x[1] ^ x[2] ^ x[3] ^ slot;
  return nowSeconds() - start;
}

namespace {
double cpuClock(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double threadCpuSeconds() { return cpuClock(CLOCK_THREAD_CPUTIME_ID); }
double processCpuSeconds() { return cpuClock(CLOCK_PROCESS_CPUTIME_ID); }

}  // namespace perfbench
