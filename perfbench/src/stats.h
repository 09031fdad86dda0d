// Order statistics and the result record shared by the benchmark's
// workloads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// util::Summary's percentile (linear interpolation), q in [0, 1], and
/// its mean; both read 0 for an empty sample instead of throwing.
double quantile(const std::vector<double>& samples, double q);
inline double median(const std::vector<double>& samples) { return quantile(samples, 0.5); }
double mean(const std::vector<double>& samples);
/// `v` with six significant digits, for the human-readable lines.
std::string fmt(double v);

/// One reported number: name, unit and value, printed as
/// `"name": {"value": v, "unit": "u"}` in the result line.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// Everything one benchmark invocation reports.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The gated metrics: end-to-end ones untraced, per-layer ones traced.
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result line: host facts,
  /// the workload's own metric names, and what failed.
  std::vector<std::string> notes;

  void add(std::string name, std::string unit, double value) {
    metrics.push_back(Metric{std::move(name), std::move(unit), value});
  }
  /// Counts one checked operation; returns `ok`.
  bool check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      notes.push_back("FAILED: " + what);
    }
    return ok;
  }
};

/// Monotonic clock in seconds (steady_clock).
double nowSeconds();

/// Wall time of a fixed synthetic loop, about 11 ms on the reference host
/// below: integer work in four independent xorshift chains, then a pointer
/// chase through 1 MiB. It shares no code with the program, so its time
/// tracks only how fast the host runs right now. The integer part slows
/// when another tenant shares the core, as the allocator-heavy replay
/// does; the chase slows with cache and memory contention, as the
/// engine-heavy replay does.
double calibrationSeconds();
/// calibrationSeconds() on the reference host: a 4-vCPU "Intel(R) Xeon(R)
/// Processor" VM, g++ 12.2 -O3.
inline constexpr double kReferenceCalibrationSeconds = 0.0107;
/// CPU time of the calling thread / of the whole process, in seconds.
double threadCpuSeconds();
double processCpuSeconds();

}  // namespace perfbench
