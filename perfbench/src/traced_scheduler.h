// Forwarding sim::Scheduler that times every call into the wrapped
// scheduler. The engine cannot tell it from the bare scheduler: each call
// is forwarded unchanged, so the replay's SimResult is bit-identical
// (checked by tests/traced_scheduler_test.cc).
#pragma once

#include <cstdint>
#include <vector>

#include "fabric/maxmin.h"
#include "sim/scheduler.h"
#include "span_trace.h"

namespace perfbench {

/// Time spent inside the scheduler, by kind of call, over one or more
/// replays.
struct SchedTimes {
  double allocate_s = 0;
  std::uint64_t allocate_calls = 0;
  std::vector<double> allocate_us;  ///< One sample per allocate() call.
  double epoch_s = 0;   ///< scheduleEpoch().
  double wakeup_s = 0;  ///< nextWakeup().
  double hooks_s = 0;   ///< reset() and the lifecycle / per-flow hooks.
  /// nextWakeup() runs once per engine round with active flows; the
  /// active-flow count it sees gives the engine's per-round work size.
  std::uint64_t rounds = 0;
  std::uint64_t active_flow_sum = 0;

  double totalSeconds() const { return allocate_s + epoch_s + wakeup_s + hooks_s; }
};

class TracedScheduler final : public aalo::sim::Scheduler {
 public:
  /// `times` accumulates across calls; `spans` (nullable) receives one
  /// span per call. Neither is owned.
  TracedScheduler(aalo::sim::Scheduler& inner, SchedTimes& times, SpanTrace* spans)
      : inner_(inner), times_(times), spans_(spans) {}

  /// Keeps the demand set (all active flows, uncapped, weight 1) of every
  /// `every`-th allocate() call, up to `max_samples`, for the allocator
  /// probe (fabric.maxmin_*). 0 disables sampling.
  void sampleDemands(std::size_t every, std::size_t max_samples) {
    sample_every_ = every;
    max_samples_ = max_samples;
  }
  const std::vector<std::vector<aalo::fabric::Demand>>& demandSamples() const {
    return samples_;
  }

  std::string name() const override { return inner_.name(); }
  void reset(const aalo::fabric::Fabric& fabric) override;
  void onCoflowReleased(const aalo::sim::SimView& view, std::size_t coflow_index) override;
  void onCoflowFinished(const aalo::sim::SimView& view, std::size_t coflow_index) override;
  void onFlowStarted(const aalo::sim::SimView& view, std::size_t flow_index) override;
  void onFlowCompleted(const aalo::sim::SimView& view, std::size_t flow_index) override;
  std::uint64_t scheduleEpoch(const aalo::sim::SimView& view) override;
  void allocate(const aalo::sim::SimView& view, std::vector<aalo::util::Rate>& rates) override;
  std::size_t rejectedCoflows() const override { return inner_.rejectedCoflows(); }
  aalo::util::Seconds nextWakeup(const aalo::sim::SimView& view) override;

 private:
  template <typename Fn>
  double timed(const char* span_name, Fn&& fn);

  aalo::sim::Scheduler& inner_;
  SchedTimes& times_;
  SpanTrace* spans_;
  std::size_t sample_every_ = 0;
  std::size_t max_samples_ = 0;
  std::vector<std::vector<aalo::fabric::Demand>> samples_;
};

}  // namespace perfbench
