// Global FIFO — the Orchestra-style baseline (Chowdhury et al.,
// SIGCOMM'11) used in Figures 12d and 13.
//
// Coflows are served strictly in arrival order with centralized
// knowledge. In the paper's "FIFO without multiplexing" configuration the
// head coflow owns the fabric outright — inter-transfer FIFO, exactly one
// transfer at a time — which is optimal for light-tailed coflow sizes
// [25] but wastes ports the head does not touch. The work-conserving
// variant lets the head's leftovers spill to the next coflows in line
// without ever preempting.
#pragma once

#include "sched/common.h"

namespace aalo::sched {

struct FifoConfig {
  /// false = paper's "FIFO w/o multiplexing": only the head coflow sends.
  /// true  = leftovers spill over to later coflows (still no preemption).
  bool work_conserving_spillover = false;
};

class FifoScheduler final : public sim::Scheduler {
 public:
  FifoScheduler() = default;
  explicit FifoScheduler(FifoConfig config) : config_(config) {}

  std::string name() const override {
    return config_.work_conserving_spillover ? "fifo-spillover" : "fifo-orchestra";
  }

  void allocate(const sim::SimView& view, std::vector<util::Rate>& rates) override;

  /// Arrival order and release times are static per run, so the schedule
  /// depends only on membership — safe to reuse rates between membership
  /// changes.
  std::uint64_t scheduleEpoch(const sim::SimView& view) override {
    (void)view;
    return 1;
  }

 private:
  FifoConfig config_;
  fabric::ResidualCapacity residual_;
  fabric::MaxMinScratch scratch_;
  std::vector<ActiveCoflow> groups_scratch_;
  std::vector<const ActiveCoflow*> order_;
};

}  // namespace aalo::sched
