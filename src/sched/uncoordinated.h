// Aalo without coordination — the "Uncoordinated Non-Clairvoyant" baseline
// of §7.2.1 and Figures 8/9.
//
// Each ingress port runs its own D-CLAS instance using only locally
// observed attained service: local queue assignment, FIFO within the
// local queue, weighted sharing across queues. Because a wide coflow's
// per-port sizes differ wildly, ports disagree about which queue a coflow
// belongs to; combined with FIFO's exclusivity inside a queue this
// produces convoy effects and stragglers — the Theorem A.1 pathology.
#pragma once

#include <functional>
#include <span>

#include "sched/common.h"
#include "sched/dclas.h"

namespace aalo::sched {

/// Per-port D-CLAS, shared with the gossip variant (sched/gossip.h), which
/// differs only in what a port knows of a coflow's size, `size_at`. Each
/// port queues its coflows by that size and splits each non-empty queue's
/// weighted share of the port among the flows of the queue's FIFO-first
/// coflow; one max-min pass resolves egress contention, a second backfills
/// every active flow. Adds to `rates`; `config`'s policy and Δ are unused.
void allocatePerPortDClas(
    const sim::SimView& view, const DClasConfig& config,
    std::span<const util::Bytes> thresholds,
    const std::function<util::Bytes(int, const PortCoflow&)>& size_at,
    std::vector<ActiveCoflow>& groups_scratch, fabric::MaxMinScratch& scratch,
    std::vector<util::Rate>& rates);

class UncoordinatedDClasScheduler final : public sim::Scheduler {
 public:
  /// Uses the DClasConfig queue structure (thresholds apply to *local*
  /// attained service; sync_interval is ignored — there is no global
  /// anything here).
  explicit UncoordinatedDClasScheduler(DClasConfig config = {},
                                       util::Seconds quantum = 1.0);

  std::string name() const override { return "uncoordinated-dclas"; }

  void allocate(const sim::SimView& view, std::vector<util::Rate>& rates) override;
  util::Seconds nextWakeup(const sim::SimView& view) override;

 private:
  DClasConfig config_;
  std::vector<util::Bytes> thresholds_;
  util::Seconds quantum_;
  fabric::MaxMinScratch scratch_;
  std::vector<ActiveCoflow> groups_scratch_;
};

}  // namespace aalo::sched
