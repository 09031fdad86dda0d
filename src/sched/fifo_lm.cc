#include "sched/fifo_lm.h"

#include <algorithm>
#include <vector>

#include "coflow/ids.h"

namespace aalo::sched {

FifoLmScheduler::FifoLmScheduler(FifoLmConfig config) : config_(config) {}

void FifoLmScheduler::allocate(const sim::SimView& view, std::vector<util::Rate>& rates) {
  std::vector<std::vector<PortCoflow>> per_port =
      portLocalCoflows(view, groups_scratch_);

  const coflow::CoflowIdFifoLess fifo_less;
  std::vector<std::size_t> chosen;
  for (auto& queue : per_port) {
    if (queue.empty()) continue;
    std::sort(queue.begin(), queue.end(), [&](const PortCoflow& a, const PortCoflow& b) {
      return fifo_less(view.coflow(a.coflow_index).id, view.coflow(b.coflow_index).id);
    });
    // Limited multiplexing: serve the FIFO prefix up to and including the
    // first light coflow; heavy head-of-line coflows share instead of
    // blocking.
    for (const PortCoflow& pc : queue) {
      chosen.insert(chosen.end(), pc.flow_indices.begin(), pc.flow_indices.end());
      if (pc.local_sent < config_.heavy_threshold) break;  // First light one.
    }
  }

  fabric::ResidualCapacity residual(*view.fabric);
  backfillMaxMin(view, chosen, residual, rates, scratch_);
  if (config_.work_conserving) {
    backfillMaxMin(view, *view.active_flows, residual, rates, scratch_);
  }
}

util::Seconds FifoLmScheduler::nextWakeup(const sim::SimView& view) {
  return view.now + config_.quantum;
}

}  // namespace aalo::sched
