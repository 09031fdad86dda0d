#include "sched/uncoordinated.h"

#include <algorithm>
#include <vector>

#include "coflow/ids.h"

namespace aalo::sched {

void allocatePerPortDClas(
    const sim::SimView& view, const DClasConfig& config,
    std::span<const util::Bytes> thresholds,
    const std::function<util::Bytes(int, const PortCoflow&)>& size_at,
    std::vector<ActiveCoflow>& groups_scratch, fabric::MaxMinScratch& scratch,
    std::vector<util::Rate>& rates) {
  const std::vector<std::vector<PortCoflow>> per_port =
      portLocalCoflows(view, groups_scratch);
  const std::size_t k = thresholds.size() + 1;
  std::vector<fabric::Demand>& demands = scratch.demands;
  demands.clear();
  std::vector<std::size_t> chosen;
  // Per queue, the FIFO-first coflow: the only one of the queue that sends.
  std::vector<const PortCoflow*> heads(k);
  const coflow::CoflowIdFifoLess fifo_less;
  for (std::size_t p = 0; p < per_port.size(); ++p) {
    if (per_port[p].empty()) continue;
    std::ranges::fill(heads, nullptr);
    for (const PortCoflow& pc : per_port[p]) {
      const PortCoflow*& head =
          heads[static_cast<std::size_t>(
              queueForSize(thresholds, size_at(static_cast<int>(p), pc)))];
      if (head == nullptr || fifo_less(view.coflow(pc.coflow_index).id,
                                       view.coflow(head->coflow_index).id)) {
        head = &pc;
      }
    }
    double total_weight = 0;
    for (std::size_t q = 0; q < k; ++q) {
      if (heads[q] != nullptr) total_weight += config.queueWeight(static_cast<int>(q));
    }
    for (std::size_t q = 0; q < k; ++q) {
      if (heads[q] == nullptr) continue;
      // The head's flows split the queue's port share equally.
      const double share = config.queueWeight(static_cast<int>(q)) / total_weight;
      const double flow_weight =
          share / static_cast<double>(heads[q]->flow_indices.size());
      for (const std::size_t fi : heads[q]->flow_indices) {
        const sim::FlowState& f = view.flow(fi);
        demands.push_back(fabric::Demand{f.src, f.dst, flow_weight, fabric::kUncapped});
        chosen.push_back(fi);
      }
    }
  }

  fabric::ResidualCapacity residual(*view.fabric);
  const std::vector<util::Rate>& shares =
      fabric::maxMinAllocate(demands, residual, scratch);
  for (std::size_t i = 0; i < chosen.size(); ++i) rates[chosen[i]] += shares[i];
  backfillMaxMin(view, *view.active_flows, residual, rates, scratch);
}

UncoordinatedDClasScheduler::UncoordinatedDClasScheduler(DClasConfig config,
                                                         util::Seconds quantum)
    : config_(std::move(config)), quantum_(quantum) {
  thresholds_ = config_.thresholds();
}

void UncoordinatedDClasScheduler::allocate(const sim::SimView& view,
                                           std::vector<util::Rate>& rates) {
  allocatePerPortDClas(
      view, config_, thresholds_,
      [](int /*port*/, const PortCoflow& pc) { return pc.local_sent; },
      groups_scratch_, scratch_, rates);
}

util::Seconds UncoordinatedDClasScheduler::nextWakeup(const sim::SimView& view) {
  return view.now + quantum_;
}

}  // namespace aalo::sched
