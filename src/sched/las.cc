#include "sched/las.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

namespace aalo::sched {

DecentralizedLasScheduler::DecentralizedLasScheduler(LasConfig config)
    : config_(config) {}

void DecentralizedLasScheduler::allocate(const sim::SimView& view,
                                         std::vector<util::Rate>& rates) {
  const auto ports = static_cast<std::size_t>(view.fabric->numPorts());

  // Locally attained service per (ingress port, coflow): only the bytes a
  // daemon can see leave through its own uplink.
  std::vector<std::unordered_map<std::size_t, util::Bytes>> local_sent(ports);
  std::vector<std::vector<std::size_t>> port_flows(ports);
  for (const std::size_t fi : *view.active_flows) {
    const sim::FlowState& f = view.flow(fi);
    const auto p = static_cast<std::size_t>(f.src);
    local_sent[p][f.coflow_index];  // Ensure the entry exists even at 0.
    port_flows[p].push_back(fi);
  }
  // Attained service includes already-finished flows of still-active
  // coflows: a daemon remembers everything the coflow sent via its uplink.
  for (const ActiveCoflow& group : activeGroups(view, groups_scratch_)) {
    const sim::CoflowState& c = view.coflow(group.coflow_index);
    for (const std::size_t fi : c.flow_indices) {
      const sim::FlowState& f = view.flow(fi);
      if (!f.started || f.sent <= 0) continue;
      const auto p = static_cast<std::size_t>(f.src);
      auto it = local_sent[p].find(group.coflow_index);
      if (it != local_sent[p].end()) it->second += f.sent;
    }
  }

  // Each port independently selects its least-locally-attained coflow(s).
  std::vector<std::size_t> chosen_flows;
  for (std::size_t p = 0; p < ports; ++p) {
    if (port_flows[p].empty()) continue;
    util::Bytes min_attained = std::numeric_limits<util::Bytes>::infinity();
    for (const auto& [ci, bytes] : local_sent[p]) {
      min_attained = std::min(min_attained, bytes);
    }
    for (const std::size_t fi : port_flows[p]) {
      const sim::FlowState& f = view.flow(fi);
      if (local_sent[p].at(f.coflow_index) - min_attained <= config_.tie_window) {
        chosen_flows.push_back(fi);
      }
    }
  }

  fabric::ResidualCapacity residual(*view.fabric);
  backfillMaxMin(view, chosen_flows, residual, rates, scratch_);
  if (config_.work_conserving) {
    backfillMaxMin(view, *view.active_flows, residual, rates, scratch_);
  }
}

util::Seconds DecentralizedLasScheduler::nextWakeup(const sim::SimView& view) {
  return view.now + config_.quantum;
}

}  // namespace aalo::sched
