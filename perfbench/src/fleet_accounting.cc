#include "fleet_accounting.h"

#include <stdexcept>

namespace perfbench {

FleetAccounting::FleetAccounting(std::size_t connections, double staleness_limit_s)
    : connections_(connections), limit_s_(staleness_limit_s) {
  if (connections == 0 || connections > 32) {
    throw std::invalid_argument("FleetAccounting: 1..32 connections");
  }
}

void FleetAccounting::rpcSent(std::uint64_t request_id, double due_s) {
  rpc_due_[request_id] = due_s;
  ++totals_.rpc_attempted;
}

bool FleetAccounting::rpcReplied(std::uint64_t request_id, double now_s) {
  const auto it = rpc_due_.find(request_id);
  if (it == rpc_due_.end()) return false;
  totals_.rpc_latency_s.push_back(now_s - it->second);
  rpc_due_.erase(it);
  return true;
}

void FleetAccounting::crossing(const aalo::coflow::CoflowId& id, int queue,
                               double sent_s) {
  pending_[id].push_back(Pending{queue, sent_s, 0});
  ++totals_.crossings_attempted;
}

void FleetAccounting::scheduleEntry(std::size_t conn, const aalo::coflow::CoflowId& id,
                                    int queue, double now_s) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;
  const std::uint32_t all = (connections_ == 32) ? ~0u : ((1u << connections_) - 1);
  std::vector<Pending>& list = it->second;
  for (std::size_t i = 0; i < list.size();) {
    Pending& p = list[i];
    // A frame placing the coflow at or past the crossed queue reflects it.
    if (p.queue <= queue) p.reached |= 1u << conn;
    if (p.reached == all) {
      const double staleness = now_s - p.sent_s;
      totals_.staleness_s.push_back(staleness);
      if (staleness > limit_s_) ++totals_.crossings_failed;
      list[i] = list.back();
      list.pop_back();
    } else {
      ++i;
    }
  }
  if (list.empty()) pending_.erase(it);
}

void FleetAccounting::cancel(const aalo::coflow::CoflowId& id) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;
  totals_.crossings_attempted -= it->second.size();
  pending_.erase(it);
}

void FleetAccounting::epochReceived(std::size_t conn, std::uint64_t epoch) {
  epoch_reached_[epoch] |= 1u << conn;
}

std::uint64_t FleetAccounting::incompleteEpochs(std::uint64_t first,
                                                std::uint64_t last) const {
  const std::uint32_t all = (connections_ == 32) ? ~0u : ((1u << connections_) - 1);
  std::uint64_t missing = 0;
  for (std::uint64_t e = first; e <= last; ++e) {
    const auto it = epoch_reached_.find(e);
    if (it == epoch_reached_.end() || it->second != all) ++missing;
  }
  return missing;
}

FleetAccounting::Totals FleetAccounting::finish() const {
  Totals totals = totals_;
  totals.rpc_failed += rpc_due_.size();
  for (const auto& [id, list] : pending_) totals.crossings_failed += list.size();
  return totals;
}

}  // namespace perfbench
