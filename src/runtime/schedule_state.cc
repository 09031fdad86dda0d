#include "runtime/schedule_state.h"

#include <algorithm>

#include "sched/dclas.h"

namespace aalo::runtime {

namespace {

/// Deterministic wire order for delta payloads: same key the schedule
/// itself is sorted by.
bool entryLess(const net::ScheduleEntry& a, const net::ScheduleEntry& b) {
  if (a.queue != b.queue) return a.queue < b.queue;
  return coflow::CoflowIdFifoLess{}(a.id, b.id);
}

}  // namespace

ScheduleState::ScheduleState(std::vector<util::Bytes> thresholds,
                             std::size_t max_on_coflows)
    : thresholds_(std::move(thresholds)), max_on_(max_on_coflows) {}

ScheduleState::Entry& ScheduleState::ensureEntry(const coflow::CoflowId& id) {
  auto [it, inserted] = global_.try_emplace(id);
  if (inserted) {
    // Starts OFF under a finite ON budget; refreshOnSet() flips it on if
    // it fits — the appearance itself already marks it dirty.
    it->second.on = max_on_ == 0;
    order_.emplace(it->second.queue, id);
    dirty_.insert(id);
  }
  return it->second;
}

void ScheduleState::moveToQueue(const coflow::CoflowId& id, Entry& entry,
                                int queue) {
  if (queue == entry.queue) return;
  order_.erase({entry.queue, id});
  entry.queue = queue;
  order_.emplace(queue, id);
  dirty_.insert(id);
}

void ScheduleState::registerCoflow(const coflow::CoflowId& id) {
  registered_.insert(id);
  ensureEntry(id);
}

void ScheduleState::unregisterCoflow(const coflow::CoflowId& id) {
  registered_.erase(id);
  auto it = global_.find(id);
  if (it != global_.end()) {
    order_.erase({it->second.queue, id});
    if (it->second.sent) removed_.push_back(id);
    dirty_.erase(id);
    on_ids_.erase(id);
    global_.erase(it);
  }
  for (auto& [daemon, sizes] : reported_) sizes.erase(id);
}

void ScheduleState::applySize(std::uint64_t daemon_id,
                              const coflow::CoflowId& id, double bytes) {
  double& stored = reported_[daemon_id][id];
  const double diff = bytes - stored;
  stored = bytes;
  Entry& entry = ensureEntry(id);
  if (diff == 0) return;
  entry.bytes += diff;
  moveToQueue(id, entry,
              sched::queueForSize(thresholds_,
                                  static_cast<util::Bytes>(entry.bytes)));
}

void ScheduleState::dropDaemon(std::uint64_t daemon_id) {
  auto it = reported_.find(daemon_id);
  if (it == reported_.end()) return;
  for (const auto& [id, bytes] : it->second) {
    auto git = global_.find(id);
    if (git == global_.end()) continue;
    Entry& entry = git->second;
    entry.bytes -= bytes;
    if (entry.bytes < 0) entry.bytes = 0;
    moveToQueue(id, entry,
                sched::queueForSize(thresholds_,
                                    static_cast<util::Bytes>(entry.bytes)));
  }
  reported_.erase(it);
}

double ScheduleState::globalBytes(const coflow::CoflowId& id) const {
  auto it = global_.find(id);
  return it == global_.end() ? 0.0 : it->second.bytes;
}

std::unordered_map<coflow::CoflowId, double> ScheduleState::globalSizes()
    const {
  std::unordered_map<coflow::CoflowId, double> out;
  out.reserve(global_.size());
  for (const auto& [id, entry] : global_) out.emplace(id, entry.bytes);
  return out;
}

void ScheduleState::refreshOnSet() {
  if (max_on_ == 0) return;
  std::unordered_set<coflow::CoflowId> now_on;
  now_on.reserve(max_on_);
  std::size_t taken = 0;
  for (const auto& [queue, id] : order_) {
    if (taken++ == max_on_) break;
    now_on.insert(id);
  }
  for (const auto& id : on_ids_) {
    if (now_on.contains(id)) continue;
    auto it = global_.find(id);
    if (it == global_.end()) continue;
    it->second.on = false;
    dirty_.insert(id);
  }
  for (const auto& id : now_on) {
    if (on_ids_.contains(id)) continue;
    global_.at(id).on = true;
    dirty_.insert(id);
  }
  on_ids_ = std::move(now_on);
}

bool ScheduleState::buildDelta(std::vector<net::ScheduleEntry>& entries,
                               std::vector<coflow::CoflowId>& removals) {
  entries.clear();
  removals.clear();
  refreshOnSet();
  for (const auto& id : dirty_) {
    auto it = global_.find(id);
    if (it == global_.end()) continue;  // Unregistered since it dirtied.
    Entry& entry = it->second;
    // Net no-op (e.g. demoted then dropped-daemon promoted back): the
    // delta chain already announced this exact state, skip it.
    if (entry.sent && entry.queue == entry.sent_queue &&
        entry.on == entry.sent_on) {
      continue;
    }
    entries.push_back(net::ScheduleEntry{.id = id,
                                         .global_bytes = entry.bytes,
                                         .queue = entry.queue,
                                         .on = entry.on});
    entry.sent = true;
    entry.sent_queue = entry.queue;
    entry.sent_on = entry.on;
  }
  dirty_.clear();
  std::sort(entries.begin(), entries.end(), entryLess);
  removals = std::move(removed_);
  removed_.clear();
  std::sort(removals.begin(), removals.end(), coflow::CoflowIdFifoLess{});
  return !entries.empty() || !removals.empty();
}

void ScheduleState::snapshotEntries(std::vector<net::ScheduleEntry>& out)
    const {
  out.clear();
  out.reserve(order_.size());
  std::size_t position = 0;
  for (const auto& [queue, id] : order_) {
    const Entry& entry = global_.at(id);
    out.push_back(net::ScheduleEntry{
        .id = id,
        .global_bytes = entry.bytes,
        .queue = queue,
        .on = max_on_ == 0 || position < max_on_});
    ++position;
  }
}

void ScheduleState::legacySchedule(const TombstoneFilter& tombstoned,
                                   std::vector<net::ScheduleEntry>& out)
    const {
  std::unordered_map<coflow::CoflowId, double> global;
  for (const auto& id : registered_) global[id] = 0.0;
  for (const auto& [daemon, sizes] : reported_) {
    for (const auto& [id, bytes] : sizes) {
      if (tombstoned && tombstoned(id)) continue;
      global[id] += bytes;
    }
  }
  out.clear();
  out.reserve(global.size());
  for (const auto& [id, bytes] : global) {
    out.push_back(net::ScheduleEntry{
        .id = id,
        .global_bytes = bytes,
        .queue = sched::queueForSize(thresholds_,
                                     static_cast<util::Bytes>(bytes)),
        .on = true});
  }
  std::sort(out.begin(), out.end(), entryLess);
  if (max_on_ > 0) {
    for (std::size_t i = max_on_; i < out.size(); ++i) out[i].on = false;
  }
}

}  // namespace aalo::runtime
