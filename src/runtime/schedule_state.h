// Incrementally maintained global schedule for the Aalo coordinator.
//
// The pre-delta coordinator did O(daemons x coflows) work every Δ: rebuild
// the global size map from every stored report, re-discretize every coflow,
// and fully re-sort the schedule — even when nothing changed. This class
// makes the per-Δ cost proportional to *change* instead:
//
//  * Size reports are applied as they arrive: each reported (daemon,
//    coflow, absolute bytes) pair updates the coflow's global size by the
//    difference from that daemon's previous report, re-discretizes just
//    that coflow (binary search over the thresholds), and — only on a
//    queue change — moves it within the ordered schedule in O(log n).
//  * The schedule is a std::set keyed by (queue, CoflowIdFifoLess), i.e.
//    permanently sorted; there is no per-broadcast sort.
//  * Coflows whose queue moved, whose ON/OFF gate toggled, or that
//    appeared/vanished since the last broadcast accumulate in a dirty set;
//    buildDelta() drains it into a kScheduleDelta payload (empty when the
//    schedule is unchanged — the broadcast is suppressed to a heartbeat).
//
// legacySchedule() reproduces the original rebuild-the-world path verbatim
// and serves both as the full-broadcast oracle mode and as the reference
// in equivalence tests (same pattern as fabric::maxMinAllocateReference).
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "coflow/ids.h"
#include "net/protocol.h"
#include "util/units.h"

namespace aalo::runtime {

class ScheduleState {
 public:
  /// `thresholds`: ascending D-CLAS upper bounds (one fewer than the
  /// number of queues). `max_on_coflows`: §6.2 ON/OFF budget, 0 = all ON.
  ScheduleState(std::vector<util::Bytes> thresholds,
                std::size_t max_on_coflows);

  /// A client registered `id`: it enters the schedule at queue 0 with
  /// zero global bytes (new == likely small).
  void registerCoflow(const coflow::CoflowId& id);

  /// A client unregistered `id`: it leaves the schedule (daemons learn
  /// this through a delta removal or its absence from a snapshot) and all
  /// per-daemon observations of it are discarded.
  void unregisterCoflow(const coflow::CoflowId& id);

  /// One reported observation: daemon `daemon_id` has seen `bytes` total
  /// (absolute, monotone per daemon) for `id`. The caller must have
  /// tombstone-filtered `id` already. Creates the coflow if unknown —
  /// that is how a restarted coordinator re-learns state (§3.2).
  void applySize(std::uint64_t daemon_id, const coflow::CoflowId& id,
                 double bytes);

  /// The daemon disconnected or was evicted: subtract everything it
  /// reported from the global sizes (exactly what the legacy rebuild did
  /// by dropping its report map).
  void dropDaemon(std::uint64_t daemon_id);

  std::size_t registeredCount() const { return registered_.size(); }
  std::size_t scheduledCount() const { return global_.size(); }

  /// Global size of `id` (0 when unknown). Test/diagnostic accessor.
  double globalBytes(const coflow::CoflowId& id) const;
  std::unordered_map<coflow::CoflowId, double> globalSizes() const;

  /// Drains the accumulated changes since the previous buildDelta() into
  /// `entries` (coflows whose (queue, ON) differs from what the delta
  /// chain last announced, or that appeared) and `removals` (vanished
  /// coflows the chain had announced). Entries come sorted by
  /// (queue, FIFO id) so the wire bytes are deterministic. Returns false
  /// when both are empty — the schedule is unchanged and the broadcast
  /// can be suppressed to an epoch-only heartbeat.
  bool buildDelta(std::vector<net::ScheduleEntry>& entries,
                  std::vector<coflow::CoflowId>& removals);

  /// The full current schedule, sorted, with the ON gate applied
  /// positionally — what a snapshot (kScheduleUpdate) carries.
  void snapshotEntries(std::vector<net::ScheduleEntry>& out) const;

  /// Serialization accessors (checkpointing): the raw per-daemon absolute
  /// reports and the registered set are the whole ground truth — replaying
  /// them through registerCoflow()/applySize() on a freshly constructed
  /// state reproduces global_/order_ exactly (the schedule is a sorted
  /// set, so snapshotEntries() is bit-identical regardless of replay
  /// order).
  const std::unordered_map<std::uint64_t,
                           std::unordered_map<coflow::CoflowId, double>>&
  reportedSizes() const {
    return reported_;
  }
  const std::unordered_set<coflow::CoflowId>& registeredIds() const {
    return registered_;
  }

  using TombstoneFilter = std::function<bool(const coflow::CoflowId&)>;
  /// Reference oracle: rebuilds the schedule from scratch out of the
  /// stored per-daemon reports + registrations, exactly as the
  /// pre-incremental coordinator did every Δ. Used by full-broadcast
  /// mode and by the equivalence tests.
  void legacySchedule(const TombstoneFilter& tombstoned,
                      std::vector<net::ScheduleEntry>& out) const;

 private:
  struct OrderLess {
    bool operator()(const std::pair<int, coflow::CoflowId>& a,
                    const std::pair<int, coflow::CoflowId>& b) const {
      if (a.first != b.first) return a.first < b.first;
      return coflow::CoflowIdFifoLess{}(a.second, b.second);
    }
  };
  using OrderSet = std::set<std::pair<int, coflow::CoflowId>, OrderLess>;

  struct Entry {
    double bytes = 0;
    int queue = 0;
    bool on = true;
    /// What the delta chain last announced for this coflow; a dirty
    /// coflow whose net (queue, on) is unchanged is dropped from the
    /// delta again.
    bool sent = false;
    int sent_queue = 0;
    bool sent_on = true;
  };

  Entry& ensureEntry(const coflow::CoflowId& id);
  void moveToQueue(const coflow::CoflowId& id, Entry& entry, int queue);
  /// Recomputes the §6.2 ON set (first max_on_ coflows in schedule
  /// order); every toggled coflow joins the dirty set.
  void refreshOnSet();

  std::vector<util::Bytes> thresholds_;
  std::size_t max_on_ = 0;

  /// daemon_id -> coflow -> last reported absolute local bytes.
  std::unordered_map<std::uint64_t,
                     std::unordered_map<coflow::CoflowId, double>>
      reported_;
  std::unordered_set<coflow::CoflowId> registered_;
  std::unordered_map<coflow::CoflowId, Entry> global_;
  /// The schedule itself: (queue, id) kept permanently sorted.
  OrderSet order_;
  /// Coflows whose entry changed since the last buildDelta().
  std::unordered_set<coflow::CoflowId> dirty_;
  /// Announced coflows unregistered since the last buildDelta().
  std::vector<coflow::CoflowId> removed_;
  /// Currently-ON coflows (maintained only when max_on_ > 0).
  std::unordered_set<coflow::CoflowId> on_ids_;
};

}  // namespace aalo::runtime
