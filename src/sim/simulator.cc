#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "sim/calendar.h"
#include "sim/metrics.h"
#include "util/units.h"

namespace aalo::sim {

namespace {

// Bytes closer to completion than this snap to done (fluid-rate rounding).
constexpr util::Bytes kCompletionSlackBytes = 1e-3;

struct TimelineEvent {
  util::Seconds time = 0;
  enum class Kind { kCoflowRelease, kFlowRelease } kind = Kind::kCoflowRelease;
  std::size_t index = 0;  ///< Coflow or flow index depending on kind.
  std::uint64_t seq = 0;  ///< FIFO tie-break for equal times.
};

struct EventLater {
  bool operator()(const TimelineEvent& a, const TimelineEvent& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// All mutable state of one run, torn down when run() returns.
class Run {
 public:
  Run(const fabric::FabricConfig& fabric_config, Scheduler& scheduler,
      const SimOptions& options, const coflow::Workload& workload)
      : fabric_(fabric_config),
        scheduler_(scheduler),
        options_(options),
        workload_(workload),
        incremental_(options.incremental_engine) {
    buildState();
  }

  SimResult execute();

 private:
  void buildState();
  void pushEvent(util::Seconds time, TimelineEvent::Kind kind, std::size_t index);
  void processDueEvents();
  void releaseCoflow(std::size_t ci);
  void releaseFlow(std::size_t fi);
  void finishCoflow(std::size_t ci);
  SimView makeView() const;
  void verifyAllocation() const;
  SimResult buildResult();

  SimResult executeLegacy();
  SimResult executeIncremental();
  void installAllocation(const SimView& view);
  void rekeyFlow(std::size_t fi, util::Bytes remaining, util::Bytes slack);
  bool completesNow(std::size_t k) const;
  void completeSlot(std::size_t k);
  void sweepCompletions();
  void mergeRunning(const std::vector<std::uint32_t>& touched);
  void markCoflowDirty(std::size_t ci);
  void verifyRound() const;

  static util::Bytes slackFor(util::Bytes size) {
    return std::max(kCompletionSlackBytes, 1e-9 * size);
  }

  fabric::Fabric fabric_;
  Scheduler& scheduler_;
  const SimOptions& options_;
  const coflow::Workload& workload_;
  const bool incremental_;

  std::vector<CoflowState> coflows_;
  FlowArena flows_;
  std::vector<std::size_t> active_flows_;
  ActiveCoflowIndex active_index_;
  std::vector<util::Rate> rates_;

  // Spec back-references and dependency bookkeeping, parallel to coflows_.
  std::vector<const coflow::CoflowSpec*> specs_;
  std::vector<int> barrier_parents_left_;
  std::vector<std::vector<std::size_t>> barrier_children_;
  std::vector<std::vector<std::size_t>> fb_parents_;  // finishes-before
  std::unordered_map<coflow::CoflowId, std::size_t> index_of_;

  std::priority_queue<TimelineEvent, std::vector<TimelineEvent>, EventLater> timeline_;
  std::uint64_t event_seq_ = 0;
  util::Seconds now_ = 0;
  std::size_t coflows_done_ = 0;
  std::size_t rounds_ = 0;

  // --- Incremental-engine state --------------------------------------
  // Per-coflow aggregate installed rate (SimView::coflow_rates).
  std::vector<util::Rate> coflow_rate_;
  // Flow-completion / snap-eligibility predictions (see calendar.h).
  EventCalendar calendar_;
  // Slot-packed mirrors of the active flows, aligned with active_flows_
  // (slot k describes flow active_flows_[k]; swap-removed in lockstep).
  // Between installs slot_sent_ is the *canonical* attained service of
  // active flows — the arena column is synced at install rounds (before
  // the scheduler reads it) and at completions, which the scheduleEpoch
  // contract already permits. Only *running* slots (rate > 0, listed in
  // running_ in ascending slot order) ever move between installs, so the
  // per-round passes walk running_ instead of every active slot: under
  // head-of-line schedulers most active flows sit blocked at rate 0.
  std::vector<util::Rate> slot_rate_;
  std::vector<util::Bytes> slot_sent_;
  std::vector<util::Bytes> slot_size_;
  std::vector<std::uint32_t> slot_coflow_;
  std::vector<std::size_t> slot_of_;     ///< flow index -> current slot.
  std::vector<std::uint32_t> running_;   ///< Ascending {k : slot_rate_[k] > 0}.
  std::vector<std::uint32_t> running_scratch_;  ///< mergeRunning scratch.
  std::vector<std::uint32_t> snap_due_;  ///< drainSnapDue scratch.
  std::vector<std::uint32_t> completion_due_;  ///< collectCompletionsNear scratch.
  std::vector<std::uint32_t> changed_slots_;   ///< installAllocation scratch.
  std::vector<std::uint32_t> sweep_slots_;     ///< sweepCompletions scratch.
  std::vector<std::uint32_t> swept_slots_;     ///< sweepCompletions scratch.
  // Coflows whose aggregate rate may have moved since the last install:
  // a member's rate changed, or a member was released or completed.
  std::vector<std::uint32_t> dirty_coflows_;
  std::vector<std::uint8_t> coflow_dirty_;
  bool installed_ = false;
  std::uint64_t installed_index_epoch_ = 0;
  std::uint64_t installed_sched_epoch_ = 0;
  std::size_t allocate_calls_ = 0;
  std::size_t reused_allocations_ = 0;
  std::size_t heap_rebuilds_ = 0;
};

void Run::buildState() {
  workload_.validate();
  if (workload_.num_ports != fabric_.numPorts()) {
    throw std::invalid_argument("Simulator: workload/fabric port count mismatch");
  }

  for (const coflow::JobSpec& job : workload_.jobs) {
    for (const coflow::CoflowSpec& spec : job.coflows) {
      const std::size_t ci = coflows_.size();
      index_of_[spec.id] = ci;
      specs_.push_back(&spec);
      CoflowState cs;
      cs.id = spec.id;
      cs.job = job.id;
      cs.spec_arrival = job.arrival + spec.arrival_offset;
      cs.deadline = spec.deadline;
      for (const coflow::FlowSpec& fs : spec.flows) {
        FlowState f;
        f.id = static_cast<coflow::FlowId>(flows_.size());
        f.coflow_index = ci;
        f.src = fs.src;
        f.dst = fs.dst;
        f.size = fs.bytes;
        cs.flow_indices.push_back(flows_.push(f));
      }
      coflows_.push_back(std::move(cs));
    }
  }

  barrier_parents_left_.assign(coflows_.size(), 0);
  barrier_children_.assign(coflows_.size(), {});
  fb_parents_.assign(coflows_.size(), {});
  std::size_t ci = 0;
  for (const coflow::JobSpec& job : workload_.jobs) {
    for (const coflow::CoflowSpec& spec : job.coflows) {
      for (const coflow::CoflowId& pid : spec.starts_after) {
        const std::size_t pi = index_of_.at(pid);
        barrier_children_[pi].push_back(ci);
        ++barrier_parents_left_[ci];
      }
      for (const coflow::CoflowId& pid : spec.finishes_before) {
        fb_parents_[ci].push_back(index_of_.at(pid));
      }
      ++ci;
    }
  }

  rates_.assign(flows_.size(), 0.0);
  active_index_.reset(coflows_.size(), flows_.size());
  for (std::size_t i = 0; i < coflows_.size(); ++i) {
    if (barrier_parents_left_[i] == 0) {
      pushEvent(coflows_[i].spec_arrival, TimelineEvent::Kind::kCoflowRelease, i);
    }
  }
}

void Run::pushEvent(util::Seconds time, TimelineEvent::Kind kind, std::size_t index) {
  timeline_.push(TimelineEvent{time, kind, index, event_seq_++});
}

SimView Run::makeView() const {
  SimView view;
  view.now = now_;
  view.fabric = &fabric_;
  view.coflows = &coflows_;
  view.flows = &flows_;
  view.active_flows = &active_flows_;
  view.active_index = &active_index_;
  if (incremental_) view.coflow_rates = &coflow_rate_;
  return view;
}

void Run::releaseCoflow(std::size_t ci) {
  CoflowState& c = coflows_[ci];
  c.released = true;
  c.release_time = now_;
  const coflow::CoflowSpec& spec = *specs_[ci];
  for (std::size_t k = 0; k < spec.flows.size(); ++k) {
    const std::size_t fi = c.flow_indices[k];
    const util::Seconds offset = spec.flows[k].start_offset;
    if (offset <= 0) {
      releaseFlow(fi);
    } else {
      pushEvent(now_ + offset, TimelineEvent::Kind::kFlowRelease, fi);
    }
  }
  scheduler_.onCoflowReleased(makeView(), ci);
}

void Run::releaseFlow(std::size_t fi) {
  flows_.started[fi] = 1;
  flows_.release_time[fi] = now_;
  active_flows_.push_back(fi);
  active_index_.addFlow(flows_.coflow_of[fi], fi, flows_.src_port[fi],
                        flows_.dst_port[fi]);
  coflows_[flows_.coflow_of[fi]].size_released += flows_.size_bytes[fi];
  if (incremental_) {
    // A released flow has no rate until the next install, so its slot
    // does not join running_.
    slot_of_[fi] = slot_rate_.size();
    slot_rate_.push_back(flows_.rate[fi]);
    slot_sent_.push_back(flows_.sent_bytes[fi]);
    slot_size_.push_back(flows_.size_bytes[fi]);
    slot_coflow_.push_back(flows_.coflow_of[fi]);
    markCoflowDirty(flows_.coflow_of[fi]);
    // Flows born inside the completion slack (zero/dust sizes) never get
    // a rate change to re-key them — arm the sweep gate here, exactly as
    // the legacy engine's unconditional sweep would catch them.
    const util::Bytes remaining = flows_.size_bytes[fi] - flows_.sent_bytes[fi];
    if (remaining <= slackFor(flows_.size_bytes[fi])) calendar_.pushSnap(fi, now_);
    scheduler_.onFlowStarted(makeView(), fi);
  }
}

void Run::finishCoflow(std::size_t ci) {
  CoflowState& c = coflows_[ci];
  c.done = true;
  c.finish_time = now_;
  ++coflows_done_;
  scheduler_.onCoflowFinished(makeView(), ci);
  for (const std::size_t child : barrier_children_[ci]) {
    if (--barrier_parents_left_[child] == 0) {
      pushEvent(std::max(now_, coflows_[child].spec_arrival),
                TimelineEvent::Kind::kCoflowRelease, child);
    }
  }
}

void Run::processDueEvents() {
  while (!timeline_.empty() && timeline_.top().time <= now_ + util::kEps) {
    const TimelineEvent ev = timeline_.top();
    timeline_.pop();
    switch (ev.kind) {
      case TimelineEvent::Kind::kCoflowRelease:
        releaseCoflow(ev.index);
        break;
      case TimelineEvent::Kind::kFlowRelease:
        releaseFlow(ev.index);
        break;
    }
  }
}

void Run::verifyAllocation() const {
  std::vector<util::Rate> in(static_cast<std::size_t>(fabric_.numPorts()), 0.0);
  std::vector<util::Rate> out(in.size(), 0.0);
  const std::size_t racks =
      fabric_.hasRacks() ? static_cast<std::size_t>(fabric_.numRacks()) : 0;
  std::vector<util::Rate> up(racks, 0.0);
  std::vector<util::Rate> down(racks, 0.0);
  for (const std::size_t fi : active_flows_) {
    const util::Rate rate = flows_.rate[fi];
    if (rate < 0) throw std::logic_error("Simulator: negative rate from scheduler");
    const coflow::PortId src = flows_.src_port[fi];
    const coflow::PortId dst = flows_.dst_port[fi];
    in[static_cast<std::size_t>(src)] += rate;
    out[static_cast<std::size_t>(dst)] += rate;
    if (racks > 0 && fabric_.crossRack(src, dst)) {
      up[static_cast<std::size_t>(fabric_.rackOf(src))] += rate;
      down[static_cast<std::size_t>(fabric_.rackOf(dst))] += rate;
    }
  }
  const double tol = 1e-6;
  for (std::size_t p = 0; p < in.size(); ++p) {
    const auto pid = static_cast<coflow::PortId>(p);
    if (in[p] > fabric_.ingressCapacity(pid) * (1.0 + tol) + util::kEps ||
        out[p] > fabric_.egressCapacity(pid) * (1.0 + tol) + util::kEps) {
      throw std::logic_error("Simulator: allocation exceeds port capacity (" +
                             scheduler_.name() + ")");
    }
  }
  for (std::size_t r = 0; r < racks; ++r) {
    const int rack = static_cast<int>(r);
    if (up[r] > fabric_.rackUplinkCapacity(rack) * (1.0 + tol) + util::kEps ||
        down[r] > fabric_.rackDownlinkCapacity(rack) * (1.0 + tol) + util::kEps) {
      throw std::logic_error("Simulator: allocation exceeds rack capacity (" +
                             scheduler_.name() + ")");
    }
  }
}

SimResult Run::execute() {
  return incremental_ ? executeIncremental() : executeLegacy();
}

SimResult Run::executeLegacy() {
  scheduler_.reset(fabric_);
  processDueEvents();  // Releases everything due at t = 0.

  while (true) {
    if (active_flows_.empty()) {
      if (timeline_.empty()) break;  // All done.
      now_ = timeline_.top().time;
      processDueEvents();
      continue;
    }

    if (++rounds_ > options_.max_rounds) {
      throw std::runtime_error("Simulator: exceeded max rounds (" + scheduler_.name() +
                               ")");
    }

    for (const std::size_t fi : active_flows_) rates_[fi] = 0.0;
    const SimView view = makeView();
    scheduler_.allocate(view, rates_);
    for (const std::size_t fi : active_flows_) {
      flows_.rate[fi] = std::max(0.0, rates_[fi]);
    }
    if (options_.verify_allocations) verifyAllocation();

    // Earliest next state change.
    util::Seconds t_next = timeline_.empty() ? kInfTime : timeline_.top().time;
    for (const std::size_t fi : active_flows_) {
      const util::Rate rate = flows_.rate[fi];
      if (rate > util::kEps) {
        t_next = std::min(t_next, now_ + (flows_.size_bytes[fi] - flows_.sent_bytes[fi]) / rate);
      }
    }
    const util::Seconds wake = scheduler_.nextWakeup(view);
    if (wake > now_) t_next = std::min(t_next, wake);

    if (!std::isfinite(t_next)) {
      throw std::runtime_error("Simulator: starvation deadlock under scheduler " +
                               scheduler_.name());
    }
    t_next = std::max(t_next, now_);  // Guard against wake-ups in the past.

    // Integrate.
    const util::Seconds dt = t_next - now_;
    if (dt > 0) {
      for (const std::size_t fi : active_flows_) {
        const util::Rate rate = flows_.rate[fi];
        if (rate <= 0) continue;
        const util::Bytes delta =
            std::min(rate * dt, flows_.size_bytes[fi] - flows_.sent_bytes[fi]);
        flows_.sent_bytes[fi] += delta;
        coflows_[flows_.coflow_of[fi]].sent += delta;
      }
    }
    now_ = t_next;

    // Flow completions (snap near-complete flows). The second clause is
    // the clock-resolution rule: at large now_ a nearly-done flow's
    // remaining transfer time can round below one ulp of the clock, so
    // its predicted completion equals now_ exactly — every round would
    // then pick dt = 0 and the state never advances. A flow whose
    // completion cannot move the clock is done at the fluid model's time
    // resolution; snapping it is the only way the run can make progress.
    for (std::size_t k = 0; k < active_flows_.size();) {
      const std::size_t fi = active_flows_[k];
      const util::Bytes remaining = flows_.size_bytes[fi] - flows_.sent_bytes[fi];
      const util::Rate frate = flows_.rate[fi];
      if (remaining <= slackFor(flows_.size_bytes[fi]) ||
          (frate > util::kEps && now_ + remaining / frate <= now_)) {
        const std::size_t ci = flows_.coflow_of[fi];
        coflows_[ci].sent += remaining;  // Account the snap.
        flows_.sent_bytes[fi] = flows_.size_bytes[fi];
        flows_.done[fi] = 1;
        flows_.rate[fi] = 0;
        active_flows_[k] = active_flows_.back();
        active_flows_.pop_back();
        active_index_.removeFlow(ci, fi);
        CoflowState& c = coflows_[ci];
        if (++c.flows_done == c.flow_indices.size()) {
          finishCoflow(ci);
        }
      } else {
        ++k;
      }
    }

    processDueEvents();
  }

  if (coflows_done_ != coflows_.size()) {
    throw std::runtime_error("Simulator: run ended with unfinished coflows");
  }
  allocate_calls_ = rounds_;
  return buildResult();
}

// --- Incremental (event-driven) engine -------------------------------
//
// Produces trajectories equivalent to executeLegacy() to 1e-9 on every
// finish time with identical round counts
// (tests/engine_equivalence_test.cc holds every scheduler to that bar).
// The per-round integration arithmetic — expression, order, and the
// completion-sweep order — is kept exactly the legacy loop's:
// schedulers that compare exact attained service (continuous CLAS's
// sort, D-CLAS threshold back-dating) amplify drift into different
// scheduling decisions. The engine's savings:
//
//  1. Allocation reuse (PR 3). Every membership change bumps the
//     active-index epoch, and schedulers opt in via scheduleEpoch().
//     When both epochs match the installed pair, the round skips rate
//     zeroing, allocate(), the rate copy, and verification outright.
//  2. Per-coflow aggregate rates (SimView::coflow_rates), refreshed at
//     install for the coflows whose member rates or membership changed
//     since the last install, by summing flow rates in group flow-index
//     order — bitwise equal to the per-flow fallback sum in
//     coflowAggregateRate(). An untouched group would sum the same
//     values in the same order, so skipping it changes no bit.
//  3. The event calendar (calendar.h). The legacy loop's two O(active)
//     scans per round — the t_next division scan and the completion
//     sweep — become a heap peek and a candidate sweep: per-flow
//     completion/snap predictions are computed once per rate change
//     (lazily invalidated, so reused rounds re-key nothing), and only
//     the flows the snap heap drains (predicted snap-eligible) are
//     examined for completion. Cached predictions drift from the legacy
//     per-round recomputations by accumulated-rounding ulps; the
//     completion slack (1e-3 bytes) and the gate's grace window absorb
//     that drift, which is what keeps the round structure identical.
//  4. Running-slot integration. Active flows' (rate, sent, size) live in
//     dense arrays aligned with active_flows_, and running_ lists the
//     slots with a nonzero rate in ascending order. Integration, the
//     per-coflow scatter and the pre-allocate copy-back of attained
//     service walk running_ only: a rate-0 slot would add an exact +0.0
//     (the legacy loop skips it), so visiting the running slots in
//     ascending order reproduces every bit. running_ is merged with
//     changed_slots_ at install and renumbered after swap-removes, both
//     O(running + changed).

void Run::rekeyFlow(std::size_t fi, util::Bytes remaining, util::Bytes slack) {
  calendar_.invalidate(fi);
  const util::Rate rate = flows_.rate[fi];
  if (rate > util::kEps) {
    calendar_.pushCompletion(fi, now_ + remaining / rate);
  }
  // `rate > 0` (not > kEps) so dust-rate flows that creep into the slack
  // window over a long horizon still open the gate when legacy would
  // snap them.
  if (rate > 0) {
    calendar_.pushSnap(fi, now_ + (remaining - slack) / rate);
  } else if (remaining <= slack) {
    calendar_.pushSnap(fi, now_);  // Zero-rate but already snap-eligible.
  }
}

void Run::markCoflowDirty(std::size_t ci) {
  if (coflow_dirty_[ci] != 0) return;
  coflow_dirty_[ci] = 1;
  dirty_coflows_.push_back(static_cast<std::uint32_t>(ci));
}

void Run::mergeRunning(const std::vector<std::uint32_t>& touched) {
  // running_ and `touched` are both ascending. Untouched running slots
  // are copied over in blocks; every touched slot is re-read from
  // slot_rate_. Slots at or past the end of the active range (vacated by
  // swap-removes) drop out. O(running + touched log running).
  const auto n = static_cast<std::uint32_t>(active_flows_.size());
  running_scratch_.clear();
  auto r = running_.begin();
  for (const std::uint32_t t : touched) {
    if (t >= n) break;
    const auto stop = std::lower_bound(r, running_.end(), t);
    running_scratch_.insert(running_scratch_.end(), r, stop);
    r = stop;
    if (r != running_.end() && *r == t) ++r;
    if (slot_rate_[t] > 0) running_scratch_.push_back(t);
  }
  running_scratch_.insert(running_scratch_.end(), r,
                          std::lower_bound(r, running_.end(), n));
  running_.swap(running_scratch_);
}

void Run::installAllocation(const SimView& view) {
  ++allocate_calls_;
  // Materialize attained service for the scheduler: slot_sent_ is the
  // canonical copy between installs (the legacy engine updates the
  // per-flow field directly). Only running slots were integrated since
  // the last copy-back — a slot leaves running_ at an install, after
  // this copy, or by completing, which writes the arena itself. rates_
  // needs no zeroing here — the rate copy-back loop below re-zeroes each
  // entry as it reads it.
  for (const std::uint32_t k : running_) {
    flows_.sent_bytes[active_flows_[k]] = slot_sent_[k];
  }
  scheduler_.allocate(view, rates_);
  changed_slots_.clear();
  for (std::size_t k = 0; k < active_flows_.size(); ++k) {
    const std::size_t fi = active_flows_[k];
    const util::Rate rate = std::max(0.0, rates_[fi]);
    // Re-zero in the same pass (the entry is already in cache) so the
    // next install skips a second scattered sweep over rates_.
    rates_[fi] = 0.0;
    if (rate != slot_rate_[k]) {
      // Only flows whose installed rate actually changed get re-keyed;
      // everything else keeps its calendar entries (lazy invalidation).
      // slot_rate_[k] always mirrors flows_.rate[fi], so the dense slot
      // read stands in for the scattered arena read.
      flows_.rate[fi] = rate;
      slot_rate_[k] = rate;
      changed_slots_.push_back(static_cast<std::uint32_t>(k));
      markCoflowDirty(slot_coflow_[k]);
    }
  }
  mergeRunning(changed_slots_);
  if (2 * changed_slots_.size() > active_flows_.size()) {
    // Most rates moved (the common case right after a membership change:
    // water-filling redistributes globally). Re-keying those one sift-up
    // at a time costs O(changed log heap) and buries the heaps in stale
    // entries; one contiguous heapify over *all* active flows is cheaper
    // and leaves both heaps fully valid. Recomputing an unchanged flow's
    // keys from current canonical state is safe — keys only nominate,
    // and the refreshed key equals this round's legacy expression.
    ++heap_rebuilds_;
    calendar_.beginRebuild();
    for (std::size_t k = 0; k < active_flows_.size(); ++k) {
      const std::size_t fi = active_flows_[k];
      const util::Rate rate = slot_rate_[k];
      const util::Bytes remaining = slot_size_[k] - slot_sent_[k];
      const util::Bytes slack = slackFor(slot_size_[k]);
      if (rate > util::kEps) calendar_.stageCompletion(fi, now_ + remaining / rate);
      if (rate > 0) {
        calendar_.stageSnap(fi, now_ + (remaining - slack) / rate);
      } else if (remaining <= slack) {
        calendar_.stageSnap(fi, now_);
      }
    }
    calendar_.finishRebuild();
  } else {
    for (const std::uint32_t k : changed_slots_) {
      rekeyFlow(active_flows_[k], slot_size_[k] - slot_sent_[k],
                slackFor(slot_size_[k]));
    }
  }
  if (options_.verify_allocations) verifyAllocation();

  // Aggregates in group flow-index order: coflowAggregateRate()'s
  // fallback sums in this exact order under the legacy engine, and
  // scheduler wake-up predictions need both engines to read bitwise-
  // equal totals. A coflow without a group keeps its last total.
  for (const std::uint32_t ci : dirty_coflows_) {
    coflow_dirty_[ci] = 0;
    const ActiveGroup* g = active_index_.groupFor(ci);
    if (g == nullptr) continue;
    util::Rate total = 0.0;
    for (const std::size_t fi : g->flow_indices) total += flows_.rate[fi];
    coflow_rate_[ci] = total;
  }
  dirty_coflows_.clear();

  installed_ = true;
  installed_index_epoch_ = active_index_.epoch();
  installed_sched_epoch_ = scheduler_.scheduleEpoch(view);
}

bool Run::completesNow(std::size_t k) const {
  // The legacy engine's completion condition, over the slot-packed state.
  // The second clause is the clock-resolution rule (see executeLegacy).
  const util::Bytes remaining = slot_size_[k] - slot_sent_[k];
  const util::Rate frate = slot_rate_[k];
  return remaining <= slackFor(slot_size_[k]) ||
         (frate > util::kEps && now_ + remaining / frate <= now_);
}

void Run::completeSlot(std::size_t k) {
  const std::size_t fi = active_flows_[k];
  const std::size_t ci = slot_coflow_[k];
  coflows_[ci].sent += slot_size_[k] - slot_sent_[k];  // Account the snap.
  flows_.sent_bytes[fi] = flows_.size_bytes[fi];
  flows_.done[fi] = 1;
  flows_.rate[fi] = 0;
  calendar_.invalidate(fi);
  active_flows_[k] = active_flows_.back();
  active_flows_.pop_back();
  slot_rate_[k] = slot_rate_.back();
  slot_rate_.pop_back();
  slot_sent_[k] = slot_sent_.back();
  slot_sent_.pop_back();
  slot_size_[k] = slot_size_.back();
  slot_size_.pop_back();
  slot_coflow_[k] = slot_coflow_.back();
  slot_coflow_.pop_back();
  if (k < active_flows_.size()) slot_of_[active_flows_[k]] = k;
  active_index_.removeFlow(ci, fi);
  markCoflowDirty(ci);
  scheduler_.onFlowCompleted(makeView(), fi);
  CoflowState& c = coflows_[ci];
  if (++c.flows_done == c.flow_indices.size()) {
    finishCoflow(ci);
  }
}

void Run::sweepCompletions() {
  // Candidate sweep over the drained flows (snap_due_), reproducing the
  // legacy scan-with-swap-remove order exactly. Nothing in a sweep moves
  // rates or attained service, so each candidate's legacy condition can
  // be decided up front. The legacy scan then completes the due slots in
  // ascending position, except that a swap-remove moves the last slot
  // into the completed one and re-examines it there: when that last slot
  // is itself due (necessarily the largest due slot), it completes next,
  // at the same position. Same-time completions are therefore processed
  // in the legacy order — the contract documented in DESIGN.md section 7.
  sweep_slots_.clear();
  for (const std::uint32_t fi : snap_due_) {
    const std::size_t k = slot_of_[fi];
    if (completesNow(k)) sweep_slots_.push_back(static_cast<std::uint32_t>(k));
  }
  if (sweep_slots_.empty()) return;
  std::sort(sweep_slots_.begin(), sweep_slots_.end());
  swept_slots_.clear();
  std::size_t lo = 0;
  std::size_t hi = sweep_slots_.size();
  while (lo < hi) {
    const std::uint32_t k = sweep_slots_[lo];
    const std::size_t last = active_flows_.size() - 1;
    if (sweep_slots_[hi - 1] == last && last != k) {
      --hi;  // The due last slot moves into k and completes there next.
    } else {
      ++lo;
    }
    if (swept_slots_.empty() || swept_slots_.back() != k) swept_slots_.push_back(k);
    completeSlot(k);
  }
  mergeRunning(swept_slots_);
}

void Run::verifyRound() const {
  // Per-round engine invariants, checked between integration and the
  // sweep. running_ is exactly the ascending list of nonzero-rate slots.
  std::size_t next = 0;
  for (std::size_t k = 0; k < active_flows_.size(); ++k) {
    if (slot_rate_[k] <= 0) continue;
    if (next >= running_.size() || running_[next] != k) {
      throw std::logic_error("Simulator: running-slot list out of sync");
    }
    ++next;
  }
  if (next != running_.size()) {
    throw std::logic_error("Simulator: running-slot list out of sync");
  }
  // Every slot the legacy sweep would complete this round is a candidate.
  std::vector<std::uint8_t> candidate(active_flows_.size(), 0);
  for (const std::uint32_t fi : snap_due_) candidate[slot_of_[fi]] = 1;
  for (std::size_t k = 0; k < active_flows_.size(); ++k) {
    if (candidate[k] == 0 && completesNow(k)) {
      throw std::logic_error("Simulator: completion-eligible flow missed the sweep (" +
                             scheduler_.name() + ")");
    }
  }
  // Every active coflow's aggregate is the fresh group-order sum.
  for (const ActiveGroup& g : active_index_.groups()) {
    util::Rate total = 0.0;
    for (const std::size_t fi : g.flow_indices) total += flows_.rate[fi];
    if (total != coflow_rate_[g.coflow_index]) {
      throw std::logic_error("Simulator: stale coflow aggregate rate");
    }
  }
}

SimResult Run::executeIncremental() {
  scheduler_.reset(fabric_);
  coflow_rate_.assign(coflows_.size(), 0.0);
  coflow_dirty_.assign(coflows_.size(), 0);
  calendar_.reset(flows_.size());
  slot_of_.assign(flows_.size(), 0);
  processDueEvents();  // Releases everything due at t = 0.

  while (true) {
    if (active_flows_.empty()) {
      if (timeline_.empty()) break;  // All done.
      now_ = timeline_.top().time;
      installed_ = false;
      processDueEvents();
      continue;
    }

    if (++rounds_ > options_.max_rounds) {
      throw std::runtime_error("Simulator: exceeded max rounds (" + scheduler_.name() +
                               ")");
    }

    const SimView view = makeView();
    bool reuse = installed_ && active_index_.epoch() == installed_index_epoch_;
    if (reuse) {
      // scheduleEpoch() is also the scheduler's per-round sync hook
      // (D-CLAS applies boundary demotions here), so it must run before
      // the reuse decision is final.
      const std::uint64_t se = scheduler_.scheduleEpoch(view);
      reuse = se != 0 && se == installed_sched_epoch_;
    }
    if (reuse) {
      ++reused_allocations_;
    } else {
      installAllocation(view);
      calendar_.compactIfBloated();
    }

    // Earliest next state change: timeline arrival, flow completion, or
    // scheduler wake-up. The calendar replaces the legacy engine's
    // O(active) division scan with a heap peek — but cached keys drift
    // from the legacy per-round recomputation by accumulated-rounding
    // ulps, and schedulers that sort on exact attained service
    // (continuous CLAS) amplify a one-ulp t_next difference into
    // different decisions. So the cached keys only *nominate*: every
    // candidate within a drift-covering window of the cached minimum
    // gets the exact legacy expression recomputed from canonical state,
    // and t_next takes the exact minimum. The window (1e-9 absolute +
    // 1e-9 relative) is orders of magnitude above the observed drift
    // (~1e-10 s over thousands of rounds) yet admits only near-
    // simultaneous completions, so the recomputation stays O(ties).
    const util::Seconds cached_min = calendar_.nextCompletion();
    util::Seconds next_completion = kInfTime;
    if (cached_min < kInfTime) {
      const util::Seconds window = 1e-9 + 1e-9 * std::abs(cached_min);
      calendar_.collectCompletionsNear(cached_min + window, completion_due_);
      for (const std::uint32_t fi : completion_due_) {
        const std::size_t k = slot_of_[fi];
        next_completion = std::min(
            next_completion, now_ + (slot_size_[k] - slot_sent_[k]) / slot_rate_[k]);
      }
    }
    util::Seconds t_next = timeline_.empty() ? kInfTime : timeline_.top().time;
    t_next = std::min(t_next, next_completion);
    const util::Seconds wake = scheduler_.nextWakeup(view);
    if (wake > now_) t_next = std::min(t_next, wake);

    if (!std::isfinite(t_next)) {
      throw std::runtime_error("Simulator: starvation deadlock under scheduler " +
                               scheduler_.name());
    }
    t_next = std::max(t_next, now_);  // Guard against wake-ups in the past.
    if (t_next == next_completion) calendar_.noteEventProcessed();

    // Integrate the running slots in ascending slot (= legacy scan)
    // order, scattering each delta into its coflow's total as it goes —
    // the legacy loop's expression and accumulation order. Rate-0 slots
    // are skipped, exactly as the legacy loop skips them.
    const util::Seconds dt = t_next - now_;
    if (dt > 0) {
      for (const std::uint32_t k : running_) {
        const util::Bytes d = std::min(slot_rate_[k] * dt, slot_size_[k] - slot_sent_[k]);
        slot_sent_[k] += d;
        coflows_[slot_coflow_[k]].sent += d;
      }
    }
    now_ = t_next;

    // The relative term covers rounding in the predictions at large
    // now_, where one ulp can exceed the absolute kEps grace.
    const util::Seconds gate = now_ * (1.0 + 1e-12) + util::kEps;
    const bool any_due = calendar_.drainSnapDue(gate, snap_due_);
    if (options_.verify_allocations) verifyRound();
    if (any_due) {
      sweepCompletions();
      // Drained flows the sweep did not complete (the cached prediction
      // landed a hair early): refresh both keys from current canonical
      // state — exactly the legacy per-round recomputation — so the gate
      // re-arms at the right time instead of re-firing every round.
      for (const std::uint32_t fi : snap_due_) {
        if (flows_.done[fi] != 0) continue;
        const std::size_t k = slot_of_[fi];
        const util::Bytes remaining = slot_size_[k] - slot_sent_[k];
        const util::Bytes slack = slackFor(slot_size_[k]);
        calendar_.invalidate(fi);
        const util::Rate rate = slot_rate_[k];
        if (rate > util::kEps) calendar_.pushCompletion(fi, now_ + remaining / rate);
        if (rate > 0) calendar_.pushSnap(fi, now_ + (remaining - slack) / rate);
      }
    }

    processDueEvents();
  }

  if (coflows_done_ != coflows_.size()) {
    throw std::runtime_error("Simulator: run ended with unfinished coflows");
  }
  return buildResult();
}

SimResult Run::buildResult() {
  SimResult result;
  result.scheduler = scheduler_.name();
  result.allocation_rounds = rounds_;
  result.allocate_calls = allocate_calls_;
  result.reused_allocations = reused_allocations_;
  result.heap_rebuilds = heap_rebuilds_;
  result.events_processed = calendar_.eventsProcessed();
  result.heap_rekeys = calendar_.rekeys();
  result.makespan = now_;
  result.rejected_coflows = scheduler_.rejectedCoflows();

  // Finishes-Before adjustment: a coflow's effective finish is the max of
  // its own finish and its pipelined parents' effective finishes.
  std::vector<util::Seconds> adjusted(coflows_.size(), -1.0);
  std::vector<int> visiting(coflows_.size(), 0);
  auto dfs = [&](auto&& self, std::size_t ci) -> util::Seconds {
    if (adjusted[ci] >= 0) return adjusted[ci];
    if (visiting[ci]) {
      throw std::runtime_error("Simulator: cycle in finishes_before dependencies");
    }
    visiting[ci] = 1;
    util::Seconds t = coflows_[ci].finish_time;
    for (const std::size_t pi : fb_parents_[ci]) t = std::max(t, self(self, pi));
    visiting[ci] = 0;
    adjusted[ci] = t;
    return t;
  };

  std::unordered_map<coflow::JobId, JobRecord> job_records;
  for (const coflow::JobSpec& job : workload_.jobs) {
    JobRecord jr;
    jr.id = job.id;
    jr.arrival = job.arrival;
    jr.compute_time = job.compute_time;
    jr.comm_finish = job.arrival;
    job_records[job.id] = jr;
  }

  for (std::size_t ci = 0; ci < coflows_.size(); ++ci) {
    const CoflowState& c = coflows_[ci];
    const coflow::CoflowSpec& spec = *specs_[ci];
    CoflowRecord rec;
    rec.id = c.id;
    rec.job = c.job;
    rec.spec_arrival = c.spec_arrival;
    rec.release = c.release_time;
    rec.finish_own = c.finish_time;
    rec.finish = dfs(dfs, ci);
    rec.bytes = spec.totalBytes();
    rec.max_flow_bytes = spec.maxFlowBytes();
    rec.width = spec.width();
    rec.deadline = spec.deadline;
    if (rec.hasDeadline()) {
      ++result.deadline_coflows;
      if (rec.missedDeadline()) ++result.deadline_misses;
    }
    result.coflows.push_back(rec);
    JobRecord& jr = job_records.at(c.job);
    jr.comm_finish = std::max(jr.comm_finish, rec.finish);
  }

  for (const coflow::JobSpec& job : workload_.jobs) {
    result.jobs.push_back(job_records.at(job.id));
  }
  return result;
}

}  // namespace

Simulator::Simulator(fabric::FabricConfig fabric_config, Scheduler& scheduler,
                     SimOptions options)
    : fabric_config_(fabric_config), scheduler_(scheduler), options_(options) {}

SimResult Simulator::run(const coflow::Workload& workload) {
  Run run(fabric_config_, scheduler_, options_, workload);
  SimResult result = run.execute();
  if (options_.metrics != nullptr) recordSimResult(*options_.metrics, result);
  return result;
}

SimResult runSimulation(const coflow::Workload& workload,
                        fabric::FabricConfig fabric_config, Scheduler& scheduler,
                        SimOptions options) {
  Simulator sim(fabric_config, scheduler, options);
  return sim.run(workload);
}

}  // namespace aalo::sim
