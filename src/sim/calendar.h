// Discrete-event calendar for the incremental engine: lazily-invalidated
// binary min-heaps over per-flow timing predictions.
//
// The engine keeps two predictions per allocated flow, both computed once
// at rate-install time from the exact legacy expressions:
//
//  - completion key  t0 + (size - sent_t0) / rate   (flows with rate > kEps)
//    The per-round t_next candidate — replaces the legacy engine's O(active)
//    division scan with a heap peek.
//  - snap key        t0 + (size - sent_t0 - slack) / rate   (rate > 0), or
//    t0 itself for zero-rate flows already inside the completion slack.
//    The earliest time the flow becomes snap-eligible (remaining within the
//    completion slack) — gates the completion sweep, replacing the old
//    scalar min_detect_ bound with a per-flow refreshable one.
//
// Invalidation is lazy: each flow carries a generation counter, bumped
// whenever its installed rate changes or it completes. Heap entries record
// the generation they were pushed under; stale entries are discarded at
// pop/peek time instead of being located and removed. Allocation reuse
// (Scheduler::scheduleEpoch) means most rounds re-key nothing: an entry
// pushed at install stays valid for the flow's whole constant-rate segment.
//
// Keys are absolute times frozen at install. The legacy engine recomputes
// the same expressions every round against drifting `sent`, so cached keys
// differ from the per-round recomputation by accumulated-rounding ulps —
// well inside both the completion slack (1e-3 bytes) and the sweep-gate
// grace window (now * 1e-12 + kEps); the equivalence suite holds finish
// times to 1e-9 and round counts exactly.
//
// Tie-break contract: the calendar orders same-time events by flow index
// (ascending) purely for heap determinism. The snap heap only nominates
// the sweep's candidates; which of them complete in a round — and in
// which order — is decided by the engine's completion sweep, which
// applies the legacy condition and completes them in the legacy scan's
// exact order; see DESIGN.md section 7.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/state.h"
#include "util/units.h"

namespace aalo::sim {

class EventCalendar {
 public:
  struct Entry {
    util::Seconds key = 0;
    std::uint32_t flow = 0;
    std::uint32_t gen = 0;
  };

  /// Resets for a run over `num_flows` flows; drops all entries.
  void reset(std::size_t num_flows) {
    gen_.assign(num_flows, 0);
    has_completion_.assign(num_flows, 0);
    has_snap_.assign(num_flows, 0);
    completion_.clear();
    snap_.clear();
    valid_completion_ = 0;
    valid_snap_ = 0;
    rekeys_ = 0;
    events_ = 0;
  }

  /// Invalidates every entry of `fi` (rate change or completion).
  void invalidate(std::size_t fi) {
    ++gen_[fi];
    if (has_completion_[fi] != 0) {
      has_completion_[fi] = 0;
      --valid_completion_;
    }
    if (has_snap_[fi] != 0) {
      has_snap_[fi] = 0;
      --valid_snap_;
    }
  }

  /// Pushes a fresh completion prediction for `fi` under its current
  /// generation. Caller must have invalidated the old one first (which
  /// also guarantees at most one valid entry per flow per heap).
  void pushCompletion(std::size_t fi, util::Seconds key) {
    heapPush(completion_, Entry{key, static_cast<std::uint32_t>(fi), gen_[fi]});
    has_completion_[fi] = 1;
    ++valid_completion_;
    ++rekeys_;
  }

  /// Pushes a fresh snap-eligibility prediction for `fi`.
  void pushSnap(std::size_t fi, util::Seconds key) {
    heapPush(snap_, Entry{key, static_cast<std::uint32_t>(fi), gen_[fi]});
    has_snap_[fi] = 1;
    ++valid_snap_;
    ++rekeys_;
  }

  /// Begins a wholesale re-key: drops every entry from both heaps. The
  /// engine then stages one fresh entry per active flow (raw appends via
  /// stageCompletion/stageSnap) and finishRebuild() heapifies. Max-min
  /// water-filling redistributes capacity whenever membership changes, so
  /// an install round typically re-keys *most* active flows — there,
  /// 2 x changed sift-up pushes (plus the stale-entry debt they leave
  /// behind) cost far more than one contiguous O(active) heapify.
  void beginRebuild() {
    for (const Entry& e : completion_) has_completion_[e.flow] = 0;
    for (const Entry& e : snap_) has_snap_[e.flow] = 0;
    completion_.clear();
    snap_.clear();
    valid_completion_ = 0;
    valid_snap_ = 0;
  }

  /// Appends a completion prediction without restoring heap order. Only
  /// valid between beginRebuild() and finishRebuild().
  void stageCompletion(std::size_t fi, util::Seconds key) {
    completion_.push_back(Entry{key, static_cast<std::uint32_t>(fi), gen_[fi]});
    has_completion_[fi] = 1;
    ++valid_completion_;
    ++rekeys_;
  }

  /// Appends a snap prediction without restoring heap order.
  void stageSnap(std::size_t fi, util::Seconds key) {
    snap_.push_back(Entry{key, static_cast<std::uint32_t>(fi), gen_[fi]});
    has_snap_[fi] = 1;
    ++valid_snap_;
    ++rekeys_;
  }

  /// Restores the heap invariant after staging (one O(n) heapify per heap;
  /// both heaps end fully valid, so no compaction debt remains).
  void finishRebuild() {
    std::make_heap(completion_.begin(), completion_.end(), EntryLater{});
    std::make_heap(snap_.begin(), snap_.end(), EntryLater{});
  }

  /// Compacts either heap whose stale entries outnumber valid ones 4:1.
  /// Called once per engine round (not per push: a rekey burst dips the
  /// valid count transiently and would thrash push-time compaction).
  void compactIfBloated() {
    maybeCompact(completion_, valid_completion_);
    maybeCompact(snap_, valid_snap_);
  }

  /// Earliest valid completion prediction (kInfTime when none). Prunes
  /// stale entries from the top as a side effect.
  util::Seconds nextCompletion() {
    prune(completion_);
    return completion_.empty() ? kInfTime : completion_.front().key;
  }

  /// Earliest valid snap prediction (kInfTime when none).
  util::Seconds nextSnap() {
    prune(snap_);
    return snap_.empty() ? kInfTime : snap_.front().key;
  }

  /// Collects the flows of every valid completion entry with key <= bound
  /// into `out` (arbitrary order, no duplicates — at most one valid entry
  /// per flow exists). Heap-ordered DFS: subtrees rooted above the bound
  /// are pruned without visiting, so the cost is O(matches) not O(heap).
  /// The engine recomputes the exact legacy completion expression for
  /// these candidates; the cached keys only have to be close enough
  /// (within the caller's bound slack) to nominate the true minimum.
  void collectCompletionsNear(util::Seconds bound, std::vector<std::uint32_t>& out) {
    out.clear();
    if (completion_.empty()) return;
    scan_stack_.clear();
    scan_stack_.push_back(0);
    while (!scan_stack_.empty()) {
      const std::size_t i = scan_stack_.back();
      scan_stack_.pop_back();
      const Entry& e = completion_[i];
      if (e.key > bound) continue;  // Children are no earlier.
      if (gen_[e.flow] == e.gen) out.push_back(e.flow);
      const std::size_t l = 2 * i + 1;
      const std::size_t r = l + 1;
      if (l < completion_.size()) scan_stack_.push_back(l);
      if (r < completion_.size()) scan_stack_.push_back(r);
    }
  }

  /// Pops every valid snap entry with key <= bound into `due` (flow
  /// indices, arbitrary order). Returns true when any were due. The
  /// engine re-pushes refreshed keys for flows the sweep does not
  /// complete, so a premature gate self-heals instead of re-firing.
  bool drainSnapDue(util::Seconds bound, std::vector<std::uint32_t>& due) {
    due.clear();
    while (true) {
      prune(snap_);
      if (snap_.empty() || snap_.front().key > bound) break;
      const std::uint32_t fi = snap_.front().flow;
      due.push_back(fi);
      has_snap_[fi] = 0;
      --valid_snap_;
      heapPop(snap_);
      ++events_;
    }
    return !due.empty();
  }

  /// Marks one completion-heap prediction as consumed (the round landed
  /// on it); purely a statistics hook.
  void noteEventProcessed() { ++events_; }

  std::size_t rekeys() const { return rekeys_; }
  std::size_t eventsProcessed() const { return events_; }

  // ---- Test support ----------------------------------------------------
  std::size_t completionHeapSize() const { return completion_.size(); }
  std::size_t snapHeapSize() const { return snap_.size(); }
  bool entryValid(const Entry& e) const { return gen_[e.flow] == e.gen; }
  const std::vector<Entry>& completionHeap() const { return completion_; }
  const std::vector<Entry>& snapHeap() const { return snap_; }
  /// Verifies the binary-heap ordering invariant of both heaps.
  bool checkHeapInvariant() const {
    return heapOrdered(completion_) && heapOrdered(snap_);
  }

 private:
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.key != b.key) return a.key > b.key;
      return a.flow > b.flow;  // Deterministic order for equal keys.
    }
  };

  static void heapPush(std::vector<Entry>& h, Entry e) {
    h.push_back(e);
    std::push_heap(h.begin(), h.end(), EntryLater{});
  }

  static void heapPop(std::vector<Entry>& h) {
    std::pop_heap(h.begin(), h.end(), EntryLater{});
    h.pop_back();
  }

  static bool heapOrdered(const std::vector<Entry>& h) {
    return std::is_heap(h.begin(), h.end(), EntryLater{});
  }

  /// Discards stale entries from the heap top.
  void prune(std::vector<Entry>& h) {
    while (!h.empty() && gen_[h.front().flow] != h.front().gen) heapPop(h);
  }

  /// Lazy invalidation leaves stale entries buried in the heap (only the
  /// top is pruned); without compaction they accumulate monotonically —
  /// large-key junk sinks and never resurfaces — and push cost degrades
  /// with dead weight. Rebuild from the valid entries once they are
  /// outnumbered 4:1; O(size) amortized against the pushes that grew it.
  void maybeCompact(std::vector<Entry>& h, std::size_t valid) {
    if (h.size() < 64 || h.size() <= 4 * valid) return;
    h.erase(std::remove_if(h.begin(), h.end(),
                           [this](const Entry& e) { return gen_[e.flow] != e.gen; }),
            h.end());
    std::make_heap(h.begin(), h.end(), EntryLater{});
  }

  std::vector<Entry> completion_;  ///< Min-heap on key.
  std::vector<Entry> snap_;        ///< Min-heap on key.
  std::vector<std::uint32_t> gen_;
  std::vector<std::uint8_t> has_completion_;  ///< Flow has a valid entry.
  std::vector<std::uint8_t> has_snap_;
  std::size_t valid_completion_ = 0;
  std::size_t valid_snap_ = 0;
  std::vector<std::size_t> scan_stack_;  ///< collectCompletionsNear scratch.
  std::size_t rekeys_ = 0;
  std::size_t events_ = 0;
};

}  // namespace aalo::sim
