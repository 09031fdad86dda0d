// Building blocks shared by the coflow schedulers.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "fabric/fabric.h"
#include "fabric/maxmin.h"
#include "sim/scheduler.h"
#include "util/units.h"

namespace aalo::sched {

/// A coflow together with its currently active (started, unfinished)
/// flows. Alias of the engine-maintained grouping type.
using ActiveCoflow = sim::ActiveGroup;

/// The active-coflow grouping for `view`: the engine-maintained
/// incremental index when present (free — no per-round rebuild), else
/// rebuilt into `scratch` (hand-assembled views in tests and benches).
/// Order of the result is deterministic but discipline-neutral; callers
/// that care sort by their own key.
std::span<const ActiveCoflow> activeGroups(const sim::SimView& view,
                                           std::vector<ActiveCoflow>& scratch);

/// One coflow as a single ingress port sees it: its active flows leaving
/// through the port and the bytes all of its started flows (finished ones
/// included) have sent from the port.
struct PortCoflow {
  std::size_t coflow_index = 0;
  util::Bytes local_sent = 0;
  std::vector<std::size_t> flow_indices;
};

/// The port-local view the decentralized schedulers decide on: for each
/// ingress port, the coflows with an active flow there, in order of first
/// appearance in view.active_flows.
std::vector<std::vector<PortCoflow>> portLocalCoflows(
    const sim::SimView& view, std::vector<ActiveCoflow>& groups_scratch);

/// Gives `group`'s flows a max-min fair allocation of `residual` (equal
/// weights — line 6 of Pseudocode 1: no flow-size information), *adding*
/// to whatever `rates` already holds and consuming the residual. All
/// temporaries live in `scratch`.
void allocateCoflowMaxMin(const sim::SimView& view, const ActiveCoflow& group,
                          fabric::ResidualCapacity& residual,
                          std::vector<util::Rate>& rates,
                          fabric::MaxMinScratch& scratch);

/// Clairvoyant MADD (Varys): every active flow of `group` gets
/// remaining / Gamma where Gamma is the coflow's effective bottleneck
/// completion time against `residual` — all flows finish together, using
/// no more than necessary. No-op if the group has no remaining bytes.
void allocateCoflowMadd(const sim::SimView& view, const ActiveCoflow& group,
                        fabric::ResidualCapacity& residual,
                        std::vector<util::Rate>& rates,
                        fabric::MaxMinScratch& scratch);

/// Distributes whatever `residual` still holds among all of
/// `flow_indices` max-min (equal weights), adding to `rates` and consuming
/// the residual. Over all active flows, this is work conservation.
void backfillMaxMin(const sim::SimView& view,
                    const std::vector<std::size_t>& flow_indices,
                    fabric::ResidualCapacity& residual,
                    std::vector<util::Rate>& rates,
                    fabric::MaxMinScratch& scratch);

/// Remaining bytes of a coflow's *started* flows (clairvoyant helper).
util::Bytes remainingReleasedBytes(const sim::SimView& view, std::size_t coflow_index);

/// Aggregate current rate of a coflow's active flows (valid right after an
/// allocation round; used for wake-up prediction).
util::Rate coflowAggregateRate(const sim::SimView& view, const ActiveCoflow& group);

}  // namespace aalo::sched
