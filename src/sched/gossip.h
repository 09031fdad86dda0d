// Decentralized Aalo via gossip aggregation — the §8 "Decentralizing
// Aalo" direction ("approximate aggregation schemes like Push-Sum can be
// good starting points").
//
// There is no coordinator. Each ingress-port daemon keeps a per-coflow
// mass x_p(c), credited locally as the port sends bytes; the invariant
// sum_p x_p(c) == total attained service holds throughout. Every gossip
// round (one per decision quantum) random daemon pairs average their
// masses — Push-Sum with uniform weights — so each daemon's estimate of
// the global size, P * x_p(c), converges geometrically to the truth. The
// daemons then run D-CLAS locally on those estimates.
//
// This interpolates between the coordinated scheduler (instant averaging)
// and the uncoordinated one (no averaging): more gossip rounds per unit
// time = better estimates = closer to coordinated Aalo.
#pragma once

#include <unordered_map>
#include <vector>

#include "sched/common.h"
#include "sched/dclas.h"
#include "util/rng.h"

namespace aalo::sched {

struct GossipConfig {
  DClasConfig dclas;  ///< Queue structure (sync_interval is ignored).
  /// Simulated time between gossip rounds (also the decision quantum).
  util::Seconds round_interval = 0.5;
  /// Random pairings drawn per gossip round (P/2 pairs each).
  int exchanges_per_round = 1;
  std::uint64_t seed = 99;
};

class GossipDClasScheduler final : public sim::Scheduler {
 public:
  explicit GossipDClasScheduler(GossipConfig config = {});

  std::string name() const override { return "aalo-gossip"; }

  void reset(const fabric::Fabric& fabric) override;
  void onCoflowFinished(const sim::SimView& view, std::size_t coflow_index) override;
  void allocate(const sim::SimView& view, std::vector<util::Rate>& rates) override;
  util::Seconds nextWakeup(const sim::SimView& view) override;

  /// Daemon p's current estimate of coflow c's global attained service.
  util::Bytes estimate(int port, std::size_t coflow_index) const;

 private:
  void creditLocalBytes(const sim::SimView& view);
  void runGossipRounds(util::Seconds now);

  GossipConfig config_;
  std::vector<util::Bytes> thresholds_;
  int num_ports_ = 0;
  util::Rng rng_;
  /// mass_[p][c]: daemon p's share of coflow c's total attained service.
  std::vector<std::unordered_map<std::size_t, util::Bytes>> mass_;
  /// Bytes of each flow already credited into mass_.
  std::unordered_map<std::size_t, util::Bytes> credited_;
  util::Seconds last_gossip_ = 0;
  fabric::MaxMinScratch scratch_;
  std::vector<ActiveCoflow> groups_scratch_;
};

}  // namespace aalo::sched
