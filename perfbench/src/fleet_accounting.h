// Outcome accounting for the live coordinator fleet: register RPC
// latency, schedule staleness after D-CLAS threshold crossings, and epoch
// delivery, with the failures each can produce. Pure bookkeeping over
// timestamps, so it is tested on synthetic timelines
// (tests/fleet_accounting_test.cc).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "coflow/ids.h"

namespace perfbench {

class FleetAccounting {
 public:
  /// `connections`: daemon connections every schedule change must reach.
  /// `staleness_limit_s`: a crossing reflected later than this (or never)
  /// is a failure.
  FleetAccounting(std::size_t connections, double staleness_limit_s);

  // --- register RPCs (open loop: latency counts from when it was due) ---
  void rpcSent(std::uint64_t request_id, double due_s);
  /// Returns false for a reply to no outstanding request.
  bool rpcReplied(std::uint64_t request_id, double now_s);

  // --- threshold crossings ---------------------------------------------
  /// A report sent at `sent_s` pushed `id`'s global size into `queue`.
  void crossing(const aalo::coflow::CoflowId& id, int queue, double sent_s);
  /// Connection `conn` received a schedule frame placing `id` in `queue`.
  void scheduleEntry(std::size_t conn, const aalo::coflow::CoflowId& id, int queue,
                     double now_s);
  /// `id` was unregistered: its unresolved crossings are not counted.
  void cancel(const aalo::coflow::CoflowId& id);

  // --- epochs ------------------------------------------------------------
  void epochReceived(std::size_t conn, std::uint64_t epoch);
  /// Epochs in [first, last] that did not reach every connection.
  std::uint64_t incompleteEpochs(std::uint64_t first, std::uint64_t last) const;

  struct Totals {
    std::vector<double> rpc_latency_s;   ///< One per replied RPC.
    std::vector<double> staleness_s;     ///< One per resolved crossing.
    std::uint64_t rpc_attempted = 0;
    std::uint64_t rpc_failed = 0;        ///< No reply.
    std::uint64_t crossings_attempted = 0;
    std::uint64_t crossings_failed = 0;  ///< Late or never reflected.
  };
  /// Closes the books: RPCs still outstanding and crossings still
  /// unresolved count as failures.
  Totals finish() const;

 private:
  struct Pending {
    int queue = 0;
    double sent_s = 0;
    std::uint32_t reached = 0;  ///< Bitmask of connections.
  };

  std::size_t connections_;
  double limit_s_;
  std::unordered_map<std::uint64_t, double> rpc_due_;
  std::unordered_map<aalo::coflow::CoflowId, std::vector<Pending>> pending_;
  std::unordered_map<std::uint64_t, std::uint32_t> epoch_reached_;
  Totals totals_;
};

}  // namespace perfbench
