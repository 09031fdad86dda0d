#include "sched/catalog.h"

#include <stdexcept>
#include <string>

#include "sched/adaptive.h"
#include "sched/clas.h"
#include "sched/dclas.h"
#include "sched/dcoflow.h"
#include "sched/fair.h"
#include "sched/fifo.h"
#include "sched/gossip.h"
#include "sched/las.h"
#include "sched/offline_opt.h"
#include "sched/sampling.h"
#include "sched/uncoordinated.h"
#include "sched/varys.h"
#include "util/stats.h"

namespace aalo::sched {

namespace {

/// Decision quantum of the decentralized baselines (FIFO-LM, LAS,
/// uncoordinated D-CLAS), in trace seconds.
constexpr util::Seconds kLocalQuantum = 2.0;

using Ptr = std::unique_ptr<sim::Scheduler>;

template <typename S>
Ptr withDefaults(const coflow::Workload&, util::Seconds) {
  return std::make_unique<S>();
}

const struct {
  std::string_view name;
  Ptr (*make)(const coflow::Workload&, util::Seconds delta);
} kCatalog[] = {
    {"aalo",
     [](const coflow::Workload&, util::Seconds delta) -> Ptr {
       DClasConfig cfg;  // Paper defaults: K=10, E=10, Q1=10MB.
       cfg.sync_interval = delta;
       return std::make_unique<DClasScheduler>(cfg);
     }},
    {"aalo-strict",
     [](const coflow::Workload&, util::Seconds) -> Ptr {
       DClasConfig cfg;
       cfg.policy = DClasConfig::QueuePolicy::kStrictPriority;
       return std::make_unique<DClasScheduler>(cfg);
     }},
    {"aalo-adaptive", withDefaults<AdaptiveDClasScheduler>},
    {"fair", withDefaults<PerFlowFairScheduler>},
    {"varys", withDefaults<VarysScheduler>},
    {"fifo", withDefaults<FifoScheduler>},
    {"fifo-spill",
     [](const coflow::Workload&, util::Seconds) -> Ptr {
       return std::make_unique<FifoScheduler>(FifoConfig{true});
     }},
    {"fifo-lm",
     [](const coflow::Workload& wl, util::Seconds) -> Ptr {
       return std::make_unique<FifoLmScheduler>(fifoLmConfig(wl, 80));
     }},
    {"las",
     [](const coflow::Workload&, util::Seconds) -> Ptr {
       LasConfig cfg;
       cfg.quantum = kLocalQuantum;
       return std::make_unique<DecentralizedLasScheduler>(cfg);
     }},
    {"sampling", withDefaults<SamplingScheduler>},
    {"dcoflow", withDefaults<DCoflowScheduler>},
    {"uncoordinated",
     [](const coflow::Workload&, util::Seconds) -> Ptr {
       // Aalo's queue structure on local knowledge only.
       return std::make_unique<UncoordinatedDClasScheduler>(DClasConfig{},
                                                            kLocalQuantum);
     }},
    {"gossip", withDefaults<GossipDClasScheduler>},
    {"clas", withDefaults<ContinuousClasScheduler>},
    {"offline",
     [](const coflow::Workload& wl, util::Seconds) -> Ptr {
       return std::make_unique<OfflineOrderScheduler>(computeConcurrentOpenShopOrder(wl));
     }},
};

}  // namespace

std::vector<std::string_view> schedulerNames() {
  std::vector<std::string_view> names;
  for (const auto& e : kCatalog) names.push_back(e.name);
  return names;
}

std::unique_ptr<sim::Scheduler> makeScheduler(std::string_view name,
                                              const coflow::Workload& workload,
                                              util::Seconds delta) {
  for (const auto& e : kCatalog) {
    if (e.name == name) return e.make(workload, delta);
  }
  throw std::invalid_argument("unknown scheduler '" + std::string(name) + "'");
}

FifoLmConfig fifoLmConfig(const coflow::Workload& workload, double heavy_percentile) {
  util::Summary sizes;
  for (const auto& job : workload.jobs) {
    for (const auto& c : job.coflows) sizes.add(c.totalBytes());
  }
  FifoLmConfig cfg;
  cfg.heavy_threshold = sizes.percentile(heavy_percentile);
  cfg.quantum = kLocalQuantum;
  return cfg;
}

}  // namespace aalo::sched
