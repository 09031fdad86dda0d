#include "sched/fifo.h"

#include <algorithm>

#include "coflow/ids.h"

namespace aalo::sched {

void FifoScheduler::allocate(const sim::SimView& view, std::vector<util::Rate>& rates) {
  const std::span<const ActiveCoflow> groups = activeGroups(view, groups_scratch_);
  if (groups.empty()) return;
  const coflow::CoflowIdFifoLess fifo_less;
  const auto arrives_first = [&](const ActiveCoflow& a, const ActiveCoflow& b) {
    const sim::CoflowState& ca = view.coflow(a.coflow_index);
    const sim::CoflowState& cb = view.coflow(b.coflow_index);
    if (ca.release_time != cb.release_time) return ca.release_time < cb.release_time;
    return fifo_less(ca.id, cb.id);
  };

  residual_.assignFrom(*view.fabric);
  if (!config_.work_conserving_spillover) {
    // Head only: ids are distinct, so the minimum is the coflow a full
    // sort would put first.
    const auto head = std::min_element(groups.begin(), groups.end(), arrives_first);
    allocateCoflowMaxMin(view, *head, residual_, rates, scratch_);
    return;
  }
  order_.assign(groups.size(), nullptr);
  for (std::size_t g = 0; g < groups.size(); ++g) order_[g] = &groups[g];
  std::sort(order_.begin(), order_.end(),
            [&](const ActiveCoflow* a, const ActiveCoflow* b) {
              return arrives_first(*a, *b);
            });
  for (const ActiveCoflow* group : order_) {
    allocateCoflowMaxMin(view, *group, residual_, rates, scratch_);
  }
}

}  // namespace aalo::sched
