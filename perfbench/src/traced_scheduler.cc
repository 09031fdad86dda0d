#include "traced_scheduler.h"

#include "stats.h"

namespace perfbench {

using aalo::sim::SimView;

template <typename Fn>
double TracedScheduler::timed(const char* span_name, Fn&& fn) {
  const double start = nowSeconds();
  fn();
  const double end = nowSeconds();
  if (spans_ != nullptr) spans_->complete(span_name, start, end);
  return end - start;
}

void TracedScheduler::reset(const aalo::fabric::Fabric& fabric) {
  times_.hooks_s += timed("sched.reset", [&] { inner_.reset(fabric); });
}

void TracedScheduler::onCoflowReleased(const SimView& view, std::size_t coflow_index) {
  times_.hooks_s +=
      timed("sched.hook", [&] { inner_.onCoflowReleased(view, coflow_index); });
}

void TracedScheduler::onCoflowFinished(const SimView& view, std::size_t coflow_index) {
  times_.hooks_s +=
      timed("sched.hook", [&] { inner_.onCoflowFinished(view, coflow_index); });
}

void TracedScheduler::onFlowStarted(const SimView& view, std::size_t flow_index) {
  times_.hooks_s += timed("sched.hook", [&] { inner_.onFlowStarted(view, flow_index); });
}

void TracedScheduler::onFlowCompleted(const SimView& view, std::size_t flow_index) {
  times_.hooks_s +=
      timed("sched.hook", [&] { inner_.onFlowCompleted(view, flow_index); });
}

std::uint64_t TracedScheduler::scheduleEpoch(const SimView& view) {
  std::uint64_t epoch = 0;
  times_.epoch_s += timed("sched.epoch", [&] { epoch = inner_.scheduleEpoch(view); });
  return epoch;
}

void TracedScheduler::allocate(const SimView& view, std::vector<aalo::util::Rate>& rates) {
  const double s = timed("sched.allocate", [&] { inner_.allocate(view, rates); });
  times_.allocate_s += s;
  times_.allocate_us.push_back(s * 1e6);
  ++times_.allocate_calls;
  if (sample_every_ > 0 && samples_.size() < max_samples_ &&
      times_.allocate_calls % sample_every_ == 0) {
    std::vector<aalo::fabric::Demand>& demands = samples_.emplace_back();
    demands.reserve(view.active_flows->size());
    for (const std::size_t f : *view.active_flows) {
      demands.push_back(aalo::fabric::Demand{.src = view.flows->src_port[f],
                                             .dst = view.flows->dst_port[f]});
    }
  }
}

aalo::util::Seconds TracedScheduler::nextWakeup(const SimView& view) {
  aalo::util::Seconds wake = 0;
  times_.wakeup_s += timed("sched.wakeup", [&] { wake = inner_.nextWakeup(view); });
  ++times_.rounds;
  times_.active_flow_sum += view.active_flows->size();
  return wake;
}

}  // namespace perfbench
