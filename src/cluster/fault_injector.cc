#include "src/cluster/fault_injector.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/runtime/sharded_cluster.h"

namespace leap {

FaultPlan& FaultPlan::Crash(uint32_t node, SimTimeNs at) {
  FaultEvent ev;
  ev.kind = FaultKind::kCrash;
  ev.nodes = {node};
  ev.at = at;
  events_.push_back(std::move(ev));
  return *this;
}

FaultPlan& FaultPlan::Recover(uint32_t node, SimTimeNs at) {
  FaultEvent ev;
  ev.kind = FaultKind::kRecover;
  ev.nodes = {node};
  ev.at = at;
  events_.push_back(std::move(ev));
  return *this;
}

FaultPlan& FaultPlan::CrashGroup(std::vector<uint32_t> group, SimTimeNs at) {
  if (group.empty()) {
    throw std::invalid_argument("FaultPlan::CrashGroup: empty group");
  }
  std::vector<uint32_t> sorted = group;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    throw std::invalid_argument("FaultPlan::CrashGroup: duplicate node");
  }
  FaultEvent ev;
  ev.kind = FaultKind::kCrashGroup;
  ev.nodes = std::move(group);
  ev.at = at;
  events_.push_back(std::move(ev));
  return *this;
}

FaultPlan& FaultPlan::Gray(uint32_t node, double stretch, SimTimeNs at,
                           SimTimeNs until) {
  if (stretch <= 0.0) {
    throw std::invalid_argument("FaultPlan::Gray: stretch must be > 0");
  }
  if (until != 0 && until <= at) {
    throw std::invalid_argument("FaultPlan::Gray: until must be > at");
  }
  FaultEvent ev;
  ev.kind = FaultKind::kGray;
  ev.nodes = {node};
  ev.at = at;
  ev.until = until;
  ev.stretch = stretch;
  events_.push_back(std::move(ev));
  return *this;
}

FaultPlan& FaultPlan::GrayRamp(uint32_t node, double from_stretch,
                               double to_stretch, SimTimeNs at, SimTimeNs until,
                               size_t steps) {
  if (from_stretch <= 0.0 || to_stretch <= 0.0) {
    throw std::invalid_argument("FaultPlan::GrayRamp: stretches must be > 0");
  }
  if (until <= at) {
    throw std::invalid_argument("FaultPlan::GrayRamp: until must be > at");
  }
  if (steps == 0) {
    throw std::invalid_argument("FaultPlan::GrayRamp: steps must be >= 1");
  }
  // Piecewise-constant expansion: step i holds the linearly-interpolated
  // stretch over its slice of [at, until); a final event clears at
  // `until`. Expansion at build time keeps the runtime vocabulary to five
  // primitive kinds and makes the plan inspectable as plain data.
  const SimTimeNs span = until - at;
  for (size_t i = 0; i < steps; ++i) {
    const double frac =
        steps == 1 ? 0.0
                   : static_cast<double>(i) / static_cast<double>(steps - 1);
    const double stretch = from_stretch + (to_stretch - from_stretch) * frac;
    const SimTimeNs step_at =
        at + static_cast<SimTimeNs>(static_cast<double>(span) *
                                    (static_cast<double>(i) /
                                     static_cast<double>(steps)));
    Gray(node, stretch, step_at, 0);
  }
  Gray(node, 1.0, until, 0);  // stretch 1.0 = restore full speed
  return *this;
}

FaultPlan& FaultPlan::DelaySpike(uint32_t node, SimTimeNs extra_ns,
                                 SimTimeNs at, SimTimeNs until) {
  if (extra_ns == 0) {
    throw std::invalid_argument("FaultPlan::DelaySpike: extra_ns must be > 0");
  }
  if (until != 0 && until <= at) {
    throw std::invalid_argument("FaultPlan::DelaySpike: until must be > at");
  }
  FaultEvent ev;
  ev.kind = FaultKind::kDelaySpike;
  ev.nodes = {node};
  ev.at = at;
  ev.until = until;
  ev.extra_delay_ns = extra_ns;
  events_.push_back(std::move(ev));
  return *this;
}

FaultPlan& FaultPlan::Flap(uint32_t node, size_t cycles, SimTimeNs at,
                           SimTimeNs down_ns, SimTimeNs up_ns) {
  if (cycles == 0) {
    throw std::invalid_argument("FaultPlan::Flap: cycles must be >= 1");
  }
  if (down_ns == 0 || up_ns == 0) {
    throw std::invalid_argument(
        "FaultPlan::Flap: down_ns and up_ns must be > 0");
  }
  SimTimeNs t = at;
  for (size_t i = 0; i < cycles; ++i) {
    Crash(node, t);
    Recover(node, t + down_ns);
    t += down_ns + up_ns;
  }
  return *this;
}

void FaultPlan::Validate(size_t node_count) const {
  for (const FaultEvent& ev : events_) {
    for (const uint32_t node : ev.nodes) {
      if (node >= node_count) {
        throw std::out_of_range("FaultPlan: event targets unknown node");
      }
    }
  }
}

void FaultInjector::Arm(ShardedCluster& cluster, const FaultPlan& plan) {
  plan.Validate(cluster.num_nodes());
  for (const FaultEvent& ev : plan.events()) {
    switch (ev.kind) {
      case FaultKind::kCrash:
        cluster.ScheduleNodeFailure(ev.nodes[0], ev.at);
        break;
      case FaultKind::kRecover:
        cluster.ScheduleNodeRecovery(ev.nodes[0], ev.at);
        break;
      case FaultKind::kCrashGroup:
        cluster.ScheduleCorrelatedFailure(ev.nodes, ev.at);
        break;
      case FaultKind::kGray:
        cluster.ScheduleNodeGray(ev.nodes[0], ev.stretch, ev.at, ev.until);
        break;
      case FaultKind::kDelaySpike:
        cluster.ScheduleNodeDelaySpike(ev.nodes[0], ev.extra_delay_ns, ev.at,
                                       ev.until);
        break;
    }
  }
}

}  // namespace leap
