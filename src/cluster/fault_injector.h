// Scriptable fault injection: a FaultPlan is a declarative timeline of
// failures; FaultInjector::Arm schedules it onto the cluster's event
// queues so faults interleave deterministically with foreground work.
//
// Before this existed, every failure scenario was hand-scheduled at its
// call site (a ScheduleNodeFailure here, a ScheduleNodeRecovery there),
// which kept the interesting composite scenarios - a rack loss during a
// gray brownout, a flapping node next to a delay spike - one-off bench
// code. The plan is the reusable vocabulary:
//
//   FaultPlan plan;
//   plan.Gray(/*node=*/1, /*stretch=*/16.0, at, until)   // gray node
//       .CrashGroup({2, 3}, at2)                         // rack loss
//       .Flap(0, /*cycles=*/3, at3, down_ns, up_ns)      // flapping
//       .DelaySpike(1, 200 * kNsPerUs, at4, until4);     // microburst
//   FaultInjector::Arm(cluster, plan);
//
// Fault kinds:
//  - Crash / Recover: fail-stop, the detectable failure. Composes with the
//    cluster's repair machinery (slabs re-replicate off the corpse).
//  - CrashGroup: a correlated failure domain (rack, power bus) - every
//    member fails at the same instant, before any repair runs.
//  - Gray / GrayRamp: the node answers everything, `stretch`x slow (its
//    downlink serializes slower). GrayRamp varies the stretch over time in
//    piecewise-constant steps - a disk going bad, thermal throttling
//    ramping in - so detectors are exercised against a moving target, not
//    a step function.
//  - DelaySpike: transient flat extra latency to one node (reroute,
//    microburst), no capacity loss.
//  - Flap: crash/recover cycles - the failure detector's nightmare
//    tenant - expanded at build time into Crash/Recover pairs.
//
// Builder methods validate eagerly (throw std::invalid_argument at the
// call site, not at simulation time); Validate(node_count) re-checks
// target ids against a concrete cluster before arming.
//
// Determinism: a plan is data. Arming schedules plain events at fixed
// simulation times; same plan + same seed is bit-identical, and an EMPTY
// plan schedules nothing at all - byte-identical output to no plan.
#ifndef LEAP_SRC_CLUSTER_FAULT_INJECTOR_H_
#define LEAP_SRC_CLUSTER_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "src/sim/types.h"

namespace leap {

class ShardedCluster;

enum class FaultKind : uint8_t {
  kCrash,       // fail-stop one node (triggers slab repair)
  kRecover,     // bring a crashed node back (empty; re-fills by placement)
  kCrashGroup,  // correlated fail-stop of a whole failure domain
  kGray,        // stretch the node's downlink serialization by `stretch`
  kDelaySpike,  // flat extra latency toward the node
};

struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  std::vector<uint32_t> nodes;   // targets (1 entry except kCrashGroup)
  SimTimeNs at = 0;              // injection time
  SimTimeNs until = 0;           // gray/spike end (0 = stays in force)
  double stretch = 1.0;          // kGray serialization factor
  SimTimeNs extra_delay_ns = 0;  // kDelaySpike add-on
};

class FaultPlan {
 public:
  // Fail-stop `node` at `at`.
  FaultPlan& Crash(uint32_t node, SimTimeNs at);
  // Recover `node` at `at`.
  FaultPlan& Recover(uint32_t node, SimTimeNs at);
  // Correlated failure: every node of `group` fails at `at` (all drop
  // before any repair runs). Rejects an empty group or a duplicate id.
  FaultPlan& CrashGroup(std::vector<uint32_t> group, SimTimeNs at);
  // Gray node: downlink serializes `stretch`x slower during [at, until);
  // until = 0 leaves it gray for the rest of the run.
  FaultPlan& Gray(uint32_t node, double stretch, SimTimeNs at,
                  SimTimeNs until = 0);
  // Time-varying gray: stretch moves linearly from `from_stretch` to
  // `to_stretch` across [at, until) in `steps` piecewise-constant steps,
  // then clears at `until`. Expanded at build time into kGray events.
  FaultPlan& GrayRamp(uint32_t node, double from_stretch, double to_stretch,
                      SimTimeNs at, SimTimeNs until, size_t steps = 8);
  // Flat +extra_ns latency toward `node` during [at, until); until = 0
  // leaves the spike in force.
  FaultPlan& DelaySpike(uint32_t node, SimTimeNs extra_ns, SimTimeNs at,
                        SimTimeNs until = 0);
  // Flapping: `cycles` crash/recover pairs starting at `at` (down for
  // `down_ns`, then up for `up_ns`, repeated). Expanded at build time.
  FaultPlan& Flap(uint32_t node, size_t cycles, SimTimeNs at,
                  SimTimeNs down_ns, SimTimeNs up_ns);

  bool empty() const { return events_.empty(); }
  size_t size() const { return events_.size(); }
  const std::vector<FaultEvent>& events() const { return events_; }

  // Re-checks every target id against a concrete cluster size; throws
  // std::out_of_range on a bad id. (Value errors were already rejected by
  // the builder methods.)
  void Validate(size_t node_count) const;

 private:
  std::vector<FaultEvent> events_;
};

// Schedules every event of `plan` onto `cluster` via its scenario hooks
// (each fault fires on its target node's home-shard queue). Call before
// ShardedCluster::Run; arming an empty plan is a no-op.
class FaultInjector {
 public:
  static void Arm(ShardedCluster& cluster, const FaultPlan& plan);
};

}  // namespace leap

#endif  // LEAP_SRC_CLUSTER_FAULT_INJECTOR_H_
