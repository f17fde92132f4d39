// Multi-host memory-disaggregation cluster: the configuration, workload
// binding and accounting types shared by the cluster engine
// (src/runtime/sharded_cluster.h) and every bench and test that drives it.
//
// N host machines and M memory nodes connected by a congestion-aware
// fabric: hosts contend for node downlinks (remote latency rises with
// cluster load), a pluggable SlabPlacer spreads slabs across the donor
// pool, and scenario hooks inject node failure/recovery (with slab repair
// and re-replication) and host join/leave mid-run.
#ifndef LEAP_SRC_RUNTIME_CLUSTER_H_
#define LEAP_SRC_RUNTIME_CLUSTER_H_

#include <array>
#include <vector>

#include "src/cluster/fabric.h"
#include "src/cluster/health_monitor.h"
#include "src/cluster/slab_placer.h"
#include "src/obs/stats_sampler.h"
#include "src/obs/trace_recorder.h"
#include "src/runtime/app_runner.h"
#include "src/runtime/machine.h"
#include "src/stats/counters.h"

namespace leap {

struct ClusterConfig {
  size_t hosts = 4;
  size_t nodes = 2;
  size_t node_capacity_slabs = 4096;
  // Per-host template; medium is forced to kRemote and each host gets a
  // distinct derived seed.
  MachineConfig host;
  FabricConfig fabric;
  PlacementPolicy placement = PlacementPolicy::kPowerOfTwo;
  uint64_t seed = 42;
  // Gray-failure resilience. `resilience` configures every host's
  // demand-read mitigation (deadline/retry, hedging, gray avoidance);
  // disabled by default, and a disabled config leaves the cluster
  // bit-identical to pre-PR-6 runs. The health monitor is created when
  // either flag asks for it: detection without mitigation
  // (health_monitor_enabled alone) is how a benchmark measures the
  // detection window on an otherwise-unmitigated run, since feeding the
  // monitor is pure observation and perturbs nothing.
  ResilienceConfig resilience;
  HealthMonitorConfig health;
  bool health_monitor_enabled = false;
  // Observability. Both default off, and off means OFF: no recorder
  // is allocated, every layer's trace pointer stays null (one predicted
  // branch per would-be event), the sampler collects nothing, and runs
  // are bit-identical to a build without this subsystem. Tracing needs
  // a single shard (ShardedClusterConfig::shards = 1).
  TraceConfig trace;
  StatsSamplerConfig sampler;
};

// One workload bound to a host in the cluster.
struct ClusterAppSpec {
  size_t host = 0;
  Pid pid = 0;
  AccessStream* stream = nullptr;
  RunConfig config;
};

// Cluster-wide accounting snapshot.
struct ClusterStats {
  // Sum of every host's counters plus the cluster's own scenario counters
  // (node failures/recoveries, host joins/leaves).
  Counters totals;
  std::vector<size_t> node_slabs;     // mapped slabs per node
  std::vector<uint64_t> node_reads;   // page reads served per node
  std::vector<uint64_t> node_writes;  // page writes absorbed per node
  uint64_t fabric_ops = 0;
  uint64_t fabric_bytes = 0;
  // Per-link per-IoClass op/byte totals (index with
  // static_cast<size_t>(IoClass)): who is using each uplink/downlink, and
  // for what. This is what makes "the antagonist's prefetches are eating
  // node 1's downlink" a measurable statement.
  std::vector<LinkClassCounts> host_uplink_classes;   // per host
  std::vector<LinkClassCounts> node_downlink_classes;  // per node
  // Fabric queue-delay EWMA per IoClass (repair/writeback congestion no
  // longer pollutes the demand/prefetch signal the governor keys on),
  // plus the whole-run per-class mean (the reporting quantity; the EWMA
  // is a point-in-time snapshot).
  std::array<double, kIoClassCount> class_queue_delay_ewma_ns{};
  std::array<double, kIoClassCount> class_queue_delay_mean_ns{};
  // Mean end-to-end sojourn per class (IoRequest::enqueue_ts -> fabric
  // completion): queue delay says what the link added; this says what the
  // class's ops cost all-in.
  std::array<double, kIoClassCount> class_sojourn_mean_ns{};
  // Whole-run mean queue delay over every op of every class.
  double fabric_queue_delay_mean_ns = 0.0;
  // Health view per node (empty when no health monitor is attached):
  // read-latency EWMA and the monitor's verdict at snapshot time.
  std::vector<double> node_health_ewma_ns;
  std::vector<NodeHealth> node_health_state;
  // Per-stage latency attribution (fabric's telescoped decomposition of
  // every stamped op's sojourn): where demand-read time actually went.
  StageBreakdown stages;

  // Tiered far memory: resident pages per tier (index with kTierCxl /
  // kTierRemote / kTierSsd), summed over hosts. Empty unless at least one
  // host runs a TieredStore; migration volumes live in `totals`
  // (tier_promotions / tier_demotions / tier_spills).
  std::vector<size_t> tier_pages;

  // Placement skew: max - min mapped slabs across nodes.
  size_t SlabImbalance() const;

  // Convenience sum over one class across all downlinks.
  uint64_t ClassOps(IoClass cls) const;
};

}  // namespace leap

#endif  // LEAP_SRC_RUNTIME_CLUSTER_H_
