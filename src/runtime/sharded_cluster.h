// The cluster engine: N host machines and M memory nodes on a congestion-
// aware fabric, partitioned into shards that run on worker threads.
//
// A ShardPlan splits the cluster into shards, each owning a block of hosts
// and a slice of donor nodes, with its own EventQueue, Fabric, SlabPlacer,
// HealthMonitor, RNG streams, and (at shards > 1) worker thread. Each
// host's donor pool is its home shard's node slice, so the entire
// synchronous demand path (fault -> HostAgent -> fabric -> node) stays
// shard-local. Cross-shard traffic is asynchronous by construction: every
// Nth demand miss emits a fire-and-forget mirror write (cross-domain
// replica, DR-style) to a foreign node, carried by an SPSC mailbox and
// applied by the target shard at its fabric downlink.
//
// Time advances in conservative lockstep windows of width
// FabricLookaheadNs (the fabric's minimum one-op latency): within a
// window every shard runs free; at the window barrier the last-arriving
// worker drains all mailboxes, decides the next window (advancing over
// idle gaps in one jump), and fills the barrier-time StatsSamples.
// Ops sent in window k carry effect_ts >= end(k), so every op applicable
// in a window crossed the barrier at least one window earlier - receivers
// apply them sorted by (effect_ts, sender, seq), making the applied
// sequence independent of thread scheduling.
//
// shards = 1 (the default) is the whole cluster on one queue, stepped
// inline with no threads and no mirrors: accesses interleave in global
// simulated-time order. Its results are pinned by a golden fixture in
// sharded_cluster_test.
// Trace recording (ClusterConfig::trace) requires shards = 1: the flight
// recorder's ring is not shard-safe, so the ctor throws otherwise.
//
// Determinism contract (pinned by sharded_cluster_test): same seed + same
// shard count => bit-identical ClusterStats.
#ifndef LEAP_SRC_RUNTIME_SHARDED_CLUSTER_H_
#define LEAP_SRC_RUNTIME_SHARDED_CLUSTER_H_

#include <iosfwd>
#include <memory>
#include <vector>

#include "src/obs/stats_sampler.h"
#include "src/runtime/cluster.h"
#include "src/runtime/shard_plan.h"
#include "src/sim/shard_sync.h"

namespace leap {

struct ShardedClusterConfig {
  // Geometry, workload template, fabric, placement, seed, resilience,
  // observability.
  ClusterConfig base;
  // Shard count, clamped to [1, max(hosts, nodes)] by the planner.
  size_t shards = 1;
  // Window width override; 0 = derive FabricLookaheadNs(base.fabric).
  SimTimeNs window_ns = 0;
  // Cross-shard mirror cadence: every Nth demand miss per host sends an
  // async replica write to a foreign-shard node. 0 disables; ignored at
  // shards=1 (there is no foreign shard).
  size_t mirror_every = 0;
  // Per-(sender, receiver) mailbox ring capacity (rounded up to a power
  // of two; overflow spills safely either way).
  size_t mailbox_capacity = 4096;
};

class ShardedCluster {
 public:
  explicit ShardedCluster(const ShardedClusterConfig& config);
  ~ShardedCluster();

  size_t num_hosts() const { return hosts_.size(); }
  size_t num_nodes() const { return nodes_.size(); }
  size_t num_shards() const { return plan_.shards; }
  const ShardPlan& plan() const { return plan_; }
  SimTimeNs window_ns() const { return window_ns_; }
  // Windows executed by the last Run (lockstep rounds, jumps included).
  uint64_t windows_run() const { return windows_run_; }
  Machine& host(size_t i) { return *hosts_[i]; }
  RemoteAgent& node(size_t i) { return *nodes_[i]; }
  bool HostAlive(size_t host) const { return alive_[host] != 0; }

  // --- membership ---------------------------------------------------------
  // Host join: a new machine on the last shard's queue, fabric and donor
  // slice. Only before Run (throws std::logic_error after).
  size_t AddHost();
  // Host leave: returns its slabs to the pool and stops its workloads.
  void RemoveHost(size_t host);

  // --- failure scenarios (each fires on the target's home-shard queue, so
  // injection stays deterministic) ----------------------------------------
  // At `at`: the node fails, and every live home-shard host re-maps and
  // re-replicates the slabs that lost a replica (repair traffic rides the
  // fabric). Placement is shard-local, so no other host holds its slabs.
  void ScheduleNodeFailure(uint32_t node, SimTimeNs at);
  void ScheduleNodeRecovery(uint32_t node, SimTimeNs at);
  // Correlated failure: every node of `group` (one rack / failure domain)
  // fails at the same instant - on each home shard all members fail FIRST,
  // then repair runs, so a slab whose whole replica set sat in the domain
  // finds no survivor to rebuild from. Throws std::invalid_argument on a
  // duplicate id.
  void ScheduleCorrelatedFailure(std::vector<uint32_t> group, SimTimeNs at);
  // Gray node: at `at` the node's downlink serializes `stretch`x slower;
  // restored to full speed at `until` when until > at (0 = stays gray).
  void ScheduleNodeGray(uint32_t node, double stretch, SimTimeNs at,
                        SimTimeNs until = 0);
  // Transient packet-delay spike: flat +extra_ns on every op to the node
  // during [at, until) (until = 0 leaves it in force).
  void ScheduleNodeDelaySpike(uint32_t node, SimTimeNs extra_ns, SimTimeNs at,
                              SimTimeNs until = 0);
  void ScheduleHostLeave(size_t host, SimTimeNs at);
  // Fires every shard's scheduled events up to `t` without any workload
  // (scenario tests; also usable after Run to let late events land).
  void RunEventsUntil(SimTimeNs t);

  // The health monitor of `node`'s home shard; nullptr unless the config
  // enabled resilience or the monitor.
  const HealthMonitor* health_monitor(uint32_t node) const;
  // Nullptr unless ClusterConfig::trace.enabled.
  TraceRecorder* trace() { return trace_.get(); }
  const TraceRecorder* trace() const { return trace_.get(); }

  // Runs all workloads to completion. One Run per instance (like a process
  // lifetime); results come back in spec order.
  std::vector<RunResult> Run(std::vector<ClusterAppSpec> specs);

  // Remote (non-resident) access latency per host, recorded by Run.
  const Histogram& host_remote_latency(size_t host) const {
    return host_remote_hist_[host];
  }

  // Merged cluster-wide snapshot: counters/link counts/stage sums add
  // across shards, per-class means recompute from summed accumulators,
  // demand-stage tail percentiles recompute from merged histograms.
  ClusterStats Stats() const;

  // One-call human-readable dump of Stats(): counter totals, per-node
  // service/health tables, per-link per-class traffic, and the demand
  // stage breakdown.
  void DumpStats(std::ostream& out) const;

  // Barrier-sampled time series (enabled by base.sampler.enabled): one
  // StatsSample per sampler period crossed during Run.
  const std::vector<StatsSample>& samples() const { return samples_; }

  // Mailbox pressure telemetry: total ops that overflowed a ring into the
  // sender-side spill (delivery unaffected).
  uint64_t mailbox_overflows() const;

 private:
  struct Shard;

  void BuildShard(size_t s);
  size_t AddHostTo(Shard& shard);
  void WorkerLoop(Shard& shard);
  void OnBarrier();          // completion hook: transfer, advance, sample
  void ApplyPending(Shard& shard);
  void SendMirror(Shard& shard, uint32_t host, uint64_t tick, SimTimeNs now);
  void TakeSample(SimTimeNs ts);
  // Cluster-wide EWMA of one class's queue delay (see Stats()).
  double MergedQueueDelayEwmaNs(IoClass cls) const;
  const Shard& HomeShardOfNode(uint32_t node) const {
    return *shards_[plan_.node_shard[node]];
  }

  ShardedClusterConfig config_;
  ShardPlan plan_;
  SimTimeNs window_ns_ = 1;

  // Global object tables, indexed by global id. Each element is touched by
  // exactly one shard's worker during Run (hosts/alive/histograms by the
  // home shard; nodes by home shard plus barrier-serial mirror applies).
  std::vector<std::unique_ptr<RemoteAgent>> nodes_;
  std::vector<std::unique_ptr<Machine>> hosts_;
  std::vector<uint8_t> alive_;  // NOT vector<bool>: per-element writes must
                                // not share bytes across shards
  std::vector<Histogram> host_remote_hist_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<TraceRecorder> trace_;  // null = tracing off
  Rng host_seeder_;

  // Window protocol state. Written only inside the barrier completion (or
  // before workers start); the barrier's mutex publishes every write to
  // every worker before its next window.
  SimTimeNs window_start_ = 0;
  SimTimeNs window_end_ = 0;
  bool stopped_ = false;
  uint64_t windows_run_ = 0;
  std::unique_ptr<WindowBarrier> barrier_;
  bool ran_ = false;

  // Barrier sampling (base.sampler.enabled).
  SimTimeNs next_sample_ts_ = 0;
  std::vector<StatsSample> samples_;
  Histogram sample_scratch_;
};

}  // namespace leap

#endif  // LEAP_SRC_RUNTIME_SHARDED_CLUSTER_H_
