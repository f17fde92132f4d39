// Shared multi-host fabric: the network connecting N host machines to M
// memory nodes in a disaggregated cluster.
//
// Replaces the fixed LatencyModel constants of single-host runs with a
// latency that depends on what everyone else is doing: each host has an
// uplink and each memory node a downlink of fixed bandwidth, a page op
// serializes on both (so contending hosts queue behind each other on a hot
// node's downlink), and on top of queuing, an incast congestion term grows
// with the bytes already in flight toward the target node - modeling
// switch buffering the way far-memory follow-ups (3PO and friends) argue a
// prefetcher must be evaluated under.
//
// Every op arrives as a tagged IoRequest, and WHICH op gets the next wire
// slot is a pluggable LinkScheduler policy (src/cluster/link_scheduler.h):
// FIFO (default; bit-identical to the pre-scheduler fabric),
// demand-priority (prefetch/background never delays a demand read), or
// per-tenant weighted DRR. A per-link repair-bandwidth cap rides the same
// slot-assignment mechanism. Queue-delay telemetry is kept per IoClass so
// congestion control can key on demand/prefetch delay without repair or
// writeback noise.
//
// Determinism: every quantity is a pure function of the op sequence and
// the caller's Rng stream. The cluster runner interleaves hosts in roughly
// non-decreasing global time; small reorderings (apps with different think
// times) are safe because busy-until times only ratchet forward (max()
// clamps) and in-flight accounting uses the *expected* completion
// (wire end + mean base latency), which is strictly monotone per link - so
// the per-link completion rings drain FIFO and the model never needs an
// ordered structure.
#ifndef LEAP_SRC_CLUSTER_FABRIC_H_
#define LEAP_SRC_CLUSTER_FABRIC_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/cluster/link_scheduler.h"
#include "src/rdma/rdma_nic.h"
#include "src/sim/io_request.h"
#include "src/sim/latency_model.h"
#include "src/sim/types.h"
#include "src/stats/histogram.h"

namespace leap {

struct FabricConfig {
  // Per-direction bandwidth of every host uplink and node downlink
  // (the paper's testbed fabric is 56 Gbps InfiniBand).
  double link_gbps = 56.0;
  // One-sided RDMA base latency (setup + propagation + remote NIC), same
  // calibration as RdmaNicConfig so a 1-host cluster matches a single host.
  SimTimeNs base_mean_ns = 3700;
  SimTimeNs base_stddev_ns = 900;
  SimTimeNs base_min_ns = 2500;
  // Wire bytes per page op: 4KB payload plus headers.
  size_t op_bytes = kPageSize + 64;
  // Incast congestion: extra ns per KB in flight toward the target node
  // beyond the pipe's natural depth (~1 BDP of switch buffer is free).
  double congestion_ns_per_kb = 30.0;
  size_t congestion_free_bytes = 32 * 1024;
  // Per-link slot-assignment policy (FIFO default = parity with the
  // pre-scheduler fabric) plus DRR weights and the repair-bandwidth cap.
  LinkSchedulerConfig sched;
};

// Per-link per-class op/byte totals, snapshotted into ClusterStats.
struct LinkClassCounts {
  std::array<uint64_t, kIoClassCount> ops{};
  std::array<uint64_t, kIoClassCount> bytes{};
};

class TraceRecorder;

// Where page-op time goes, decomposed per IoClass - the simulator's answer
// to the paper's fig 2 stall breakdown. Stage sums are integer ns and
// telescope exactly: for every op stamped with enqueue_ts,
//   software + queue + wire + stall + service == completion - enqueue_ts,
// so a class's stage means sum to its MeanSojournNs with no residual
// (pinned by obs_trace_test). Unstamped ops (unit tests driving the
// fabric directly) are excluded, matching the sojourn accounting.
struct StageBreakdown {
  struct Stage {
    uint64_t software_ns = 0;  // fault -> fabric submit (block layer + CPU)
    uint64_t queue_ns = 0;     // waiting for a link wire slot
    uint64_t wire_ns = 0;      // serialization, incl. gray-node stretch
    uint64_t stall_ns = 0;     // incast congestion + injected delay spikes
    uint64_t service_ns = 0;   // remote base latency draw
    uint64_t ops = 0;          // stamped ops the sums cover

    uint64_t TotalNs() const {
      return software_ns + queue_ns + wire_ns + stall_ns + service_ns;
    }
    double MeanNs(uint64_t sum) const {
      return ops == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(ops);
    }
  };
  std::array<Stage, kIoClassCount> cls{};
  // Demand-read tail decomposition (p99 of each stage across stamped
  // demand reads; stage p99s need not sum to the total p99 - the worst
  // queue wait and the worst service draw rarely hit the same op).
  uint64_t demand_p99_software_ns = 0;
  uint64_t demand_p99_queue_ns = 0;
  uint64_t demand_p99_wire_ns = 0;
  uint64_t demand_p99_stall_ns = 0;
  uint64_t demand_p99_service_ns = 0;
  uint64_t demand_p99_total_ns = 0;
};

class Fabric : public PageTransport {
 public:
  Fabric(const FabricConfig& config, size_t num_hosts, size_t num_nodes);

  // PageTransport: one tagged page op from `req.host`'s uplink to `node`'s
  // downlink. Returns the completion time.
  SimTimeNs SubmitPageOp(const IoRequest& req, uint32_t node, SimTimeNs now,
                         Rng& rng) override;

  // Host join: grows the uplink set; returns the new host id.
  uint32_t AddHost();

  // --- fault hooks (driven by the FaultInjector) --------------------------
  // Gray node: the node's downlink serializes every op `factor`x slower
  // (the link itself degraded - a flaky cable, a throttled NIC - not the
  // traffic on it). 1.0 restores full speed. Takes effect on the next op;
  // ops already granted slots keep their completions (the simulation never
  // revises a returned time).
  void SetNodeSlowdown(uint32_t node, double factor);
  // Transient packet-delay spike: a flat extra latency on every op to this
  // node (reroute through a backup path, a microburst drop+retransmit).
  // Unlike the slowdown it does not consume link capacity - ops are late,
  // not queued. 0 clears it.
  void SetNodeExtraDelayNs(uint32_t node, SimTimeNs extra);

  // Flight-recorder hook: when non-null, every page op records one
  // kFabricOp span with its stage decomposition. Null (the default) keeps
  // the hot path at a single pointer test.
  void SetTrace(TraceRecorder* trace) { trace_ = trace; }

  size_t num_hosts() const { return uplinks_.size(); }
  size_t num_nodes() const { return downlinks_.size(); }
  SimTimeNs serialization_ns() const { return serialization_ns_; }
  std::string_view scheduler_name() const { return scheduler_->name(); }

  // --- accounting ---------------------------------------------------------
  uint64_t ops() const { return ops_; }
  // Total wire bytes moved (per-op payload + header; equals
  // ops * op_bytes when every op is a default page op).
  uint64_t bytes() const { return wire_bytes_total_; }
  uint64_t host_ops(uint32_t host) const { return uplinks_[host].ops; }
  uint64_t node_ops(uint32_t node) const { return downlinks_[node].ops; }
  // Per-class breakdown of one link's traffic (wire bytes, headers
  // included).
  uint64_t host_class_ops(uint32_t host, IoClass cls) const {
    return uplinks_[host].classes.ops[static_cast<size_t>(cls)];
  }
  uint64_t node_class_ops(uint32_t node, IoClass cls) const {
    return downlinks_[node].classes.ops[static_cast<size_t>(cls)];
  }
  const LinkClassCounts& host_classes(uint32_t host) const {
    return uplinks_[host].classes;
  }
  const LinkClassCounts& node_classes(uint32_t node) const {
    return downlinks_[node].classes;
  }
  // Time ops spent waiting for a link slot plus congestion stall - the
  // contention signal the cluster bench reports (p99 rises with hosts).
  Histogram& queue_delay_hist() { return queue_delay_hist_; }
  const Histogram& queue_delay_hist() const { return queue_delay_hist_; }
  // Continuously-maintained EWMA of the same quantity (alpha = 1/32),
  // snapshotted into CongestionSignals on every fault: the feedback input
  // for congestion-aware prefetch budgets. The class-blind overload mixes
  // every IoClass (kept for aggregate reporting); the per-class overload
  // is what congestion control keys on.
  double QueueDelayEwmaNs() const override { return queue_delay_ewma_ns_; }
  double QueueDelayEwmaNs(IoClass cls) const override {
    return class_queue_delay_ewma_ns_[static_cast<size_t>(cls)];
  }
  // Whole-run mean queue delay of one class (the EWMA is a point-in-time
  // snapshot; this is the reporting quantity).
  double MeanQueueDelayNs(IoClass cls) const {
    const auto c = static_cast<size_t>(cls);
    return class_delay_ops_[c] == 0
               ? 0.0
               : class_delay_sum_ns_[c] /
                     static_cast<double>(class_delay_ops_[c]);
  }
  // Whole-run mean end-to-end sojourn of one class: IoRequest::enqueue_ts
  // (entry into the I/O path) -> fabric completion, over the ops that
  // carried a stamp.
  double MeanSojournNs(IoClass cls) const {
    const auto c = static_cast<size_t>(cls);
    return class_sojourn_ops_[c] == 0
               ? 0.0
               : class_sojourn_sum_ns_[c] /
                     static_cast<double>(class_sojourn_ops_[c]);
  }
  // Per-stage latency attribution (always maintained; integer adds plus
  // pre-allocated histogram bumps, so keeping it on costs no allocation
  // and changes no simulation result).
  StageBreakdown Stages() const;

  // Raw per-class accumulators, exposed so the sharded engine can merge
  // per-shard fabrics exactly: a merged class mean is sum-of-sums over
  // sum-of-ops, not a mean of means (shards carry different op counts).
  double ClassQueueDelaySumNs(IoClass cls) const {
    return class_delay_sum_ns_[static_cast<size_t>(cls)];
  }
  uint64_t ClassQueueDelayOps(IoClass cls) const {
    return class_delay_ops_[static_cast<size_t>(cls)];
  }
  double ClassSojournSumNs(IoClass cls) const {
    return class_sojourn_sum_ns_[static_cast<size_t>(cls)];
  }
  uint64_t ClassSojournOps(IoClass cls) const {
    return class_sojourn_ops_[static_cast<size_t>(cls)];
  }
  // Demand-read per-stage distributions (0..4 = software/queue/wire/stall/
  // service, 5 = end-to-end total): merged via Histogram::Merge so tail
  // percentiles recompute over the union of shards' stamped demand reads.
  static constexpr size_t kDemandStageHists = 6;
  const Histogram& DemandStageHist(size_t stage) const {
    return demand_stage_hists_[stage];
  }

 private:
  // Expected in-flight completion, kept in a FIFO ring (downlinks only:
  // incast at the receiver drives the congestion term; uplinks are fully
  // described by the scheduler's horizons).
  struct Pending {
    SimTimeNs done;
    uint32_t bytes;
  };
  struct Link {
    LinkSchedState sched;          // slot-assignment horizons
    uint64_t inflight_bytes = 0;   // submitted, not yet (expected) complete
    SimTimeNs last_done_est = 0;   // ring monotonicity clamp (downlinks)
    double slowdown = 1.0;         // gray-node serialization stretch
    SimTimeNs extra_delay_ns = 0;  // packet-delay spike (flat add-on)
    uint64_t ops = 0;
    LinkClassCounts classes;
    std::vector<Pending> ring;     // circular FIFO over `head`/`count`
    size_t head = 0;
    size_t count = 0;
  };

  static void Drain(Link& link, SimTimeNs now);
  static void Push(Link& link, SimTimeNs done, uint32_t bytes);

  FabricConfig config_;
  LatencyModel base_;
  SimTimeNs serialization_ns_;
  double bytes_per_ns_;
  std::unique_ptr<LinkScheduler> scheduler_;
  std::vector<Link> uplinks_;    // one per host
  std::vector<Link> downlinks_;  // one per memory node
  uint64_t ops_ = 0;
  Histogram queue_delay_hist_;
  double queue_delay_ewma_ns_ = 0.0;
  std::array<double, kIoClassCount> class_queue_delay_ewma_ns_{};
  std::array<double, kIoClassCount> class_delay_sum_ns_{};
  std::array<uint64_t, kIoClassCount> class_delay_ops_{};
  std::array<double, kIoClassCount> class_sojourn_sum_ns_{};
  std::array<uint64_t, kIoClassCount> class_sojourn_ops_{};
  uint64_t wire_bytes_total_ = 0;
  // Stage attribution over stamped ops (same coverage as the sojourn
  // sums, so the telescoping identity holds exactly).
  struct StageSums {
    uint64_t software_ns = 0;
    uint64_t queue_ns = 0;
    uint64_t wire_ns = 0;
    uint64_t stall_ns = 0;
    uint64_t service_ns = 0;
  };
  std::array<StageSums, kIoClassCount> stage_sums_{};
  // Demand-read per-stage distributions for the tail report
  // (software/queue/wire/stall/service + end-to-end total).
  std::array<Histogram, 6> demand_stage_hists_;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace leap

#endif  // LEAP_SRC_CLUSTER_FABRIC_H_
