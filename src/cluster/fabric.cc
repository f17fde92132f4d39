#include "src/cluster/fabric.h"

#include <algorithm>

#include "src/obs/trace_recorder.h"

namespace leap {

Fabric::Fabric(const FabricConfig& config, size_t num_hosts, size_t num_nodes)
    : config_(config),
      base_(LatencyModel::Normal(config.base_mean_ns, config.base_stddev_ns,
                                 config.base_min_ns)),
      bytes_per_ns_(config.link_gbps / 8.0),
      scheduler_(MakeLinkScheduler(config.sched)),
      uplinks_(std::max<size_t>(1, num_hosts)),
      downlinks_(std::max<size_t>(1, num_nodes)) {
  serialization_ns_ = static_cast<SimTimeNs>(
      static_cast<double>(config_.op_bytes) / bytes_per_ns_);
  if (serialization_ns_ == 0) {
    serialization_ns_ = 1;
  }
}

uint32_t Fabric::AddHost() {
  uplinks_.emplace_back();
  return static_cast<uint32_t>(uplinks_.size() - 1);
}

void Fabric::SetNodeSlowdown(uint32_t node, double factor) {
  downlinks_[node % downlinks_.size()].slowdown =
      factor > 0.0 ? factor : 1.0;
}

void Fabric::SetNodeExtraDelayNs(uint32_t node, SimTimeNs extra) {
  downlinks_[node % downlinks_.size()].extra_delay_ns = extra;
}

void Fabric::Drain(Link& link, SimTimeNs now) {
  while (link.count > 0) {
    const Pending& front = link.ring[link.head];
    if (front.done > now) {
      break;
    }
    link.inflight_bytes -= front.bytes;
    link.head = (link.head + 1) % link.ring.size();
    --link.count;
  }
}

void Fabric::Push(Link& link, SimTimeNs done, uint32_t bytes) {
  if (link.count == link.ring.size()) {
    // Grow by re-linearizing: steady state reaches a fixed depth (bounded
    // by bandwidth-delay product / op size) and never grows again.
    std::vector<Pending> bigger;
    bigger.reserve(link.ring.empty() ? 16 : link.ring.size() * 2);
    for (size_t i = 0; i < link.count; ++i) {
      bigger.push_back(link.ring[(link.head + i) % link.ring.size()]);
    }
    bigger.resize(bigger.capacity());
    link.ring = std::move(bigger);
    link.head = 0;
  }
  link.ring[(link.head + link.count) % link.ring.size()] =
      Pending{done, bytes};
  ++link.count;
  link.inflight_bytes += bytes;
}

SimTimeNs Fabric::SubmitPageOp(const IoRequest& req, uint32_t node,
                               SimTimeNs now, Rng& rng) {
  Link& up = uplinks_[req.host % uplinks_.size()];
  Link& down = downlinks_[node % downlinks_.size()];
  Drain(down, now);

  // Wire footprint of this op: the descriptor's payload size plus the
  // configured per-op header overhead. A default page-sized op reproduces
  // config_.op_bytes and the precomputed serialization slot exactly.
  const size_t header =
      config_.op_bytes > kPageSize ? config_.op_bytes - kPageSize : 0;
  const auto wire_bytes = static_cast<uint32_t>(req.bytes + header);
  SimTimeNs slot_ns = serialization_ns_;
  if (req.bytes != kPageSize) {
    slot_ns = static_cast<SimTimeNs>(static_cast<double>(wire_bytes) /
                                     bytes_per_ns_);
    if (slot_ns == 0) {
      slot_ns = 1;
    }
  }

  // Repair cap: repair ops on a link are paced at least one stretched slot
  // apart, bounding repair to `repair_bandwidth_fraction` of the link rate
  // regardless of which scheduler assigns the slots.
  const bool capped_repair = req.cls == IoClass::kRepair &&
                             config_.sched.repair_bandwidth_fraction < 1.0 &&
                             config_.sched.repair_bandwidth_fraction > 0.0;
  // Tier-migration traffic rides the identical pacing mechanism with its
  // own horizon, so the migrator can never take more than
  // `migration_bandwidth_fraction` of any link.
  const bool capped_migration =
      req.cls == IoClass::kMigration &&
      config_.sched.migration_bandwidth_fraction < 1.0 &&
      config_.sched.migration_bandwidth_fraction > 0.0;
  SimTimeNs sched_now = now;
  if (capped_repair) {
    sched_now = std::max(now, std::max(up.sched.repair_allowed_at,
                                       down.sched.repair_allowed_at));
  }
  if (capped_migration) {
    sched_now = std::max(now, std::max(up.sched.migration_allowed_at,
                                       down.sched.migration_allowed_at));
  }

  // The scheduler picks the op's wire slot on the sender's uplink and the
  // receiver's downlink; a hot node's downlink is where contending hosts
  // queue behind each other (incast).
  //
  // A *paced* migration bypasses the scheduler's horizon queueing: a
  // token-bucket-limited class is injected at its paced instant and its
  // packets interleave with the foreground at line rate - it does not
  // reserve a future wire slot. Routing it through the scheduler would,
  // under load, grant it a slot at the pacing horizon (far past the
  // all-class frontier) and ratchet busy_until across wire that is in
  // fact idle - every later background op (evictions included, which
  // reclaim and therefore demand faults wait on) would then stall behind
  // nothing. Instead the op charges exactly one serialization slot of
  // capacity at each link's live frontier, which is its true wire share.
  const SimTimeNs up_busy_before = up.sched.busy_until;
  const SimTimeNs up_demand_before = up.sched.demand_until;
  SimTimeNs wire_start;
  if (capped_migration) {
    wire_start = sched_now;
    up.sched.busy_until = std::max(up.sched.busy_until, now) + slot_ns;
    down.sched.busy_until = std::max(down.sched.busy_until, now) + slot_ns;
  } else {
    wire_start =
        scheduler_->ScheduleOp(up.sched, down.sched, req, sched_now, slot_ns);
  }

  // A gray downlink must not hold the initiating uplink hostage: the
  // schedulers advance the uplink horizon to the granted slot's end, and
  // when that slot was dictated by a stretched downlink's backlog the
  // sender's healthy uplink would inherit the gray node's entire queue -
  // one probe to a gray node would then stall the host's reads to every
  // OTHER node. The sender only spends its own serialization time, so cap
  // the uplink advance at one slot past where the uplink was actually
  // free. Guarded by the exact != 1.0 check: no-fault runs take the
  // schedulers' horizons bit-identically.
  if (down.slowdown != 1.0) {
    up.sched.busy_until =
        std::min(up.sched.busy_until,
                 std::max(up_busy_before, sched_now) + slot_ns);
    up.sched.demand_until =
        std::min(up.sched.demand_until,
                 std::max(up_demand_before, sched_now) + slot_ns);
  }

  // Gray-node stretch: a gray downlink serializes this op slower by the
  // configured factor, and the extra time occupies the downlink (its
  // horizons ratchet to the stretched end, so the node's service rate
  // drops by the factor - exactly the "answers everything, slowly" gray
  // failure). The uplink is untouched: the sender's link is healthy. The
  // exact != 1.0 guard keeps no-fault runs bit-identical.
  SimTimeNs down_extra = 0;
  if (down.slowdown != 1.0) {
    down_extra = static_cast<SimTimeNs>(static_cast<double>(slot_ns) *
                                        (down.slowdown - 1.0));
  }
  const SimTimeNs wire_end = wire_start + slot_ns + down_extra;
  if (down_extra > 0) {
    down.sched.busy_until = std::max(down.sched.busy_until, wire_end);
    if (req.cls == IoClass::kDemandRead) {
      down.sched.demand_until = std::max(down.sched.demand_until, wire_end);
    }
  }
  if (capped_repair) {
    const auto pace = static_cast<SimTimeNs>(
        static_cast<double>(slot_ns) /
        config_.sched.repair_bandwidth_fraction);
    up.sched.repair_allowed_at = wire_start + pace;
    down.sched.repair_allowed_at = wire_start + pace;
  }
  if (capped_migration) {
    const auto pace = static_cast<SimTimeNs>(
        static_cast<double>(slot_ns) /
        config_.sched.migration_bandwidth_fraction);
    up.sched.migration_allowed_at = wire_start + pace;
    down.sched.migration_allowed_at = wire_start + pace;
  }

  // Bytes already racing toward this node stretch the latency further:
  // switch buffers drain at link rate, so each in-flight KB past the free
  // allowance costs congestion_ns_per_kb.
  const uint64_t backlog =
      down.inflight_bytes > config_.congestion_free_bytes
          ? down.inflight_bytes - config_.congestion_free_bytes
          : 0;
  const SimTimeNs congestion = static_cast<SimTimeNs>(
      static_cast<double>(backlog) / 1024.0 * config_.congestion_ns_per_kb);

  // Packet-delay spike: flat lateness on the path to this node (0 in
  // healthy runs, so parity holds). Excluded from the in-flight estimate
  // below like the congestion term - delayed packets are late, not queued.
  const SimTimeNs spike = down.extra_delay_ns;
  const SimTimeNs done = wire_end + congestion + spike + base_.Sample(rng);

  // In-flight accounting uses wire_end plus the constant mean base - NOT
  // the sampled latency and NOT the congestion term - so ring entries are
  // non-decreasing and the FIFO Drain above is exact. Under FIFO the
  // monotonicity is inherent (wire_end only grows per link); the
  // reordering schedulers can grant a slot earlier than one already handed
  // out, so the estimate is clamped to the previous push - the early op
  // then leaves the ledger with its displaced predecessor, a small
  // overcount that errs toward (never away from) congestion. Congested
  // ops still leave the ledger a little early (the congestion term is
  // excluded), which under-counts, so congestion cannot compound on
  // itself. Only the downlink keeps a ring: incast at the receiver is the
  // congestion signal, while the sender side is fully described by the
  // uplink horizons.
  // Paced migrations stay out of the ring: admission control upstream
  // (migration_allowed_at) holds the class to a fraction of line rate, so
  // it cannot build standing switch backlog - its wire share is already
  // charged through busy_until. Pushing it here would charge demand for
  // bytes still sitting in the migrator's host-side queue (the entry is
  // pushed at schedule time, and under load a background op's granted
  // slot is far in the future), and the monotonic clamp would then
  // stretch every later demand entry to that background horizon - pure
  // accounting artifact, not buffer occupancy. An UNcapped migration
  // class (fraction 1.0) can saturate, so it goes through the ledger like
  // any other class.
  if (!capped_migration) {
    const SimTimeNs done_est =
        std::max(wire_end + config_.base_mean_ns, down.last_done_est);
    down.last_done_est = done_est;
    Push(down, done_est, wire_bytes);
  }

  const auto cls = static_cast<size_t>(req.cls);
  ++ops_;
  ++up.ops;
  ++down.ops;
  ++up.classes.ops[cls];
  ++down.classes.ops[cls];
  up.classes.bytes[cls] += wire_bytes;
  down.classes.bytes[cls] += wire_bytes;
  wire_bytes_total_ += wire_bytes;
  // End-to-end sojourn by class: time since the op entered the I/O path
  // (software stages + NIC pacing + this fabric), when the caller stamped
  // it. Zero-stamped ops (unit tests driving the fabric directly) are
  // excluded rather than read as epoch-aged.
  //
  // The five stage terms below telescope: software + queue + wire + stall
  // + service == done - enqueue_ts with no residual, which is what lets
  // StageBreakdown claim it accounts for ALL of the measured end-to-end
  // latency (obs_trace_test pins the identity).
  const SimTimeNs stage_queue = wire_start - now;
  const SimTimeNs stage_wire = wire_end - wire_start;
  const SimTimeNs stage_stall = congestion + spike;
  const SimTimeNs stage_service = done - wire_end - congestion - spike;
  SimTimeNs stage_software = 0;
  if (req.enqueue_ts != 0 && done > req.enqueue_ts) {
    class_sojourn_sum_ns_[cls] +=
        static_cast<double>(done - req.enqueue_ts);
    ++class_sojourn_ops_[cls];
    stage_software = now >= req.enqueue_ts ? now - req.enqueue_ts : 0;
    StageSums& st = stage_sums_[cls];
    st.software_ns += stage_software;
    st.queue_ns += stage_queue;
    st.wire_ns += stage_wire;
    st.stall_ns += stage_stall;
    st.service_ns += stage_service;
    if (req.cls == IoClass::kDemandRead) {
      demand_stage_hists_[0].Record(stage_software);
      demand_stage_hists_[1].Record(stage_queue);
      demand_stage_hists_[2].Record(stage_wire);
      demand_stage_hists_[3].Record(stage_stall);
      demand_stage_hists_[4].Record(stage_service);
      demand_stage_hists_[5].Record(done - req.enqueue_ts);
    }
  }
  if (trace_ != nullptr) {
    TraceEvent e;
    e.kind = TraceEventKind::kFabricOp;
    e.ts = stage_software > 0 ? req.enqueue_ts : now;
    e.dur_ns = done - e.ts;
    e.slot = req.slot;
    e.host = req.host;
    e.node = node;
    e.tenant = req.tenant;
    e.cls = req.cls;
    e.stage_software_ns = static_cast<uint32_t>(stage_software);
    e.stage_queue_ns = static_cast<uint32_t>(stage_queue);
    e.stage_wire_ns = static_cast<uint32_t>(stage_wire);
    e.stage_stall_ns = static_cast<uint32_t>(stage_stall);
    e.stage_service_ns = static_cast<uint32_t>(stage_service);
    trace_->Record(e);
  }
  // Queue delay includes the spike: congestion control and the health
  // monitor should both see a delayed path as a slow path.
  const SimTimeNs queue_delay = (wire_start - now) + congestion + spike;
  queue_delay_hist_.Record(queue_delay);
  // EWMA with alpha = 1/32: smooth enough to ride out single-op spikes,
  // fast enough that a congestion epoch (hundreds of ops) dominates it.
  // The per-class EWMA advances only on its own class's ops, so a repair
  // storm cannot masquerade as demand-path congestion.
  queue_delay_ewma_ns_ +=
      (static_cast<double>(queue_delay) - queue_delay_ewma_ns_) / 32.0;
  class_queue_delay_ewma_ns_[cls] +=
      (static_cast<double>(queue_delay) - class_queue_delay_ewma_ns_[cls]) /
      32.0;
  class_delay_sum_ns_[cls] += static_cast<double>(queue_delay);
  ++class_delay_ops_[cls];
  return done;
}

StageBreakdown Fabric::Stages() const {
  StageBreakdown out;
  for (size_t c = 0; c < kIoClassCount; ++c) {
    StageBreakdown::Stage& s = out.cls[c];
    s.software_ns = stage_sums_[c].software_ns;
    s.queue_ns = stage_sums_[c].queue_ns;
    s.wire_ns = stage_sums_[c].wire_ns;
    s.stall_ns = stage_sums_[c].stall_ns;
    s.service_ns = stage_sums_[c].service_ns;
    s.ops = class_sojourn_ops_[c];
  }
  out.demand_p99_software_ns = demand_stage_hists_[0].Percentile(0.99);
  out.demand_p99_queue_ns = demand_stage_hists_[1].Percentile(0.99);
  out.demand_p99_wire_ns = demand_stage_hists_[2].Percentile(0.99);
  out.demand_p99_stall_ns = demand_stage_hists_[3].Percentile(0.99);
  out.demand_p99_service_ns = demand_stage_hists_[4].Percentile(0.99);
  out.demand_p99_total_ns = demand_stage_hists_[5].Percentile(0.99);
  return out;
}

}  // namespace leap
