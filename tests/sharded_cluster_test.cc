// Cluster engine tests: the determinism contract (shards=1 reproduces a
// golden fingerprint captured from the former single-queue engine; same
// seed + same shard count is bit-identical across runs and across mailbox
// capacities), the shard
// planner and lookahead derivation, the SPSC mailbox's FIFO/overflow
// behavior, and the protocol edge cases the window design calls out -
// scenario events landing exactly on a window boundary, donor-only
// shards, and apps whose every access is a zero-latency local hit.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/runtime/presets.h"
#include "src/runtime/shard_plan.h"
#include "src/runtime/sharded_cluster.h"
#include "src/sim/shard_sync.h"
#include "src/workload/cluster_mix.h"
#include "src/workload/patterns.h"

namespace leap {
namespace {

constexpr size_t kFootprint = 2048;

ClusterConfig SmallCluster(size_t hosts, size_t nodes) {
  ClusterConfig config;
  config.hosts = hosts;
  config.nodes = nodes;
  config.node_capacity_slabs = 4096;
  config.host = LeapVmmConfig(/*total_frames=*/4096, /*seed=*/42);
  config.host.host_agent.slab_pages = 64;
  config.seed = 42;
  return config;
}

// Warm every host back-to-back, then one mixed-pattern app per host -
// the exact sequence cluster_test drives.
std::vector<RunResult> RunMixed(ShardedCluster& cluster,
                                size_t accesses_per_host,
                                std::vector<std::unique_ptr<AccessStream>>& streams,
                                SimTimeNs* warm_end_out = nullptr) {
  std::vector<ClusterAppSpec> specs;
  SimTimeNs warm_end = 0;
  std::vector<Pid> pids;
  for (size_t h = 0; h < cluster.num_hosts(); ++h) {
    const Pid pid = cluster.host(h).CreateProcess(kFootprint / 2);
    pids.push_back(pid);
    warm_end = WarmUp(cluster.host(h), pid, kFootprint, warm_end);
    streams.push_back(MakeClusterMixStream(h, kFootprint));
  }
  for (size_t h = 0; h < cluster.num_hosts(); ++h) {
    RunConfig run;
    run.total_accesses = accesses_per_host;
    run.start_time_ns = warm_end + 10 * kNsPerMs;
    run.seed = 100 + h;
    specs.push_back({h, pids[h], streams[h].get(), run});
  }
  if (warm_end_out != nullptr) {
    *warm_end_out = warm_end;
  }
  return cluster.Run(std::move(specs));
}

// Probe one failure-free run to find a simulated time guaranteed to fall
// inside the measured phase (failures scheduled after the last access
// never fire).
SimTimeNs MidRunTime(const ShardedClusterConfig& config) {
  ShardedCluster probe(config);
  std::vector<std::unique_ptr<AccessStream>> streams;
  SimTimeNs warm_end = 0;
  const std::vector<RunResult> results =
      RunMixed(probe, 6000, streams, &warm_end);
  // completion_ns is a duration from the app's start; every app starts at
  // warm_end + 10ms, so the shortest-lived app ends the measured phase.
  SimTimeNs shortest = ~SimTimeNs{0};
  for (const RunResult& result : results) {
    shortest = std::min(shortest, result.completion_ns);
  }
  EXPECT_GT(shortest, 0u);
  const SimTimeNs start = warm_end + 10 * kNsPerMs;
  return start + shortest / 2;
}

// Field-by-field ClusterStats equality, doubles compared exactly: the
// engine's contract is bit-identity, not tolerance.
void ExpectStatsEqual(const ClusterStats& a, const ClusterStats& b) {
  EXPECT_EQ(a.totals.values(), b.totals.values());
  EXPECT_EQ(a.node_slabs, b.node_slabs);
  EXPECT_EQ(a.node_reads, b.node_reads);
  EXPECT_EQ(a.node_writes, b.node_writes);
  EXPECT_EQ(a.fabric_ops, b.fabric_ops);
  EXPECT_EQ(a.fabric_bytes, b.fabric_bytes);
  ASSERT_EQ(a.host_uplink_classes.size(), b.host_uplink_classes.size());
  for (size_t h = 0; h < a.host_uplink_classes.size(); ++h) {
    EXPECT_EQ(a.host_uplink_classes[h].ops, b.host_uplink_classes[h].ops);
    EXPECT_EQ(a.host_uplink_classes[h].bytes, b.host_uplink_classes[h].bytes);
  }
  ASSERT_EQ(a.node_downlink_classes.size(), b.node_downlink_classes.size());
  for (size_t n = 0; n < a.node_downlink_classes.size(); ++n) {
    EXPECT_EQ(a.node_downlink_classes[n].ops, b.node_downlink_classes[n].ops);
    EXPECT_EQ(a.node_downlink_classes[n].bytes,
              b.node_downlink_classes[n].bytes);
  }
  for (size_t c = 0; c < kIoClassCount; ++c) {
    EXPECT_EQ(a.class_queue_delay_ewma_ns[c], b.class_queue_delay_ewma_ns[c])
        << "class " << c;
    EXPECT_EQ(a.class_queue_delay_mean_ns[c], b.class_queue_delay_mean_ns[c])
        << "class " << c;
    EXPECT_EQ(a.class_sojourn_mean_ns[c], b.class_sojourn_mean_ns[c])
        << "class " << c;
    EXPECT_EQ(a.stages.cls[c].software_ns, b.stages.cls[c].software_ns);
    EXPECT_EQ(a.stages.cls[c].queue_ns, b.stages.cls[c].queue_ns);
    EXPECT_EQ(a.stages.cls[c].wire_ns, b.stages.cls[c].wire_ns);
    EXPECT_EQ(a.stages.cls[c].stall_ns, b.stages.cls[c].stall_ns);
    EXPECT_EQ(a.stages.cls[c].service_ns, b.stages.cls[c].service_ns);
    EXPECT_EQ(a.stages.cls[c].ops, b.stages.cls[c].ops);
  }
  EXPECT_EQ(a.stages.demand_p99_software_ns, b.stages.demand_p99_software_ns);
  EXPECT_EQ(a.stages.demand_p99_queue_ns, b.stages.demand_p99_queue_ns);
  EXPECT_EQ(a.stages.demand_p99_wire_ns, b.stages.demand_p99_wire_ns);
  EXPECT_EQ(a.stages.demand_p99_stall_ns, b.stages.demand_p99_stall_ns);
  EXPECT_EQ(a.stages.demand_p99_service_ns, b.stages.demand_p99_service_ns);
  EXPECT_EQ(a.stages.demand_p99_total_ns, b.stages.demand_p99_total_ns);
  EXPECT_EQ(a.node_health_ewma_ns, b.node_health_ewma_ns);
  EXPECT_EQ(a.node_health_state, b.node_health_state);
  EXPECT_EQ(a.tier_pages, b.tier_pages);
}

void ExpectResultsEqual(const std::vector<RunResult>& a,
                        const std::vector<RunResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].finished, b[i].finished) << "app " << i;
    EXPECT_EQ(a[i].completion_ns, b[i].completion_ns) << "app " << i;
    EXPECT_EQ(a[i].accesses, b[i].accesses) << "app " << i;
    EXPECT_EQ(a[i].app_ops, b[i].app_ops) << "app " << i;
    EXPECT_EQ(a[i].ops_per_sec, b[i].ops_per_sec) << "app " << i;
    EXPECT_EQ(a[i].remote_access_latency.count(),
              b[i].remote_access_latency.count());
    EXPECT_EQ(a[i].remote_access_latency.Sum(),
              b[i].remote_access_latency.Sum());
    EXPECT_EQ(a[i].miss_latency.count(), b[i].miss_latency.count());
    EXPECT_EQ(a[i].miss_latency.Percentile(0.99),
              b[i].miss_latency.Percentile(0.99));
  }
}

// --- shard planner -----------------------------------------------------------

TEST(ShardPlan, HostsContiguousNodesRoundRobin) {
  const ShardPlan plan = BuildShardPlan(/*hosts=*/10, /*nodes=*/5,
                                        /*shards=*/4);
  ASSERT_EQ(plan.shards, 4u);
  // 10 hosts over 4 shards: blocks of 3,3,2,2, contiguous ids.
  EXPECT_EQ(plan.shard_hosts[0], (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(plan.shard_hosts[1], (std::vector<uint32_t>{3, 4, 5}));
  EXPECT_EQ(plan.shard_hosts[2], (std::vector<uint32_t>{6, 7}));
  EXPECT_EQ(plan.shard_hosts[3], (std::vector<uint32_t>{8, 9}));
  // 5 nodes round-robin: 0,4 -> s0; 1 -> s1; 2 -> s2; 3 -> s3.
  EXPECT_EQ(plan.shard_nodes[0], (std::vector<uint32_t>{0, 4}));
  EXPECT_EQ(plan.shard_nodes[1], (std::vector<uint32_t>{1}));
  for (size_t h = 0; h < 10; ++h) {
    EXPECT_EQ(plan.host_shard[h], h < 3 ? 0u : (h < 6 ? 1u : (h < 8 ? 2u : 3u)));
  }
  for (size_t n = 0; n < 5; ++n) {
    EXPECT_EQ(plan.node_shard[n], n % 4);
  }
}

TEST(ShardPlan, ClampsShardCount) {
  EXPECT_EQ(BuildShardPlan(4, 2, 0).shards, 1u);
  EXPECT_EQ(BuildShardPlan(4, 2, 100).shards, 4u);
  EXPECT_EQ(BuildShardPlan(2, 8, 100).shards, 8u);
  EXPECT_EQ(BuildShardPlan(0, 0, 3).shards, 1u);
}

TEST(ShardPlan, DonorOnlyShardIsLegal) {
  // 2 hosts / 4 nodes / 3 shards: shard 2 gets node 2 and no hosts.
  const ShardPlan plan = BuildShardPlan(2, 4, 3);
  EXPECT_TRUE(plan.shard_hosts[2].empty());
  EXPECT_EQ(plan.shard_nodes[2], (std::vector<uint32_t>{2}));
}

TEST(ShardPlan, FabricLookaheadIsBaseMinPlusWireTime) {
  FabricConfig fabric;
  fabric.base_min_ns = 2500;
  fabric.op_bytes = 4160;
  fabric.link_gbps = 56.0;
  // 4160 bytes * 8 / 56 gbps = 594.28... ns -> truncates to 594.
  EXPECT_EQ(FabricLookaheadNs(fabric), 2500u + 594u);

  FabricConfig degenerate;
  degenerate.base_min_ns = 0;
  degenerate.link_gbps = 0.0;
  EXPECT_EQ(FabricLookaheadNs(degenerate), 1u) << "window must stay nonzero";
}

// --- mailbox -----------------------------------------------------------------

TEST(SpscMailbox, DrainsInFifoOrderAcrossOverflow) {
  SpscMailbox mailbox(/*capacity_pow2=*/4);
  for (uint64_t i = 0; i < 10; ++i) {
    CrossShardOp op;
    op.seq = i;
    op.effect_ts = 1000 + i;
    mailbox.Push(op);
  }
  // Ring held 4; the rest spilled, and delivery is unaffected.
  EXPECT_EQ(mailbox.overflowed(), 6u);
  std::vector<CrossShardOp> out;
  mailbox.DrainTo(out);
  ASSERT_EQ(out.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out[i].seq, i) << "per-sender FIFO must survive the spill";
  }
  EXPECT_TRUE(mailbox.Empty());
  // Once drained, the ring is usable again (no sticky overflow).
  CrossShardOp op;
  op.seq = 42;
  mailbox.Push(op);
  EXPECT_EQ(mailbox.overflowed(), 6u);
  out.clear();
  mailbox.DrainTo(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].seq, 42u);
}

TEST(SpscMailbox, CrossShardOpOrderBreaksTiesBySenderThenSeq) {
  CrossShardOp a, b;
  a.effect_ts = b.effect_ts = 5000;
  a.sender = 0;
  b.sender = 1;
  EXPECT_TRUE(CrossShardOpBefore(a, b));
  EXPECT_FALSE(CrossShardOpBefore(b, a));
  b.sender = 0;
  a.seq = 3;
  b.seq = 7;
  EXPECT_TRUE(CrossShardOpBefore(a, b));
  b.effect_ts = 4999;
  EXPECT_TRUE(CrossShardOpBefore(b, a)) << "time dominates sender/seq";
}

// --- shards=1 golden fixture -------------------------------------------------

// Acceptance criterion: shards=1 keeps producing exactly what the former
// single-queue engine produced on this config (same construction order,
// same seed draws, same stepping sequence). The expected values below were
// captured from that engine and pin every integer the run reports.
TEST(ShardedCluster, SingleShardMatchesGoldenFingerprint) {
  ShardedClusterConfig config;
  config.base = SmallCluster(3, 2);
  ShardedCluster cluster(config);
  ASSERT_EQ(cluster.num_shards(), 1u);
  std::vector<std::unique_ptr<AccessStream>> streams;
  const std::vector<RunResult> results = RunMixed(cluster, 6000, streams);
  const ClusterStats stats = cluster.Stats();

  const std::map<std::string, uint64_t> golden_totals = {
      {"cache_adds", 12912u},      {"cache_hits", 10193u},
      {"cache_misses", 2650u},     {"demand_reads", 2650u},
      {"eager_frees", 10193u},     {"evictions", 15984u},
      {"host_joins", 3u},          {"page_faults", 18987u},
      {"prefetch_hits", 10193u},   {"prefetch_issued", 10262u},
      {"prefetch_wait_hits", 2798u}, {"remote_reads", 12912u},
      {"remote_writes", 6089u},    {"writebacks", 6089u},
  };
  EXPECT_EQ(stats.totals.values(), golden_totals);
  EXPECT_EQ(stats.node_reads, (std::vector<uint64_t>{6881, 6031}));
  EXPECT_EQ(stats.node_writes, (std::vector<uint64_t>{6089, 6089}));
  EXPECT_EQ(stats.fabric_ops, 25090u);
  const std::vector<SimTimeNs> golden_completion = {13200099, 11134608,
                                                    12927907};
  const std::vector<uint64_t> golden_remote_p99 = {34048, 20096, 22656};
  ASSERT_EQ(results.size(), 3u);
  for (size_t h = 0; h < results.size(); ++h) {
    EXPECT_EQ(results[h].completion_ns, golden_completion[h]) << "host " << h;
    EXPECT_EQ(cluster.host_remote_latency(h).Percentile(0.99),
              golden_remote_p99[h])
        << "host " << h;
  }
  // No mirrors at shards=1: the cross-shard path must not exist.
  EXPECT_EQ(stats.totals.Get(counter::kCrossShardSent), 0u);
}

// --- shards>1 determinism ----------------------------------------------------

struct ShardedFingerprint {
  std::vector<std::map<std::string, uint64_t>> host_counters;
  std::vector<SimTimeNs> completions;
  std::vector<uint64_t> p99s;
  std::map<std::string, uint64_t> totals;
  std::vector<uint64_t> node_reads;
  std::vector<uint64_t> node_writes;
  uint64_t fabric_ops = 0;
  uint64_t windows_run = 0;

  bool operator==(const ShardedFingerprint&) const = default;
};

ShardedFingerprint FingerprintSharded(const ShardedClusterConfig& config,
                                      ClusterStats* stats_out = nullptr,
                                      SimTimeNs fail_at = 0,
                                      uint32_t fail_node = 0) {
  ShardedCluster cluster(config);
  if (fail_at != 0) {
    cluster.ScheduleNodeFailure(fail_node, fail_at);
  }
  std::vector<std::unique_ptr<AccessStream>> streams;
  const std::vector<RunResult> results = RunMixed(cluster, 6000, streams);
  ShardedFingerprint fp;
  for (size_t h = 0; h < cluster.num_hosts(); ++h) {
    fp.host_counters.push_back(cluster.host(h).counters().values());
    fp.completions.push_back(results[h].completion_ns);
    fp.p99s.push_back(cluster.host_remote_latency(h).Percentile(0.99));
  }
  const ClusterStats stats = cluster.Stats();
  fp.totals = stats.totals.values();
  fp.node_reads = stats.node_reads;
  fp.node_writes = stats.node_writes;
  fp.fabric_ops = stats.fabric_ops;
  fp.windows_run = cluster.windows_run();
  if (stats_out != nullptr) {
    *stats_out = stats;
  }
  return fp;
}

// Acceptance criterion: same seed + same shard count => bit-identical
// ClusterStats across two runs, with real cross-shard traffic in flight.
TEST(ShardedCluster, SameSeedBitIdenticalAcrossRunsWithMirrors) {
  ShardedClusterConfig config;
  config.base = SmallCluster(4, 4);
  config.shards = 2;
  config.mirror_every = 3;

  ClusterStats first_stats, second_stats;
  const ShardedFingerprint first = FingerprintSharded(config, &first_stats);
  const ShardedFingerprint second = FingerprintSharded(config, &second_stats);
  EXPECT_TRUE(first == second) << "shards=2 run diverged between executions";
  ExpectStatsEqual(first_stats, second_stats);
  // The run must actually have crossed shards, or the test is vacuous.
  EXPECT_GT(first_stats.totals.Get(counter::kCrossShardSent), 0u);
  EXPECT_GT(first_stats.totals.Get(counter::kCrossShardApplied), 0u);
  EXPECT_LE(first_stats.totals.Get(counter::kCrossShardApplied),
            first_stats.totals.Get(counter::kCrossShardSent));
  EXPECT_GT(first.windows_run, 0u);
}

// Mailbox overflow changes telemetry, never results: a 1-slot ring (all
// spill) must produce the same stats as an ample ring.
TEST(ShardedCluster, OverflowPathIsResultInvariant) {
  ShardedClusterConfig ample;
  ample.base = SmallCluster(4, 4);
  ample.shards = 2;
  ample.mirror_every = 2;
  ample.mailbox_capacity = 4096;

  ShardedClusterConfig tiny = ample;
  tiny.mailbox_capacity = 1;

  ClusterStats ample_stats, tiny_stats;
  const ShardedFingerprint a = FingerprintSharded(ample, &ample_stats);
  const ShardedFingerprint b = FingerprintSharded(tiny, &tiny_stats);
  EXPECT_TRUE(a == b) << "ring capacity leaked into simulation results";
  ExpectStatsEqual(ample_stats, tiny_stats);
  // With a 1-slot ring and mirrors every 2nd miss, spills must occur
  // (checked indirectly: the identical stats prove delivery happened).
  EXPECT_GT(tiny_stats.totals.Get(counter::kCrossShardApplied), 0u);
}

// Satellite edge case: a failure event scheduled exactly on a window
// boundary (a multiple of window_ns) must fire deterministically and
// identically across runs.
TEST(ShardedCluster, EventExactlyOnWindowBoundaryIsDeterministic) {
  ShardedClusterConfig config;
  // 6 nodes / 2 shards = 3 donors per shard: with 2-way slab replication
  // a failure still leaves a repair replacement inside the shard.
  config.base = SmallCluster(4, 6);
  config.shards = 2;
  config.mirror_every = 4;

  // Probe the derived window and the run's span, then aim a failure
  // exactly at a window boundary in the middle of the measured phase.
  const SimTimeNs window = FabricLookaheadNs(config.base.fabric);
  const SimTimeNs boundary = (MidRunTime(config) / window) * window;
  ASSERT_EQ(boundary % window, 0u);
  ASSERT_GT(boundary, 0u);

  ClusterStats first_stats, second_stats;
  const ShardedFingerprint first =
      FingerprintSharded(config, &first_stats, boundary, /*fail_node=*/1);
  const ShardedFingerprint second =
      FingerprintSharded(config, &second_stats, boundary, /*fail_node=*/1);
  EXPECT_TRUE(first == second) << "boundary-timed failure diverged";
  ExpectStatsEqual(first_stats, second_stats);
  EXPECT_EQ(first_stats.totals.Get(counter::kNodeFailures), 1u);
  EXPECT_GT(first_stats.totals.Get(counter::kSlabRepairs), 0u);
}

// Satellite edge case: a shard with donor nodes but no hosts still runs
// its scenario events (via the post-barrier catch-up drain) and the whole
// cluster stays deterministic.
TEST(ShardedCluster, DonorOnlyShardFiresScenarioEvents) {
  ShardedClusterConfig config;
  config.base = SmallCluster(2, 4);
  config.shards = 3;  // plan: shard 2 owns node 2, no hosts
  config.mirror_every = 2;

  ShardedCluster probe(config);
  ASSERT_EQ(probe.num_shards(), 3u);
  ASSERT_TRUE(probe.plan().shard_hosts[2].empty());
  ASSERT_EQ(probe.plan().shard_nodes[2], (std::vector<uint32_t>{2}));

  // Fail the donor-only shard's node mid-run: no repairs (no home-shard
  // hosts hold slabs there), but the failure itself must land - via the
  // hostless shard's post-barrier catch-up drain.
  const SimTimeNs fail_at = MidRunTime(config);
  ClusterStats first_stats, second_stats;
  const ShardedFingerprint first =
      FingerprintSharded(config, &first_stats, fail_at, /*fail_node=*/2);
  const ShardedFingerprint second =
      FingerprintSharded(config, &second_stats, fail_at, /*fail_node=*/2);
  EXPECT_TRUE(first == second);
  ExpectStatsEqual(first_stats, second_stats);
  EXPECT_EQ(first_stats.totals.Get(counter::kNodeFailures), 1u);
  EXPECT_EQ(first_stats.totals.Get(counter::kSlabRepairs), 0u)
      << "nobody maps slabs on a donor-only shard's node";
}

// Satellite edge case: an app whose accesses are all zero-latency local
// hits (footprint fits in frames, no remote traffic) must terminate and
// stay deterministic - the window fast-forward may not wedge on
// same-timestamp steps.
TEST(ShardedCluster, ZeroLatencyLocalOnlyAppsTerminate) {
  ShardedClusterConfig config;
  config.base = SmallCluster(2, 2);
  config.shards = 2;

  auto run_once = [&config] {
    ShardedCluster cluster(config);
    std::vector<std::unique_ptr<AccessStream>> streams;
    std::vector<ClusterAppSpec> specs;
    std::vector<Pid> pids;
    for (size_t h = 0; h < cluster.num_hosts(); ++h) {
      // Tiny resident set: after the first touches, every access is a
      // local hit with zero added latency.
      const Pid pid = cluster.host(h).CreateProcess(64);
      pids.push_back(pid);
      streams.push_back(
          std::make_unique<SequentialStream>(64, /*think_ns=*/0));
      RunConfig run;
      run.total_accesses = 5000;
      run.start_time_ns = 0;  // no warm-up: start at t=0, window index 0
      run.seed = 9 + h;
      specs.push_back({h, pids[h], streams[h].get(), run});
    }
    std::vector<RunResult> results = cluster.Run(std::move(specs));
    return std::pair<std::vector<RunResult>, uint64_t>(std::move(results),
                                                       cluster.windows_run());
  };
  auto [first, first_windows] = run_once();
  auto [second, second_windows] = run_once();
  ASSERT_EQ(first.size(), 2u);
  for (const RunResult& result : first) {
    EXPECT_TRUE(result.finished);
    EXPECT_EQ(result.accesses, 5000u);
  }
  ExpectResultsEqual(first, second);
  EXPECT_EQ(first_windows, second_windows);
}

// --- guard rails -------------------------------------------------------------

TEST(ShardedCluster, RejectsTraceRecording) {
  ShardedClusterConfig config;
  config.base = SmallCluster(2, 2);
  config.base.trace.enabled = true;
  config.shards = 2;
  EXPECT_THROW(ShardedCluster{config}, std::invalid_argument);
  config.shards = 1;
  ShardedCluster traced(config);
  EXPECT_NE(traced.trace(), nullptr);
}

TEST(ShardedCluster, RunIsOneShot) {
  ShardedClusterConfig config;
  config.base = SmallCluster(1, 1);
  ShardedCluster cluster(config);
  std::vector<std::unique_ptr<AccessStream>> streams;
  RunMixed(cluster, 500, streams);
  EXPECT_THROW(cluster.Run({}), std::logic_error);
}

}  // namespace
}  // namespace leap
