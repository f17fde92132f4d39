#include "workloads.h"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <memory>

#include "probes.h"
#include "src/prefetch/policy_registry.h"
#include "src/runtime/app_runner.h"
#include "src/runtime/machine.h"
#include "src/runtime/presets.h"
#include "src/runtime/shard_plan.h"
#include "src/runtime/sharded_cluster.h"
#include "src/workload/app_models.h"
#include "src/workload/cluster_mix.h"

namespace leapbench {
namespace {

using leap::CounterId;

// The machine's own randomness (latency draws, placement) is part of the
// modelled system and stays fixed; the workload seed drives only the
// inputs: the access streams and the app runner's RNG.
constexpr uint64_t kMachineSeed = 42;
constexpr size_t kHostFrames = size_t{1} << 16;
constexpr size_t kHostAccesses = 1'000'000;

constexpr size_t kClusterHosts = 256;
constexpr size_t kClusterNodes = 64;
constexpr size_t kClusterShards = 2;
constexpr size_t kClusterFootprintPages = 2048;
constexpr size_t kClusterFrames = 2048;
constexpr size_t kClusterAccessesPerHost = 8000;
constexpr size_t kClusterSlabPages = 64;
constexpr size_t kClusterWindowMult = 32;
constexpr size_t kClusterMirrorEvery = 16;
constexpr uint64_t kClusterSeed = 91;

constexpr size_t kAccessTypes = 5;  // leap::AccessType values

// AluProbe runs per measured run, spread evenly through it.
constexpr uint64_t kProbesPerRun = 64;

// Per-layer metrics that only a sharded cluster has: 0 on one machine.
constexpr const char* kClusterOnlyMetrics[] = {
    "cluster.fabric_ops_per_access",
    "cluster.demand_queue_delay_mean_ns",
    "cluster.prefetch_queue_delay_mean_ns",
    "cluster.demand_stage.software_mean_ns",
    "cluster.demand_stage.queue_mean_ns",
    "cluster.demand_stage.wire_mean_ns",
    "cluster.demand_stage.stall_mean_ns",
    "cluster.demand_stage.service_mean_ns",
    "cluster.demand_p99_queue_ns",
    "cluster.slab_imbalance",
};

// Host-time metrics with no seam inside the sharded engine: 0 there.
constexpr const char* kSingleHostOnlyHostMetrics[] = {
    "runtime.access_ns.local_hit", "runtime.access_ns.cache_hit",
    "runtime.access_ns.wait_hit",  "runtime.access_ns.miss",
    "prefetch.on_fault_ns",        "prefetch.feedback_ns",
    "prefetch.candidates_per_fault",
};

// splitmix64 finaliser: independent input streams from one workload seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

leap::Counters Minus(const leap::Counters& after,
                     const leap::Counters& before) {
  leap::Counters out;
  for (size_t i = 0; i < leap::kCounterCount; ++i) {
    const auto id = static_cast<CounterId>(i);
    out.Add(id, after.Get(id) - before.Get(id));
  }
  return out;
}

// The machine's histograms are observation-only; clearing them after the
// warm-up leaves the measured run's samples alone in them.
void ResetObservationHistograms(leap::Machine& machine) {
  machine.eviction_wait_hist().Reset();
  machine.timeliness_hist().Reset();
  machine.alloc_hist().Reset();
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

void Expect(RepResult& rep, bool ok, const std::string& what) {
  if (!ok) {
    rep.violations.push_back(what);
  }
}

// What the measured run left in the public counters and histograms,
// summed over hosts.
struct RunView {
  leap::Counters delta;  // counters moved by the measured run
  uint64_t accesses = 0;
  uint64_t access_samples = 0;  // RunResult::access_latency samples
  double app_ops_per_sim_s = 0.0;
  leap::Histogram remote;
  leap::Histogram miss;
  leap::Histogram timeliness;
  leap::Histogram alloc;
  leap::Histogram eviction_wait;
};

// Simulated metrics shared by every workload.
Metrics SimMetrics(const RunView& v) {
  const leap::Counters& d = v.delta;
  auto get = [&](CounterId id) { return static_cast<double>(d.Get(id)); };
  const double accesses = static_cast<double>(v.accesses);
  const double hits = get(CounterId::kPrefetchHits);
  const double issued = get(CounterId::kPrefetchIssued);
  const double cache_hits = get(CounterId::kCacheHits);
  const double cache_misses = get(CounterId::kCacheMisses);
  Metrics m;
  m["remote_p50_ns"] = InterpolatedPercentile(v.remote, 0.50);
  m["remote_p99_ns"] = InterpolatedPercentile(v.remote, 0.99);
  m["remote_samples"] = static_cast<double>(v.remote.count());
  m["app_ops_per_sim_s"] = v.app_ops_per_sim_s;
  m["runtime.remote_share"] =
      Ratio(static_cast<double>(v.remote.count()), accesses);
  m["prefetch.accuracy"] = Ratio(hits, issued);
  m["prefetch.coverage"] = Ratio(hits, hits + cache_misses);
  m["prefetch.unused_ratio"] = Ratio(get(CounterId::kPrefetchUnused), issued);
  m["prefetch.timeliness_p50_ns"] = InterpolatedPercentile(v.timeliness, 0.5);
  m["mem.cache_hit_ratio"] = Ratio(cache_hits, cache_hits + cache_misses);
  m["mem.evictions_per_kacc"] =
      Ratio(1000.0 * get(CounterId::kEvictions), accesses);
  m["mem.alloc_p50_ns"] = InterpolatedPercentile(v.alloc, 0.5);
  m["mem.eviction_wait_p99_ns"] =
      InterpolatedPercentile(v.eviction_wait, 0.99);
  m["paging.miss_p50_ns"] = InterpolatedPercentile(v.miss, 0.50);
  m["paging.miss_p99_ns"] = InterpolatedPercentile(v.miss, 0.99);
  m["paging.writebacks_per_kacc"] =
      Ratio(1000.0 * get(CounterId::kWritebacks), accesses);
  m["rdma.remote_reads"] = get(CounterId::kRemoteReads);
  m["rdma.remote_writes"] = get(CounterId::kRemoteWrites);
  return m;
}

// Every access is accounted once, and every paging-path access is either a
// cache hit or a miss.
void CheckAccounting(RepResult& rep, const RunView& v) {
  const leap::Counters& d = v.delta;
  const uint64_t faults = d.Get(CounterId::kPageFaults);
  const uint64_t cache_hits = d.Get(CounterId::kCacheHits);
  const uint64_t cache_misses = d.Get(CounterId::kCacheMisses);
  Expect(rep, v.access_samples == v.accesses,
         "access latency samples " + std::to_string(v.access_samples) +
             " != accesses " + std::to_string(v.accesses));
  Expect(rep, v.accesses <= rep.attempted, "more accesses ran than attempted");
  Expect(rep, v.remote.count() == cache_hits + cache_misses,
         "remote accesses " + std::to_string(v.remote.count()) +
             " != cache hits + misses " +
             std::to_string(cache_hits + cache_misses));
  Expect(rep, v.miss.count() == cache_misses,
         "miss samples " + std::to_string(v.miss.count()) +
             " != cache misses " + std::to_string(cache_misses));
  Expect(rep, faults >= cache_hits + cache_misses && faults <= v.accesses,
         "page faults " + std::to_string(faults) +
             " outside [hits + misses, accesses]");
}

// Prefetch ledger over the machine's lifetime: every issued prefetch was
// hit, dropped unused, or is still waiting in the cache.
void CheckPrefetchLedger(RepResult& rep, const leap::Machine& machine,
                         const std::string& label) {
  const leap::Counters& c = machine.counters();
  const uint64_t issued = c.Get(CounterId::kPrefetchIssued);
  const uint64_t hits = c.Get(CounterId::kPrefetchHits);
  const uint64_t unused = c.Get(CounterId::kPrefetchUnused);
  const uint64_t unconsumed = machine.unconsumed_prefetched();
  Expect(rep, issued == hits + unused + unconsumed,
         label + " prefetch issued " + std::to_string(issued) +
             " != hits " + std::to_string(hits) + " + unused " +
             std::to_string(unused) + " + unconsumed " +
             std::to_string(unconsumed));
}

std::string Fingerprint(const leap::Counters& lifetime, const Metrics& sim,
                        const std::vector<std::pair<const char*, uint64_t>>&
                            extra) {
  std::string out;
  char buf[96];
  for (const auto& [name, value] : extra) {
    std::snprintf(buf, sizeof(buf), "%s=%" PRIu64 ";", name, value);
    out += buf;
  }
  for (const auto& [name, value] : lifetime.values()) {
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ";", value);
    out += name + "=" + buf;
  }
  for (const auto& [name, value] : sim) {
    std::snprintf(buf, sizeof(buf), "%.17g;", value);
    out += name + "=" + buf;
  }
  return out;
}

// FNV-1a over 64-bit words: a compact digest of per-host results.
struct Fnv {
  uint64_t hash = 0xcbf29ce484222325ULL;
  void Add(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (word >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  }
};

// ---- single host -------------------------------------------------------

struct HostSpec {
  leap::MachineConfig config;
  std::unique_ptr<leap::PhaseMixStream> (*make_stream)(size_t, uint64_t);
  size_t footprint_pages;
  size_t memory_pct;  // cgroup limit as a share of the footprint
};

// RunApp's single-app loop (BoundAppSet::Step) with every Machine::Access
// timed and split by the AccessType it returns. The traced run must match
// RunApp's fingerprint bit for bit, so any drift between the two loops
// fails the gate. The benchmark sets no time cap, so none is modelled.
leap::RunResult TracedRunApp(leap::Machine& machine, leap::Pid pid,
                             leap::AccessStream& stream,
                             const leap::RunConfig& config,
                             std::array<Span, kAccessTypes>& by_type) {
  leap::RunResult out;
  out.app_name = stream.name();
  leap::Rng rng(config.seed);
  leap::SimTimeNs now = config.start_time_ns;
  while (out.accesses < config.total_accesses) {
    const leap::MemOp op = stream.Next(rng);
    now += op.think_ns;
    const uint64_t start = NowNs();
    const leap::AccessResult access =
        machine.Access(pid, op.vpn, op.write, now);
    by_type[static_cast<size_t>(access.type)].AddSince(start);
    now += access.latency;
    ++out.accesses;
    if (op.op_end) {
      ++out.app_ops;
    }
    out.access_latency.Record(access.latency);
    if (access.type != leap::AccessType::kLocalHit &&
        access.type != leap::AccessType::kMinorFault) {
      out.remote_access_latency.Record(access.latency);
      if (access.type == leap::AccessType::kMiss) {
        out.miss_latency.Record(access.latency);
      }
    }
  }
  out.completion_ns = now - config.start_time_ns;
  out.ops_per_sec = out.completion_ns == 0
                        ? 0.0
                        : static_cast<double>(out.app_ops) /
                              leap::ToSec(out.completion_ns);
  return out;
}

void CheckTracedSplit(RepResult& rep, const RunView& v,
                      const std::array<Span, kAccessTypes>& by_type,
                      const TimedStream& stream, const TimedPolicy& policy) {
  const leap::Counters& d = v.delta;
  auto calls = [&](leap::AccessType t) {
    return by_type[static_cast<size_t>(t)].calls;
  };
  const uint64_t faults = d.Get(CounterId::kPageFaults);
  const uint64_t cache_hits = d.Get(CounterId::kCacheHits);
  const uint64_t cache_misses = d.Get(CounterId::kCacheMisses);
  Expect(rep, calls(leap::AccessType::kLocalHit) == v.accesses - faults,
         "local hits != accesses - page faults");
  Expect(rep,
         calls(leap::AccessType::kMinorFault) ==
             faults - cache_hits - cache_misses,
         "minor faults != page faults - cache hits - misses");
  Expect(rep,
         calls(leap::AccessType::kCacheHit) +
                 calls(leap::AccessType::kCacheWaitHit) ==
             cache_hits,
         "cache-hit + wait-hit accesses != cache hits");
  Expect(rep,
         calls(leap::AccessType::kCacheWaitHit) ==
             d.Get(CounterId::kPrefetchWaitHits),
         "wait-hit accesses != prefetch wait hits");
  Expect(rep, calls(leap::AccessType::kMiss) == cache_misses,
         "miss accesses != cache misses");
  Expect(rep, stream.next().calls == v.accesses,
         "stream Next calls != accesses");
  Expect(rep, policy.issued() == d.Get(CounterId::kPrefetchIssued),
         "policy saw " + std::to_string(policy.issued()) +
             " issued prefetches, counters " +
             std::to_string(d.Get(CounterId::kPrefetchIssued)));
  Expect(rep, policy.hits() == d.Get(CounterId::kPrefetchHits),
         "policy saw " + std::to_string(policy.hits()) +
             " prefetch hits, counters " +
             std::to_string(d.Get(CounterId::kPrefetchHits)));
}

RepResult RunSingleHost(const HostSpec& spec, uint64_t seed, bool traced) {
  RepResult rep;
  const uint64_t setup_start = NowNs();
  leap::MachineConfig config = spec.config;
  // Declared before the machine, which keeps a pointer to it.
  std::unique_ptr<TimedPolicy> policy;
  if (traced) {
    // The same construction Machine performs for config.prefetcher.
    policy = std::make_unique<TimedPolicy>(leap::MakePrefetchPolicy(
        config.prefetcher,
        leap::PolicyParams{config.leap, leap::GhbConfig{},
                           config.online_delta, config.profile_guided}));
    config.policy_override = policy.get();
  }
  leap::Machine machine(config);
  const leap::Pid pid =
      machine.CreateProcess(spec.footprint_pages * spec.memory_pct / 100);
  auto stream = spec.make_stream(spec.footprint_pages, DeriveSeed(seed, 0));
  const leap::SimTimeNs warm_end =
      leap::WarmUp(machine, pid, spec.footprint_pages);
  rep.setup_s = SecondsSince(setup_start);

  ResetObservationHistograms(machine);
  const leap::Counters before = machine.counters();
  leap::RunConfig run;
  run.total_accesses = kHostAccesses;
  run.start_time_ns = warm_end + 10 * leap::kNsPerMs;
  run.seed = DeriveSeed(seed, 1);
  TimedStream timed(*stream);
  ProbedStream probed(
      traced ? static_cast<leap::AccessStream&>(timed) : *stream,
      kHostAccesses / kProbesPerRun);
  std::array<Span, kAccessTypes> by_type{};

  const double cpu_start = ProcessCpuSeconds();
  const uint64_t run_start = NowNs();
  const leap::RunResult result =
      traced ? TracedRunApp(machine, pid, probed, run, by_type)
             : leap::RunApp(machine, pid, probed, run);
  rep.run_wall_s = SecondsSince(run_start);
  rep.probe_ns = probed.probes().MeanNs();
  rep.run_cpu_s = ProcessCpuSeconds() - cpu_start;

  RunView view;
  view.delta = Minus(machine.counters(), before);
  view.accesses = result.accesses;
  view.access_samples = result.access_latency.count();
  view.app_ops_per_sim_s = result.ops_per_sec;
  view.remote = result.remote_access_latency;
  view.miss = result.miss_latency;
  view.timeliness = machine.timeliness_hist();
  view.alloc = machine.alloc_hist();
  view.eviction_wait = machine.eviction_wait_hist();

  rep.attempted = run.total_accesses;
  rep.accesses = result.accesses;
  rep.failed = (rep.attempted - std::min(rep.attempted, rep.accesses)) +
               view.delta.Get(CounterId::kRemoteReadsLost);
  rep.sim = SimMetrics(view);
  for (const char* name : kClusterOnlyMetrics) {
    rep.sim[name] = 0.0;
  }

  CheckAccounting(rep, view);
  CheckPrefetchLedger(rep, machine, "host");
  if (traced) {
    CheckTracedSplit(rep, view, by_type, timed, *policy);
    auto mean = [&](leap::AccessType t) {
      return by_type[static_cast<size_t>(t)].MeanNs();
    };
    rep.host["runtime.access_ns.local_hit"] = mean(leap::AccessType::kLocalHit);
    rep.host["runtime.access_ns.cache_hit"] = mean(leap::AccessType::kCacheHit);
    rep.host["runtime.access_ns.wait_hit"] =
        mean(leap::AccessType::kCacheWaitHit);
    rep.host["runtime.access_ns.miss"] = mean(leap::AccessType::kMiss);
    rep.host["prefetch.on_fault_ns"] = policy->on_fault().MeanNs();
    rep.host["prefetch.feedback_ns"] = policy->feedback().MeanNs();
    rep.host["prefetch.candidates_per_fault"] =
        Ratio(static_cast<double>(policy->candidates()),
              static_cast<double>(policy->on_fault().calls));
    rep.host["workload.next_ns"] = timed.next().MeanNs();
  }

  rep.fingerprint = Fingerprint(
      machine.counters(), rep.sim,
      {{"completion_ns", result.completion_ns},
       {"accesses", result.accesses},
       {"app_ops", result.app_ops},
       {"cache_size", machine.cache_size()},
       {"free_frames", machine.free_frames()},
       {"unconsumed_prefetched", machine.unconsumed_prefetched()}});
  return rep;
}

// The paper's core case: Leap's lean path, majority prefetcher and eager
// eviction on PowerGraph's sequential-heavy mix, at 50% memory.
RepResult RunLeapPowerGraph(uint64_t seed, bool traced) {
  static const HostSpec spec{leap::LeapVmmConfig(kHostFrames, kMachineSeed),
                             leap::MakePowerGraph, leap::kPowerGraphPages, 50};
  return RunSingleHost(spec, seed, traced);
}

// The miss path: the default block-layer path with Linux read-ahead and
// lazy eviction on Memcached's zipf-random, write-heavy mix, at 25% memory.
RepResult RunDefaultMemcachedRw(uint64_t seed, bool traced) {
  static const HostSpec spec{
      leap::DefaultVmmConfig(leap::PrefetchKind::kReadAhead, kHostFrames,
                             kMachineSeed),
      leap::MakeMemcached, leap::kMemcachedPages, 25};
  return RunSingleHost(spec, seed, traced);
}

// ---- sharded cluster ---------------------------------------------------

RepResult RunClusterMix(uint64_t seed, bool traced) {
  RepResult rep;
  const uint64_t setup_start = NowNs();
  leap::ShardedClusterConfig config;
  config.base.hosts = kClusterHosts;
  config.base.nodes = kClusterNodes;
  config.base.host = leap::LeapVmmConfig(kClusterFrames, kMachineSeed);
  config.base.host.host_agent.slab_pages = kClusterSlabPages;
  config.base.placement = leap::PlacementPolicy::kPowerOfTwo;
  config.base.seed = kClusterSeed;
  config.shards = kClusterShards;
  config.window_ns =
      leap::FabricLookaheadNs(config.base.fabric) * kClusterWindowMult;
  config.mirror_every = kClusterMirrorEvery;
  leap::ShardedCluster cluster(config);

  std::vector<std::unique_ptr<leap::AccessStream>> streams;
  std::vector<leap::Pid> pids;
  leap::SimTimeNs warm_end = 0;
  for (size_t h = 0; h < kClusterHosts; ++h) {
    leap::Machine& host = cluster.host(h);
    pids.push_back(host.CreateProcess(kClusterFootprintPages / 2));
    warm_end = leap::WarmUp(host, pids[h], kClusterFootprintPages, warm_end);
    streams.push_back(leap::MakeClusterMixStream(h, kClusterFootprintPages));
  }
  rep.setup_s = SecondsSince(setup_start);

  std::vector<leap::Counters> before;
  for (size_t h = 0; h < kClusterHosts; ++h) {
    ResetObservationHistograms(cluster.host(h));
    before.push_back(cluster.host(h).counters());
  }
  const uint64_t fabric_ops_before = cluster.Stats().fabric_ops;
  // One decorator per stream: each is only touched by its host's shard.
  std::vector<std::unique_ptr<TimedStream>> timed;
  std::vector<std::unique_ptr<ProbedStream>> probed;
  std::vector<leap::ClusterAppSpec> specs;
  for (size_t h = 0; h < kClusterHosts; ++h) {
    leap::AccessStream* stream = streams[h].get();
    if (traced) {
      timed.push_back(std::make_unique<TimedStream>(*stream));
      stream = timed.back().get();
    }
    if (h % (kClusterHosts / kClusterShards) == 0) {
      // The first host of each shard (ShardPlan gives shards contiguous
      // blocks of hosts) probes its shard's worker thread. A host advances
      // through simulated time with the rest of the cluster, so its probes
      // are spread through the whole run.
      probed.push_back(std::make_unique<ProbedStream>(
          *stream, kClusterAccessesPerHost / kProbesPerRun));
      stream = probed.back().get();
    }
    leap::RunConfig run;
    run.total_accesses = kClusterAccessesPerHost;
    run.start_time_ns = warm_end + 10 * leap::kNsPerMs;
    run.seed = DeriveSeed(seed, h);
    specs.push_back({h, pids[h], stream, run});
  }

  const double cpu_start = ProcessCpuSeconds();
  const uint64_t run_start = NowNs();
  const std::vector<leap::RunResult> results = cluster.Run(std::move(specs));
  rep.run_wall_s = SecondsSince(run_start);
  Span probes;
  for (const auto& stream : probed) {
    probes.Merge(stream->probes());
  }
  rep.probe_ns = probes.MeanNs();
  rep.run_cpu_s = ProcessCpuSeconds() - cpu_start;
  const leap::ClusterStats stats = cluster.Stats();

  RunView view;
  Fnv per_host;
  for (size_t h = 0; h < kClusterHosts; ++h) {
    const leap::RunResult& r = results[h];
    leap::Machine& host = cluster.host(h);
    view.delta.Merge(Minus(host.counters(), before[h]));
    view.accesses += r.accesses;
    view.access_samples += r.access_latency.count();
    view.app_ops_per_sim_s += r.ops_per_sec;
    view.remote.Merge(r.remote_access_latency);
    view.miss.Merge(r.miss_latency);
    view.timeliness.Merge(host.timeliness_hist());
    view.alloc.Merge(host.alloc_hist());
    view.eviction_wait.Merge(host.eviction_wait_hist());
    per_host.Add(r.completion_ns);
    per_host.Add(r.accesses);
    per_host.Add(r.app_ops);
    CheckPrefetchLedger(rep, host, "host " + std::to_string(h));
    Expect(rep,
           cluster.host_remote_latency(h).count() ==
               r.remote_access_latency.count(),
           "host " + std::to_string(h) +
               " engine remote samples != run remote samples");
  }

  rep.attempted = kClusterHosts * kClusterAccessesPerHost;
  rep.accesses = view.accesses;
  rep.failed = (rep.attempted - std::min(rep.attempted, rep.accesses)) +
               view.delta.Get(CounterId::kRemoteReadsLost);
  rep.engine_windows = cluster.windows_run();
  rep.mailbox_overflows = cluster.mailbox_overflows();
  rep.sim = SimMetrics(view);

  const auto demand = static_cast<size_t>(leap::IoClass::kDemandRead);
  const auto prefetch = static_cast<size_t>(leap::IoClass::kPrefetch);
  const leap::StageBreakdown::Stage& stage = stats.stages.cls[demand];
  rep.sim["cluster.fabric_ops_per_access"] =
      Ratio(static_cast<double>(stats.fabric_ops - fabric_ops_before),
            static_cast<double>(view.accesses));
  rep.sim["cluster.demand_queue_delay_mean_ns"] =
      stats.class_queue_delay_mean_ns[demand];
  rep.sim["cluster.prefetch_queue_delay_mean_ns"] =
      stats.class_queue_delay_mean_ns[prefetch];
  rep.sim["cluster.demand_stage.software_mean_ns"] =
      stage.MeanNs(stage.software_ns);
  rep.sim["cluster.demand_stage.queue_mean_ns"] = stage.MeanNs(stage.queue_ns);
  rep.sim["cluster.demand_stage.wire_mean_ns"] = stage.MeanNs(stage.wire_ns);
  rep.sim["cluster.demand_stage.stall_mean_ns"] = stage.MeanNs(stage.stall_ns);
  rep.sim["cluster.demand_stage.service_mean_ns"] =
      stage.MeanNs(stage.service_ns);
  rep.sim["cluster.demand_p99_queue_ns"] =
      static_cast<double>(stats.stages.demand_p99_queue_ns);
  rep.sim["cluster.slab_imbalance"] =
      static_cast<double>(stats.SlabImbalance());

  CheckAccounting(rep, view);
  const uint64_t sent = stats.totals.Get(CounterId::kCrossShardSent);
  const uint64_t applied = stats.totals.Get(CounterId::kCrossShardApplied);
  Expect(rep, sent == applied,
         "cross-shard ops sent " + std::to_string(sent) + " != applied " +
             std::to_string(applied));
  if (traced) {
    Span next;
    for (const auto& stream : timed) {
      next.Merge(stream->next());
    }
    Expect(rep, next.calls == view.accesses, "stream Next calls != accesses");
    rep.host["workload.next_ns"] = next.MeanNs();
    for (const char* name : kSingleHostOnlyHostMetrics) {
      rep.host[name] = 0.0;
    }
  }

  uint64_t node_reads = 0;
  uint64_t node_writes = 0;
  for (size_t n = 0; n < stats.node_reads.size(); ++n) {
    node_reads += stats.node_reads[n];
    node_writes += stats.node_writes[n];
  }
  rep.fingerprint = Fingerprint(stats.totals, rep.sim,
                                {{"per_host_results", per_host.hash},
                                 {"fabric_ops", stats.fabric_ops},
                                 {"fabric_bytes", stats.fabric_bytes},
                                 {"node_reads", node_reads},
                                 {"node_writes", node_writes},
                                 {"windows", rep.engine_windows}});
  return rep;
}

constexpr WorkloadDef kWorkloads[] = {
    {"leap-powergraph", RunLeapPowerGraph},
    {"default-memcached-rw", RunDefaultMemcachedRw},
    {"cluster-mix-256", RunClusterMix},
};

}  // namespace

std::span<const WorkloadDef> Workloads() { return kWorkloads; }

const WorkloadDef* FindWorkload(std::string_view name) {
  for (const WorkloadDef& def : kWorkloads) {
    if (name == def.name) {
      return &def;
    }
  }
  return nullptr;
}

}  // namespace leapbench
