// Figure 15 (this repo's extension): per-link fabric QoS under an
// antagonist tenant - the link-layer half of the paper's demand-first
// data-path claim.
//
// Section 4 of the paper argues the win from prefetching comes from a lean,
// prioritized path where prefetches never delay demand fetches; PR 3's
// budget governor enforced that at the *source* (per-tenant windows), and
// this bench measures the other half: scheduling on the fabric links
// themselves. An 8-host cluster shares a 2-node donor pool. Host 0 is the
// antagonist (zipf-0.99 storm behind aggressive next-8-line prefetching:
// nearly pure pollution), hosts 1..7 are sequential victims. The same
// cluster runs under FIFO links (baseline), strict demand-priority links,
// and per-tenant DRR links - each with the budget governor off and on
// (stacked source + link QoS). Victim demand-read p99 is the headline:
// both schedulers must beat FIFO under the storm. The FIFO rows are the
// budget-governor experiment on its own: every row also reports the
// prefetch hit/unused volume, prefetches per miss for the antagonist and
// a victim (the time-averaged effective window), the governor's shrink
// events, and the all-class fabric queue-delay mean.
//
// Usage: fig15_qos [--smoke] [--timeseries[=path]] [output.json]
//   --smoke       smaller footprints/accesses for CI (still 8 hosts)
//   --timeseries  sample the demand-priority+governed run's EWMAs/budgets/
//                 windowed p99 to JSONL (default BENCH_qos.timeseries.jsonl)
//   output        results JSON (default BENCH_qos.json)
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/runtime/sharded_cluster.h"
#include "src/stats/table.h"

namespace leap {
namespace {

struct BenchGeometry {
  size_t hosts = 8;
  size_t nodes = 2;
  size_t footprint_pages = 4096;
  size_t accesses_per_host = 20000;
  size_t slab_pages = 256;
};

BenchGeometry FullGeometry() { return {8, 2, 4096, 20000, 256}; }
BenchGeometry SmokeGeometry() { return {8, 2, 1024, 4000, 64}; }

PrefetchBudgetConfig GovernorConfig() {
  PrefetchBudgetConfig budget;
  budget.enabled = true;
  budget.min_budget = 1;
  budget.max_budget = 8;
  budget.queue_delay_threshold_ns = 5'000.0;
  budget.decrease_factor = 0.5;
  budget.increase_step = 0.5;
  budget.adjust_period_ns = 500 * kNsPerUs;
  budget.accuracy_keep_threshold = 0.5;
  return budget;
}

struct QosResult {
  LinkSchedulerKind sched = LinkSchedulerKind::kFifo;
  bool governed = false;
  uint64_t victim_demand_p50_ns = 0;
  uint64_t victim_demand_p99_ns = 0;
  uint64_t antagonist_demand_p99_ns = 0;
  double wasted_ratio = 0.0;
  double demand_qdelay_mean_ns = 0.0;
  double prefetch_qdelay_mean_ns = 0.0;
  uint64_t downlink_demand_ops = 0;
  uint64_t downlink_prefetch_ops = 0;
  uint64_t total_remote_reads = 0;  // determinism fingerprint
  SimTimeNs max_completion_ns = 0;
  uint64_t prefetch_unused = 0;
  uint64_t prefetch_hits = 0;
  // Time-averaged effective window: prefetches issued per cache miss
  // (the AIMD sawtooth makes end-of-run budget snapshots uninformative).
  double antagonist_pf_per_miss = 0.0;
  double victim_pf_per_miss = 0.0;
  uint64_t shrink_events = 0;
  double fabric_qdelay_mean_ns = 0.0;
};

// `timeseries_path` non-empty enables the stats sampler on this run (pure
// observation; measured numbers are bit-identical either way) and `dump`
// non-null gets the human-readable cluster stats dump.
QosResult RunOnce(const BenchGeometry& geo, LinkSchedulerKind sched,
                  bool governed, const std::string& timeseries_path = "",
                  std::ostream* dump = nullptr) {
  ClusterConfig config;
  config.hosts = geo.hosts;
  config.nodes = geo.nodes;
  config.node_capacity_slabs = 4096;
  config.host = LeapVmmConfig(geo.footprint_pages, /*seed=*/42);
  config.host.prefetcher = PrefetchKind::kNextNLine;
  config.host.host_agent.slab_pages = geo.slab_pages;
  config.fabric.sched.kind = sched;
  if (governed) {
    config.host.budget = GovernorConfig();
  }
  config.seed = 91;
  config.sampler.enabled = !timeseries_path.empty();
  ShardedCluster cluster({config});

  std::vector<std::unique_ptr<AccessStream>> streams;
  std::vector<ClusterAppSpec> specs;
  std::vector<Pid> pids;
  SimTimeNs warm_end = 0;
  for (size_t h = 0; h < geo.hosts; ++h) {
    const Pid pid = cluster.host(h).CreateProcess(geo.footprint_pages / 2);
    pids.push_back(pid);
    if (h == 0) {
      // Antagonist: a zipf storm over 4x the victims' footprint at zero
      // think time - every fault lands on the scattered cold tail, where
      // next-8-line prefetches neighbors that are almost never
      // re-referenced: maximum pollution per fault.
      const size_t storm_footprint = 4 * geo.footprint_pages;
      warm_end = WarmUp(cluster.host(h), pid, storm_footprint, warm_end);
      streams.push_back(std::make_unique<ZipfStream>(storm_footprint, 0.99,
                                                     /*think_ns=*/0));
    } else {
      warm_end = WarmUp(cluster.host(h), pid, geo.footprint_pages, warm_end);
      streams.push_back(std::make_unique<SequentialStream>(
          geo.footprint_pages, /*think_ns=*/300));
    }
  }
  for (size_t h = 0; h < geo.hosts; ++h) {
    RunConfig run;
    run.total_accesses = geo.accesses_per_host;
    run.start_time_ns = warm_end + 10 * kNsPerMs;
    run.seed = 100 + h;
    specs.push_back({h, pids[h], streams[h].get(), run});
  }
  const auto results = cluster.Run(std::move(specs));

  QosResult out;
  out.sched = sched;
  out.governed = governed;
  Histogram victims;
  for (size_t h = 1; h < geo.hosts; ++h) {
    victims.Merge(results[h].miss_latency);
  }
  out.victim_demand_p50_ns = victims.Percentile(0.5);
  out.victim_demand_p99_ns = victims.Percentile(0.99);
  out.antagonist_demand_p99_ns = results[0].miss_latency.Percentile(0.99);
  const ClusterStats stats = cluster.Stats();
  out.wasted_ratio =
      stats.totals.Ratio(counter::kPrefetchUnused, counter::kPrefetchIssued);
  out.demand_qdelay_mean_ns =
      stats.class_queue_delay_mean_ns[static_cast<size_t>(
          IoClass::kDemandRead)];
  out.prefetch_qdelay_mean_ns =
      stats.class_queue_delay_mean_ns[static_cast<size_t>(
          IoClass::kPrefetch)];
  out.downlink_demand_ops = stats.ClassOps(IoClass::kDemandRead);
  out.downlink_prefetch_ops = stats.ClassOps(IoClass::kPrefetch);
  out.total_remote_reads = stats.totals.Get(counter::kRemoteReads);
  for (const RunResult& r : results) {
    out.max_completion_ns = std::max(out.max_completion_ns, r.completion_ns);
  }
  out.prefetch_unused = stats.totals.Get(counter::kPrefetchUnused);
  out.prefetch_hits = stats.totals.Get(counter::kPrefetchHits);
  out.antagonist_pf_per_miss = cluster.host(0).counters().Ratio(
      counter::kPrefetchIssued, counter::kCacheMisses);
  out.victim_pf_per_miss = cluster.host(1).counters().Ratio(
      counter::kPrefetchIssued, counter::kCacheMisses);
  if (governed) {
    for (size_t h = 0; h < geo.hosts; ++h) {
      out.shrink_events += cluster.host(h).governor()->shrink_events();
    }
  }
  out.fabric_qdelay_mean_ns = stats.fabric_queue_delay_mean_ns;
  bench::WriteObservability(cluster, "", timeseries_path);
  if (dump != nullptr) {
    cluster.DumpStats(*dump);
  }
  return out;
}

void PrintRow(TextTable& table, const QosResult& r) {
  char p50[32], p99[32], ap99[32], waste[32], dq[32], pq[32], apf[32];
  std::snprintf(p50, sizeof(p50), "%.2f", ToUs(r.victim_demand_p50_ns));
  std::snprintf(p99, sizeof(p99), "%.2f", ToUs(r.victim_demand_p99_ns));
  std::snprintf(ap99, sizeof(ap99), "%.2f",
                ToUs(r.antagonist_demand_p99_ns));
  std::snprintf(waste, sizeof(waste), "%.3f", r.wasted_ratio);
  std::snprintf(dq, sizeof(dq), "%.2f", r.demand_qdelay_mean_ns / 1000.0);
  std::snprintf(pq, sizeof(pq), "%.2f", r.prefetch_qdelay_mean_ns / 1000.0);
  std::snprintf(apf, sizeof(apf), "%.2f", r.antagonist_pf_per_miss);
  table.AddRow({LinkSchedulerKindName(r.sched), r.governed ? "on" : "off",
                p50, p99, ap99, waste, dq, pq, apf});
}

bool WriteJson(const std::string& path, const BenchGeometry& geo,
               const std::vector<QosResult>& rows, bool smoke) {
  return bench::WriteOutputFile(path, [&](std::ostream& out) {
    JsonWriter json(out);
    json.BeginObject().Field("mode", smoke ? "smoke" : "full");
    bench::WriteSchemaPreamble(
        json, {"fig15_qos", /*seed=*/91, geo.hosts, geo.nodes,
               "fifo|demand_priority|drr",
               PlacementPolicyName(PlacementPolicy::kPowerOfTwo)});
    bench::WriteClusterGeometry(json, geo);
    const std::string victims =
        "sequential (hosts 1.." + std::to_string(geo.hosts - 1) + ")";
    json.Key("workloads")
        .BeginObject(JsonWriter::kInline)
        .Field("antagonist", "zipf-0.99 storm (host 0)")
        .Field("victims", victims)
        .Field("policy", "next-8-line")
        .End();
    for (const QosResult& r : rows) {
      const char* governor = r.governed ? "on" : "off";
      json.Key(std::string(LinkSchedulerKindName(r.sched)) + "_governor_" +
               governor)
          .BeginObject(JsonWriter::kInline)
          .Field("scheduler", LinkSchedulerKindName(r.sched))
          .Field("governor", governor)
          .Field("victim_demand_p50_ns", r.victim_demand_p50_ns)
          .Field("victim_demand_p99_ns", r.victim_demand_p99_ns)
          .Field("antagonist_demand_p99_ns", r.antagonist_demand_p99_ns)
          .Field("wasted_prefetch_ratio", r.wasted_ratio, 4)
          .Field("demand_qdelay_mean_ns", r.demand_qdelay_mean_ns, 1)
          .Field("prefetch_qdelay_mean_ns", r.prefetch_qdelay_mean_ns, 1)
          .Field("downlink_demand_ops", r.downlink_demand_ops)
          .Field("downlink_prefetch_ops", r.downlink_prefetch_ops)
          .Field("remote_reads", r.total_remote_reads)
          .Field("max_completion_ns", r.max_completion_ns)
          .Field("prefetch_unused", r.prefetch_unused)
          .Field("prefetch_hits", r.prefetch_hits)
          .Field("antagonist_pf_per_miss", r.antagonist_pf_per_miss, 2)
          .Field("victim_pf_per_miss", r.victim_pf_per_miss, 2)
          .Field("governor_shrink_events", r.shrink_events)
          .Field("fabric_qdelay_mean_ns", r.fabric_qdelay_mean_ns, 1)
          .End();
    }
    // Headline: victim p99 speedup of each scheduler vs FIFO, governor off
    // (pure link-QoS effect) and on (stacked).
    auto find = [&rows](LinkSchedulerKind sched,
                        bool gov) -> const QosResult& {
      for (const QosResult& r : rows) {
        if (r.sched == sched && r.governed == gov) {
          return r;
        }
      }
      return rows.front();
    };
    auto speedup = [](const QosResult& base, const QosResult& r) {
      return r.victim_demand_p99_ns == 0
                 ? 0.0
                 : static_cast<double>(base.victim_demand_p99_ns) /
                       static_cast<double>(r.victim_demand_p99_ns);
    };
    const QosResult& fifo_off = find(LinkSchedulerKind::kFifo, false);
    const QosResult& fifo_on = find(LinkSchedulerKind::kFifo, true);
    json.Key("improvement")
        .BeginObject(JsonWriter::kInline)
        .Field("priority_victim_p99_speedup_vs_fifo",
               speedup(fifo_off,
                       find(LinkSchedulerKind::kDemandPriority, false)),
               3)
        .Field("drr_victim_p99_speedup_vs_fifo",
               speedup(fifo_off, find(LinkSchedulerKind::kDrr, false)), 3)
        .Field("priority_gov_victim_p99_speedup_vs_fifo_gov",
               speedup(fifo_on, find(LinkSchedulerKind::kDemandPriority, true)),
               3)
        .Field("drr_gov_victim_p99_speedup_vs_fifo_gov",
               speedup(fifo_on, find(LinkSchedulerKind::kDrr, true)), 3)
        .End();
    json.End();
  });
}

bool Run(const bench::BenchArgs& args) {
  const BenchGeometry geo = args.smoke ? SmokeGeometry() : FullGeometry();
  bench::PrintHeader(
      "Figure 15 (extension): per-link fabric QoS vs an antagonist storm",
      "8 hosts, one zipf-0.99 storm behind next-8-line; FIFO links vs "
      "strict demand-priority vs per-tenant DRR, each with the PR 3 budget "
      "governor off/on (the paper's demand-first data path, at the link "
      "layer)");

  std::vector<QosResult> rows;
  for (const LinkSchedulerKind sched :
       {LinkSchedulerKind::kFifo, LinkSchedulerKind::kDemandPriority,
        LinkSchedulerKind::kDrr}) {
    for (const bool governed : {false, true}) {
      // Demand-priority + governor is the headline combination (stacked
      // source + link QoS): it carries the time series and stats dump.
      const bool headline =
          sched == LinkSchedulerKind::kDemandPriority && governed;
      rows.push_back(RunOnce(
          geo, sched, governed,
          headline && args.timeseries ? args.timeseries_path : "",
          headline ? &std::cout : nullptr));
    }
  }

  TextTable table;
  table.SetHeader({"scheduler", "governor", "victim p50(us)",
                   "victim p99(us)", "antag p99(us)", "wasted ratio",
                   "demand qdelay(us)", "prefetch qdelay(us)",
                   "antag pf/miss"});
  for (const QosResult& r : rows) {
    PrintRow(table, r);
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "victim demand-read p99 (governor off): fifo %.2f us, "
      "demand-priority %.2f us, drr %.2f us\n\n",
      ToUs(rows[0].victim_demand_p99_ns), ToUs(rows[2].victim_demand_p99_ns),
      ToUs(rows[4].victim_demand_p99_ns));

  return WriteJson(args.json_path, geo, rows, args.smoke);
}

}  // namespace
}  // namespace leap

int main(int argc, char** argv) {
  const auto args = leap::bench::ParseBenchArgs(
      argc, argv, "BENCH_qos.json",
      "[--smoke] [--timeseries[=path]] [output.json]");
  if (!args) {
    return 2;
  }
  return leap::Run(*args) ? 0 : 1;
}
