// Figure 17 (this repo's extension): tiered far memory - DRAM ⇄ CXL-like
// fast tier ⇄ fabric remote ⇄ SSD - with a background hot/cold migrator.
//
// The paper's premise is that remote memory is usable when the data path
// hides its latency; a natural follow-on is a *tiered* backing store where
// a small, fast, CXL-like pool absorbs the hot part of the swapped set and
// the fabric only sees the cold tail. This bench measures that: an 8-host
// cluster funnels into a single donor node (deliberate incast on its
// downlink), every host runs two scrambled-zipf processes with a short
// think time (hot pages scattered across the vpn range, so first-touch
// placement is heat-agnostic; the think time keeps the loop approximately
// open, so shed load shows up as shorter queues rather than compressing
// the schedule back to saturation), and we sweep the CXL capacity ratio x
// migrator on/off. With the migrator off, the fast-tier hit ratio is
// pinned near capacity/slots (placement is random w.r.t. heat); with it
// on, the kswapd-style migrator concentrates the zipf head in CXL, the
// fast-tier hit ratio climbs, the fabric sheds demand misses, and the
// demand p99 drops. Migration traffic itself rides IoClass::kMigration
// under a per-link token-bucket bandwidth cap, so the demand-class
// queue-delay EWMA stays flat.
//
// Usage: fig17_tiering [--smoke] [--trace[=path]] [--timeseries[=path]]
//                      [output.json]
//   --smoke       smaller footprints/accesses for CI (still 8 hosts)
//   --trace       flight-record the headline variant (1/4-ratio, migrator
//                 on) and export chrome://tracing JSON
//   --timeseries  sample per-tier occupancy / migration counters to JSONL
//   output        results JSON (default BENCH_tier.json)
#include <algorithm>
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
  size_t nodes = 1;
  size_t footprint_pages = 4096;
  size_t accesses_per_host = 20000;
  size_t slab_pages = 256;
};

BenchGeometry FullGeometry() { return {8, 1, 4096, 20000, 256}; }
BenchGeometry SmokeGeometry() { return {8, 1, 1024, 4000, 64}; }

// CXL capacity as a fraction of each host's footprint: 1/denominator.
constexpr size_t kRatioDenoms[] = {8, 4, 2};

// Migration rides the links at no more than a quarter of a link's
// bandwidth (the repair-style pacing cap, generalized to kMigration).
constexpr double kMigrationFraction = 0.25;

struct TierVariant {
  bool tiered = false;
  size_t ratio_denom = 0;  // cxl = footprint / ratio_denom
  bool migrator = false;
};

struct TierResult {
  TierVariant variant;
  size_t cxl_capacity_pages = 0;
  double fast_hit_ratio = 0.0;  // CXL share of demand reads hitting the store
  uint64_t demand_p50_ns = 0;
  uint64_t demand_p99_ns = 0;
  double demand_qdelay_mean_ns = 0.0;
  uint64_t downlink_demand_ops = 0;
  uint64_t downlink_migration_ops = 0;
  uint64_t promotions = 0;
  uint64_t demotions = 0;
  uint64_t spills = 0;
  std::vector<size_t> tier_pages;
  uint64_t total_remote_reads = 0;  // determinism fingerprint
  SimTimeNs max_completion_ns = 0;
};

std::string VariantKey(const TierVariant& v) {
  return v.tiered ? "cxl_1_" + std::to_string(v.ratio_denom) + "_migrator_" +
                        (v.migrator ? "on" : "off")
                  : "untiered";
}

TierResult RunOnce(const BenchGeometry& geo, const TierVariant& variant,
                   const std::string& trace_path = "",
                   const std::string& timeseries_path = "",
                   std::ostream* dump = nullptr) {
  ClusterConfig config;
  config.hosts = geo.hosts;
  config.nodes = geo.nodes;
  config.node_capacity_slabs = 4096;
  config.host = LeapVmmConfig(geo.footprint_pages, /*seed=*/42);
  config.host.host_agent.slab_pages = geo.slab_pages;
  // Migration protection is belt and suspenders: the per-link bandwidth
  // cap bounds how much wire time migration can consume, and the
  // demand-priority scheduler keeps what remains behind demand fetches
  // (a paced burst must not FIFO-block a faulting process).
  config.fabric.sched.kind = LinkSchedulerKind::kDemandPriority;
  config.fabric.sched.migration_bandwidth_fraction = kMigrationFraction;
  if (variant.tiered) {
    config.host.tier.enabled = true;
    config.host.tier.cxl_capacity_pages =
        geo.footprint_pages / variant.ratio_denom;
    config.host.tier.migrator_enabled = variant.migrator;
    // Heat accrues one count per fault-in (a resident page's slot is not
    // re-read), so qualify a page on its first re-fault and age gently -
    // the default cadence (threshold 3, halve every 8 ticks) decays faster
    // than a paging workload can accrue.
    config.host.tier.promote_threshold = 2;
    config.host.tier.decay_every_ticks = 128;
    // The copies are staggered across the tick, but all hosts' migration
    // funnels into the shared donor downlink: keep the worst-case
    // aggregate (hosts/nodes x 2*batch per period) under the 25%-cap
    // pacing stride (~2.4 us/op), or the paced ops' far-future wire slots
    // ratchet the in-flight ledger and the congestion term charges every
    // class. batch 24 -> <= 48 copies/tick/host -> ~2.6 us downlink
    // inter-arrival at 8 hosts on 1 node: at the budget's edge.
    config.host.tier.migrate_batch = 24;
  }
  config.seed = 91;
  config.trace.enabled = !trace_path.empty();
  config.sampler.enabled = !timeseries_path.empty();
  ShardedCluster cluster({config});

  // Two faulting processes per host: a single zero-think stream carries at
  // most one outstanding fault, which can never congest the donor's
  // downlink; two per host across 8 hosts put 16 concurrent demand
  // streams on one link - the incast regime where shedding misses to the
  // fast tier visibly shortens the demand queue.
  constexpr size_t kProcsPerHost = 2;
  std::vector<std::unique_ptr<AccessStream>> streams;
  std::vector<ClusterAppSpec> specs;
  std::vector<Pid> pids;
  SimTimeNs warm_end = 0;
  for (size_t h = 0; h < geo.hosts; ++h) {
    for (size_t p = 0; p < kProcsPerHost; ++p) {
      // DRAM at 1/8 of each footprint: far-memory-heavy on purpose. With
      // ample DRAM the LRU-resident set absorbs the zipf head and the
      // fault stream degenerates to the distribution's near-uniform tail,
      // which no placement can beat; at 1/8 the swapped set spans ranks
      // with ~8x weight spread, a real hot band for the fast tier to
      // capture.
      const Pid pid = cluster.host(h).CreateProcess(geo.footprint_pages / 8);
      pids.push_back(pid);
      warm_end = WarmUp(cluster.host(h), pid, geo.footprint_pages, warm_end);
      // Scrambled zipf: popularity is zipf-0.99 but the hot ranks are
      // scattered over the vpn range, so the sequential warm-up's eviction
      // order (and therefore first-touch tier placement) carries no heat
      // signal - whatever ends up in CXL is a random sample. Any fast-tier
      // concentration beyond capacity/slots is the migrator's doing.
      streams.push_back(std::make_unique<ScrambledZipfStream>(
          geo.footprint_pages, 0.99, /*think_ns=*/2000));
    }
  }
  for (size_t h = 0; h < geo.hosts; ++h) {
    for (size_t p = 0; p < kProcsPerHost; ++p) {
      const size_t i = h * kProcsPerHost + p;
      RunConfig run;
      run.total_accesses = geo.accesses_per_host;
      run.start_time_ns = warm_end + 10 * kNsPerMs;
      run.seed = 100 + 100 * p + h;
      specs.push_back({h, pids[i], streams[i].get(), run});
    }
  }
  const auto results = cluster.Run(std::move(specs));

  TierResult out;
  out.variant = variant;
  out.cxl_capacity_pages =
      variant.tiered ? geo.footprint_pages / variant.ratio_denom : 0;
  Histogram demand;
  for (const RunResult& r : results) {
    demand.Merge(r.miss_latency);
    out.max_completion_ns = std::max(out.max_completion_ns, r.completion_ns);
  }
  out.demand_p50_ns = demand.Percentile(0.5);
  out.demand_p99_ns = demand.Percentile(0.99);
  const ClusterStats stats = cluster.Stats();
  const uint64_t fast = stats.totals.Get(counter::kTierFastHits);
  const uint64_t slow = stats.totals.Get(counter::kTierSlowHits);
  out.fast_hit_ratio =
      fast + slow == 0 ? 0.0
                       : static_cast<double>(fast) /
                             static_cast<double>(fast + slow);
  out.demand_qdelay_mean_ns =
      stats.class_queue_delay_mean_ns[static_cast<size_t>(
          IoClass::kDemandRead)];
  out.downlink_demand_ops = stats.ClassOps(IoClass::kDemandRead);
  out.downlink_migration_ops = stats.ClassOps(IoClass::kMigration);
  out.promotions = stats.totals.Get(counter::kTierPromotions);
  out.demotions = stats.totals.Get(counter::kTierDemotions);
  out.spills = stats.totals.Get(counter::kTierSpills);
  out.tier_pages = stats.tier_pages;
  out.total_remote_reads = stats.totals.Get(counter::kRemoteReads);
  bench::WriteObservability(cluster, trace_path, timeseries_path);
  if (dump != nullptr) {
    cluster.DumpStats(*dump);
  }
  return out;
}

void PrintRow(TextTable& table, const TierResult& r) {
  char cxl[32], hit[32], p50[32], p99[32], dq[32], mig[32];
  if (r.variant.tiered) {
    std::snprintf(cxl, sizeof(cxl), "1/%zu", r.variant.ratio_denom);
  } else {
    std::snprintf(cxl, sizeof(cxl), "-");
  }
  std::snprintf(hit, sizeof(hit), "%.3f", r.fast_hit_ratio);
  std::snprintf(p50, sizeof(p50), "%.2f", ToUs(r.demand_p50_ns));
  std::snprintf(p99, sizeof(p99), "%.2f", ToUs(r.demand_p99_ns));
  std::snprintf(dq, sizeof(dq), "%.2f", r.demand_qdelay_mean_ns / 1000.0);
  std::snprintf(mig, sizeof(mig), "%llu",
                static_cast<unsigned long long>(r.promotions + r.demotions));
  table.AddRow({cxl,
                !r.variant.tiered ? "-" : r.variant.migrator ? "on" : "off",
                hit, p50, p99, dq, mig});
}

const TierResult* Find(const std::vector<TierResult>& rows, size_t denom,
                       bool migrator) {
  for (const TierResult& r : rows) {
    if (r.variant.tiered && r.variant.ratio_denom == denom &&
        r.variant.migrator == migrator) {
      return &r;
    }
  }
  return nullptr;
}

bool WriteJson(const std::string& path, const BenchGeometry& geo,
               const std::vector<TierResult>& rows, bool smoke) {
  return bench::WriteOutputFile(path, [&](std::ostream& out) {
    JsonWriter json(out);
    json.BeginObject().Field("mode", smoke ? "smoke" : "full");
    bench::WriteSchemaPreamble(
        json, {"fig17_tiering", /*seed=*/91, geo.hosts, geo.nodes,
               LinkSchedulerKindName(LinkSchedulerKind::kDemandPriority),
               PlacementPolicyName(PlacementPolicy::kPowerOfTwo)});
    bench::WriteClusterGeometry(json, geo);
    json.Key("tiering")
        .BeginObject(JsonWriter::kInline)
        .Key("cxl_ratios")
        .BeginArray()
        .Value("1/8")
        .Value("1/4")
        .Value("1/2")
        .End()
        .Field("migration_bandwidth_fraction", kMigrationFraction, 2)
        .Field("workload", "scrambled-zipf-0.99, zero think")
        .End();
    for (const TierResult& r : rows) {
      json.Key(VariantKey(r.variant))
          .BeginObject(JsonWriter::kInline)
          .Field("tiered", r.variant.tiered)
          .Field("cxl_capacity_pages", r.cxl_capacity_pages)
          .Field("migrator",
                 !r.variant.tiered ? "n/a" : r.variant.migrator ? "on" : "off")
          .Field("fast_tier_hit_ratio", r.fast_hit_ratio, 4)
          .Field("demand_p50_ns", r.demand_p50_ns)
          .Field("demand_p99_ns", r.demand_p99_ns)
          .Field("demand_qdelay_mean_ns", r.demand_qdelay_mean_ns, 1)
          .Field("downlink_demand_ops", r.downlink_demand_ops)
          .Field("downlink_migration_ops", r.downlink_migration_ops)
          .Field("tier_promotions", r.promotions)
          .Field("tier_demotions", r.demotions)
          .Field("tier_spills", r.spills)
          .Field("remote_reads", r.total_remote_reads)
          .Field("max_completion_ns", r.max_completion_ns)
          .End();
    }
    // Headline: per-ratio migrator effect - fast-tier hit ratio gained and
    // demand p99 speedup of migrator-on over migrator-off.
    json.Key("improvement").BeginObject(JsonWriter::kInline);
    for (const size_t denom : kRatioDenoms) {
      const TierResult* off = Find(rows, denom, false);
      const TierResult* on = Find(rows, denom, true);
      if (off == nullptr || on == nullptr) {
        continue;
      }
      const double speedup =
          on->demand_p99_ns == 0
              ? 0.0
              : static_cast<double>(off->demand_p99_ns) /
                    static_cast<double>(on->demand_p99_ns);
      const std::string prefix = "cxl_1_" + std::to_string(denom);
      json.Field(prefix + "_hit_ratio_gain",
                 on->fast_hit_ratio - off->fast_hit_ratio, 4)
          .Field(prefix + "_demand_p99_speedup", speedup, 3);
    }
    json.End().End();
  });
}

bool Run(const bench::BenchArgs& args) {
  const BenchGeometry geo = args.smoke ? SmokeGeometry() : FullGeometry();
  bench::PrintHeader(
      "Figure 17 (extension): tiered far memory with a hot/cold migrator",
      "4 hosts, scrambled-zipf-0.99 storms; DRAM / CXL-like tier / fabric "
      "remote / SSD, sweeping CXL:footprint ratio x background migrator "
      "on/off (migration bandwidth-capped at 25% per link)");

  std::vector<TierResult> rows;
  rows.push_back(RunOnce(geo, {/*tiered=*/false, 0, false}));
  for (const size_t denom : kRatioDenoms) {
    for (const bool migrator : {false, true}) {
      // The 1/4-ratio migrator-on run is the headline variant: it carries
      // the optional trace/timeseries and the human-readable stats dump.
      const bool headline = denom == 4 && migrator;
      rows.push_back(RunOnce(
          geo, {/*tiered=*/true, denom, migrator},
          headline && args.trace ? args.trace_path : "",
          headline && args.timeseries ? args.timeseries_path : "",
          headline ? &std::cout : nullptr));
    }
  }

  TextTable table;
  table.SetHeader({"cxl ratio", "migrator", "fast-hit ratio", "p50(us)",
                   "p99(us)", "demand qdelay(us)", "migrations"});
  for (const TierResult& r : rows) {
    PrintRow(table, r);
  }
  std::printf("%s\n", table.Render().c_str());
  const TierResult* off = Find(rows, 4, false);
  const TierResult* on = Find(rows, 4, true);
  if (off != nullptr && on != nullptr) {
    std::printf(
        "cxl=1/4 footprint: fast-tier hit ratio %.3f -> %.3f, demand p99 "
        "%.2f us -> %.2f us with the migrator on\n\n",
        off->fast_hit_ratio, on->fast_hit_ratio, ToUs(off->demand_p99_ns),
        ToUs(on->demand_p99_ns));
  }

  return WriteJson(args.json_path, geo, rows, args.smoke);
}

}  // namespace
}  // namespace leap

int main(int argc, char** argv) {
  const auto args = leap::bench::ParseBenchArgs(
      argc, argv, "BENCH_tier.json",
      "[--smoke] [--trace[=path]] [--timeseries[=path]] [output.json]");
  if (!args) {
    return 2;
  }
  return leap::Run(*args) ? 0 : 1;
}
