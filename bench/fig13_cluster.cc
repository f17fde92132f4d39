// Figure 13, scaled out: many hosts sharing a disaggregated memory pool
// over one fabric. The paper shows Leap surviving four concurrent apps on
// one host; this bench grows that to a cluster - hosts 1 -> 32 running
// mixed workloads (zipf / sequential / trace) against a fixed donor pool -
// and measures what no single-host run can: remote tail latency as a
// function of cluster load (per-link bandwidth fixed, so p99 rises with
// host count) and slab-placement imbalance across policies.
//
// Usage: fig13_cluster [--smoke] [--hosts N] [output.json]
//   --smoke   tiny configuration for CI (3 scales, small footprints)
//   --hosts N probe a single host-count scale instead of the built-in
//             sweep (placement comparison is skipped; N must be > 0)
//   output    trajectory JSON (default BENCH_cluster.json)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/runtime/sharded_cluster.h"
#include "src/stats/table.h"

namespace leap {
namespace {

struct BenchGeometry {
  std::vector<size_t> host_scales;
  size_t nodes = 4;
  size_t footprint_pages = 4096;
  size_t accesses_per_host = 20000;
  size_t slab_pages = 256;
};

BenchGeometry FullGeometry() {
  return {{1, 2, 4, 8, 16, 32}, 4, 4096, 20000, 256};
}

BenchGeometry SmokeGeometry() {
  return {{1, 2, 4}, 2, 1024, 4000, 64};
}

ClusterConfig MakeConfig(const BenchGeometry& geo, size_t hosts,
                         PlacementPolicy placement) {
  ClusterConfig config;
  config.hosts = hosts;
  config.nodes = geo.nodes;
  config.node_capacity_slabs = 4096;
  config.host = LeapVmmConfig(geo.footprint_pages, /*seed=*/42);
  config.host.host_agent.slab_pages = geo.slab_pages;
  config.placement = placement;
  config.seed = 91;
  return config;
}

// The resilience counters in mix.stats.totals are all zero in this
// fault-free bench (the invariant the determinism tests pin down), nonzero
// only if mitigation ever fires.
struct ScaleResult {
  size_t hosts = 0;
  bench::ClusterMixResult mix;
};

ScaleResult RunScale(const BenchGeometry& geo, size_t hosts,
                     PlacementPolicy placement, std::ostream* dump = nullptr) {
  ShardedCluster cluster({MakeConfig(geo, hosts, placement)});
  ScaleResult out;
  out.hosts = hosts;
  out.mix = bench::RunClusterMix(cluster, geo.footprint_pages,
                                 geo.accesses_per_host);
  if (dump != nullptr) {
    cluster.DumpStats(*dump);
  }
  return out;
}

bool WriteJson(const std::string& path, const BenchGeometry& geo,
               const std::vector<ScaleResult>& scales, size_t ff_imbalance,
               size_t po2_imbalance, size_t striped_imbalance, bool smoke,
               bool include_placement) {
  return bench::WriteOutputFile(path, [&](std::ostream& out) {
    JsonWriter json(out);
    json.BeginObject().Field("mode", smoke ? "smoke" : "full");
    bench::WriteSchemaPreamble(
        json, {"fig13_cluster", /*seed=*/91, geo.host_scales.back(),
               geo.nodes, "fifo",
               PlacementPolicyName(PlacementPolicy::kPowerOfTwo)});
    json.Key("geometry")
        .BeginObject(JsonWriter::kInline)
        .Field("nodes", geo.nodes)
        .Field("footprint_pages", geo.footprint_pages)
        .Field("accesses_per_host", geo.accesses_per_host)
        .Field("slab_pages", geo.slab_pages)
        .End();
    bench::WriteClusterMixNames(json);
    json.Key("scales").BeginArray();
    for (const ScaleResult& s : scales) {
      const ClusterStats& st = s.mix.stats;
      json.BeginObject(JsonWriter::kInline)
          .Field("hosts", s.hosts)
          .Field("p50_remote_ns", s.mix.p50_remote_ns)
          .Field("p99_remote_ns", s.mix.p99_remote_ns)
          .Field("fabric_queue_delay_mean_ns", st.fabric_queue_delay_mean_ns, 1)
          .Field("fabric_ops", st.fabric_ops)
          .Field("slab_imbalance", st.SlabImbalance())
          .Field("capacity_exhausted",
                 st.totals.Get(counter::kRemoteCapacityExhausted))
          .Field("agg_accesses_per_sim_sec", s.mix.agg_accesses_per_sim_sec, 0)
          .Field("remote_reads", st.totals.Get(counter::kRemoteReads))
          .Field("max_completion_ns", s.mix.max_completion_ns)
          .Key("resilience")
          .BeginObject();
      bench::WriteResilienceCounters(json, st.totals);
      json.End().End();
    }
    json.End();
    if (include_placement) {
      json.Key("placement_imbalance_at_4_hosts")
          .BeginObject(JsonWriter::kInline)
          .Field("first_fit", ff_imbalance)
          .Field("power_of_two", po2_imbalance)
          .Field("striped", striped_imbalance)
          .End();
    }
    json.End();
  });
}

bool Run(bool smoke, size_t hosts_override, const std::string& json_path) {
  BenchGeometry geo = smoke ? SmokeGeometry() : FullGeometry();
  if (hosts_override > 0) {
    // Single-point probe: one scale, no placement-policy comparison.
    geo.host_scales = {hosts_override};
  }
  bench::PrintHeader(
      "Figure 13 (cluster): hosts 1 -> 32 sharing a fixed donor pool",
      "single-host concurrency (paper: 1.1-2.4x across four apps) scaled "
      "out - fixed per-link bandwidth, so remote p99 rises with host "
      "count; power-of-two-choices keeps slab placement balanced");

  std::vector<ScaleResult> scales;
  TextTable table;
  table.SetHeader({"hosts", "p50 remote(us)", "p99 remote(us)",
                   "fabric qdelay mean(us)", "agg acc/sim-s",
                   "slab imbalance"});
  for (size_t hosts : geo.host_scales) {
    // Full per-class/per-node dump for the largest scale only (the one
    // whose contention story the figure is about).
    std::ostream* dump =
        hosts == geo.host_scales.back() ? &std::cout : nullptr;
    scales.push_back(RunScale(geo, hosts, PlacementPolicy::kPowerOfTwo, dump));
    const ScaleResult& s = scales.back();
    char p50[32], p99[32], qd[32], thr[32], imb[32], hs[32];
    std::snprintf(hs, sizeof(hs), "%zu", s.hosts);
    std::snprintf(p50, sizeof(p50), "%.2f", ToUs(s.mix.p50_remote_ns));
    std::snprintf(p99, sizeof(p99), "%.2f", ToUs(s.mix.p99_remote_ns));
    std::snprintf(qd, sizeof(qd), "%.2f",
                  s.mix.stats.fabric_queue_delay_mean_ns / 1000.0);
    std::snprintf(thr, sizeof(thr), "%.0f", s.mix.agg_accesses_per_sim_sec);
    std::snprintf(imb, sizeof(imb), "%zu", s.mix.stats.SlabImbalance());
    table.AddRow({hs, p50, p99, qd, thr, imb});
  }
  std::printf("%s\n", table.Render().c_str());

  // Placement-policy comparison at the 4-host scale (acceptance: two
  // choices beats first-fit on imbalance). The power-of-two number is
  // already in the sweep above; only the other policies need a run.
  // Skipped under --hosts: a single-point probe has no 4-host anchor.
  size_t ff = 0, po2 = 0, striped = 0;
  const bool include_placement = hosts_override == 0;
  if (include_placement) {
    const size_t compare_hosts = 4;
    for (const ScaleResult& s : scales) {
      if (s.hosts == compare_hosts) {
        po2 = s.mix.stats.SlabImbalance();
      }
    }
    ff = RunScale(geo, compare_hosts, PlacementPolicy::kFirstFit)
             .mix.stats.SlabImbalance();
    striped = RunScale(geo, compare_hosts, PlacementPolicy::kStriped)
                  .mix.stats.SlabImbalance();
    std::printf("slab imbalance @ %zu hosts: first-fit %zu, "
                "power-of-two-choices %zu, striped %zu\n\n",
                compare_hosts, ff, po2, striped);
  }

  return WriteJson(json_path, geo, scales, ff, po2, striped, smoke,
                   include_placement);
}

}  // namespace
}  // namespace leap

int main(int argc, char** argv) {
  // --hosts N / --hosts=N is fig13's own flag; everything else goes
  // through the shared parser.
  const char* usage = "[--smoke] [--hosts N] [output.json]";
  size_t hosts_override = 0;
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (std::strcmp(argv[i], "--hosts") == 0 && i + 1 < argc) {
      value = argv[++i];
    } else if (std::strncmp(argv[i], "--hosts=", 8) == 0) {
      value = argv[i] + 8;
    } else {
      rest.push_back(argv[i]);
      continue;
    }
    hosts_override = static_cast<size_t>(std::strtoul(value, nullptr, 10));
    if (hosts_override == 0) {
      std::fprintf(stderr, "--hosts requires a positive integer\n");
      return 1;
    }
  }
  const auto args = leap::bench::ParseBenchArgs(
      static_cast<int>(rest.size()), rest.data(), "BENCH_cluster.json", usage);
  if (!args) {
    return 2;
  }
  return leap::Run(args->smoke, hosts_override, args->json_path) ? 0 : 1;
}
