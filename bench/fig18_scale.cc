// Figure 18 (engine scaling): the fig13 workload mix pushed to large
// cluster sizes, one shard (a single event queue, the "single_queue" / 1q
// column) vs many shards on worker threads at equal host count.
//
// Two stories in one sweep:
//  - simulator throughput (wall-clock accesses/s): a single shard's
//    per-access cost grows with host count (an O(hosts) ready-app scan
//    plus one ever-growing event heap), so its throughput decays as the
//    cluster grows; many shards keep per-shard work constant and hold
//    throughput roughly flat. The speedup at equal host count is the
//    acceptance number (>= 3x at the top scales).
//  - determinism: every simulation-derived number in the JSON is a pure
//    function of (seed, shard count). Wall-clock keys are all prefixed
//    "wall" and placed on their own lines so CI's byte-identical rerun
//    guard can strip them (grep -v '"wall') and cmp the rest.
//
// Usage: fig18_scale [--smoke] [output.json]
//   --smoke   tiny configuration for CI (4/8 hosts)
//   output    results JSON (default BENCH_scale.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/runtime/sharded_cluster.h"
#include "src/stats/table.h"
#include "src/workload/cluster_mix.h"

namespace leap {
namespace {

struct BenchGeometry {
  std::vector<size_t> host_scales;
  // Largest scale that also runs the single-shard baseline (the baseline
  // is the slow configuration; the sharded sweep goes further).
  size_t baseline_max_hosts = 0;
  size_t hosts_per_node = 4;
  size_t footprint_pages = 2048;
  size_t total_frames = 2048;
  size_t accesses_per_host = 2000;
  size_t slab_pages = 64;
  size_t hosts_per_shard = 64;
  size_t window_mult = 32;   // window = lookahead * mult (fewer barriers)
  size_t mirror_every = 16;  // cross-shard replica cadence
};

BenchGeometry FullGeometry() {
  BenchGeometry geo;
  geo.host_scales = {32, 64, 128, 256, 512, 1024, 2048, 4096};
  geo.baseline_max_hosts = 4096;
  return geo;
}

BenchGeometry SmokeGeometry() {
  BenchGeometry geo;
  geo.host_scales = {4, 8};
  geo.baseline_max_hosts = 8;
  geo.footprint_pages = 512;
  geo.total_frames = 512;
  geo.accesses_per_host = 1500;
  geo.slab_pages = 32;
  geo.hosts_per_shard = 4;
  geo.window_mult = 4;
  geo.mirror_every = 8;
  return geo;
}

ClusterConfig MakeBase(const BenchGeometry& geo, size_t hosts) {
  ClusterConfig config;
  config.hosts = hosts;
  config.nodes = std::max<size_t>(1, hosts / geo.hosts_per_node);
  config.node_capacity_slabs = 4096;
  config.host = LeapVmmConfig(geo.total_frames, /*seed=*/42);
  config.host.host_agent.slab_pages = geo.slab_pages;
  config.placement = PlacementPolicy::kPowerOfTwo;
  config.seed = 91;
  return config;
}

size_t ShardsFor(const BenchGeometry& geo, size_t hosts) {
  return std::max<size_t>(2, hosts / geo.hosts_per_shard);
}

// Deterministic per-engine results plus the (non-deterministic) wall time.
struct EngineResult {
  uint64_t remote_reads = 0;
  uint64_t fabric_ops = 0;
  uint64_t p50_remote_ns = 0;
  uint64_t p99_remote_ns = 0;
  double agg_accesses_per_sim_sec = 0.0;
  SimTimeNs max_completion_ns = 0;
  uint64_t cross_shard_sent = 0;
  uint64_t cross_shard_applied = 0;
  uint64_t mailbox_overflows = 0;
  uint64_t windows_run = 0;
  double wall_ms = 0.0;
};

// Warm + run the fig13 workload mix (zipf / sequential / trace per host);
// every shard count sees byte-identical specs.
EngineResult RunWorkload(ShardedCluster& cluster, const BenchGeometry& geo) {
  const size_t hosts = cluster.num_hosts();
  std::vector<std::unique_ptr<AccessStream>> streams;
  std::vector<ClusterAppSpec> specs;
  std::vector<Pid> pids;
  SimTimeNs warm_end = 0;
  for (size_t h = 0; h < hosts; ++h) {
    const Pid pid = cluster.host(h).CreateProcess(geo.footprint_pages / 2);
    pids.push_back(pid);
    warm_end = WarmUp(cluster.host(h), pid, geo.footprint_pages, warm_end);
    streams.push_back(MakeClusterMixStream(h, geo.footprint_pages));
  }
  for (size_t h = 0; h < hosts; ++h) {
    RunConfig run;
    run.total_accesses = geo.accesses_per_host;
    run.start_time_ns = warm_end + 10 * kNsPerMs;
    run.seed = 100 + h;
    specs.push_back({h, pids[h], streams[h].get(), run});
  }
  const auto wall_start = std::chrono::steady_clock::now();
  const auto results = cluster.Run(std::move(specs));
  const auto wall_end = std::chrono::steady_clock::now();

  EngineResult out;
  out.wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start).count();
  Histogram merged;
  uint64_t total_accesses = 0;
  for (size_t h = 0; h < hosts; ++h) {
    merged.Merge(cluster.host_remote_latency(h));
    total_accesses += results[h].accesses;
    out.max_completion_ns =
        std::max(out.max_completion_ns, results[h].completion_ns);
  }
  out.p50_remote_ns = merged.Percentile(0.5);
  out.p99_remote_ns = merged.Percentile(0.99);
  const ClusterStats stats = cluster.Stats();
  out.remote_reads = stats.totals.Get(counter::kRemoteReads);
  out.fabric_ops = stats.fabric_ops;
  out.cross_shard_sent = stats.totals.Get(counter::kCrossShardSent);
  out.cross_shard_applied = stats.totals.Get(counter::kCrossShardApplied);
  out.agg_accesses_per_sim_sec =
      out.max_completion_ns == 0
          ? 0.0
          : static_cast<double>(total_accesses) / ToSec(out.max_completion_ns);
  return out;
}

EngineResult RunSingleQueue(const BenchGeometry& geo, size_t hosts) {
  ShardedCluster cluster({MakeBase(geo, hosts)});
  return RunWorkload(cluster, geo);
}

EngineResult RunSharded(const BenchGeometry& geo, size_t hosts) {
  ShardedClusterConfig config;
  config.base = MakeBase(geo, hosts);
  config.shards = ShardsFor(geo, hosts);
  config.window_ns =
      FabricLookaheadNs(config.base.fabric) * geo.window_mult;
  config.mirror_every = geo.mirror_every;
  ShardedCluster cluster(config);
  EngineResult out = RunWorkload(cluster, geo);
  out.windows_run = cluster.windows_run();
  out.mailbox_overflows = cluster.mailbox_overflows();
  return out;
}

struct ScaleRow {
  size_t hosts = 0;
  size_t shards = 0;
  bool has_baseline = false;
  EngineResult sharded;
  EngineResult single_queue;
};

void WriteEngineJson(FILE* f, const char* indent, const EngineResult& r,
                     bool sharded) {
  std::fprintf(
      f,
      "%s\"remote_reads\": %llu, \"fabric_ops\": %llu, "
      "\"p50_remote_ns\": %llu, \"p99_remote_ns\": %llu, "
      "\"agg_accesses_per_sim_sec\": %.0f, \"max_completion_ns\": %llu",
      indent, static_cast<unsigned long long>(r.remote_reads),
      static_cast<unsigned long long>(r.fabric_ops),
      static_cast<unsigned long long>(r.p50_remote_ns),
      static_cast<unsigned long long>(r.p99_remote_ns),
      r.agg_accesses_per_sim_sec,
      static_cast<unsigned long long>(r.max_completion_ns));
  if (sharded) {
    std::fprintf(
        f,
        ", \"cross_shard_sent\": %llu, \"cross_shard_applied\": %llu, "
        "\"mailbox_overflows\": %llu, \"windows_run\": %llu",
        static_cast<unsigned long long>(r.cross_shard_sent),
        static_cast<unsigned long long>(r.cross_shard_applied),
        static_cast<unsigned long long>(r.mailbox_overflows),
        static_cast<unsigned long long>(r.windows_run));
  }
}

void WriteJson(const char* path, const BenchGeometry& geo,
               const std::vector<ScaleRow>& rows, bool smoke) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  bench::WriteSchemaPreamble(
      f, {"fig18_scale", /*seed=*/91, geo.host_scales.back(),
          geo.host_scales.back() / geo.hosts_per_node, "fifo",
          PlacementPolicyName(PlacementPolicy::kPowerOfTwo)});
  std::fprintf(f,
               "  \"geometry\": {\"hosts_per_node\": %zu, "
               "\"footprint_pages\": %zu, \"accesses_per_host\": %zu, "
               "\"slab_pages\": %zu, \"hosts_per_shard\": %zu, "
               "\"window_mult\": %zu, \"mirror_every\": %zu},\n",
               geo.hosts_per_node, geo.footprint_pages, geo.accesses_per_host,
               geo.slab_pages, geo.hosts_per_shard, geo.window_mult,
               geo.mirror_every);
  std::fprintf(f, "  \"workload_mix\": [\"zipf-0.99\", \"sequential\", "
                  "\"trace(stride-8)\"],\n");
  std::fprintf(f, "  \"scales\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const ScaleRow& row = rows[i];
    std::fprintf(f, "    {\"hosts\": %zu, \"shards\": %zu,\n", row.hosts,
                 row.shards);
    std::fprintf(f, "     \"sharded\": {");
    WriteEngineJson(f, "", row.sharded, /*sharded=*/true);
    std::fprintf(f, "},\n");
    if (row.has_baseline) {
      std::fprintf(f, "     \"single_queue\": {");
      WriteEngineJson(f, "", row.single_queue, /*sharded=*/false);
      std::fprintf(f, "},\n");
    } else {
      std::fprintf(f, "     \"single_queue\": null,\n");
    }
    // Wall-clock keys live on their own lines, all prefixed "wall": CI's
    // byte-identical rerun guard strips them with grep -v '"wall' before
    // cmp, so everything above must be seed-deterministic.
    std::fprintf(f, "     \"wall_ms_sharded\": %.1f,\n",
                 row.sharded.wall_ms);
    if (row.has_baseline) {
      std::fprintf(f, "     \"wall_ms_single_queue\": %.1f,\n",
                   row.single_queue.wall_ms);
      std::fprintf(f, "     \"wall_speedup\": %.2f,\n",
                   row.sharded.wall_ms <= 0.0
                       ? 0.0
                       : row.single_queue.wall_ms / row.sharded.wall_ms);
    }
    std::fprintf(f, "     \"end\": true}%s\n",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

void Run(bool smoke, const char* json_path) {
  const BenchGeometry geo = smoke ? SmokeGeometry() : FullGeometry();
  bench::PrintHeader(
      "Figure 18 (engine scaling): one shard vs many at 32 -> 4096 hosts",
      "a single shard's per-access cost grows with host count (O(hosts) "
      "ready scan + one global event heap); many shards keep per-shard "
      "work constant, so simulator throughput holds as the cluster grows");

  std::vector<ScaleRow> rows;
  TextTable table;
  table.SetHeader({"hosts", "shards", "1q wall(s)", "sharded wall(s)",
                   "speedup", "1q Macc/wall-s", "sharded Macc/wall-s"});
  for (size_t hosts : geo.host_scales) {
    ScaleRow row;
    row.hosts = hosts;
    row.shards = ShardsFor(geo, hosts);
    row.sharded = RunSharded(geo, hosts);
    row.has_baseline = hosts <= geo.baseline_max_hosts;
    if (row.has_baseline) {
      row.single_queue = RunSingleQueue(geo, hosts);
    }
    const double total_acc =
        static_cast<double>(hosts * geo.accesses_per_host);
    char hs[32], sh[32], oneq[32], shard[32], speed[32], thr1[32], thr2[32];
    std::snprintf(hs, sizeof(hs), "%zu", hosts);
    std::snprintf(sh, sizeof(sh), "%zu", row.shards);
    if (row.has_baseline) {
      std::snprintf(oneq, sizeof(oneq), "%.1f",
                    row.single_queue.wall_ms / 1000.0);
      std::snprintf(speed, sizeof(speed), "%.2fx",
                    row.single_queue.wall_ms / row.sharded.wall_ms);
      std::snprintf(thr1, sizeof(thr1), "%.2f",
                    total_acc / row.single_queue.wall_ms / 1000.0);
    } else {
      std::snprintf(oneq, sizeof(oneq), "-");
      std::snprintf(speed, sizeof(speed), "-");
      std::snprintf(thr1, sizeof(thr1), "-");
    }
    std::snprintf(shard, sizeof(shard), "%.1f", row.sharded.wall_ms / 1000.0);
    std::snprintf(thr2, sizeof(thr2), "%.2f",
                  total_acc / row.sharded.wall_ms / 1000.0);
    table.AddRow({hs, sh, oneq, shard, speed, thr1, thr2});
    rows.push_back(row);
  }
  std::printf("%s\n", table.Render().c_str());

  WriteJson(json_path, geo, rows, smoke);
}

}  // namespace
}  // namespace leap

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = "BENCH_scale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }
  leap::Run(smoke, json_path);
  return 0;
}
