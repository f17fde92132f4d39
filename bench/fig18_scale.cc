// Figure 18 (engine scaling): the fig13 workload mix pushed to large
// cluster sizes, one shard (a single event queue, the "single_queue" / 1q
// column) vs many shards on worker threads at equal host count.
//
// Two stories in one sweep:
//  - simulator throughput (wall-clock accesses/s): a single shard's
//    per-access cost grows with host count (one event heap and one
//    ready-app heap holding every host, and a working set that outgrows
//    the caches), so its throughput decays as the cluster grows; many
//    shards keep per-shard work constant and hold throughput roughly
//    flat. The speedup at equal host count is the acceptance number
//    (>= 3x at the top scales).
//  - determinism: every simulation-derived number in the JSON is a pure
//    function of (seed, shard count). Wall-clock keys are all prefixed
//    "wall" and placed on their own lines so CI's byte-identical rerun
//    guard can strip them (grep -v '"wall') and cmp the rest.
//
// Usage: fig18_scale [--smoke] [output.json]
//   --smoke   tiny configuration for CI (4/8 hosts)
//   output    results JSON (default BENCH_scale.json)
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/runtime/sharded_cluster.h"
#include "src/stats/table.h"

namespace leap {
namespace {

struct BenchGeometry {
  std::vector<size_t> host_scales;
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
  return geo;
}

BenchGeometry SmokeGeometry() {
  BenchGeometry geo;
  geo.host_scales = {4, 8};
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
  bench::ClusterMixResult mix;  // carries the wall time, run_wall_ms
  uint64_t mailbox_overflows = 0;
  uint64_t windows_run = 0;
};

EngineResult RunSingleQueue(const BenchGeometry& geo, size_t hosts) {
  ShardedCluster cluster({MakeBase(geo, hosts)});
  return {bench::RunClusterMix(cluster, geo.footprint_pages,
                               geo.accesses_per_host)};
}

EngineResult RunSharded(const BenchGeometry& geo, size_t hosts) {
  ShardedClusterConfig config;
  config.base = MakeBase(geo, hosts);
  config.shards = ShardsFor(geo, hosts);
  config.window_ns =
      FabricLookaheadNs(config.base.fabric) * geo.window_mult;
  config.mirror_every = geo.mirror_every;
  ShardedCluster cluster(config);
  EngineResult out = {bench::RunClusterMix(cluster, geo.footprint_pages,
                                           geo.accesses_per_host)};
  out.windows_run = cluster.windows_run();
  out.mailbox_overflows = cluster.mailbox_overflows();
  return out;
}

struct ScaleRow {
  size_t hosts = 0;
  size_t shards = 0;
  EngineResult sharded;
  EngineResult single_queue;
};

void WriteEngineJson(JsonWriter& json, const EngineResult& r, bool sharded) {
  const Counters& totals = r.mix.stats.totals;
  json.BeginObject(JsonWriter::kInline)
      .Field("remote_reads", totals.Get(counter::kRemoteReads))
      .Field("fabric_ops", r.mix.stats.fabric_ops)
      .Field("p50_remote_ns", r.mix.p50_remote_ns)
      .Field("p99_remote_ns", r.mix.p99_remote_ns)
      .Field("agg_accesses_per_sim_sec", r.mix.agg_accesses_per_sim_sec, 0)
      .Field("max_completion_ns", r.mix.max_completion_ns);
  if (sharded) {
    json.Field("cross_shard_sent", totals.Get(counter::kCrossShardSent))
        .Field("cross_shard_applied", totals.Get(counter::kCrossShardApplied))
        .Field("mailbox_overflows", r.mailbox_overflows)
        .Field("windows_run", r.windows_run);
  }
  json.End();
}

bool WriteJson(const std::string& path, const BenchGeometry& geo,
               const std::vector<ScaleRow>& rows, bool smoke) {
  return bench::WriteOutputFile(path, [&](std::ostream& out) {
    JsonWriter json(out);
    json.BeginObject().Field("mode", smoke ? "smoke" : "full");
    bench::WriteSchemaPreamble(
        json, {"fig18_scale", /*seed=*/91, geo.host_scales.back(),
               geo.host_scales.back() / geo.hosts_per_node, "fifo",
               PlacementPolicyName(PlacementPolicy::kPowerOfTwo)});
    json.Key("geometry")
        .BeginObject(JsonWriter::kInline)
        .Field("hosts_per_node", geo.hosts_per_node)
        .Field("footprint_pages", geo.footprint_pages)
        .Field("accesses_per_host", geo.accesses_per_host)
        .Field("slab_pages", geo.slab_pages)
        .Field("hosts_per_shard", geo.hosts_per_shard)
        .Field("window_mult", geo.window_mult)
        .Field("mirror_every", geo.mirror_every)
        .End();
    bench::WriteClusterMixNames(json);
    json.Key("scales").BeginArray();
    for (const ScaleRow& row : rows) {
      json.BeginObject().Field("hosts", row.hosts).Field("shards", row.shards);
      json.Key("sharded");
      WriteEngineJson(json, row.sharded, /*sharded=*/true);
      json.Key("single_queue");
      WriteEngineJson(json, row.single_queue, /*sharded=*/false);
      // Wall-clock keys live on their own lines, all prefixed "wall": CI's
      // byte-identical rerun guard strips them with grep -v '"wall' before
      // cmp, so everything else must be seed-deterministic.
      const double wall_sharded = row.sharded.mix.run_wall_ms;
      const double wall_1q = row.single_queue.mix.run_wall_ms;
      json.Field("wall_ms_sharded", wall_sharded, 1)
          .Field("wall_ms_single_queue", wall_1q, 1)
          .Field("wall_speedup",
                 wall_sharded <= 0.0 ? 0.0 : wall_1q / wall_sharded, 2)
          .End();
    }
    json.End().End();
  });
}

bool Run(bool smoke, const std::string& json_path) {
  const BenchGeometry geo = smoke ? SmokeGeometry() : FullGeometry();
  bench::PrintHeader(
      "Figure 18 (engine scaling): one shard vs many at 32 -> 4096 hosts",
      "a single shard's per-access cost grows with host count (one event "
      "heap and one ready-app heap over every host); many shards keep "
      "per-shard work constant, so simulator throughput holds as the "
      "cluster grows");

  std::vector<ScaleRow> rows;
  TextTable table;
  table.SetHeader({"hosts", "shards", "1q wall(s)", "sharded wall(s)",
                   "speedup", "1q Macc/wall-s", "sharded Macc/wall-s"});
  for (size_t hosts : geo.host_scales) {
    ScaleRow row;
    row.hosts = hosts;
    row.shards = ShardsFor(geo, hosts);
    row.sharded = RunSharded(geo, hosts);
    row.single_queue = RunSingleQueue(geo, hosts);
    const double total_acc =
        static_cast<double>(hosts * geo.accesses_per_host);
    const double wall_sharded = row.sharded.mix.run_wall_ms;
    const double wall_1q = row.single_queue.mix.run_wall_ms;
    char hs[32], sh[32], oneq[32], shard[32], speed[32], thr1[32], thr2[32];
    std::snprintf(hs, sizeof(hs), "%zu", hosts);
    std::snprintf(sh, sizeof(sh), "%zu", row.shards);
    std::snprintf(oneq, sizeof(oneq), "%.1f", wall_1q / 1000.0);
    std::snprintf(speed, sizeof(speed), "%.2fx", wall_1q / wall_sharded);
    std::snprintf(thr1, sizeof(thr1), "%.2f", total_acc / wall_1q / 1000.0);
    std::snprintf(shard, sizeof(shard), "%.1f", wall_sharded / 1000.0);
    std::snprintf(thr2, sizeof(thr2), "%.2f",
                  total_acc / wall_sharded / 1000.0);
    table.AddRow({hs, sh, oneq, shard, speed, thr1, thr2});
    rows.push_back(row);
  }
  std::printf("%s\n", table.Render().c_str());

  return WriteJson(json_path, geo, rows, smoke);
}

}  // namespace
}  // namespace leap

int main(int argc, char** argv) {
  const auto args = leap::bench::ParseBenchArgs(argc, argv, "BENCH_scale.json",
                                                "[--smoke] [output.json]");
  if (!args) {
    return 2;
  }
  return leap::Run(args->smoke, args->json_path) ? 0 : 1;
}
