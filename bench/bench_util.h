// Shared setup for the figure/table reproduction benches.
//
// Every binary prints (a) the paper's reported numbers for the experiment
// and (b) the numbers this simulation regenerates, in the same units, so
// EXPERIMENTS.md can be audited against raw bench output.
#ifndef LEAP_BENCH_BENCH_UTIL_H_
#define LEAP_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/runtime/app_runner.h"
#include "src/runtime/machine.h"
#include "src/runtime/presets.h"
#include "src/runtime/sharded_cluster.h"
#include "src/stats/json_writer.h"
#include "src/workload/app_models.h"
#include "src/workload/cluster_mix.h"
#include "src/workload/patterns.h"

namespace leap {
namespace bench {

// Standard microbenchmark geometry (scaled-down from the paper's 2 GB
// working set / 1 GB memory): 16k-page (64 MB) footprint at 50% memory.
inline constexpr size_t kMicroFootprintPages = 16 * 1024;
inline constexpr size_t kMicroFrames = 1 << 16;

struct MicroResult {
  RunResult run;
  std::unique_ptr<Machine> machine;
};

enum class MicroPattern { kSequential, kStride10 };

// Populates the working set sequentially (paper setup), then measures
// `accesses` of the given pattern at 50% memory.
inline MicroResult RunMicro(const MachineConfig& config, MicroPattern pattern,
                            size_t accesses, size_t footprint_pages =
                                                  kMicroFootprintPages) {
  MicroResult out;
  out.machine = std::make_unique<Machine>(config);
  const Pid pid = out.machine->CreateProcess(footprint_pages / 2);
  const SimTimeNs warm_end = WarmUp(*out.machine, pid, footprint_pages);
  RunConfig run;
  run.total_accesses = accesses;
  run.start_time_ns = warm_end + 10 * kNsPerMs;
  if (pattern == MicroPattern::kSequential) {
    SequentialStream stream(footprint_pages, 750);
    out.run = RunApp(*out.machine, pid, stream, run);
  } else {
    StrideStream stream(footprint_pages, 10, 750);
    out.run = RunApp(*out.machine, pid, stream, run);
  }
  return out;
}

// Runs one of the four application models at `memory_pct` of its footprint
// with a sequential warm-up pass, returning the result and the machine for
// counter inspection.
struct AppResult {
  RunResult run;
  std::unique_ptr<Machine> machine;
};

inline AppResult RunAppModel(const MachineConfig& config, size_t app_index,
                             size_t memory_pct, size_t accesses,
                             SimTimeNs time_cap_ns = 0,
                             uint64_t workload_seed = 1234) {
  AppResult out;
  out.machine = std::make_unique<Machine>(config);
  const AppSpec& spec = kApps[app_index];
  const size_t limit = spec.footprint_pages * memory_pct / 100;
  const Pid pid = out.machine->CreateProcess(limit);
  auto stream = spec.make(spec.footprint_pages, workload_seed);
  const SimTimeNs warm_end = WarmUp(*out.machine, pid, spec.footprint_pages);
  RunConfig run;
  run.total_accesses = accesses;
  run.start_time_ns = warm_end + 10 * kNsPerMs;
  run.time_cap_ns = time_cap_ns;
  out.run = RunApp(*out.machine, pid, *stream, run);
  return out;
}

// --- BENCH_*.json schema -------------------------------------------------
// Version of the JSON layout shared by every bench emitter. Bumped when a
// key is renamed/removed (additions are compatible); consumers that parse
// BENCH_*.json key off this instead of sniffing for fields.
//   v1: pre-PR-7 (implicit, no version key)
//   v2: schema_version + run_config preamble, --trace / --timeseries
inline constexpr int kBenchSchemaVersion = 2;

// Run-config echo: enough to reproduce the run that produced a JSON (the
// numbers are seed-deterministic, so this IS the provenance).
struct BenchRunInfo {
  const char* bench = "";      // binary name
  uint64_t seed = 0;           // cluster/machine master seed
  size_t hosts = 0;
  size_t nodes = 0;
  const char* scheduler = "";  // link scheduler kind; "" = n/a
  const char* placer = "";     // slab-placer kind; "" = n/a (single host)
};

// Standard preamble, emitted right after the opening "mode" key.
inline void WriteSchemaPreamble(JsonWriter& json, const BenchRunInfo& info) {
  json.Field("schema_version", kBenchSchemaVersion)
      .Field("bench", info.bench)
      .Key("run_config")
      .BeginObject(JsonWriter::kInline)
      .Field("seed", info.seed)
      .Field("hosts", info.hosts)
      .Field("nodes", info.nodes)
      .Field("scheduler", info.scheduler)
      .Field("placer", info.placer)
      .End();
}

// Writes one output file through `body(std::ostream&)` and reports the
// outcome: "wrote <path>" on stdout, or "cannot write <path>" on stderr and
// false when the file could not be opened or written.
template <typename Body>
bool WriteOutputFile(const std::string& path, Body&& body) {
  std::ofstream out(path);
  if (out) {
    body(out);
  }
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

// --- cluster-mix run ------------------------------------------------------
// The fig13 workload mix (zipf / sequential / trace, by host index) on every
// host of a cluster: one process per host at half its footprint, warmed up
// host after host, then all hosts run `accesses_per_host` accesses from a
// common start 10 ms after the last warm-up.
struct ClusterMixApps {
  std::vector<std::unique_ptr<AccessStream>> streams;
  std::vector<ClusterAppSpec> specs;  // ready for ShardedCluster::Run
  SimTimeNs warm_end = 0;
  SimTimeNs run_start = 0;
};

inline ClusterMixApps WarmClusterMix(ShardedCluster& cluster,
                                     size_t footprint_pages,
                                     size_t accesses_per_host) {
  ClusterMixApps apps;
  std::vector<Pid> pids;
  for (size_t h = 0; h < cluster.num_hosts(); ++h) {
    const Pid pid = cluster.host(h).CreateProcess(footprint_pages / 2);
    pids.push_back(pid);
    apps.warm_end =
        WarmUp(cluster.host(h), pid, footprint_pages, apps.warm_end);
    apps.streams.push_back(MakeClusterMixStream(h, footprint_pages));
  }
  apps.run_start = apps.warm_end + 10 * kNsPerMs;
  for (size_t h = 0; h < cluster.num_hosts(); ++h) {
    RunConfig run;
    run.total_accesses = accesses_per_host;
    run.start_time_ns = apps.run_start;
    run.seed = 100 + h;
    apps.specs.push_back({h, pids[h], apps.streams[h].get(), run});
  }
  return apps;
}

struct ClusterMixResult {
  uint64_t p50_remote_ns = 0;  // over every host's remote-access histogram
  uint64_t p99_remote_ns = 0;
  SimTimeNs max_completion_ns = 0;
  double agg_accesses_per_sim_sec = 0.0;
  double run_wall_ms = 0.0;  // wall time of ShardedCluster::Run alone
  ClusterStats stats;        // at the end of the run
};

inline ClusterMixResult RunClusterMix(ShardedCluster& cluster,
                                      size_t footprint_pages,
                                      size_t accesses_per_host) {
  ClusterMixApps apps =
      WarmClusterMix(cluster, footprint_pages, accesses_per_host);
  const auto wall_start = std::chrono::steady_clock::now();
  const auto results = cluster.Run(std::move(apps.specs));
  const auto wall_end = std::chrono::steady_clock::now();

  ClusterMixResult out;
  out.run_wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start).count();
  Histogram merged;
  uint64_t total_accesses = 0;
  for (size_t h = 0; h < results.size(); ++h) {
    merged.Merge(cluster.host_remote_latency(h));
    total_accesses += results[h].accesses;
    out.max_completion_ns =
        std::max(out.max_completion_ns, results[h].completion_ns);
  }
  out.p50_remote_ns = merged.Percentile(0.5);
  out.p99_remote_ns = merged.Percentile(0.99);
  out.agg_accesses_per_sim_sec =
      out.max_completion_ns == 0
          ? 0.0
          : static_cast<double>(total_accesses) / ToSec(out.max_completion_ns);
  out.stats = cluster.Stats();
  return out;
}

// The resilience counters fig13 and fig16 report, written into the
// currently open JSON object.
inline void WriteResilienceCounters(JsonWriter& json, const Counters& totals) {
  json.Field("read_retries", totals.Get(counter::kReadRetries))
      .Field("deadline_misses", totals.Get(counter::kReadDeadlineMisses))
      .Field("hedged_reads", totals.Get(counter::kHedgedReads))
      .Field("hedge_wins", totals.Get(counter::kHedgeWins))
      .Field("reads_rerouted", totals.Get(counter::kReadsRerouted))
      .Field("gray_transitions", totals.Get(counter::kGrayTransitions));
}

// The names of the MakeClusterMixStream workloads, as "workload_mix".
inline void WriteClusterMixNames(JsonWriter& json) {
  json.Key("workload_mix")
      .BeginArray(JsonWriter::kInline)
      .Value("zipf-0.99")
      .Value("sequential")
      .Value("trace(stride-8)")
      .End();
}

// The "geometry" object of the cluster benches whose geometry is hosts x
// nodes with a per-host footprint, access count and slab size.
template <typename Geometry>
void WriteClusterGeometry(JsonWriter& json, const Geometry& geo) {
  json.Key("geometry")
      .BeginObject(JsonWriter::kInline)
      .Field("hosts", geo.hosts)
      .Field("nodes", geo.nodes)
      .Field("footprint_pages", geo.footprint_pages)
      .Field("accesses_per_host", geo.accesses_per_host)
      .Field("slab_pages", geo.slab_pages)
      .End();
}

// Writes the headline run's flight-recorder export and time series to
// whichever of the two paths is non-empty. An output file that cannot be
// written ends the bench with exit status 1.
inline void WriteObservability(const ShardedCluster& cluster,
                               const std::string& trace_path,
                               const std::string& timeseries_path) {
  if (!trace_path.empty() && cluster.trace() != nullptr) {
    if (!WriteOutputFile(trace_path, [&](std::ostream& out) {
          cluster.trace()->ExportChromeTrace(out);
        })) {
      std::exit(1);
    }
    std::printf("  %zu events buffered, %llu dropped\n",
                cluster.trace()->size(),
                static_cast<unsigned long long>(cluster.trace()->dropped()));
  }
  if (!timeseries_path.empty() &&
      !WriteOutputFile(timeseries_path, [&](std::ostream& out) {
        WriteJsonl(cluster.samples(), out);
      })) {
    std::exit(1);
  }
}

// --- command line --------------------------------------------------------
// Shared flag vocabulary for the benches:
//   --smoke               tiny CI configuration
//   --trace[=path]        flight-record the headline variant and export
//                         chrome://tracing JSON (default <out>.trace.json)
//   --timeseries[=path]   periodic stats sampling on the headline variant,
//                         written as JSONL (default <out>.timeseries.jsonl)
//   <positional>          output JSON path
struct BenchArgs {
  bool smoke = false;
  bool trace = false;
  bool timeseries = false;
  std::string json_path;
  std::string trace_path;
  std::string timeseries_path;
};

// Any other argument starting with '-' is an error: the parser prints
// "usage: <argv[0]> <usage>" to stderr and returns nullopt (the bench then
// exits 2), so a mistyped flag can neither run the wrong configuration nor
// become the output path.
inline std::optional<BenchArgs> ParseBenchArgs(int argc, char** argv,
                                               const char* default_json,
                                               const char* usage) {
  BenchArgs args;
  args.json_path = default_json;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--trace") {
      args.trace = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      args.trace = true;
      args.trace_path = arg.substr(8);
    } else if (arg == "--timeseries") {
      args.timeseries = true;
    } else if (arg.rfind("--timeseries=", 0) == 0) {
      args.timeseries = true;
      args.timeseries_path = arg.substr(13);
    } else if (arg.size() > 1 && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\nusage: %s %s\n", arg.c_str(),
                   argv[0], usage);
      return std::nullopt;
    } else {
      args.json_path = arg;
    }
  }
  std::string stem = args.json_path;
  if (stem.size() > 5 && stem.rfind(".json") == stem.size() - 5) {
    stem.resize(stem.size() - 5);
  }
  if (args.trace && args.trace_path.empty()) {
    args.trace_path = stem + ".trace.json";
  }
  if (args.timeseries && args.timeseries_path.empty()) {
    args.timeseries_path = stem + ".timeseries.jsonl";
  }
  return args;
}

inline void PrintHeader(const std::string& experiment,
                        const std::string& paper_summary) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper: %s\n", paper_summary.c_str());
  std::printf("==============================================================\n");
}

inline std::string FormatCompletion(const RunResult& r) {
  if (!r.finished) {
    return "DNF";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", ToSec(r.completion_ns));
  return buf;
}

}  // namespace bench
}  // namespace leap

#endif  // LEAP_BENCH_BENCH_UTIL_H_
