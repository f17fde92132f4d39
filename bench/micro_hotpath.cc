// Steady-state hot-path throughput: wall-clock simulated accesses/sec.
//
// Drives Machine::Access directly (no result histograms) on the two micro
// workloads — Sequential and Zipf(0.99) — over the standard micro geometry,
// on the full Leap stack. Emits BENCH_hotpath.json with the measured
// accesses/sec and a determinism fingerprint per workload; CI gates the
// fingerprint against the committed file. Single-run accesses/sec is noisy:
// compare builds with benchmark/run.py, which runs both in one session.
//
// Usage: micro_hotpath [output.json]   (default BENCH_hotpath.json)
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/sim/zipf.h"

namespace leap {
namespace {

constexpr size_t kWarmAccesses = 200'000;
constexpr size_t kMeasuredAccesses = 2'000'000;

struct HotpathResult {
  double accesses_per_sec = 0.0;
  // Determinism fingerprint: final simulated time plus hot counters.
  SimTimeNs end_sim_time = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t prefetch_hits = 0;
};

// Times `accesses` calls to Machine::Access after `warm` untimed ones.
// The access sequence is pre-generated so the timed region contains ONLY
// Machine::Access - workload generation (e.g. the Zipf sampler's pow())
// is not part of what this bench tracks.
HotpathResult Measure(Machine& machine, Pid pid, SimTimeNs start,
                      const std::vector<Vpn>& vpns, size_t warm) {
  SimTimeNs now = start;
  for (size_t i = 0; i < warm; ++i) {
    now += 750;
    now += machine.Access(pid, vpns[i], /*write=*/false, now).latency;
  }
  const size_t accesses = vpns.size() - warm;
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t i = warm; i < vpns.size(); ++i) {
    now += 750;
    now += machine.Access(pid, vpns[i], /*write=*/false, now).latency;
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();

  HotpathResult out;
  out.accesses_per_sec = static_cast<double>(accesses) / secs;
  out.end_sim_time = now;
  out.cache_hits = machine.counters().Get(counter::kCacheHits);
  out.cache_misses = machine.counters().Get(counter::kCacheMisses);
  out.prefetch_hits = machine.counters().Get(counter::kPrefetchHits);
  return out;
}

HotpathResult RunSequential() {
  Machine machine(LeapVmmConfig(bench::kMicroFrames, 42));
  const Pid pid = machine.CreateProcess(bench::kMicroFootprintPages / 2);
  const SimTimeNs warm_end = WarmUp(machine, pid, bench::kMicroFootprintPages);
  std::vector<Vpn> vpns(kWarmAccesses + kMeasuredAccesses);
  for (size_t i = 0; i < vpns.size(); ++i) {
    vpns[i] = i % bench::kMicroFootprintPages;
  }
  return Measure(machine, pid, warm_end + 10 * kNsPerMs, vpns, kWarmAccesses);
}

HotpathResult RunZipf() {
  Machine machine(LeapVmmConfig(bench::kMicroFrames, 42));
  const Pid pid = machine.CreateProcess(bench::kMicroFootprintPages / 2);
  const SimTimeNs warm_end = WarmUp(machine, pid, bench::kMicroFootprintPages);
  ZipfSampler zipf(bench::kMicroFootprintPages, 0.99);
  Rng rng(7);
  std::vector<Vpn> vpns(kWarmAccesses + kMeasuredAccesses);
  for (Vpn& v : vpns) {
    v = static_cast<Vpn>(zipf.Sample(rng));
  }
  return Measure(machine, pid, warm_end + 10 * kNsPerMs, vpns, kWarmAccesses);
}

void PrintResult(const char* name, const HotpathResult& r) {
  std::printf("%-12s %12.0f accesses/sec\n", name, r.accesses_per_sec);
  std::printf("  fingerprint: sim_end=%llu hits=%llu misses=%llu "
              "prefetch_hits=%llu\n",
              static_cast<unsigned long long>(r.end_sim_time),
              static_cast<unsigned long long>(r.cache_hits),
              static_cast<unsigned long long>(r.cache_misses),
              static_cast<unsigned long long>(r.prefetch_hits));
}

void WriteFingerprint(JsonWriter& json, const char* key,
                      const HotpathResult& r) {
  json.Key(key)
      .BeginObject(JsonWriter::kInline)
      .Field("sim_end", r.end_sim_time)
      .Field("hits", r.cache_hits)
      .Field("misses", r.cache_misses)
      .Field("prefetch_hits", r.prefetch_hits)
      .End();
}

bool WriteJson(const std::string& path, const HotpathResult& seq,
               const HotpathResult& zipf) {
  return bench::WriteOutputFile(path, [&](std::ostream& out) {
    JsonWriter json(out);
    json.BeginObject();
    bench::WriteSchemaPreamble(
        json, {"micro_hotpath", /*seed=*/42, /*hosts=*/1, /*nodes=*/2, ""});
    json.Key("workloads")
        .BeginArray(JsonWriter::kInline)
        .Value("sequential")
        .Value("zipf-0.99")
        .End();
    json.Field("measured_accesses", kMeasuredAccesses);
    json.Key("current")
        .BeginObject()
        .Field("sequential_accesses_per_sec", seq.accesses_per_sec, 0)
        .Field("zipf_accesses_per_sec", zipf.accesses_per_sec, 0)
        .End();
    json.Key("fingerprint").BeginObject();
    WriteFingerprint(json, "sequential", seq);
    WriteFingerprint(json, "zipf", zipf);
    json.End().End();
  });
}

bool Run(const std::string& json_path) {
  bench::PrintHeader(
      "Hot-path throughput - wall-clock simulated accesses/sec",
      "Leap's data-path work is O(1) per fault; the simulator's access path "
      "must be allocation-free to measure at scale");
  const HotpathResult seq = RunSequential();
  PrintResult("sequential", seq);
  const HotpathResult zipf = RunZipf();
  PrintResult("zipf-0.99", zipf);
  return WriteJson(json_path, seq, zipf);
}

}  // namespace
}  // namespace leap

int main(int argc, char** argv) {
  const auto args = leap::bench::ParseBenchArgs(
      argc, argv, "BENCH_hotpath.json", "[output.json]");
  if (!args) {
    return 2;
  }
  return leap::Run(args->json_path) ? 0 : 1;
}
