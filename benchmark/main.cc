// The repo benchmark binary.
//
//   leap_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--commit <id>] [--source-digest <hex>]
//
// Runs the correctness gate twice on a held-out seed, then repeats the
// workload on --seed until --seconds have passed (at least kMinReps
// times). With --trace 1 every repetition is paired with a traced one.
// Prints provenance, the per-repetition host times and the gate's verdict,
// then as the last stdout line one JSON object {"correct", "attempted",
// "failed", "values"} holding every metric the run computed, by name.
// Exits 1 when the correctness gate fails and 2 on bad arguments.
// README.md documents the workloads and every metric.
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "probes.h"
#include "workloads.h"

namespace leapbench {
namespace {

// Never used for measurement: later claims are re-checked on it.
constexpr uint64_t kHeldOutSeed = 0x1EA9'0FF5;
constexpr size_t kMinReps = 3;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = 0;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

bool ParseUnsigned(std::string_view text, uint64_t* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end && !text.empty();
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string_view value = argv[i + 1];
    uint64_t number = 0;
    if (key == "--workload") {
      opt->workload = value;
      have_workload = true;
    } else if (key == "--seed" && ParseUnsigned(value, &number)) {
      opt->seed = number;
      have_seed = true;
    } else if (key == "--seconds" && ParseUnsigned(value, &number) &&
               number >= 1 && number <= 600) {
      opt->seconds = static_cast<int>(number);
      have_seconds = true;
    } else if (key == "--trace" && ParseUnsigned(value, &number) &&
               number <= 1) {
      opt->trace = static_cast<int>(number);
    } else if (key == "--commit") {
      opt->commit = value;
    } else if (key == "--source-digest") {
      opt->source_digest = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double Min(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

template <typename F>
std::vector<double> Collect(const std::vector<RepResult>& reps, F field) {
  std::vector<double> values;
  values.reserve(reps.size());
  for (const RepResult& rep : reps) {
    values.push_back(field(rep));
  }
  return values;
}

double RawHostNsPerAccess(const RepResult& rep) {
  return rep.accesses == 0 ? 0.0
                           : rep.run_wall_s * 1e9 /
                                 static_cast<double>(rep.accesses);
}

// A host time `t` measured in `rep`, as it would read on the reference
// core: scaled by kReferenceProbeNs over the mean AluProbe time measured
// through the repetition's run.
double AtReferenceSpeed(const RepResult& rep, double t) {
  return rep.probe_ns <= 0.0 ? t : t * kReferenceProbeNs / rep.probe_ns;
}

double HostNsPerAccess(const RepResult& rep) {
  return AtReferenceSpeed(rep, RawHostNsPerAccess(rep));
}

// Shortest text that reads back as the same double.
std::string Number(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

// Correctness-gate tally over every run the process makes.
struct Gate {
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Take(const RepResult& rep, const std::string& label) {
    attempted += rep.attempted;
    failed += rep.failed;
    for (const std::string& violation : rep.violations) {
      failures.push_back(label + ": " + violation);
    }
  }
  void ExpectSameSimulation(const RepResult& reference, const RepResult& rep,
                            const std::string& label) {
    if (rep.fingerprint != reference.fingerprint) {
      failures.push_back(label + ": simulated fingerprint differs");
      std::fprintf(stderr, "%s fingerprint mismatch\n  want %s\n  got  %s\n",
                   label.c_str(), reference.fingerprint.c_str(),
                   rep.fingerprint.c_str());
    }
  }
};

int Main(int argc, char** argv) {
  Options opt;
  const WorkloadDef* workload = nullptr;
  if (ParseArgs(argc, argv, &opt)) {
    workload = FindWorkload(opt.workload);
  }
  if (workload == nullptr) {
    std::fprintf(stderr,
                 "usage: leap_benchmark --workload <name> --seed <n> "
                 "--seconds <1..600> [--trace 0|1] [--commit <id>] "
                 "[--source-digest <hex>]\nworkloads:");
    for (const WorkloadDef& def : Workloads()) {
      std::fprintf(stderr, " %s", def.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const bool traced = opt.trace == 1;

  std::printf(
      "{\"provenance\": {\"workload\": %s, \"seed\": %llu, "
      "\"held_out_seed\": %llu, \"seconds\": %d, \"trace\": %d, "
      "\"nproc\": %ld, \"compiler\": %s, \"build_type\": %s, "
      "\"commit\": %s, \"source_digest\": %s}}\n",
      JsonString(workload->name).c_str(),
      static_cast<unsigned long long>(opt.seed),
      static_cast<unsigned long long>(kHeldOutSeed), opt.seconds, opt.trace,
      sysconf(_SC_NPROCESSORS_ONLN), JsonString(LEAP_BENCH_COMPILER).c_str(),
      JsonString(LEAP_BENCH_BUILD_TYPE).c_str(),
      JsonString(opt.commit).c_str(), JsonString(opt.source_digest).c_str());
  std::fflush(stdout);

  Gate gate;
  // The held-out seed's two runs also warm the process before measuring.
  const RepResult held_out = workload->run(kHeldOutSeed, false);
  gate.Take(held_out, "held-out seed");
  const RepResult held_out_again = workload->run(kHeldOutSeed, false);
  gate.Take(held_out_again, "held-out seed rerun");
  gate.ExpectSameSimulation(held_out, held_out_again, "held-out seed rerun");

  std::vector<RepResult> plain;
  std::vector<RepResult> with_trace;
  double peak_rss_mib = 0.0;
  const uint64_t measure_start = NowNs();
  while (plain.size() < kMinReps ||
         SecondsSince(measure_start) < static_cast<double>(opt.seconds)) {
    // Alternate which side of a traced pair runs first.
    const bool traced_first = traced && plain.size() % 2 == 1;
    if (traced_first) {
      with_trace.push_back(workload->run(opt.seed, true));
    }
    plain.push_back(workload->run(opt.seed, false));
    if (plain.size() == 1) {
      // Sampled once, so the figure does not depend on how many
      // repetitions fit in --seconds (allocator reuse drifts with them).
      peak_rss_mib = PeakRssMib();
    }
    if (traced && !traced_first) {
      with_trace.push_back(workload->run(opt.seed, true));
    }
  }
  for (size_t i = 0; i < plain.size(); ++i) {
    const std::string label = "rep " + std::to_string(i);
    gate.Take(plain[i], label);
    gate.ExpectSameSimulation(plain.front(), plain[i], label);
  }
  for (size_t i = 0; i < with_trace.size(); ++i) {
    const std::string label = "traced rep " + std::to_string(i);
    gate.Take(with_trace[i], label);
    gate.ExpectSameSimulation(plain.front(), with_trace[i], label);
  }

  const RepResult& first = plain.front();
  Metrics metrics = first.sim;
  // Host times are medians over repetitions of times scaled to the
  // reference core (see AtReferenceSpeed); the raw times are printed too.
  metrics["host_ns_per_access"] = Median(Collect(plain, HostNsPerAccess));
  const std::vector<double> raw_ns = Collect(plain, RawHostNsPerAccess);
  metrics["host_ns_per_access_raw_median"] = Median(raw_ns);
  metrics["host_ns_per_access_raw_min"] = Min(raw_ns);
  metrics["probe_ns_median"] =
      Median(Collect(plain, [](const RepResult& r) { return r.probe_ns; }));
  metrics["setup_s"] = Median(Collect(plain, [](const RepResult& r) {
    return AtReferenceSpeed(r, r.setup_s);
  }));
  metrics["setup_s_raw_median"] =
      Median(Collect(plain, [](const RepResult& r) { return r.setup_s; }));
  metrics["peak_rss_mib"] = peak_rss_mib;
  metrics["runtime.engine_run_wall_s"] =
      Median(Collect(plain, [](const RepResult& r) {
        return AtReferenceSpeed(r, r.run_wall_s);
      }));
  metrics["runtime.engine_cpu_per_wall"] =
      Median(Collect(plain, [](const RepResult& r) {
        return r.run_wall_s == 0.0 ? 0.0 : r.run_cpu_s / r.run_wall_s;
      }));
  metrics["runtime.engine_windows"] = static_cast<double>(first.engine_windows);
  metrics["runtime.engine_host_ns_per_window"] =
      Median(Collect(plain, [](const RepResult& r) {
        return r.engine_windows == 0
                   ? 0.0
                   : AtReferenceSpeed(r, r.run_wall_s) * 1e9 /
                         static_cast<double>(r.engine_windows);
      }));
  metrics["runtime.engine_mailbox_overflows"] =
      Median(Collect(plain, [](const RepResult& r) {
        return static_cast<double>(r.mailbox_overflows);
      }));
  if (traced) {
    for (const auto& [name, value] : with_trace.front().host) {
      metrics[name] = Median(Collect(with_trace, [&name](const RepResult& r) {
        // Counts per call are not times and are not scaled.
        return name == "prefetch.candidates_per_fault"
                   ? r.host.at(name)
                   : AtReferenceSpeed(r, r.host.at(name));
      }));
    }
    metrics["tracing_overhead_ns"] =
        Median(Collect(with_trace, HostNsPerAccess)) -
        metrics["host_ns_per_access"];
  }

  std::printf("reps %zu traced_reps %zu measured_s %.3f\n", plain.size(),
              with_trace.size(), SecondsSince(measure_start));
  std::printf("host_ns_per_access per rep (raw ns / probe ns):");
  for (const RepResult& rep : plain) {
    std::printf(" %.1f/%.0f", RawHostNsPerAccess(rep), rep.probe_ns);
  }
  std::printf("\n");
  const bool correct = gate.failures.empty();
  for (const std::string& failure : gate.failures) {
    std::printf("GATE FAILED %s\n", failure.c_str());
  }
  std::printf("gate %s: seed %llu and held-out seed %llu, %zu runs\n",
              correct ? "passed" : "FAILED",
              static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(kHeldOutSeed),
              plain.size() + with_trace.size() + 2);

  // Every value this run computed; run.py picks BENCHMARK.json's metrics
  // out of it and attaches their units. A non-finite value is left out, so
  // it reads as missing.
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(gate.attempted);
  json += ", \"failed\": " +
          std::to_string(correct ? gate.failed : gate.attempted);
  json += ", \"values\": {";
  const char* separator = "";
  for (const auto& [name, value] : metrics) {
    if (std::isfinite(value)) {
      json += separator + JsonString(name) + ": " + Number(value);
      separator = ", ";
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace leapbench

int main(int argc, char** argv) { return leapbench::Main(argc, argv); }
