// The benchmark's three workloads. Each run builds its system from public
// constructors, populates it, runs the workload once and reads the result
// back through public counters, histograms and stats: nothing here reaches
// inside the simulator.
#ifndef LEAP_BENCHMARK_WORKLOADS_H_
#define LEAP_BENCHMARK_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace leapbench {

using Metrics = std::map<std::string, double>;

// One construction, warm-up and measured run of a workload.
struct RepResult {
  double setup_s = 0.0;     // construction plus warm-up population
  double run_wall_s = 0.0;  // the measured run only
  double run_cpu_s = 0.0;   // process CPU time (all threads) during the run
  double probe_ns = 0.0;    // mean AluProbe time during the run
  uint64_t attempted = 0;   // accesses the run asked for
  uint64_t accesses = 0;    // accesses it ran
  // Accesses never run (app stopped or hit a time cap) plus remote reads
  // lost with every replica down.
  uint64_t failed = 0;
  uint64_t engine_windows = 0;     // sharded-engine windows (0 single-host)
  uint64_t mailbox_overflows = 0;  // sharded-engine ring spills
  std::vector<std::string> violations;  // correctness-gate failures
  // Simulated end state: sim time, counters and every simulated metric.
  // Equal for equal seeds, traced or not.
  std::string fingerprint;
  Metrics sim;   // simulated metrics, exact for a seed
  Metrics host;  // host-time layer metrics, filled by traced runs only
};

struct WorkloadDef {
  const char* name;
  RepResult (*run)(uint64_t seed, bool traced);
};

std::span<const WorkloadDef> Workloads();

// nullptr for an unknown name.
const WorkloadDef* FindWorkload(std::string_view name);

}  // namespace leapbench

#endif  // LEAP_BENCHMARK_WORKLOADS_H_
