// Periodic time-series samples of a cluster run: per-tenant prefetch
// budgets, per-class queue-delay EWMAs, health-monitor node states,
// frame-pool and tier occupancy, and a windowed demand-latency percentile,
// dumped as JSONL at end of run.
//
// The cluster engine (src/runtime/sharded_cluster.h) fills one StatsSample
// per sampler period at its window barrier, where every shard is quiesced.
// Gating contract: nothing is collected unless enabled, collection never
// mutates simulation state, and it draws no randomness - so enabling it
// changes no simulation result, and two same-seed runs produce
// byte-identical sample series (pinned by obs_trace_test).
#ifndef LEAP_SRC_OBS_STATS_SAMPLER_H_
#define LEAP_SRC_OBS_STATS_SAMPLER_H_

#include <cstdint>
#include <ostream>
#include <vector>

#include "src/sim/types.h"

namespace leap {

struct StatsSamplerConfig {
  bool enabled = false;
  // Sampling cadence. 200 us resolves a ~1 ms gray-detection window into
  // ~5 points without swamping a smoke run's output.
  SimTimeNs period_ns = 200 * kNsPerUs;
};

// One sample row. Plain data; the engine fills it, WriteJsonl prints
// it. Vectors are indexed by host / node id respectively.
struct StatsSample {
  SimTimeNs ts = 0;

  // Demand-read latency over the window since the previous sample.
  uint64_t window_demand_ops = 0;
  uint64_t window_demand_p50_ns = 0;
  uint64_t window_demand_p99_ns = 0;

  // Fabric per-class queue-delay EWMAs (cumulative signals).
  double demand_queue_delay_ewma_ns = 0.0;
  double prefetch_queue_delay_ewma_ns = 0.0;

  // Health monitor, indexed by node: state 0=healthy 1=suspect 2=gray.
  std::vector<uint8_t> node_state;
  std::vector<double> node_ewma_ns;

  // Frame pool / page cache occupancy, indexed by host.
  std::vector<size_t> host_free_frames;
  std::vector<size_t> host_cache_pages;

  // Tiered-memory occupancy (pages per tier, summed over hosts) and
  // cumulative migration volume. Empty/zero - and omitted from the JSONL -
  // unless the run has tiering enabled, so untiered time series are
  // byte-identical to pre-tiering builds.
  std::vector<size_t> tier_pages;
  uint64_t tier_promotions = 0;
  uint64_t tier_demotions = 0;

  // Per-tenant AIMD prefetch budgets.
  struct TenantBudget {
    uint32_t host = 0;
    Pid pid = 0;
    double budget = 0.0;
  };
  std::vector<TenantBudget> tenant_budgets;
};

// One JSON object per sample per line (JSONL), oldest first.
void WriteJsonl(const std::vector<StatsSample>& samples, std::ostream& out);

}  // namespace leap

#endif  // LEAP_SRC_OBS_STATS_SAMPLER_H_
