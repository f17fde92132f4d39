// Golden pin for background reclaim when kswapd's per-tick budget binds.
//
// With kswapd_scan_batch = 4 and a 2 ms prefetch TTL, each 1 ms tick finds
// more consumed carcasses (lazy eviction) and more expired prefetches than
// it may reclaim, so WHICH four entries it takes, and in what order,
// shapes every later access. kswapd takes the first ones in the page
// cache's table order - what its original walk over the whole table
// collected before it hit the budget - and these pins were recorded with
// that full-table walk. Picking another four (say, the oldest) changes
// the numbers below.
//
// Each config runs a fixed workload of sequential bursts at random
// offsets under a cgroup limit: read-ahead and the learned policies
// prefetch past the end of each burst (pollution the TTL expires), and
// the bursts leave consumed entries behind in lazy mode. Every access's
// type and latency feed one FNV-1a hash.
#include <cstdint>
#include <ostream>

#include <gtest/gtest.h>

#include "src/runtime/machine.h"
#include "src/runtime/presets.h"
#include "src/sim/rng.h"

namespace leap {
namespace {

constexpr size_t kFrames = 4096;
constexpr size_t kFootprint = 3072;
constexpr size_t kCgroupPages = 768;
constexpr size_t kAccesses = 60000;

struct Golden {
  uint64_t access_hash = 0;
  uint64_t end_ns = 0;
  uint64_t cache_misses = 0;
  uint64_t prefetch_hits = 0;
  uint64_t prefetch_unused = 0;
  uint64_t evictions = 0;
  uint64_t lru_scans = 0;
  uint64_t eviction_waits = 0;

  bool operator==(const Golden&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Golden& g) {
  return os << "{" << g.access_hash << "u, " << g.end_ns << "u, "
            << g.cache_misses << "u, " << g.prefetch_hits << "u, "
            << g.prefetch_unused << "u, " << g.evictions << "u, "
            << g.lru_scans << "u, " << g.eviction_waits << "u}";
}

MachineConfig WithTightKswapd(MachineConfig config) {
  config.kswapd_scan_batch = 4;
  config.prefetch_ttl_ns = 2 * kNsPerMs;
  return config;
}

Golden RunWorkload(const MachineConfig& config) {
  Machine machine(config);
  const Pid pid = machine.CreateProcess(kCgroupPages);
  Rng rng(2024);
  uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](uint64_t v) {
    hash = (hash ^ v) * 0x100000001b3ULL;
  };
  SimTimeNs now = 0;
  Vpn vpn = 0;
  size_t burst_left = 0;
  for (size_t i = 0; i < kAccesses; ++i) {
    if (burst_left == 0) {
      vpn = rng.NextU64(kFootprint);
      burst_left = 1 + rng.NextU64(24);
    }
    --burst_left;
    now += 200 + rng.NextU64(600);
    const bool write = rng.NextBool(0.1);
    const AccessResult r = machine.Access(pid, vpn, write, now);
    mix(static_cast<uint64_t>(r.type));
    mix(r.latency);
    now += r.latency;
    vpn = (vpn + 1) % kFootprint;
  }
  const Counters& c = machine.counters();
  Golden g;
  g.access_hash = hash;
  g.end_ns = now;
  g.cache_misses = c.Get(counter::kCacheMisses);
  g.prefetch_hits = c.Get(counter::kPrefetchHits);
  g.prefetch_unused = c.Get(counter::kPrefetchUnused);
  g.evictions = c.Get(counter::kEvictions);
  g.lru_scans = c.Get(counter::kLruScans);
  g.eviction_waits = machine.eviction_wait_hist().count();
  return g;
}

TEST(KswapdBudget, LazyReadAhead) {
  const Golden g = RunWorkload(WithTightKswapd(
      DefaultVmmConfig(PrefetchKind::kReadAhead, kFrames, 42)));
  const Golden want{12628551340154988197u, 1487792767u, 36875u, 19165u,
                    5708u, 65052u, 232u, 50372u};
  EXPECT_EQ(g, want) << g;
}

TEST(KswapdBudget, EagerLeap) {
  const Golden g = RunWorkload(WithTightKswapd(LeapVmmConfig(kFrames, 42)));
  const Golden want{16867542372267645678u, 248018002u, 29514u, 26562u,
                    2093u, 61241u, 0u, 0u};
  EXPECT_EQ(g, want) << g;
}

TEST(KswapdBudget, OnlineDeltaLazy) {
  MachineConfig config = WithTightKswapd(
      DefaultVmmConfig(PrefetchKind::kOnlineDelta, kFrames, 42));
  config.eviction = EvictionKind::kLazyLru;
  const Golden g = RunWorkload(config);
  const Golden want{33280864924600119u, 780294110u, 17347u, 38794u,
                    5766u, 65103u, 124u, 50470u};
  EXPECT_EQ(g, want) << g;
}

TEST(KswapdBudget, OnlineDeltaEager) {
  MachineConfig config = WithTightKswapd(
      DefaultVmmConfig(PrefetchKind::kOnlineDelta, kFrames, 42));
  config.eviction = EvictionKind::kEagerLeap;
  const Golden g = RunWorkload(config);
  const Golden want{18025728321730677613u, 780603609u, 17400u, 38735u,
                    5911u, 65118u, 0u, 0u};
  EXPECT_EQ(g, want) << g;
}

}  // namespace
}  // namespace leap
