// Regression guards for the flat-container / pooled-event-queue hot path:
//
//  1. Determinism: the same MachineConfig (fixed seed) run twice produces
//     bit-identical counters and latency histograms, across both data
//     paths, every prefetcher, and both eviction policies. The flat
//     containers were chosen so iteration order is a pure function of the
//     operation sequence; this test is the tripwire for anything (hash
//     randomization, pointer-keyed ordering, uninitialized reads) that
//     would break reproducibility.
//
//  2. Zero allocation: steady-state Machine::Access performs no heap
//     allocation - local hits and cache hits always, and misses once the
//     scratch buffers and table capacities have warmed up, under both
//     eviction policies. Verified with the counting operator-new hook of
//     tests/alloc_hook.h.
//
//  3. Hot-path golden: three long VMM runs on the standard micro geometry
//     (two read-only Leap runs, one default-path run with writes) end at
//     pinned simulated times and counters, so a change to the fault or
//     write path's behaviour cannot pass as a pure speed-up.
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "src/runtime/app_runner.h"
#include "src/runtime/machine.h"
#include "src/runtime/presets.h"
#include "src/sim/zipf.h"
#include "src/workload/patterns.h"
#include "tests/alloc_hook.h"

namespace leap {
namespace {

constexpr size_t kFootprint = 4096;
constexpr size_t kFrames = 1 << 14;
constexpr size_t kAccesses = 50000;

struct RunFingerprint {
  SimTimeNs completion = 0;
  std::map<std::string, uint64_t> counters;
  uint64_t remote_count = 0;
  double remote_sum = 0.0;
  uint64_t remote_p50 = 0;
  uint64_t remote_p99 = 0;
  uint64_t miss_count = 0;
  double miss_sum = 0.0;
  uint64_t evict_wait_count = 0;
  double evict_wait_sum = 0.0;
  uint64_t timeliness_count = 0;
  double timeliness_sum = 0.0;
  uint64_t alloc_count = 0;
  double alloc_sum = 0.0;

  bool operator==(const RunFingerprint&) const = default;
};

// One full run: warm-up pass, then `kAccesses` of the given pattern.
RunFingerprint RunOnce(const MachineConfig& config, int pattern) {
  Machine machine(config);
  const Pid pid = machine.CreateProcess(kFootprint / 2);
  const SimTimeNs warm_end = WarmUp(machine, pid, kFootprint);
  RunConfig rc;
  rc.total_accesses = kAccesses;
  rc.start_time_ns = warm_end + 10 * kNsPerMs;
  RunResult rr;
  if (pattern == 0) {
    SequentialStream stream(kFootprint, 750);
    rr = RunApp(machine, pid, stream, rc);
  } else if (pattern == 1) {
    StrideStream stream(kFootprint, 10, 750);
    rr = RunApp(machine, pid, stream, rc);
  } else {
    RandomStream stream(kFootprint, 750);
    rr = RunApp(machine, pid, stream, rc);
  }

  RunFingerprint fp;
  fp.completion = rr.completion_ns;
  fp.counters = machine.counters().values();
  fp.remote_count = rr.remote_access_latency.count();
  fp.remote_sum = rr.remote_access_latency.Sum();
  fp.remote_p50 = rr.remote_access_latency.Percentile(0.5);
  fp.remote_p99 = rr.remote_access_latency.Percentile(0.99);
  fp.miss_count = rr.miss_latency.count();
  fp.miss_sum = rr.miss_latency.Sum();
  fp.evict_wait_count = machine.eviction_wait_hist().count();
  fp.evict_wait_sum = machine.eviction_wait_hist().Sum();
  fp.timeliness_count = machine.timeliness_hist().count();
  fp.timeliness_sum = machine.timeliness_hist().Sum();
  fp.alloc_count = machine.alloc_hist().count();
  fp.alloc_sum = machine.alloc_hist().Sum();
  return fp;
}

void ExpectSameTwice(const MachineConfig& config, int pattern,
                     const char* label) {
  const RunFingerprint first = RunOnce(config, pattern);
  const RunFingerprint second = RunOnce(config, pattern);
  EXPECT_EQ(first.counters, second.counters) << label;
  EXPECT_TRUE(first == second) << label << ": non-counter state diverged";
  // A run that did nothing would be vacuously deterministic.
  EXPECT_GT(first.counters.at("page_faults"), 0u) << label;
}

TEST(Determinism, LeapStackAllPatterns) {
  for (int pattern = 0; pattern < 3; ++pattern) {
    ExpectSameTwice(LeapVmmConfig(kFrames, 42), pattern, "leap-vmm");
  }
}

TEST(Determinism, DefaultPathEveryPrefetcher) {
  // Every registered kind, including the learned ones: trained state must
  // be a pure function of the observed event sequence (no RNG, no wall
  // clock, no iteration-order dependence).
  for (PrefetchKind kind : kAllPrefetchKinds) {
    ExpectSameTwice(DefaultVmmConfig(kind, kFrames, 42), /*pattern=*/1,
                    PrefetchKindName(kind).data());
  }
}

TEST(Determinism, LazyVsEagerEvictionEachDeterministic) {
  MachineConfig lazy = LeapVmmConfig(kFrames, 7);
  lazy.eviction = EvictionKind::kLazyLru;
  ExpectSameTwice(lazy, /*pattern=*/2, "leap-vmm lazy");
  MachineConfig eager = LeapVmmConfig(kFrames, 7);
  eager.eviction = EvictionKind::kEagerLeap;
  ExpectSameTwice(eager, /*pattern=*/2, "leap-vmm eager");
}

TEST(Determinism, VfsModeBothPaths) {
  ExpectSameTwice(LeapVfsConfig(kFrames, kFootprint, 42), /*pattern=*/0,
                  "leap-vfs");
  ExpectSameTwice(
      DefaultVfsConfig(PrefetchKind::kReadAhead, kFrames, kFootprint, 42),
      /*pattern=*/0, "default-vfs");
}

TEST(Determinism, DiskSwapPath) {
  ExpectSameTwice(
      DiskSwapConfig(Medium::kSsd, PrefetchKind::kReadAhead, kFrames, 42),
      /*pattern=*/0, "disk-ssd");
}

// --- zero-allocation steady state -------------------------------------------

// Warms `config` up to steady state on a sequential sweep, then checks that
// local hits, cache hits and misses allocate nothing.
void ExpectSteadyStateAccessDoesNotAllocate(const MachineConfig& config) {
  Machine machine(config);
  const Pid pid = machine.CreateProcess(kFootprint / 2);
  SimTimeNs now = WarmUp(machine, pid, kFootprint) + 10 * kNsPerMs;

  // Reach steady state: several full sweeps so every container (page
  // tables, swap maps, cache, event pool, block-layer scratch) has grown to
  // its working capacity.
  SequentialStream stream(kFootprint, 750);
  Rng rng(7);
  for (size_t i = 0; i < 4 * kFootprint; ++i) {
    const MemOp op = stream.Next(rng);
    now += op.think_ns;
    now += machine.Access(pid, op.vpn, op.write, now).latency;
  }

  size_t hit_allocs = 0;
  size_t hits = 0;
  size_t miss_allocs = 0;
  size_t misses = 0;
  size_t local_allocs = 0;
  size_t locals = 0;
  for (size_t i = 0; i < 2 * kFootprint; ++i) {
    const MemOp op = stream.Next(rng);
    now += op.think_ns;
    const size_t before = g_alloc_count;
    const AccessResult result = machine.Access(pid, op.vpn, op.write, now);
    const size_t delta = g_alloc_count - before;
    now += result.latency;
    switch (result.type) {
      case AccessType::kLocalHit:
        ++locals;
        local_allocs += delta;
        break;
      case AccessType::kCacheHit:
      case AccessType::kCacheWaitHit:
        ++hits;
        hit_allocs += delta;
        break;
      case AccessType::kMiss:
        ++misses;
        miss_allocs += delta;
        break;
      default:
        break;
    }
  }

  // The workload must actually exercise the paths under test.
  ASSERT_GT(hits, 0u);
  ASSERT_GT(misses, 0u);

  EXPECT_EQ(hit_allocs, 0u) << "cache-hit Access allocated";
  EXPECT_EQ(local_allocs, 0u) << "local-hit Access allocated";
  EXPECT_EQ(miss_allocs, 0u) << "steady-state miss Access allocated";
}

TEST(ZeroAlloc, SteadyStateAccessDoesNotAllocate) {
  ExpectSteadyStateAccessDoesNotAllocate(LeapVmmConfig(kFrames, 42));
}

// Lazy eviction: kswapd retires consumed entries (its pass 1) throughout
// the measured region; eager eviction leaves it none to retire.
TEST(ZeroAlloc, SteadyStateLazyEvictionAccessDoesNotAllocate) {
  const MachineConfig config =
      DefaultVmmConfig(PrefetchKind::kReadAhead, kFrames, 42);
  ASSERT_EQ(config.eviction, EvictionKind::kLazyLru);
  ExpectSteadyStateAccessDoesNotAllocate(config);
}

// --- hot-path golden ---------------------------------------------------------

struct HotpathGolden {
  SimTimeNs sim_end = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t prefetch_hits = 0;

  bool operator==(const HotpathGolden&) const = default;
};

std::ostream& operator<<(std::ostream& os, const HotpathGolden& g) {
  return os << "{" << g.sim_end << "u, " << g.hits << "u, " << g.misses
            << "u, " << g.prefetch_hits << "u}";
}

constexpr size_t kHotpathAccesses = 200'000 + 2'000'000;

struct HotpathOp {
  Vpn vpn = 0;
  bool write = false;
};

// A VMM stack on the micro geometry (64k frames, 16k-page footprint,
// cgroup at half of it): a sequential warm-up pass, then `ops` at 750 ns
// think, driven straight through Machine::Access.
HotpathGolden RunHotpath(Machine& machine, const std::vector<HotpathOp>& ops) {
  const Pid pid = machine.CreateProcess(bench::kMicroFootprintPages / 2);
  SimTimeNs now =
      WarmUp(machine, pid, bench::kMicroFootprintPages) + 10 * kNsPerMs;
  for (const HotpathOp& op : ops) {
    now += 750;
    now += machine.Access(pid, op.vpn, op.write, now).latency;
  }
  const Counters& c = machine.counters();
  return {now, c.Get(counter::kCacheHits), c.Get(counter::kCacheMisses),
          c.Get(counter::kPrefetchHits)};
}

// The Leap VMM stack, `vpns` as reads.
HotpathGolden RunHotpath(const std::vector<Vpn>& vpns) {
  std::vector<HotpathOp> ops;
  ops.reserve(vpns.size());
  for (Vpn vpn : vpns) {
    ops.push_back({vpn, /*write=*/false});
  }
  Machine machine(LeapVmmConfig(bench::kMicroFrames, 42));
  return RunHotpath(machine, ops);
}

TEST(HotpathGolden, Sequential) {
  std::vector<Vpn> vpns(kHotpathAccesses);
  for (size_t i = 0; i < vpns.size(); ++i) {
    vpns[i] = i % bench::kMicroFootprintPages;
  }
  const HotpathGolden g = RunHotpath(vpns);
  const HotpathGolden want{4078972059u, 1955478u, 244522u, 1955478u};
  EXPECT_EQ(g, want) << g;
}

TEST(HotpathGolden, Zipf099) {
  ZipfSampler zipf(bench::kMicroFootprintPages, 0.99);
  Rng rng(7);
  std::vector<Vpn> vpns(kHotpathAccesses);
  for (Vpn& vpn : vpns) {
    vpn = static_cast<Vpn>(zipf.Sample(rng));
  }
  const HotpathGolden g = RunHotpath(vpns);
  const HotpathGolden want{3363729757u, 2u, 219214u, 2u};
  EXPECT_EQ(g, want) << g;
}

// The write path: re-dirtying a swapped-in page releases its swap slot
// (OnPageDirtied), and the candidate filter skips slots whose page is
// mapped again. The fingerprint adds writebacks and the swap area's
// high-water mark and live slot count to the fault-path counters.
struct WriteHotpathGolden {
  HotpathGolden path;
  uint64_t writebacks = 0;
  SwapSlot high_water = 0;
  size_t allocated_slots = 0;

  bool operator==(const WriteHotpathGolden&) const = default;
};

std::ostream& operator<<(std::ostream& os, const WriteHotpathGolden& g) {
  return os << "{" << g.path << ", " << g.writebacks << "u, " << g.high_water
            << "u, " << g.allocated_slots << "u}";
}

// Default VMM (read-ahead, lazy eviction), zipf-0.99 with 30% writes.
TEST(HotpathGolden, DefaultZipfWrites) {
  ZipfSampler zipf(bench::kMicroFootprintPages, 0.99);
  Rng rng(11);
  std::vector<HotpathOp> ops(kHotpathAccesses);
  for (HotpathOp& op : ops) {
    op.vpn = static_cast<Vpn>(zipf.Sample(rng));
    op.write = rng.NextBool(0.3);
  }
  Machine machine(
      DefaultVmmConfig(PrefetchKind::kReadAhead, bench::kMicroFrames, 42));
  const HotpathGolden path = RunHotpath(machine, ops);
  const WriteHotpathGolden g{path, machine.counters().Get(counter::kWritebacks),
                             machine.swap().high_water(),
                             machine.swap().allocated_slots()};
  const WriteHotpathGolden want{
      {11349942723u, 14783u, 243520u, 14783u}, 130562u, 130562u, 12259u};
  EXPECT_EQ(g, want) << g;
}

}  // namespace
}  // namespace leap
