// Property sweeps over the machine configuration matrix: for every
// (medium x path x prefetcher x eviction) combination the paging pipeline
// must preserve a set of structural invariants, regardless of workload.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "src/runtime/app_runner.h"
#include "src/runtime/machine.h"
#include "src/workload/app_models.h"
#include "src/workload/patterns.h"

namespace leap {
namespace {

using ConfigTuple = std::tuple<Medium, PathKind, PrefetchKind, EvictionKind>;

std::string TupleName(const ::testing::TestParamInfo<ConfigTuple>& info) {
  const auto [medium, path, prefetcher, eviction] = info.param;
  std::string name;
  name += medium == Medium::kHdd ? "Hdd" : medium == Medium::kSsd ? "Ssd"
                                                                  : "Remote";
  name += path == PathKind::kDefault ? "Default" : "Leap";
  switch (prefetcher) {
    case PrefetchKind::kNone: name += "None"; break;
    case PrefetchKind::kNextNLine: name += "NextN"; break;
    case PrefetchKind::kStride: name += "Stride"; break;
    case PrefetchKind::kReadAhead: name += "ReadAhead"; break;
    case PrefetchKind::kGhb: name += "Ghb"; break;
    case PrefetchKind::kLeap: name += "LeapPf"; break;
    case PrefetchKind::kOnlineDelta: name += "OnlineDelta"; break;
    case PrefetchKind::kProfileGuided: name += "ProfileGuided"; break;
  }
  name += eviction == EvictionKind::kLazyLru ? "Lazy" : "Eager";
  return name;
}

class MachineMatrixTest : public ::testing::TestWithParam<ConfigTuple> {
 protected:
  MachineConfig MakeConfig() const {
    const auto [medium, path, prefetcher, eviction] = GetParam();
    MachineConfig config;
    config.total_frames = 4096;
    config.medium = medium;
    config.path = path;
    config.prefetcher = prefetcher;
    config.eviction = eviction;
    config.seed = 1234;
    return config;
  }
};

TEST_P(MachineMatrixTest, AccountingInvariantsHoldUnderMixedWorkload) {
  const MachineConfig config = MakeConfig();
  Machine machine(config);
  const Pid pid = machine.CreateProcess(512);
  auto stream = MakePowerGraph(2048, 5);
  Rng rng(5);
  SimTimeNs now = 0;
  uint64_t minor_faults = 0;
  for (int i = 0; i < 20000; ++i) {
    const MemOp op = stream->Next(rng);
    now += op.think_ns;
    const AccessResult r = machine.Access(pid, op.vpn, op.write, now);
    now += r.latency;
    minor_faults += r.type == AccessType::kMinorFault;
    // Frame conservation: every frame is free, mapped by the process, or
    // holds a prefetched page not yet hit (consumed cache entries hold
    // none).
    ASSERT_EQ(machine.free_frames() + machine.resident_pages(pid) +
                  machine.unconsumed_prefetched(),
              config.total_frames)
        << "after access " << i;
    // The resident set respects the cgroup.
    ASSERT_LE(machine.resident_pages(pid), 512u) << "after access " << i;
  }
  const Counters& c = machine.counters();
  // Structural identities of the paging pipeline:
  // every page fault is a minor fault, a cache hit, or a cache miss.
  EXPECT_EQ(c.Get(counter::kPageFaults),
            minor_faults + c.Get(counter::kCacheHits) +
                c.Get(counter::kCacheMisses));
  // Demand reads match cache misses.
  EXPECT_EQ(c.Get(counter::kDemandReads), c.Get(counter::kCacheMisses));
  // Prefetch hits never exceed prefetch issues.
  EXPECT_LE(c.Get(counter::kPrefetchHits), c.Get(counter::kPrefetchIssued));
  // Cache adds = demand reads + prefetch issues... prefetch frame-alloc
  // failures can only lower the entry count, never raise it.
  EXPECT_LE(c.Get(counter::kPrefetchIssued) + c.Get(counter::kDemandReads),
            c.Get(counter::kCacheAdds) + 64);
  // Frames never leak beyond capacity.
  EXPECT_LE(machine.cache_size() + machine.resident_pages(pid),
            machine.config().total_frames + 64);
}

// Walks every page of each process's footprint through the slot in its
// PTE and checks the swap area against the page tables: no two pages
// share a slot, a slot reads "owner resident" exactly when its page is
// mapped, and the per-tenant and total slot counts match the walk.
::testing::AssertionResult SlotsMatchPageTables(const Machine& machine,
                                                const std::vector<Pid>& pids,
                                                size_t footprint) {
  const SwapManager& swap = machine.swap();
  std::map<SwapSlot, std::pair<Pid, Vpn>> owners;
  size_t total = 0;
  for (Pid pid : pids) {
    size_t held = 0;
    for (Vpn vpn = 0; vpn < footprint; ++vpn) {
      const std::optional<SwapSlot> slot = machine.SlotOf(pid, vpn);
      if (!slot.has_value()) {
        continue;
      }
      ++held;
      const auto [it, fresh] = owners.emplace(*slot, std::pair{pid, vpn});
      if (!fresh) {
        return ::testing::AssertionFailure()
               << "slot " << *slot << " held by pid " << it->second.first
               << " vpn " << it->second.second << " and pid " << pid
               << " vpn " << vpn;
      }
      const SwapManager::SlotState state = swap.StateOf(*slot);
      const bool resident = machine.IsResident(pid, vpn);
      if (state == SwapManager::SlotState::kFree ||
          (state == SwapManager::SlotState::kOwnerResident) != resident) {
        return ::testing::AssertionFailure()
               << "slot " << *slot << " of pid " << pid << " vpn " << vpn
               << " has state " << static_cast<int>(state)
               << ", page resident: " << resident;
      }
    }
    if (held != swap.SlotsOf(pid)) {
      return ::testing::AssertionFailure()
             << "pid " << pid << " holds " << held << " slots, SlotsOf says "
             << swap.SlotsOf(pid);
    }
    total += held;
  }
  if (total != swap.allocated_slots()) {
    return ::testing::AssertionFailure()
           << total << " slots in page tables, allocated_slots() says "
           << swap.allocated_slots();
  }
  return ::testing::AssertionSuccess();
}

// Two tenants with writes under both cgroup and global pressure: pages are
// swapped out, faulted back, re-dirtied (releasing their slots) and
// reclaimed from the fattest process, and the slots in the PTEs stay
// consistent with the swap area throughout.
TEST_P(MachineMatrixTest, SwapSlotsMatchPageTables) {
  MachineConfig config = MakeConfig();
  config.total_frames = 768;  // below the two cgroups' sum: direct reclaim
  Machine machine(config);
  constexpr size_t kPages = 2048;
  const std::vector<Pid> pids = {machine.CreateProcess(512),
                                 machine.CreateProcess(384)};
  auto graph = MakePowerGraph(kPages, 3);
  auto cache = MakeMemcached(kPages, 4);
  Rng rng(6);
  SimTimeNs now = 0;
  for (int i = 1; i <= 20000; ++i) {
    const bool first = i % 2 == 0;
    const MemOp op = (first ? graph : cache)->Next(rng);
    now += op.think_ns;
    now += machine.Access(pids[first ? 0 : 1], op.vpn, op.write, now).latency;
    if (i % 2500 == 0) {
      ASSERT_TRUE(SlotsMatchPageTables(machine, pids, kPages))
          << "after access " << i;
    }
  }
  EXPECT_GT(machine.swap().allocated_slots(), 0u);
  EXPECT_GT(machine.swap().high_water(), machine.swap().allocated_slots())
      << "the workload must re-dirty swapped-in pages";
}

TEST_P(MachineMatrixTest, DeterministicReplay) {
  auto run_once = [&] {
    Machine machine(MakeConfig());
    const Pid pid = machine.CreateProcess(512);
    auto stream = MakeVoltDb(2048, 9);
    Rng rng(9);
    SimTimeNs now = 0;
    for (int i = 0; i < 8000; ++i) {
      const MemOp op = stream->Next(rng);
      now += op.think_ns;
      now += machine.Access(pid, op.vpn, op.write, now).latency;
    }
    return std::make_pair(now, machine.counters().Get(counter::kCacheHits));
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST_P(MachineMatrixTest, EagerModeNeverAccumulatesStaleEntries) {
  const auto [medium, path, prefetcher, eviction] = GetParam();
  if (eviction != EvictionKind::kEagerLeap) {
    GTEST_SKIP() << "lazy mode accumulates by design";
  }
  Machine machine(MakeConfig());
  const Pid pid = machine.CreateProcess(256);
  SequentialStream stream(1024, 500);
  Rng rng(2);
  SimTimeNs now = 0;
  for (int i = 0; i < 10000; ++i) {
    const MemOp op = stream.Next(rng);
    now += op.think_ns;
    now += machine.Access(pid, op.vpn, op.write, now).latency;
    ASSERT_EQ(machine.stale_entries(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigMatrix, MachineMatrixTest,
    ::testing::Combine(
        ::testing::Values(Medium::kHdd, Medium::kSsd, Medium::kRemote),
        ::testing::Values(PathKind::kDefault, PathKind::kLeap),
        ::testing::ValuesIn(kAllPrefetchKinds),
        ::testing::Values(EvictionKind::kLazyLru, EvictionKind::kEagerLeap)),
    TupleName);

// --- Leap parameter sweeps ---------------------------------------------------

class LeapParamSweepTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(LeapParamSweepTest, PrefetcherSafeAcrossParameterSpace) {
  const auto [hsize, nsplit, pw_max] = GetParam();
  LeapParams params;
  params.history_size = hsize;
  params.nsplit = nsplit;
  params.max_prefetch_window = pw_max;
  LeapPrefetcher prefetcher(params);
  Rng rng(hsize * 131 + nsplit * 17 + pw_max);
  // Mixed stream: random jumps, runs, strides.
  SwapSlot cursor = 1 << 20;
  for (int i = 0; i < 3000; ++i) {
    switch (rng.NextU64(3)) {
      case 0: cursor += 1; break;
      case 1: cursor += 7; break;
      default: cursor = rng.NextU64(1 << 22); break;
    }
    const PrefetchDecision d = prefetcher.OnMiss(cursor);
    ASSERT_LE(d.window_size, std::max<size_t>(1, pw_max));
    ASSERT_LE(d.pages.size(), d.window_size);
    for (SwapSlot page : d.pages) {
      ASSERT_NE(page, cursor);
    }
    for (size_t h = 0; h < d.pages.size() && h < 2; ++h) {
      prefetcher.OnPrefetchHit(d.pages[h]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParamSpace, LeapParamSweepTest,
    ::testing::Combine(::testing::Values(1, 2, 8, 32, 256),
                       ::testing::Values(1, 2, 4, 64),
                       ::testing::Values(1, 8, 64)));

}  // namespace
}  // namespace leap
