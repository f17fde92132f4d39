// End-to-end runs on small configurations: completion, throughput, and
// multi-app interleaving.
#include "src/runtime/app_runner.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/runtime/presets.h"
#include "src/workload/app_models.h"
#include "src/workload/patterns.h"

namespace leap {
namespace {

TEST(AppRunner, CompletesRequestedAccesses) {
  Machine machine(LeapVmmConfig(2048, 1));
  const Pid pid = machine.CreateProcess(512);
  SequentialStream stream(4096, 200);
  RunConfig config;
  config.total_accesses = 20000;
  const RunResult result = RunApp(machine, pid, stream, config);
  EXPECT_TRUE(result.finished);
  EXPECT_EQ(result.accesses, 20000u);
  EXPECT_GT(result.completion_ns, 0u);
  EXPECT_EQ(result.access_latency.count(), 20000u);
}

TEST(AppRunner, TimeCapMarksUnfinished) {
  Machine machine(DiskSwapConfig(Medium::kHdd, PrefetchKind::kReadAhead,
                                 1024, 2));
  const Pid pid = machine.CreateProcess(256);
  RandomStream stream(8192, 100);
  RunConfig config;
  config.total_accesses = 10'000'000;  // far more than the cap allows
  config.time_cap_ns = 50 * kNsPerMs;
  const RunResult result = RunApp(machine, pid, stream, config);
  EXPECT_FALSE(result.finished);
  EXPECT_LT(result.accesses, config.total_accesses);
}

TEST(AppRunner, OpsPerSecondComputed) {
  Machine machine(LeapVmmConfig(2048, 3));
  const Pid pid = machine.CreateProcess(0);
  SequentialStream stream(1024, 1000);
  RunConfig config;
  config.total_accesses = 5000;
  const RunResult result = RunApp(machine, pid, stream, config);
  EXPECT_GT(result.ops_per_sec, 0.0);
  EXPECT_EQ(result.app_ops, 5000u);
}

TEST(AppRunner, RemoteLatencyOnlyCountsNonResidentAccesses) {
  Machine machine(LeapVmmConfig(8192, 4));
  const Pid pid = machine.CreateProcess(0);  // everything fits
  SequentialStream stream(1024, 100);
  RunConfig config;
  config.total_accesses = 5000;
  const RunResult result = RunApp(machine, pid, stream, config);
  // No memory pressure: no remote accesses at all.
  EXPECT_EQ(result.remote_access_latency.count(), 0u);
}

TEST(AppRunner, ConcurrentAppsInterleaveOnSharedMachine) {
  Machine machine(LeapVmmConfig(4096, 5));
  const Pid a = machine.CreateProcess(256);
  const Pid b = machine.CreateProcess(256);
  auto wl_a = MakePowerGraph(2048, 10);
  auto wl_b = MakeMemcached(2048, 11);
  RunConfig config;
  config.total_accesses = 30000;
  std::vector<MultiAppSpec> specs = {{a, wl_a.get(), config},
                                     {b, wl_b.get(), config}};
  const auto results = RunAppsConcurrently(machine, std::move(specs));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].finished);
  EXPECT_TRUE(results[1].finished);
  EXPECT_EQ(results[0].accesses, 30000u);
  EXPECT_EQ(results[1].accesses, 30000u);
}

TEST(AppRunner, DeterministicAcrossRuns) {
  auto run_once = [] {
    Machine machine(LeapVmmConfig(2048, 7));
    const Pid pid = machine.CreateProcess(512);
    auto stream = MakeVoltDb(4096, 13);
    RunConfig config;
    config.total_accesses = 20000;
    config.seed = 21;
    return RunApp(machine, pid, *stream, config).completion_ns;
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- scheduler order ---------------------------------------------------------

// Touches a handful of pages with think times drawn from {0, 100, 200} ns,
// so many apps share a local time at once.
class TieStream : public AccessStream {
 public:
  MemOp Next(Rng& rng) override {
    MemOp op;
    op.vpn = rng.NextU64(kPages);
    op.write = rng.NextBool(0.25);
    op.think_ns = 100 * rng.NextU64(3);
    op.op_end = true;
    return op;
  }
  size_t footprint_pages() const override { return kPages; }
  std::string name() const override { return "tie"; }

 private:
  static constexpr uint64_t kPages = 24;
};

using StepLog = std::vector<std::pair<size_t, SimTimeNs>>;

constexpr size_t kSchedApps = 50;

// Stops apps 3, 10, 17, ... once they have been offered their 15th step.
bool KeepRunning(size_t index, std::vector<int>& offered) {
  return !(index % 7 == 3 && ++offered[index] > 15);
}

// A machine shared by every app (so latencies depend on the step order),
// plus one config per app: starts on five distinct times, varied lengths.
struct SchedFixture {
  Machine machine{LeapVmmConfig(1024, 77)};
  TieStream stream;
  std::vector<Pid> pids;
  std::vector<RunConfig> configs;

  SchedFixture() {
    for (size_t i = 0; i < kSchedApps; ++i) {
      pids.push_back(machine.CreateProcess(16));
      RunConfig config;
      config.total_accesses = 20 + (i * 7) % 40;
      config.start_time_ns = 1000 * (i % 5);
      config.seed = 500 + i;
      configs.push_back(config);
    }
  }

  std::vector<BoundAppSpec> Specs() {
    std::vector<BoundAppSpec> specs;
    for (size_t i = 0; i < kSchedApps; ++i) {
      specs.push_back({&machine, pids[i], &stream, configs[i]});
    }
    return specs;
  }
};

// The linear-scan interleaving loop the heap replaced: earliest local time
// first, lowest index on ties.
StepLog ReferenceOrder(std::vector<RunResult>& results) {
  SchedFixture fx;
  struct App {
    Rng rng{0};
    SimTimeNs local_time = 0;
    uint64_t accesses = 0;
    bool done = false;
  };
  std::vector<App> apps(kSchedApps);
  for (size_t i = 0; i < kSchedApps; ++i) {
    apps[i].rng = Rng(fx.configs[i].seed);
    apps[i].local_time = fx.configs[i].start_time_ns;
  }
  std::vector<int> offered(kSchedApps, 0);
  StepLog log;
  results.assign(kSchedApps, RunResult{});
  for (;;) {
    App* next = nullptr;
    size_t index = 0;
    for (size_t i = 0; i < kSchedApps; ++i) {
      if (!apps[i].done &&
          (next == nullptr || apps[i].local_time < next->local_time)) {
        next = &apps[i];
        index = i;
      }
    }
    if (next == nullptr) {
      break;
    }
    log.emplace_back(index, next->local_time);
    bool finished = false;
    if (!KeepRunning(index, offered)) {
      next->done = true;
    } else {
      const MemOp op = fx.stream.Next(next->rng);
      next->local_time += op.think_ns;
      next->local_time +=
          fx.machine.Access(fx.pids[index], op.vpn, op.write, next->local_time)
              .latency;
      ++next->accesses;
      finished = next->accesses >= fx.configs[index].total_accesses;
      next->done = finished;
    }
    if (next->done) {
      results[index].finished = finished;
      results[index].accesses = next->accesses;
      results[index].completion_ns =
          next->local_time - fx.configs[index].start_time_ns;
    }
  }
  return log;
}

// Runs the heap scheduler, in one StepUntil(kNoStep) or in windows of
// `window_ns`, and logs (index, local time) for every step it offers.
StepLog HeapOrder(SimTimeNs window_ns, std::vector<RunResult>& results) {
  SchedFixture fx;
  BoundAppSet apps(fx.Specs());
  std::vector<int> offered(kSchedApps, 0);
  StepLog log;
  RunHooks hooks;
  hooks.keep_running = [&](size_t index) {
    // The app being offered a step is the earliest live one.
    log.emplace_back(index, apps.NextStepTime());
    return KeepRunning(index, offered);
  };
  if (window_ns == 0) {
    apps.StepUntil(BoundAppSet::kNoStep, hooks);
  } else {
    for (SimTimeNs until = 0; !apps.AllDone(); until += window_ns) {
      apps.StepUntil(until, hooks);
    }
  }
  EXPECT_TRUE(apps.AllDone());
  EXPECT_EQ(apps.NextStepTime(), BoundAppSet::kNoStep);
  results = apps.TakeResults();
  return log;
}

TEST(BoundAppSet, HeapOrderMatchesLinearScan) {
  std::vector<RunResult> want;
  const StepLog reference = ReferenceOrder(want);
  size_t ties = 0;
  for (size_t i = 1; i < reference.size(); ++i) {
    ties += reference[i].second == reference[i - 1].second ? 1 : 0;
  }
  ASSERT_GT(ties, 100u) << "stub streams should produce many equal times";

  std::vector<RunResult> got;
  EXPECT_EQ(HeapOrder(0, got), reference);
  ASSERT_EQ(got.size(), want.size());
  size_t stopped = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].finished, want[i].finished) << "app " << i;
    EXPECT_EQ(got[i].accesses, want[i].accesses) << "app " << i;
    EXPECT_EQ(got[i].completion_ns, want[i].completion_ns) << "app " << i;
    stopped += got[i].finished ? 0 : 1;
  }
  EXPECT_EQ(stopped, 7u);  // apps 3, 10, ..., 45 were stopped mid-run
}

TEST(BoundAppSet, SmallWindowsMatchOneCall) {
  std::vector<RunResult> one_call;
  const StepLog whole = HeapOrder(0, one_call);
  for (const SimTimeNs window : {SimTimeNs{1}, SimTimeNs{37}, SimTimeNs{250}}) {
    std::vector<RunResult> windowed;
    EXPECT_EQ(HeapOrder(window, windowed), whole) << "window " << window;
    ASSERT_EQ(windowed.size(), one_call.size());
    for (size_t i = 0; i < windowed.size(); ++i) {
      EXPECT_EQ(windowed[i].accesses, one_call[i].accesses);
      EXPECT_EQ(windowed[i].completion_ns, one_call[i].completion_ns);
      EXPECT_EQ(windowed[i].remote_access_latency.count(),
                one_call[i].remote_access_latency.count());
    }
  }
}

}  // namespace
}  // namespace leap
