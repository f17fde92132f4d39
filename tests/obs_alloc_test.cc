// Allocation discipline for the observability layer:
//
//  1. TraceRecorder::Record never allocates - not on the fill path, not on
//     wraparound - because the ring is pre-sized at construction.
//  2. A disabled recorder's Record is free of both storage and allocation.
//  3. The instrumented hot path stays allocation-free END TO END with an
//     enabled recorder attached: steady-state Machine::Access through the
//     block layer's kBlockAdmit spans and the prefetch lifecycle instants
//     performs zero heap allocations, same as the un-instrumented machine
//     (pinned by determinism_test). Observability must not reintroduce
//     what PR 1 removed from the hot path.

#include <gtest/gtest.h>

#include "src/obs/trace_recorder.h"
#include "src/runtime/app_runner.h"
#include "src/runtime/machine.h"
#include "src/runtime/presets.h"
#include "src/workload/patterns.h"
#include "tests/alloc_hook.h"

namespace leap {
namespace {

constexpr size_t kFrames = 1024;
constexpr size_t kFootprint = 3 * kFrames;  // force steady-state misses

TraceEvent Ev(SimTimeNs ts) {
  TraceEvent e;
  e.ts = ts;
  e.kind = TraceEventKind::kFabricOp;
  return e;
}

TEST(TraceAllocTest, EnabledRecordNeverAllocates) {
  TraceRecorder rec({/*enabled=*/true, /*capacity=*/256});
  const size_t before = g_alloc_count;
  // 4x capacity: covers both the fill phase and wraparound overwrites.
  for (SimTimeNs ts = 1; ts <= 1024; ++ts) {
    rec.Record(Ev(ts));
  }
  EXPECT_EQ(g_alloc_count - before, 0u);
  EXPECT_EQ(rec.size(), 256u);
  EXPECT_EQ(rec.dropped(), 1024u - 256u);
}

TEST(TraceAllocTest, DisabledRecordNeverAllocatesAndStoresNothing) {
  TraceRecorder rec({/*enabled=*/false, /*capacity=*/256});
  const size_t before = g_alloc_count;
  for (SimTimeNs ts = 1; ts <= 1024; ++ts) {
    rec.Record(Ev(ts));
  }
  EXPECT_EQ(g_alloc_count - before, 0u);
  EXPECT_EQ(rec.size(), 0u);
}

// Steady-state faults through an instrumented machine with tracing ON.
TEST(TraceAllocTest, SteadyStateAccessWithTraceAttachedDoesNotAllocate) {
  TraceRecorder rec({/*enabled=*/true, /*capacity=*/size_t{1} << 14});
  MachineEnv env;
  env.trace = &rec;
  Machine machine(LeapVmmConfig(kFrames, 42), env);
  const Pid pid = machine.CreateProcess(kFootprint / 2);
  SimTimeNs now = WarmUp(machine, pid, kFootprint) + 10 * kNsPerMs;

  // Reach steady state: several sweeps so every simulator container has
  // grown to working capacity (same recipe as determinism_test).
  SequentialStream stream(kFootprint, 750);
  Rng rng(7);
  for (size_t i = 0; i < 4 * kFootprint; ++i) {
    const MemOp op = stream.Next(rng);
    now += op.think_ns;
    now += machine.Access(pid, op.vpn, op.write, now).latency;
  }

  size_t allocs = 0;
  size_t misses = 0;
  for (size_t i = 0; i < 2 * kFootprint; ++i) {
    const MemOp op = stream.Next(rng);
    now += op.think_ns;
    const size_t before = g_alloc_count;
    const AccessResult result = machine.Access(pid, op.vpn, op.write, now);
    allocs += g_alloc_count - before;
    now += result.latency;
    misses += result.type == AccessType::kMiss ? 1 : 0;
  }

  ASSERT_GT(misses, 0u);           // the slow path actually ran
  ASSERT_GT(rec.recorded(), 0u);   // ...and it really recorded events
  EXPECT_EQ(allocs, 0u) << "tracing reintroduced hot-path allocation";
}

}  // namespace
}  // namespace leap
