#include "src/runtime/app_runner.h"

#include "src/sim/flat_heap.h"

namespace leap {

BoundAppSet::BoundAppSet(std::vector<BoundAppSpec> specs) {
  apps_.reserve(specs.size());
  ready_.reserve(specs.size());
  for (const BoundAppSpec& spec : specs) {
    AppState state;
    state.spec = spec;
    state.rng = Rng(spec.config.seed);
    state.local_time = spec.config.start_time_ns;
    state.result.app_name = spec.stream->name();
    HeapPush(ready_, Ready{state.local_time, apps_.size()}, Earlier{});
    apps_.push_back(std::move(state));
  }
}

void BoundAppSet::Finish(AppState& app, bool finished) {
  const SimTimeNs elapsed = app.local_time - app.spec.config.start_time_ns;
  app.done = true;
  app.result.finished = finished;
  app.result.completion_ns = elapsed;
  app.result.accesses = app.accesses;
  app.result.app_ops = app.ops;
  app.result.ops_per_sec =
      elapsed == 0 ? 0.0 : static_cast<double>(app.ops) / ToSec(elapsed);
}

void BoundAppSet::Step(AppState& app, size_t index, const RunHooks& hooks) {
  Machine& machine = *app.spec.machine;
  const MemOp op = app.spec.stream->Next(app.rng);
  app.local_time += op.think_ns;
  const AccessResult access =
      machine.Access(app.spec.pid, op.vpn, op.write, app.local_time);
  app.local_time += access.latency;
  ++app.accesses;
  if (op.op_end) {
    ++app.ops;
  }

  app.result.access_latency.Record(access.latency);
  if (access.type != AccessType::kLocalHit &&
      access.type != AccessType::kMinorFault) {
    app.result.remote_access_latency.Record(access.latency);
    if (access.type == AccessType::kMiss) {
      app.result.miss_latency.Record(access.latency);
    }
    if (hooks.on_remote_access) {
      hooks.on_remote_access(index, access, app.local_time);
    }
  }

  const SimTimeNs elapsed = app.local_time - app.spec.config.start_time_ns;
  const bool capped = app.spec.config.time_cap_ns != 0 &&
                      elapsed > app.spec.config.time_cap_ns;
  if (app.accesses >= app.spec.config.total_accesses || capped) {
    Finish(app, /*finished=*/!capped);
  }
}

void BoundAppSet::StepUntil(SimTimeNs until, const RunHooks& hooks) {
  // Global-time-ordered interleaving: always advance the app whose next
  // access happens earliest. Shared state (NIC queues, devices, frame
  // pools, a cluster's fabric and event queue) then observes a single
  // near-non-decreasing timeline - the contention model and the
  // determinism guarantee at once.
  while (!ready_.empty() && ready_[0].local_time < until) {
    const size_t index = ready_[0].index;
    AppState& app = apps_[index];
    if (hooks.keep_running && !hooks.keep_running(index)) {
      Finish(app, /*finished=*/false);
    } else {
      Step(app, index, hooks);
    }
    if (app.done) {
      HeapPopTop(ready_, Earlier{});
    } else {
      // Local time only moves forward, so the entry can only sink.
      ready_[0].local_time = app.local_time;
      HeapSiftDown(ready_, 0, Earlier{});
    }
  }
}

std::vector<RunResult> BoundAppSet::TakeResults() {
  std::vector<RunResult> results;
  results.reserve(apps_.size());
  for (AppState& app : apps_) {
    results.push_back(std::move(app.result));
  }
  return results;
}

RunResult RunApp(Machine& machine, Pid pid, AccessStream& stream,
                 const RunConfig& config) {
  std::vector<BoundAppSpec> specs = {{&machine, pid, &stream, config}};
  return RunBoundApps(std::move(specs))[0];
}

SimTimeNs WarmUp(Machine& machine, Pid pid, size_t pages, SimTimeNs start) {
  SimTimeNs now = start;
  for (Vpn v = 0; v < pages; ++v) {
    now += 150;  // allocation/copy think time
    now += machine.Access(pid, v, /*write=*/true, now).latency;
  }
  return now;
}

std::vector<RunResult> RunAppsConcurrently(Machine& machine,
                                           std::vector<MultiAppSpec> specs) {
  std::vector<BoundAppSpec> bound;
  bound.reserve(specs.size());
  for (const MultiAppSpec& spec : specs) {
    bound.push_back({&machine, spec.pid, spec.stream, spec.config});
  }
  return RunBoundApps(std::move(bound));
}

std::vector<RunResult> RunBoundApps(std::vector<BoundAppSpec> specs,
                                    const RunHooks& hooks) {
  BoundAppSet apps(std::move(specs));
  apps.StepUntil(BoundAppSet::kNoStep, hooks);
  return apps.TakeResults();
}

}  // namespace leap
