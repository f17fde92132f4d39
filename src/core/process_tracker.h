// Process-isolated page access tracking (paper section 4.1).
//
// The kernel integration hooks do_swap_page() and logs each fault into the
// owning process's AccessHistory; here the machine calls OnFault(pid, slot)
// from its fault handler. Isolation is the point: interleaved fault streams
// from different processes would destroy each other's trends if they shared
// one history (section 2.3).
#ifndef LEAP_SRC_CORE_PROCESS_TRACKER_H_
#define LEAP_SRC_CORE_PROCESS_TRACKER_H_

#include <cstddef>
#include <memory>

#include "src/container/flat_map.h"
#include "src/core/leap_prefetcher.h"
#include "src/core/params.h"
#include "src/sim/types.h"

namespace leap {

class ProcessPageTracker {
 public:
  explicit ProcessPageTracker(const LeapParams& params) : params_(params) {}

  // Logs a cache *miss* for `pid` and writes Leap's prefetch decision over
  // `*out` (or returns it). Creates the per-process state on first use.
  void OnFault(Pid pid, SwapSlot slot, PrefetchDecision* out) {
    ForProcess(pid).OnMiss(slot, out);
  }
  PrefetchDecision OnFault(Pid pid, SwapSlot slot) {
    return ForProcess(pid).OnMiss(slot);
  }

  // Logs a remote access that was served from the cache (the tracker sees
  // every do_swap_page, not just misses).
  void OnCacheAccess(Pid pid, SwapSlot slot) {
    ForProcess(pid).RecordAccess(slot);
  }

  // Credits a prefetched-page hit (on `slot`) to the owning process's
  // window sizing and per-page hit state.
  void OnPrefetchHit(Pid pid, SwapSlot slot) {
    ForProcess(pid).OnPrefetchHit(slot);
  }

  LeapPrefetcher& ForProcess(Pid pid) {
    auto [slot, inserted] = trackers_.Emplace(pid);
    if (inserted) {
      *slot = std::make_unique<LeapPrefetcher>(params_);
    }
    return **slot;
  }

  // Drops per-process state (process exit).
  void RemoveProcess(Pid pid) { trackers_.Erase(pid); }

  size_t process_count() const { return trackers_.size(); }
  const LeapParams& params() const { return params_; }

 private:
  LeapParams params_;
  // unique_ptr values: LeapPrefetcher is not default-constructible, and
  // pointer stability across map growth keeps ForProcess references safe.
  FlatMap<Pid, std::unique_ptr<LeapPrefetcher>> trackers_;
};

}  // namespace leap

#endif  // LEAP_SRC_CORE_PROCESS_TRACKER_H_
