// Adapts the Leap core (ProcessPageTracker + per-process LeapPrefetcher)
// to the generic Prefetcher interface used by the simulated data paths.
#ifndef LEAP_SRC_PREFETCH_LEAP_ADAPTER_H_
#define LEAP_SRC_PREFETCH_LEAP_ADAPTER_H_

#include "src/core/leap.h"
#include "src/prefetch/prefetcher.h"

namespace leap {

class LeapAdapter : public PrefetchPolicy {
 public:
  explicit LeapAdapter(const LeapParams& params = LeapParams())
      : tracker_(params) {}

  // The decision is built in place in last_decision_; only its candidates
  // are copied out.
  CandidateVec OnFault(const FaultContext& ctx) override {
    tracker_.OnFault(ctx.pid, ctx.slot, &last_decision_);
    return last_decision_.pages;
  }

  // Leap tracks cache look-ups, not just misses (section 4.1).
  void OnCacheAccess(Pid pid, SwapSlot slot) override {
    tracker_.OnCacheAccess(pid, slot);
  }

  void OnPrefetchHit(Pid pid, SwapSlot slot, SimTimeNs) override {
    tracker_.OnPrefetchHit(pid, slot);
  }

  std::string_view name() const override { return "leap"; }

  // Introspection for tests: the decision of the latest OnFault.
  const PrefetchDecision& last_decision() const { return last_decision_; }

 private:
  ProcessPageTracker tracker_;
  PrefetchDecision last_decision_;
};

}  // namespace leap

#endif  // LEAP_SRC_PREFETCH_LEAP_ADAPTER_H_
