// The Leap prefetcher: DoPrefetch from Algorithm 2, combining trend
// detection (Algorithm 1) with the adaptive prefetch window.
//
// One instance tracks one process; process isolation lives in
// ProcessPageTracker (section 4.1).
#ifndef LEAP_SRC_CORE_LEAP_PREFETCHER_H_
#define LEAP_SRC_CORE_LEAP_PREFETCHER_H_

#include <optional>

#include "src/core/access_history.h"
#include "src/core/params.h"
#include "src/core/prefetch_window.h"
#include "src/core/trend_tracker.h"
#include "src/sim/types.h"

namespace leap {

// Outcome of one DoPrefetch invocation.
struct PrefetchDecision {
  // PWsize_t chosen for this fault; 0 means read only the demand page.
  size_t window_size = 0;
  // Pages to prefetch (demand page excluded). May be shorter than
  // window_size when candidates fall off the start of the address space or
  // collapse onto the demand page (delta 0). Fixed-capacity inline
  // storage: producing a decision never heap-allocates.
  CandidateVec pages;
  // Whether FindTrend produced a majority for this fault.
  bool trend_found = false;
  // Whether the candidates were generated speculatively from the previous
  // trend (Algorithm 2 line 25).
  bool speculative = false;
  // The delta used for candidate generation (0 when none was available).
  PageDelta delta_used = 0;
};

class LeapPrefetcher {
 public:
  explicit LeapPrefetcher(const LeapParams& params);

  // Page access tracker hook (log_access_history): called on EVERY remote
  // page access - cache hits and misses alike - so the delta history sees
  // the true access stream, not just the miss-to-miss skeleton.
  void RecordAccess(SwapSlot pt);

  // DoPrefetch: called on cache misses only (it replaces
  // swapin_readahead, which Linux invokes on swap-cache misses). Records
  // the access, then sizes the window and generates candidates. Between
  // two misses the window's Chit accumulates over all prefetched-page
  // hits, which is what lets PWsize grow to (and stay at) PWsize_max on a
  // well-predicted stream. The decision is written over `*out`, so a
  // caller that keeps one decision object builds no fresh one per miss.
  void OnMiss(SwapSlot pt, PrefetchDecision* out);
  PrefetchDecision OnMiss(SwapSlot pt) {
    PrefetchDecision decision;
    OnMiss(pt, &decision);
    return decision;
  }

  // Called when a page this prefetcher brought in gets its first hit.
  // `slot` identifies the page, so hit feedback stays per-page instead of
  // being aggregated away: the last hit slot (and its distance from the
  // faulting edge) is available to outcome-driven consumers.
  void OnPrefetchHit(SwapSlot slot) {
    window_.OnPrefetchHit();
    last_hit_slot_ = slot;
    ++prefetch_hits_;
  }

  const AccessHistory& history() const { return history_; }
  const PrefetchWindow& window() const { return window_; }
  std::optional<PageDelta> last_trend() const { return last_trend_; }
  // Most recent prefetched page that earned a hit (per-page feedback).
  std::optional<SwapSlot> last_hit_slot() const { return last_hit_slot_; }
  uint64_t prefetch_hits() const { return prefetch_hits_; }

 private:
  AccessHistory history_;
  // FindTrend's answer, updated on every push (Algorithm 1 in O(levels)
  // per fault; TrendDetector stays as the reference it is checked
  // against).
  TrendTracker trend_;
  PrefetchWindow window_;
  std::optional<SwapSlot> last_access_;
  // Delta produced by the most recent RecordAccess.
  std::optional<PageDelta> last_delta_;
  // Most recent non-empty majority delta, used for speculative prefetch
  // when the current window has no majority.
  std::optional<PageDelta> last_trend_;
  // Per-page hit feedback (threaded through from the machine's cache).
  std::optional<SwapSlot> last_hit_slot_;
  uint64_t prefetch_hits_ = 0;
};

}  // namespace leap

#endif  // LEAP_SRC_CORE_LEAP_PREFETCHER_H_
