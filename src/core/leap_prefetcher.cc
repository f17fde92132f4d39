#include "src/core/leap_prefetcher.h"

#include <cassert>

#include "src/core/trend_detector.h"

namespace leap {
namespace {

// Generates up to `count` pages at stride `delta` from `pt` into `*pages`
// (a fixed-capacity scratch list owned by the decision), dropping
// candidates that underflow the address space or equal the demand page.
void GenerateCandidates(SwapSlot pt, PageDelta delta, size_t count,
                        CandidateVec* pages) {
  if (delta == 0) {
    return;
  }
  if (count > pages->capacity()) {
    count = pages->capacity();
  }
  int64_t addr = static_cast<int64_t>(pt);
  for (size_t i = 0; i < count; ++i) {
    addr += delta;
    if (addr < 0) {
      break;
    }
    pages->push_back(static_cast<SwapSlot>(addr));
  }
}

}  // namespace

LeapPrefetcher::LeapPrefetcher(const LeapParams& params)
    : history_(params.history_size),
      trend_(history_.capacity(), params.nsplit),
      window_(params.max_prefetch_window) {}

void LeapPrefetcher::RecordAccess(SwapSlot pt) {
  // Log the access as a delta against the previous remote access
  // (log_access_history in the kernel integration).
  if (last_access_.has_value()) {
    last_delta_ =
        static_cast<PageDelta>(pt) - static_cast<PageDelta>(*last_access_);
    trend_.Push(*last_delta_);
    history_.Push(*last_delta_);
  }
  last_access_ = pt;
}

void LeapPrefetcher::OnMiss(SwapSlot pt, PrefetchDecision* out) {
  RecordAccess(pt);

  // Detect the trend up front: "Pt follows the current trend" (Algorithm 2
  // line 6) is judged against the freshly detected majority, falling back
  // to the last known trend during majority gaps. Judging only against a
  // previously cached trend would deadlock a cold prefetcher: no window ->
  // no prefetch -> no hits -> no window.
  const auto trend = trend_.Trend();
  assert(trend == TrendDetector(trend_.nsplit()).FindTrend(history_));
  const bool follows_trend =
      last_delta_.has_value() &&
      ((trend.has_value() && *last_delta_ == *trend) ||
       (!trend.has_value() && last_trend_.has_value() &&
        *last_delta_ == *last_trend_));

  PrefetchDecision& decision = *out;
  decision = PrefetchDecision{};
  decision.trend_found = trend.has_value();
  if (trend.has_value()) {
    last_trend_ = trend;
  }
  decision.window_size = window_.ComputeSize(follows_trend);
  if (decision.window_size == 0) {
    return;  // prefetching suspended: read only Pt
  }

  if (trend.has_value()) {
    decision.delta_used = *trend;
    GenerateCandidates(pt, *trend, decision.window_size, &decision.pages);
  } else if (last_trend_.has_value()) {
    // No majority right now: speculate around Pt with the latest trend so a
    // short-term irregularity cannot fully stall prefetching.
    decision.speculative = true;
    decision.delta_used = *last_trend_;
    GenerateCandidates(pt, *last_trend_, decision.window_size,
                       &decision.pages);
  }
}

}  // namespace leap
