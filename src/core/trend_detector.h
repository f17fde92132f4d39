// Algorithm 1 (FindTrend): majority-based trend detection with doubling
// windows.
//
// Starts from a window of Hsize / Nsplit newest deltas and doubles it until
// a majority delta emerges or the window exceeds the history. Small windows
// adapt fast when the trend is regular; the doubling fallback rides out
// short-term irregularities (at most floor(w/2) - 1 of them in a window of
// size w).
//
// This is the reference implementation: it rescans the history on every
// call. The prefetcher keeps the same answer incrementally in TrendTracker
// (trend_tracker.h) and, in builds with asserts, checks it against this on
// every miss.
#ifndef LEAP_SRC_CORE_TREND_DETECTOR_H_
#define LEAP_SRC_CORE_TREND_DETECTOR_H_

#include <cstddef>
#include <optional>

#include "src/core/access_history.h"
#include "src/sim/types.h"

namespace leap {

class TrendDetector {
 public:
  explicit TrendDetector(size_t nsplit) : nsplit_(nsplit == 0 ? 1 : nsplit) {}

  // Returns the majority delta of the smallest doubling window that has
  // one, or nullopt when even the full history lacks a majority.
  //
  // Worst case (no window has a majority) runs both Boyer-Moore passes
  // over windows w, 2w, 4w, ..., Hsize: fewer than 4 * Hsize ring reads,
  // O(Hsize) because the window sizes form a geometric series. With the
  // paper's Hsize = 32, Nsplit = 2 that is 2 * (16 + 32) = 96 reads.
  std::optional<PageDelta> FindTrend(const AccessHistory& history) const;

  size_t nsplit() const { return nsplit_; }

 private:
  size_t nsplit_;
};

}  // namespace leap

#endif  // LEAP_SRC_CORE_TREND_DETECTOR_H_
