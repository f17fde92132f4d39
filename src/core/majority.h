// Boyer-Moore majority vote (MJRTY, Boyer & Moore 1991) over access-history
// windows.
//
// A delta is the major trend of a window of size w only if it occupies at
// least floor(w/2) + 1 slots. Boyer-Moore yields a candidate in one pass and
// O(1) space; a second counting pass confirms or rejects it, exactly as
// Algorithm 1 line 8 requires ("if Δmaj != major trend then Δmaj = ∅").
// Both passes read the whole window: 2 * w reads per call, with or without
// a majority.
//
// These are the building blocks of the reference FindTrend; the
// prefetcher's own path (TrendTracker) keeps window majorities from sliding
// counts and calls neither.
#ifndef LEAP_SRC_CORE_MAJORITY_H_
#define LEAP_SRC_CORE_MAJORITY_H_

#include <optional>
#include <span>

#include "src/core/access_history.h"
#include "src/sim/types.h"

namespace leap {

// Majority element of `window`, or nullopt when no element exceeds half.
std::optional<PageDelta> BoyerMooreMajority(std::span<const PageDelta> window);

// Majority over the `w` newest entries of `history` (head backwards). If
// fewer than `w` entries exist, the available ones are used and the majority
// threshold is computed over that smaller count.
std::optional<PageDelta> MajorityOfNewest(const AccessHistory& history,
                                          size_t w);

}  // namespace leap

#endif  // LEAP_SRC_CORE_MAJORITY_H_
