// Per-process fixed-size circular queue of page-access deltas.
//
// Mirrors the paper's AccessHistory (section 4.1): instead of absolute page
// addresses, only the difference between two consecutive remote page
// accesses is stored, which both shrinks the footprint and makes trend
// detection a majority query over deltas.
//
// The prefetcher pushes every delta here and into its TrendTracker, which
// keeps the trend up to date without reading the ring. FromHead is read by
// the reference FindTrend (up to 4 * Hsize reads per call), which runs
// in assert builds as the tracker's oracle and in tests and benches. Both
// are inline and division-free: the ring index wraps with a
// compare-and-subtract instead of a modulo.
#ifndef LEAP_SRC_CORE_ACCESS_HISTORY_H_
#define LEAP_SRC_CORE_ACCESS_HISTORY_H_

#include <cstddef>
#include <vector>

#include "src/sim/types.h"

namespace leap {

class AccessHistory {
 public:
  explicit AccessHistory(size_t capacity)
      : ring_(capacity == 0 ? 1 : capacity, 0) {}

  // Appends the newest delta, overwriting the oldest once full.
  void Push(PageDelta delta) {
    const size_t next = head_ + 1;
    head_ = next == ring_.size() ? 0 : next;
    ring_[head_] = delta;
    if (size_ < ring_.size()) {
      ++size_;
    }
  }

  // Number of valid entries, at most capacity().
  size_t size() const { return size_; }
  size_t capacity() const { return ring_.size(); }
  bool empty() const { return size_ == 0; }

  // Entry `i` steps back from the head: FromHead(0) is the newest delta.
  // Precondition: i < size().
  PageDelta FromHead(size_t i) const {
    const size_t h = head_;
    return ring_[h >= i ? h - i : h + ring_.size() - i];
  }

  void Clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  std::vector<PageDelta> ring_;
  size_t head_ = 0;  // index of the most recent entry
  size_t size_ = 0;
};

}  // namespace leap

#endif  // LEAP_SRC_CORE_ACCESS_HISTORY_H_
