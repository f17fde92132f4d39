// Incremental Algorithm 1: the FindTrend answer kept up to date on every
// history push, so a fault reads it in O(levels) instead of rescanning the
// history.
//
// FindTrend (trend_detector.h) looks at the newest w0 = max(1, Hsize /
// Nsplit) deltas, then 2*w0, 4*w0, ... up to the whole history, and returns
// the majority of the first window that has one. The tracker keeps one
// level per such window (the last one clamped to Hsize) with sliding
// counts of the deltas inside it. A push adds the new delta to every level
// and removes, from each full level, the delta that slides out of it.
// Only two deltas can be a window's majority after a push: the pushed one
// and the old majority (every other count stayed or fell while the
// threshold stayed or rose), so each level keeps its majority with one
// count compare.
//
// Each distinct delta in the history has one node holding its count in
// every level; nodes are found by delta through a chained hash table. The
// tracker's own ring holds the node of each of the last Hsize pushes, so
// the delta leaving a window is reached without hashing. Windows nest, so
// a delta's count in the widest window is its largest, and its node is
// released when that count reaches 0. Everything is sized from Hsize (at
// most Hsize live nodes; 2 * Hsize buckets, rounded up to a power of two,
// for a load of at most one half) and allocated once, in the constructor.
//
// Cost per push: one ring read per full level; nothing else when each
// leaving delta equals the pushed one (a steady stride), otherwise one
// hash lookup for the pushed delta, plus one for a delta that leaves the
// history for good.
#ifndef LEAP_SRC_CORE_TREND_TRACKER_H_
#define LEAP_SRC_CORE_TREND_TRACKER_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/sim/types.h"

namespace leap {

class TrendTracker {
 public:
  // `hsize` is the history capacity (0 acts as 1); nsplit 0 acts as 1, as
  // in TrendDetector.
  TrendTracker(size_t hsize, size_t nsplit);

  // Appends the newest delta, dropping the oldest once Hsize are held:
  // feed it the same deltas as the AccessHistory it mirrors.
  void Push(PageDelta delta);

  // Equals TrendDetector(nsplit()).FindTrend(history) for a history that
  // received the same pushes.
  std::optional<PageDelta> Trend() const {
    for (const Level& level : levels_) {
      if (level.has_majority) {
        return keys_[level.majority];
      }
    }
    return std::nullopt;
  }

  size_t nsplit() const { return nsplit_; }
  size_t levels() const { return levels_.size(); }
  // Window size of `level`: w0 << level, clamped to Hsize.
  size_t window(size_t level) const { return levels_[level].window; }
  size_t buckets() const { return next_at_ - heads_at_; }
  // Bucket of `delta` in the hash table (tests pick colliding keys with
  // it).
  size_t HomeBucket(PageDelta delta) const {
    return static_cast<size_t>(static_cast<uint64_t>(delta) *
                               0x9E3779B97F4A7C15ULL >> shift_);
  }

 private:
  struct Level {
    size_t window = 0;
    uint32_t majority = 0;        // node of the majority delta
    uint32_t majority_count = 0;  // its count in this window
    bool has_majority = false;
  };

  static constexpr uint32_t kNil = ~uint32_t{0};

  // The node of `delta`, taken from the free list if it has none.
  uint32_t Acquire(PageDelta delta);
  // Unlinks `node` (all its counts are 0) and frees it.
  void Release(uint32_t node);

  size_t nsplit_;
  std::vector<Level> levels_;  // narrowest first; the widest is Hsize
  size_t head_ = 0;  // ring slot of the newest push
  size_t size_ = 0;  // pushes held, at most Hsize
  unsigned shift_ = 0;
  // Ring slot `i`: the node of the push held there.
  uint32_t& Slot(size_t i) { return words_[i]; }
  // First node of hash bucket `b`.
  uint32_t& Head(size_t b) { return words_[heads_at_ + b]; }
  // Next node in `node`'s bucket, or on the free list.
  uint32_t& Next(uint32_t node) { return words_[next_at_ + node]; }
  // `node`'s count in each level, narrowest first.
  uint32_t* Counts(uint32_t node) {
    return &words_[counts_at_ + node * levels_.size()];
  }

  // keys_ holds each node's delta. words_ is one block holding the ring,
  // then the bucket heads, the node links and the per-level counts.
  std::vector<PageDelta> keys_;
  std::vector<uint32_t> words_;
  size_t heads_at_ = 0;
  size_t next_at_ = 0;
  size_t counts_at_ = 0;
  uint32_t free_ = kNil;
};

}  // namespace leap

#endif  // LEAP_SRC_CORE_TREND_TRACKER_H_
