#include "src/core/trend_tracker.h"

#include <algorithm>
#include <cassert>

namespace leap {

TrendTracker::TrendTracker(size_t hsize, size_t nsplit)
    : nsplit_(nsplit == 0 ? 1 : nsplit) {
  hsize = std::max<size_t>(1, hsize);
  // The same window sequence FindTrend walks: w0, 2*w0, ... until one
  // reaches Hsize, which is clamped to it.
  const size_t w0 = std::max<size_t>(1, hsize / nsplit_);
  size_t nlevels = 1;
  for (size_t w = w0; w < hsize; w *= 2) {
    ++nlevels;
  }
  assert(nlevels <= 64);  // Push keeps one bit per level
  assert(hsize < kNil);    // nodes are 32-bit
  levels_.resize(nlevels);
  for (size_t k = 0; k < nlevels; ++k) {
    levels_[k].window = std::min(w0 << k, hsize);
  }
  size_t buckets = 2;
  shift_ = 63;
  while (buckets < 2 * hsize) {
    buckets *= 2;
    --shift_;
  }
  // One block of 32-bit words: ring, bucket heads, node links, counts.
  // Hsize nodes suffice: the leaving delta is released before the pushed
  // one is added.
  heads_at_ = hsize;
  next_at_ = heads_at_ + buckets;
  counts_at_ = next_at_ + hsize;
  words_.assign(counts_at_ + hsize * levels_.size(), 0);
  std::fill_n(&Head(0), buckets, kNil);
  for (uint32_t node = 0; node + 1 < hsize; ++node) {
    Next(node) = node + 1;
  }
  Next(static_cast<uint32_t>(hsize - 1)) = kNil;
  free_ = 0;
  keys_.assign(hsize, 0);
}

void TrendTracker::Release(uint32_t node) {
  uint32_t* link = &Head(HomeBucket(keys_[node]));
  while (*link != node) {
    link = &Next(*link);
  }
  *link = Next(node);
  Next(node) = free_;
  free_ = node;
}

uint32_t TrendTracker::Acquire(PageDelta delta) {
  uint32_t& head = Head(HomeBucket(delta));
  for (uint32_t node = head; node != kNil; node = Next(node)) {
    if (keys_[node] == delta) {
      return node;
    }
  }
  const uint32_t node = free_;
  assert(node != kNil);
  free_ = Next(node);
  keys_[node] = delta;
  Next(node) = head;
  head = node;
  return node;
}

void TrendTracker::Push(PageDelta delta) {
  const size_t nlevels = levels_.size();
  const size_t hsize = keys_.size();
  const size_t before = size_;
  const size_t prev_head = head_;
  size_ = std::min(before + 1, hsize);
  head_ = head_ + 1 == hsize ? 0 : head_ + 1;  // the slot this push fills
  // Bit k set: level k's counts change. A full level whose leaving delta
  // equals the pushed one keeps its counts, size and majority.
  uint64_t changed = 0;
  for (size_t k = 0; k < nlevels; ++k) {
    Level& level = levels_[k];
    if (before < level.window) {
      // This level and every wider one are still filling: nothing leaves.
      changed |= ~uint64_t{0} << k;
      break;
    }
    // The entry `window` slots behind the new head leaves; for the widest
    // level that is the slot being overwritten.
    const uint32_t out = Slot(head_ >= level.window
                                  ? head_ - level.window
                                  : head_ + hsize - level.window);
    if (keys_[out] == delta) {
      continue;
    }
    changed |= uint64_t{1} << k;
    const uint32_t count = --Counts(out)[k];
    if (level.has_majority && level.majority == out &&
        --level.majority_count < level.window / 2 + 1) {
      level.has_majority = false;  // a full window only loses it here
    }
    if (k == nlevels - 1 && count == 0) {
      Release(out);
    }
  }
  if (changed == 0) {
    return;  // the overwritten slot already holds this delta's node
  }
  // A run of equal deltas finds its node in the previous slot. (A node
  // released above never matches: its delta differs from this one.)
  uint32_t node = before > 0 ? Slot(prev_head) : kNil;
  if (node == kNil || keys_[node] != delta) {
    node = Acquire(delta);
  }
  Slot(head_) = node;
  uint32_t* counts = Counts(node);
  for (size_t k = 0; k < nlevels; ++k) {
    if ((changed >> k & 1) == 0) {
      continue;
    }
    Level& level = levels_[k];
    const uint32_t count = ++counts[k];
    const uint32_t needed =
        static_cast<uint32_t>(std::min(level.window, size_) / 2 + 1);
    if (level.has_majority && level.majority == node) {
      ++level.majority_count;
    }
    if (count >= needed) {
      level.majority = node;
      level.majority_count = count;
      level.has_majority = true;
    } else if (level.has_majority && level.majority_count < needed) {
      level.has_majority = false;  // a filling window's threshold rose
    }
  }
}

}  // namespace leap
