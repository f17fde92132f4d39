// Leap's eager cache eviction (paper section 4.3) keeps its FIFO of
// unconsumed prefetched pages in the page cache's unhit list: every
// prefetched page joins at the newest end, a consumed page leaves at once,
// and reclaim under memory pressure takes the oldest unconsumed page - it
// has no access history to rank it by.
#include "src/mem/page_cache.h"

#include <optional>

#include <gtest/gtest.h>

namespace leap {
namespace {

CacheEntry Prefetched() {
  CacheEntry entry;
  entry.prefetched = true;
  return entry;
}

// Reclaims the oldest unconsumed prefetched page, as Machine's eager
// reclaim does.
std::optional<SwapSlot> PopOldest(PageCache& cache) {
  const auto oldest = cache.OldestUnhit();
  if (oldest.has_value()) {
    cache.Remove(*oldest);
  }
  return oldest;
}

// A first hit at `t`; eager eviction then frees the entry.
void Consume(PageCache& cache, SwapSlot slot, SimTimeNs t) {
  cache.SetFirstHit(slot, cache.Lookup(slot), t);
  cache.Remove(slot);
}

TEST(EagerEvictionFifo, StartsEmpty) {
  PageCache cache;
  EXPECT_EQ(cache.unhit_count(), 0u);
  EXPECT_FALSE(PopOldest(cache).has_value());
}

TEST(EagerEvictionFifo, FifoOrderUnderPressure) {
  PageCache cache;
  cache.Insert(10, Prefetched());
  cache.Insert(20, Prefetched());
  cache.Insert(30, Prefetched());
  EXPECT_EQ(PopOldest(cache), 10u);
  EXPECT_EQ(PopOldest(cache), 20u);
  EXPECT_EQ(PopOldest(cache), 30u);
  EXPECT_FALSE(PopOldest(cache).has_value());
}

TEST(EagerEvictionFifo, ConsumedPagesLeaveTheList) {
  PageCache cache;
  cache.Insert(1, Prefetched());
  cache.Insert(2, Prefetched());
  cache.Insert(3, Prefetched());
  Consume(cache, 2, 500);
  EXPECT_EQ(cache.unhit_count(), 2u);
  EXPECT_EQ(cache.Lookup(2), nullptr);
  EXPECT_EQ(PopOldest(cache), 1u);
  EXPECT_EQ(PopOldest(cache), 3u);
}

TEST(EagerEvictionFifo, RemovingUnknownSlotLeavesTheList) {
  PageCache cache;
  cache.Insert(5, Prefetched());
  EXPECT_FALSE(cache.Remove(99).has_value());
  EXPECT_EQ(cache.unhit_count(), 1u);
}

TEST(EagerEvictionFifo, DuplicateInsertKeepsOriginalPosition) {
  PageCache cache;
  cache.Insert(7, Prefetched());
  cache.Insert(8, Prefetched());
  EXPECT_FALSE(cache.Insert(7, Prefetched()));  // no reordering
  EXPECT_EQ(cache.unhit_count(), 2u);
  EXPECT_EQ(PopOldest(cache), 7u);
}

TEST(EagerEvictionFifo, DrainingEmptiesEverythingAndNodesAreReused) {
  PageCache cache;
  for (SwapSlot s = 0; s < 100; ++s) {
    cache.Insert(s, Prefetched());
  }
  while (PopOldest(cache).has_value()) {
  }
  EXPECT_EQ(cache.unhit_count(), 0u);
  EXPECT_TRUE(cache.empty());
  // Recycled nodes rebuild a correct FIFO.
  cache.Insert(200, Prefetched());
  cache.Insert(201, Prefetched());
  EXPECT_EQ(PopOldest(cache), 200u);
  EXPECT_EQ(PopOldest(cache), 201u);
}

TEST(EagerEvictionFifo, InterleavedOperationsStayConsistent) {
  PageCache cache;
  for (SwapSlot s = 0; s < 1000; ++s) {
    cache.Insert(s, Prefetched());
    if (s % 3 == 0 && cache.Lookup(s / 2) != nullptr) {
      Consume(cache, s / 2, 1 + s);
    }
    if (s % 7 == 0) {
      PopOldest(cache);
    }
  }
  EXPECT_EQ(cache.unhit_count(), cache.size());
  // Drain and check strictly increasing order (FIFO of survivors).
  SwapSlot prev = 0;
  bool first = true;
  while (auto slot = PopOldest(cache)) {
    if (!first) {
      EXPECT_GT(*slot, prev);
    }
    prev = *slot;
    first = false;
  }
  EXPECT_TRUE(cache.empty());
}

}  // namespace
}  // namespace leap
