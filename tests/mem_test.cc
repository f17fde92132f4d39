// Memory substrate: frame pool, page table, LRU list, page cache, cgroup.
#include <algorithm>
#include <list>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/mem/cgroup.h"
#include "src/mem/frame_pool.h"
#include "src/mem/lru_list.h"
#include "src/mem/page_cache.h"
#include "src/mem/page_table.h"
#include "src/sim/rng.h"

namespace leap {
namespace {

// --- FramePool -------------------------------------------------------------

TEST(FramePool, AllocatesUpToCapacity) {
  FramePool pool(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(pool.Allocate().has_value());
  }
  EXPECT_FALSE(pool.Allocate().has_value());
  EXPECT_EQ(pool.used_count(), 4u);
}

TEST(FramePool, FreeMakesFrameReusable) {
  FramePool pool(2);
  const Pfn a = *pool.Allocate();
  pool.Allocate();
  EXPECT_FALSE(pool.Allocate().has_value());
  pool.Free(a);
  EXPECT_EQ(pool.free_count(), 1u);
  EXPECT_TRUE(pool.Allocate().has_value());
}

TEST(FramePool, DoubleFreeIgnored) {
  FramePool pool(2);
  const Pfn a = *pool.Allocate();
  pool.Free(a);
  pool.Free(a);  // must not corrupt the free list
  EXPECT_EQ(pool.free_count(), 2u);
  EXPECT_TRUE(pool.Allocate().has_value());
  EXPECT_TRUE(pool.Allocate().has_value());
  EXPECT_FALSE(pool.Allocate().has_value());
}

TEST(FramePool, IsAllocatedTracksState) {
  FramePool pool(3);
  const Pfn a = *pool.Allocate();
  EXPECT_TRUE(pool.IsAllocated(a));
  pool.Free(a);
  EXPECT_FALSE(pool.IsAllocated(a));
  EXPECT_FALSE(pool.IsAllocated(999));
}

// --- PageTable ---------------------------------------------------------------

TEST(PageTable, MapFindUnmap) {
  PageTable table;
  EXPECT_FALSE(table.IsPresent(10));
  EXPECT_EQ(table.Find(10), nullptr);
  PageTableEntry& entry = table.Map(10, 3);
  EXPECT_EQ(entry.pfn, 3u);
  ASSERT_TRUE(table.IsPresent(10));
  EXPECT_EQ(table.Find(10)->pfn, 3u);
  EXPECT_EQ(table.Unmap(*table.Find(10)), 3u);
  EXPECT_FALSE(table.IsPresent(10));
}

TEST(PageTable, UnmapNotPresentReturnsInvalidPfn) {
  PageTable table;
  PageTableEntry& entry = table.Map(5, 1);
  table.Unmap(entry);
  EXPECT_EQ(table.Unmap(*table.Find(5)), kInvalidPfn);
  EXPECT_EQ(table.resident_pages(), 0u);
}

// A swapped-out page keeps its entry: the slot (and the dirty bit) stay,
// only the frame is cleared; mapping it again keeps the slot.
TEST(PageTable, UnmapKeepsTheSlot) {
  PageTable table;
  PageTableEntry& entry = table.Map(7, 4);
  EXPECT_EQ(entry.slot, PageTableEntry::kNoSlot);
  entry.dirty = true;
  table.Unmap(entry);
  entry.slot = 12;
  const PageTableEntry* kept = table.Find(7);
  ASSERT_NE(kept, nullptr);
  EXPECT_FALSE(kept->present());
  EXPECT_EQ(kept->slot, 12u);
  EXPECT_TRUE(kept->dirty);
  EXPECT_EQ(table.Map(7, 9).slot, 12u);
  EXPECT_TRUE(table.IsPresent(7));
}

TEST(PageTable, DirtyBitRoundTrips) {
  PageTable table;
  table.Map(1, 1);
  table.Find(1)->dirty = true;
  EXPECT_TRUE(table.Find(1)->dirty);
  table.Map(1, 2);  // remap resets
  EXPECT_FALSE(table.Find(1)->dirty);
}

TEST(PageTable, ResidentCount) {
  PageTable table;
  for (Vpn v = 0; v < 10; ++v) {
    table.Map(v, static_cast<Pfn>(v));
  }
  EXPECT_EQ(table.resident_pages(), 10u);
  table.Unmap(*table.Find(3));
  EXPECT_EQ(table.resident_pages(), 9u);
  table.Map(1, 20);  // remapping a present page does not count it twice
  EXPECT_EQ(table.resident_pages(), 9u);
  table.Map(3, 21);
  EXPECT_EQ(table.resident_pages(), 10u);
}

// --- LruChain ----------------------------------------------------------------

TEST(LruChain, ColdestIsLeastRecentlyTouched) {
  LruChain<int> lru;
  const auto one = lru.PushFront(1);
  lru.PushFront(2);
  lru.PushFront(3);
  EXPECT_EQ(lru.Coldest(), 1);
  lru.Touch(one);  // re-touch warms it
  EXPECT_EQ(lru.Coldest(), 2);
}

TEST(LruChain, ColdestNOrder) {
  LruChain<int> lru;
  for (int i = 0; i < 5; ++i) {
    lru.PushFront(i);
  }
  const auto coldest = lru.ColdestN(3);
  EXPECT_EQ(coldest, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(lru.size(), 5u);  // non-destructive
  EXPECT_TRUE(lru.ColdestN(0).empty());
  EXPECT_EQ(lru.ColdestN(9), (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(LruChain, WalkColdestFirstStopsWhenVisitReturnsFalse) {
  LruChain<int> lru;
  for (int i = 0; i < 6; ++i) {
    lru.PushFront(i);
  }
  std::vector<int> seen;
  lru.WalkColdestFirst([&](int key) {
    seen.push_back(key);
    return key != 2;
  });
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2}));  // nothing after the stop
  seen.clear();
  lru.WalkColdestFirst([&](int key) {
    seen.push_back(key);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  LruChain<int> empty;
  empty.WalkColdestFirst([&](int) {
    ADD_FAILURE() << "an empty list visits nothing";
    return true;
  });
}

TEST(LruChain, AccessCountsTrackTouches) {
  LruChain<int> lru;
  const auto h = lru.PushFront(1);
  EXPECT_EQ(lru.CountOf(h), 1u);  // insert seeds at 1
  lru.Touch(h);
  lru.Touch(h);
  EXPECT_EQ(lru.CountOf(h), 3u);
}

TEST(LruChain, DecayHalvesEveryCount) {
  LruChain<int> lru;
  const auto one = lru.PushFront(1);
  for (int t = 1; t < 5; ++t) {
    lru.Touch(one);
  }
  const auto two = lru.PushFront(2);
  lru.DecayCounts();
  EXPECT_EQ(lru.CountOf(one), 2u);  // 5 >> 1
  EXPECT_EQ(lru.CountOf(two), 0u);  // 1 >> 1: fully cold
  lru.DecayCounts();
  EXPECT_EQ(lru.CountOf(one), 1u);
}

TEST(LruChain, HottestNIsRecencyOrderNonDestructive) {
  LruChain<int> lru;
  std::vector<LruChain<int>::Handle> handles;
  for (int i = 0; i < 5; ++i) {
    handles.push_back(lru.PushFront(i));
  }
  lru.Touch(handles[1]);  // 1 becomes most recent
  const auto hottest = lru.HottestN(3);
  EXPECT_EQ(hottest, (std::vector<int>{1, 4, 3}));
  EXPECT_EQ(lru.size(), 5u);
}

TEST(LruChain, ColdestSelectionIsDeterministic) {
  // Two lists built by the same operation sequence agree exactly on the
  // hot/cold boundary - the property the tier migrator's page selection
  // rests on.
  LruChain<int> a;
  LruChain<int> b;
  std::map<int, std::pair<LruChain<int>::Handle, LruChain<int>::Handle>>
      handles;
  for (const int key : {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}) {
    const auto it = handles.find(key);
    if (it == handles.end()) {
      handles[key] = {a.PushFront(key), b.PushFront(key)};
    } else {
      a.Touch(it->second.first);
      b.Touch(it->second.second);
    }
  }
  a.DecayCounts();
  b.DecayCounts();
  EXPECT_EQ(a.ColdestN(4), b.ColdestN(4));
  EXPECT_EQ(a.HottestN(4), b.HottestN(4));
  EXPECT_EQ(a.Coldest(), b.Coldest());
  EXPECT_EQ(a.CountOf(handles[5].first), b.CountOf(handles[5].second));
  EXPECT_EQ(a.CountOf(handles[5].first), 1u);  // 3 touches >> 1
}

TEST(LruChain, AccessCountSaturatesAtCap) {
  LruChain<int> lru;
  const auto h = lru.PushFront(1);
  for (int t = 1; t < 70000; ++t) {
    lru.Touch(h);
  }
  EXPECT_EQ(lru.CountOf(h), 0xFFFFu);
}

TEST(LruChain, PopColdestRemoves) {
  LruChain<int> lru;
  lru.PushFront(1);
  lru.PushFront(2);
  EXPECT_EQ(lru.PopColdest(), 1);
  EXPECT_EQ(lru.PopColdest(), 2);
  EXPECT_FALSE(lru.PopColdest().has_value());
  EXPECT_TRUE(lru.empty());
}

TEST(LruChain, HandlesMoveEntriesWithoutAnIndex) {
  LruChain<Vpn> lru;
  const auto a = lru.PushFront(10);
  const auto b = lru.PushFront(20);
  lru.PushFront(30);
  EXPECT_EQ(lru.Coldest(), Vpn{10});
  lru.Touch(a);
  EXPECT_EQ(lru.Coldest(), Vpn{20});
  EXPECT_EQ(lru.CountOf(a), 2u);
  lru.Erase(b);
  EXPECT_EQ(lru.size(), 2u);
  EXPECT_EQ(lru.PopColdest(), Vpn{30});
  EXPECT_EQ(lru.PopColdest(), Vpn{10});
  EXPECT_FALSE(lru.PopColdest().has_value());
}

TEST(LruChain, RecycledHandleStartsCold) {
  LruChain<Vpn> lru;
  const auto a = lru.PushFront(1);
  lru.Touch(a);
  lru.Touch(a);
  lru.Erase(a);
  const auto b = lru.PushFront(2);
  EXPECT_EQ(b, a) << "the freed node is reused";
  EXPECT_EQ(lru.CountOf(b), 1u);
}

// --- PageCache ---------------------------------------------------------------

TEST(PageCache, InsertLookupRemove) {
  PageCache cache;
  CacheEntry entry;
  entry.pfn = 7;
  entry.ready_at = 1234;
  EXPECT_TRUE(cache.Insert(100, entry));
  EXPECT_FALSE(cache.Insert(100, entry));  // duplicate
  ASSERT_NE(cache.Lookup(100), nullptr);
  EXPECT_EQ(cache.Lookup(100)->pfn, 7u);
  const auto removed = cache.Remove(100);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->pfn, 7u);
  EXPECT_EQ(cache.Lookup(100), nullptr);
}

TEST(PageCache, LruEvictionOrder) {
  PageCache cache;
  for (SwapSlot s = 0; s < 4; ++s) {
    cache.Insert(s, CacheEntry{});
  }
  cache.TouchLru(cache.Lookup(0));  // 0 becomes hottest
  EXPECT_EQ(cache.ColdestSlot(), 1u);
}

CacheEntry PrefetchedAt(SimTimeNs added_at) {
  CacheEntry entry;
  entry.prefetched = true;
  entry.added_at = added_at;
  return entry;
}

CacheEntry ConsumedAt(SimTimeNs first_hit_at) {
  CacheEntry entry;
  entry.first_hit_at = first_hit_at;
  return entry;
}

std::vector<SwapSlot> Slots(const std::vector<PageCache::ScanPick>& picks) {
  std::vector<SwapSlot> slots;
  for (const PageCache::ScanPick& pick : picks) {
    slots.push_back(pick.slot);
  }
  return slots;
}

std::vector<SwapSlot> SortedSlots(
    const std::vector<PageCache::ScanPick>& picks) {
  std::vector<SwapSlot> slots = Slots(picks);
  std::sort(slots.begin(), slots.end());
  return slots;
}

std::vector<SwapSlot> DrainUnhitOldestFirst(PageCache& cache) {
  std::vector<SwapSlot> drained;
  while (const auto oldest = cache.OldestUnhit()) {
    drained.push_back(*oldest);
    cache.Remove(*oldest);
  }
  return drained;
}

TEST(PageCache, PicksVisitEveryListedEntry) {
  PageCache cache;
  for (SwapSlot s = 0; s < 10; ++s) {
    cache.Insert(s, s % 2 == 0 ? PrefetchedAt(s) : ConsumedAt(100 + s));
  }
  cache.Insert(10, CacheEntry{});  // never prefetched, not yet hit: no list
  EXPECT_EQ(cache.unhit_count(), 5u);
  EXPECT_EQ(cache.consumed_count(), 5u);
  std::vector<PageCache::ScanPick> picks;
  cache.PickConsumed(cache.size(), &picks);
  EXPECT_EQ(SortedSlots(picks), (std::vector<SwapSlot>{1, 3, 5, 7, 9}));
  cache.PickUnhitAddedBefore(1000, cache.size(), &picks);
  EXPECT_EQ(SortedSlots(picks), (std::vector<SwapSlot>{0, 2, 4, 6, 8}));
}

TEST(PageCache, FirstHitMovesEntryToConsumedList) {
  PageCache cache;
  cache.Insert(1, PrefetchedAt(10));
  cache.Insert(2, PrefetchedAt(20));
  EXPECT_EQ(cache.unhit_count(), 2u);
  EXPECT_EQ(cache.consumed_count(), 0u);
  cache.SetFirstHit(1, cache.Lookup(1), 30);
  EXPECT_EQ(cache.Lookup(1)->first_hit_at, 30u);
  EXPECT_EQ(cache.unhit_count(), 1u);
  EXPECT_EQ(cache.consumed_count(), 1u);
  EXPECT_EQ(cache.OldestUnhit(), 2u);
  std::vector<PageCache::ScanPick> picks;
  cache.PickConsumed(4, &picks);
  EXPECT_EQ(Slots(picks), (std::vector<SwapSlot>{1}));
  // A demand entry that was not hit at insertion joins on its first hit.
  cache.Insert(3, CacheEntry{});
  cache.SetFirstHit(3, cache.Lookup(3), 40);
  EXPECT_EQ(cache.consumed_count(), 2u);
  EXPECT_EQ(cache.unhit_count(), 1u);
}

TEST(PageCache, RemoveUnlinksFromEitherList) {
  PageCache cache;
  cache.Insert(1, PrefetchedAt(10));
  cache.Insert(2, PrefetchedAt(20));
  cache.Insert(3, ConsumedAt(25));
  cache.Insert(4, ConsumedAt(26));
  ASSERT_TRUE(cache.Remove(1).has_value());
  ASSERT_TRUE(cache.Remove(4).has_value());
  EXPECT_EQ(cache.unhit_count(), 1u);
  EXPECT_EQ(cache.consumed_count(), 1u);
  EXPECT_EQ(cache.OldestUnhit(), 2u);
  std::vector<PageCache::ScanPick> picks;
  cache.PickConsumed(4, &picks);
  EXPECT_EQ(Slots(picks), (std::vector<SwapSlot>{3}));
  ASSERT_TRUE(cache.Remove(2).has_value());
  ASSERT_TRUE(cache.Remove(3).has_value());
  EXPECT_EQ(cache.unhit_count(), 0u);
  EXPECT_EQ(cache.consumed_count(), 0u);
  EXPECT_FALSE(cache.OldestUnhit().has_value());
}

TEST(PageCache, UnhitListKeepsInsertionOrder) {
  PageCache cache;
  // Slots inserted out of key order, hits and removals in between.
  const std::vector<SwapSlot> order = {50, 7, 33, 2, 91, 14, 60};
  for (size_t i = 0; i < order.size(); ++i) {
    cache.Insert(order[i], PrefetchedAt(100 * i));
  }
  cache.SetFirstHit(33, cache.Lookup(33), 1000);
  cache.Remove(91);
  cache.Insert(5, PrefetchedAt(2000));
  std::vector<PageCache::ScanPick> picks;
  cache.PickUnhitAddedBefore(300, 8, &picks);
  EXPECT_EQ(SortedSlots(picks), (std::vector<SwapSlot>{7, 50}));
  EXPECT_EQ(DrainUnhitOldestFirst(cache),
            (std::vector<SwapSlot>{50, 7, 2, 14, 60, 5}));
}

// Apps sharing a machine interleave by local time before their think
// time, so an insert can carry an earlier added_at than the one before
// it. The age cutoff must still find every old-enough entry, and the
// list keeps insertion order for eager reclaim.
TEST(PageCache, AgeCutoffToleratesOutOfOrderInserts) {
  PageCache cache;
  const std::vector<std::pair<SwapSlot, SimTimeNs>> inserts = {
      {1, 100}, {2, 50}, {3, 200}, {4, 60}, {5, 300}, {6, 290}, {7, 400}};
  for (const auto& [slot, added_at] : inserts) {
    cache.Insert(slot, PrefetchedAt(added_at));
  }
  std::vector<PageCache::ScanPick> picks;
  cache.PickUnhitAddedBefore(70, 8, &picks);
  EXPECT_EQ(SortedSlots(picks), (std::vector<SwapSlot>{2, 4}));
  cache.PickUnhitAddedBefore(295, 8, &picks);
  EXPECT_EQ(SortedSlots(picks), (std::vector<SwapSlot>{1, 2, 3, 4, 6}));
  cache.PickUnhitAddedBefore(0, 8, &picks);
  EXPECT_TRUE(picks.empty());
  EXPECT_EQ(DrainUnhitOldestFirst(cache),
            (std::vector<SwapSlot>{1, 2, 3, 4, 5, 6, 7}));
}

TEST(PageCache, PicksFollowTableOrderAndStopAtTheLimit) {
  PageCache cache;
  for (SwapSlot s = 0; s < 300; ++s) {
    cache.Insert(s * 7919, ConsumedAt(1 + s));
  }
  std::vector<PageCache::ScanPick> all;
  cache.PickConsumed(cache.size(), &all);
  ASSERT_EQ(all.size(), 300u);
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1].position, all[i].position);
  }
  // A limited pick is the same prefix of table order, not the oldest
  // entries: it is what a table walk that stops at the limit collects.
  std::vector<PageCache::ScanPick> first;
  cache.PickConsumed(17, &first);
  ASSERT_EQ(first.size(), 17u);
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].slot, all[i].slot);
    EXPECT_EQ(first[i].position, all[i].position);
  }
  cache.PickConsumed(0, &first);
  EXPECT_TRUE(first.empty());
}

TEST(PageCache, CountsTrackChurn) {
  PageCache cache;
  size_t unhit = 0;
  size_t consumed = 0;
  for (SwapSlot s = 0; s < 2000; ++s) {
    cache.Insert(s, PrefetchedAt(s));
    ++unhit;
    if (s % 3 == 0) {
      cache.SetFirstHit(s, cache.Lookup(s), 1 + s);
      --unhit;
      ++consumed;
    }
    if (s % 5 == 0 && s >= 10) {
      const auto removed = cache.Remove(s - 10);
      ASSERT_TRUE(removed.has_value());
      if (removed->first_hit_at != 0) {
        --consumed;
      } else {
        --unhit;
      }
    }
    ASSERT_EQ(cache.unhit_count(), unhit);
    ASSERT_EQ(cache.consumed_count(), consumed);
  }
  EXPECT_EQ(unhit + consumed, cache.size());
}

// A reference page cache made of std containers: a std::list LRU (front =
// hottest), the unhit and consumed lists in insertion order (front =
// oldest), and a map holding each entry's state.
struct CacheModel {
  struct Ref {
    bool prefetched = false;
    SimTimeNs added_at = 0;
    SimTimeNs first_hit_at = 0;
  };

  std::map<SwapSlot, Ref> entries;
  std::list<SwapSlot> lru;
  std::list<SwapSlot> unhit;
  std::list<SwapSlot> consumed;

  std::list<SwapSlot>* ListFor(const Ref& ref) {
    if (ref.first_hit_at != 0) {
      return &consumed;
    }
    return ref.prefetched ? &unhit : nullptr;
  }

  static void Drop(std::list<SwapSlot>* list, SwapSlot slot) {
    if (list != nullptr) {
      list->erase(std::find(list->begin(), list->end(), slot));
    }
  }

  void Insert(SwapSlot slot, const Ref& ref) {
    entries[slot] = ref;
    lru.push_front(slot);
    if (std::list<SwapSlot>* list = ListFor(ref)) {
      list->push_back(slot);
    }
  }

  void Remove(SwapSlot slot) {
    Drop(ListFor(entries.at(slot)), slot);
    lru.remove(slot);
    entries.erase(slot);
  }

  void Touch(SwapSlot slot) {
    lru.remove(slot);
    lru.push_front(slot);
  }

  void SetFirstHit(SwapSlot slot, SimTimeNs t) {
    Ref& ref = entries.at(slot);
    std::list<SwapSlot>* from = ListFor(ref);
    ref.first_hit_at = t;
    std::list<SwapSlot>* to = ListFor(ref);
    if (to != from) {
      Drop(from, slot);
      to->push_back(slot);
    }
  }
};

// Every list-facing query of `cache` against the model, including the
// kswapd picks (as sets, since their order is the hash table's).
void ExpectCacheMatchesModel(const PageCache& cache, const CacheModel& model,
                             SimTimeNs cutoff, size_t limit) {
  ASSERT_EQ(cache.size(), model.entries.size());
  ASSERT_EQ(cache.unhit_count(), model.unhit.size());
  ASSERT_EQ(cache.consumed_count(), model.consumed.size());
  if (model.lru.empty()) {
    ASSERT_FALSE(cache.ColdestSlot().has_value());
  } else {
    ASSERT_EQ(cache.ColdestSlot(), model.lru.back());
  }
  if (model.unhit.empty()) {
    ASSERT_FALSE(cache.OldestUnhit().has_value());
  } else {
    ASSERT_EQ(cache.OldestUnhit(), model.unhit.front());
  }

  std::vector<PageCache::ScanPick> all;
  cache.PickConsumed(cache.size(), &all);
  std::vector<SwapSlot> want(model.consumed.begin(), model.consumed.end());
  std::sort(want.begin(), want.end());
  ASSERT_EQ(SortedSlots(all), want);
  for (size_t i = 1; i < all.size(); ++i) {
    ASSERT_LT(all[i - 1].position, all[i].position);
  }
  // A limited pick is the table-order prefix of the full one.
  std::vector<PageCache::ScanPick> first;
  cache.PickConsumed(limit, &first);
  ASSERT_EQ(first.size(), std::min(limit, all.size()));
  for (size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first[i].slot, all[i].slot);
  }

  cache.PickUnhitAddedBefore(cutoff, cache.size(), &all);
  want.clear();
  for (const SwapSlot slot : model.unhit) {
    if (model.entries.at(slot).added_at < cutoff) {
      want.push_back(slot);
    }
  }
  std::sort(want.begin(), want.end());
  ASSERT_EQ(SortedSlots(all), want);
}

// Seeded random Insert/Remove/TouchLru/SetFirstHit churn over a few
// thousand slots, checked against CacheModel after every operation. The
// cache grows to ~1000 entries and shrinks by a third, twice, so the hash
// table grows and backward-shifts on erase while its entries hold list
// links.
TEST(PageCache, RandomChurnMatchesReferenceModel) {
  constexpr SwapSlot kSlots = 2000;
  PageCache cache;
  CacheModel model;
  Rng rng(20260419);
  SimTimeNs clock = 100;
  auto touch = [&](SwapSlot slot) { cache.TouchLru(cache.Lookup(slot)); };
  for (int op = 0; op < 8000; ++op) {
    // Grow for 2000 ops, then shrink for 2000, twice over.
    const bool grow = (op / 2000) % 2 == 0;
    const double insert_share = grow ? 0.6 : 0.1;
    const double remove_share = grow ? 0.15 : 0.55;
    const SwapSlot slot = rng.NextU64(kSlots);
    const bool cached = model.entries.count(slot) != 0;
    ++clock;
    const double dice = rng.NextDouble();
    if (dice < insert_share) {
      CacheEntry entry;
      // added_at mostly follows insertion order, with some disorder.
      entry.added_at = clock * 10 - rng.NextU64(rng.NextBool(0.1) ? 40 : 1);
      const double kind = rng.NextDouble();
      entry.prefetched = kind < 0.6;
      if (kind >= 0.8) {
        entry.first_hit_at = clock * 10;
      }
      ASSERT_EQ(cache.Insert(slot, entry), !cached);
      if (!cached) {
        model.Insert(slot, {entry.prefetched, entry.added_at,
                            entry.first_hit_at});
      }
    } else if (dice < insert_share + remove_share) {
      const auto removed = cache.Remove(slot);
      ASSERT_EQ(removed.has_value(), cached);
      if (cached) {
        const CacheModel::Ref& ref = model.entries.at(slot);
        EXPECT_EQ(removed->prefetched, ref.prefetched);
        EXPECT_EQ(removed->added_at, ref.added_at);
        EXPECT_EQ(removed->first_hit_at, ref.first_hit_at);
        model.Remove(slot);
      }
    } else if (cached && dice < insert_share + remove_share + 0.1) {
      CacheEntry* entry = cache.Lookup(slot);
      ASSERT_NE(entry, nullptr);
      if (entry->first_hit_at == 0) {
        // A "hit" at t = 0 leaves the entry where it is.
        const SimTimeNs t = rng.NextBool(0.05) ? 0 : clock * 10;
        cache.SetFirstHit(slot, entry, t);
        model.SetFirstHit(slot, t);
      }
    } else if (cached) {
      touch(slot);
      model.Touch(slot);
    }
    const SimTimeNs cutoff = rng.NextU64(clock * 10 + 50);
    ASSERT_NO_FATAL_FAILURE(ExpectCacheMatchesModel(
        cache, model, cutoff, rng.NextU64(cache.size() + 2)))
        << "after op " << op;
  }
}

// --- Cgroup ------------------------------------------------------------------

TEST(Cgroup, UnlimitedNeverOverLimit) {
  Cgroup cg(0);
  cg.Charge(1000000);
  EXPECT_FALSE(cg.OverLimit());
  EXPECT_EQ(cg.ExcessPages(), 0u);
}

TEST(Cgroup, OverLimitAndExcess) {
  Cgroup cg(10);
  cg.Charge(10);
  EXPECT_FALSE(cg.OverLimit());
  cg.Charge();
  EXPECT_TRUE(cg.OverLimit());
  EXPECT_EQ(cg.ExcessPages(), 1u);
  cg.Uncharge();
  EXPECT_FALSE(cg.OverLimit());
}

TEST(Cgroup, UnchargeClampsAtZero) {
  Cgroup cg(5);
  cg.Charge(2);
  cg.Uncharge(10);
  EXPECT_EQ(cg.resident_pages(), 0u);
}

}  // namespace
}  // namespace leap
