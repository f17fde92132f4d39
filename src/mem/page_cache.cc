#include "src/mem/page_cache.h"

#include <algorithm>
#include <limits>

namespace leap {
namespace {

bool EarlierInTable(const PageCache::ScanPick& a,
                    const PageCache::ScanPick& b) {
  return a.position < b.position;
}

}  // namespace

bool PageCache::Insert(SwapSlot slot, const CacheEntry& entry) {
  const auto [value, inserted] = entries_.Emplace(slot, entry);
  if (inserted) {
    Link(slot, value);
    value->lru = lru_.PushFront(slot);
  }
  return inserted;
}

CacheEntry* PageCache::Lookup(SwapSlot slot) { return entries_.Find(slot); }

const CacheEntry* PageCache::Lookup(SwapSlot slot) const {
  return entries_.Find(slot);
}

std::optional<CacheEntry> PageCache::Remove(SwapSlot slot) {
  CacheEntry* entry = entries_.Find(slot);
  if (entry == nullptr) {
    return std::nullopt;
  }
  Unlink(entry, ListFor(*entry));
  lru_.Erase(entry->lru);
  CacheEntry removed = *entry;
  entries_.Erase(slot);
  return removed;
}

void PageCache::SetFirstHit(SwapSlot slot, CacheEntry* entry, SimTimeNs t) {
  const ListId from = ListFor(*entry);
  entry->first_hit_at = t;
  if (ListFor(*entry) != from) {  // a "hit" at t = 0 leaves it in place
    Unlink(entry, from);
    Link(slot, entry);
  }
}

void PageCache::PickConsumed(size_t limit,
                             std::vector<ScanPick>* picks) const {
  picks->clear();
  lists_[kConsumed].WalkColdestFirst([&](SwapSlot slot) {
    OfferPick(slot, limit, picks);
    return true;
  });
  FinishPicks(picks);
}

void PageCache::PickUnhitAddedBefore(SimTimeNs cutoff, size_t limit,
                                     std::vector<ScanPick>* picks) const {
  picks->clear();
  // No later entry's added_at is more than unhit_disorder_ below this
  // one's, so once an entry reaches cutoff + disorder (saturating), none
  // that follows qualifies.
  constexpr SimTimeNs kMax = std::numeric_limits<SimTimeNs>::max();
  const SimTimeNs stop =
      cutoff > kMax - unhit_disorder_ ? kMax : cutoff + unhit_disorder_;
  lists_[kUnhit].WalkColdestFirst([&](SwapSlot slot) {
    const SimTimeNs added_at = entries_.Find(slot)->added_at;
    if (added_at >= stop) {
      return false;
    }
    if (added_at < cutoff) {
      OfferPick(slot, limit, picks);
    }
    return true;
  });
  FinishPicks(picks);
}

PageCache::ListId PageCache::ListFor(const CacheEntry& entry) {
  if (entry.first_hit_at != 0) {
    return kConsumed;
  }
  return entry.prefetched ? kUnhit : kNumLists;
}

void PageCache::Link(SwapSlot slot, CacheEntry* entry) {
  entry->age = LruChain<SwapSlot>::kNoHandle;
  const ListId id = ListFor(*entry);
  if (id == kNumLists) {
    return;
  }
  if (id == kUnhit) {
    if (entry->added_at >= unhit_added_at_max_) {
      unhit_added_at_max_ = entry->added_at;
    } else {
      unhit_disorder_ = std::max(unhit_disorder_,
                                 unhit_added_at_max_ - entry->added_at);
    }
  }
  entry->age = lists_[id].PushFront(slot);
}

void PageCache::Unlink(CacheEntry* entry, ListId id) {
  if (entry->age == LruChain<SwapSlot>::kNoHandle) {
    return;
  }
  lists_[id].Erase(entry->age);
  entry->age = LruChain<SwapSlot>::kNoHandle;
}

// Bounded selection: `picks` is a max-heap on position holding the
// `limit` lowest positions offered so far.
void PageCache::OfferPick(SwapSlot slot, size_t limit,
                          std::vector<ScanPick>* picks) const {
  const ScanPick pick{entries_.PositionOf(slot), slot};
  if (picks->size() < limit) {
    picks->push_back(pick);
    std::push_heap(picks->begin(), picks->end(), EarlierInTable);
  } else if (limit > 0 && pick.position < picks->front().position) {
    std::pop_heap(picks->begin(), picks->end(), EarlierInTable);
    picks->back() = pick;
    std::push_heap(picks->begin(), picks->end(), EarlierInTable);
  }
}

void PageCache::FinishPicks(std::vector<ScanPick>* picks) {
  std::sort_heap(picks->begin(), picks->end(), EarlierInTable);
}

}  // namespace leap
