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
    lru_.Touch(slot);
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
  CacheEntry removed = *entry;
  entries_.Erase(slot);
  lru_.Remove(slot);
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

std::optional<SwapSlot> PageCache::OldestUnhit() const {
  const uint32_t n = lists_[kUnhit].oldest;
  if (n == kNil) {
    return std::nullopt;
  }
  return nodes_[n].slot;
}

void PageCache::PickConsumed(size_t limit,
                             std::vector<ScanPick>* picks) const {
  picks->clear();
  for (uint32_t n = lists_[kConsumed].oldest; n != kNil; n = nodes_[n].newer) {
    OfferPick(nodes_[n].slot, limit, picks);
  }
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
  for (uint32_t n = lists_[kUnhit].oldest; n != kNil; n = nodes_[n].newer) {
    const SimTimeNs added_at = entries_.Find(nodes_[n].slot)->added_at;
    if (added_at >= stop) {
      break;
    }
    if (added_at < cutoff) {
      OfferPick(nodes_[n].slot, limit, picks);
    }
  }
  FinishPicks(picks);
}

PageCache::ListId PageCache::ListFor(const CacheEntry& entry) {
  if (entry.first_hit_at != 0) {
    return kConsumed;
  }
  return entry.prefetched ? kUnhit : kNumLists;
}

void PageCache::Link(SwapSlot slot, CacheEntry* entry) {
  entry->age_node = kNil;
  const ListId id = ListFor(*entry);
  if (id == kNumLists) {
    return;
  }
  AgeList& list = lists_[id];
  if (id == kUnhit) {
    if (entry->added_at >= unhit_added_at_max_) {
      unhit_added_at_max_ = entry->added_at;
    } else {
      unhit_disorder_ = std::max(unhit_disorder_,
                                 unhit_added_at_max_ - entry->added_at);
    }
  }
  uint32_t n = free_nodes_;
  if (n != kNil) {
    free_nodes_ = nodes_[n].newer;
  } else {
    n = static_cast<uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[n] = AgeNode{slot, list.newest, kNil};
  if (list.newest != kNil) {
    nodes_[list.newest].newer = n;
  } else {
    list.oldest = n;
  }
  list.newest = n;
  ++list.size;
  entry->age_node = n;
}

void PageCache::Unlink(CacheEntry* entry, ListId id) {
  const uint32_t n = entry->age_node;
  if (n == kNil) {
    return;
  }
  AgeList& list = lists_[id];
  const AgeNode& node = nodes_[n];
  if (node.older != kNil) {
    nodes_[node.older].newer = node.newer;
  } else {
    list.oldest = node.newer;
  }
  if (node.newer != kNil) {
    nodes_[node.newer].older = node.older;
  } else {
    list.newest = node.older;
  }
  --list.size;
  nodes_[n] = AgeNode{kInvalidSlot, kNil, free_nodes_};
  free_nodes_ = n;
  entry->age_node = kNil;
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
