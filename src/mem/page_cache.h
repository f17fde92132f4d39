// Swap cache analog: backing-store offset -> cached frame.
//
// Pages land here on swap-in (demand or prefetch); a fault that finds its
// slot here is a cache hit. Entries carry the I/O completion time so an
// access racing an in-flight prefetch blocks for the residual latency
// instead of re-issuing the read - the kernel's "page locked until read
// completes" behavior.
//
// Besides the hash table, the cache keeps three LruChain lists, with each
// entry's handles stored in its CacheEntry, so background reclaim works on
// the entries it can act on instead of walking the whole table (the
// per-state lists a kswapd scans from the cold end):
//  - lru: every entry, in recency order (TouchLru), for size-limited and
//    lazy reclaim;
//  - unhit: prefetched entries not yet hit, a FIFO in insertion order.
//    Eager reclaim evicts from its oldest end, the prefetch cap reads its
//    length, and TTL aging walks it from the oldest end until entries are
//    too young to expire;
//  - consumed: entries with first_hit_at != 0, also a FIFO: lazy
//    eviction's carcasses awaiting kswapd, and in VFS mode the hit pages,
//    which keep their frame.
// Insert, Remove and SetFirstHit keep the lists current through the
// handles, with no key index besides the table itself; every operation is
// allocation-free in steady state.
#ifndef LEAP_SRC_MEM_PAGE_CACHE_H_
#define LEAP_SRC_MEM_PAGE_CACHE_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "src/container/flat_map.h"
#include "src/mem/lru_list.h"
#include "src/sim/types.h"

namespace leap {

struct CacheEntry {
  Pfn pfn = kInvalidPfn;
  Pid pid = 0;
  bool prefetched = false;
  // When the backing read finishes; accesses before this wait the residue.
  SimTimeNs ready_at = 0;
  // When the entry was inserted (for eviction-wait accounting, Figure 4).
  SimTimeNs added_at = 0;
  // First-hit time; 0 while unreferenced. Drives timeliness (Figure 10b)
  // and the lazy-eviction waste measurement. Set it on a cached entry only
  // through PageCache::SetFirstHit, which moves it between the age lists.
  SimTimeNs first_hit_at = 0;
  // Dirty file page awaiting writeback (VFS mode only).
  bool dirty = false;
  // The entry's nodes in the cache's lists, owned by PageCache: `lru` in
  // the cache LRU, `age` in the unhit or consumed list (kNoHandle while on
  // neither).
  LruChain<SwapSlot>::Handle lru = LruChain<SwapSlot>::kNoHandle;
  LruChain<SwapSlot>::Handle age = LruChain<SwapSlot>::kNoHandle;

  // A consumed entry whose frame went to the mapping process (lazy
  // eviction): it holds no page. A VFS-mode page keeps its frame once hit.
  bool is_carcass() const {
    return first_hit_at != 0 && pfn == kInvalidPfn;
  }
};

class PageCache {
 public:
  // Inserts an entry; returns false if the slot is already cached.
  bool Insert(SwapSlot slot, const CacheEntry& entry);

  CacheEntry* Lookup(SwapSlot slot);
  const CacheEntry* Lookup(SwapSlot slot) const;

  // Removes the entry; returns it if present.
  std::optional<CacheEntry> Remove(SwapSlot slot);

  // Records the first hit on `entry` (what Lookup(slot) returned) at `t`
  // and moves it to the age list its new state belongs to.
  void SetFirstHit(SwapSlot slot, CacheEntry* entry, SimTimeNs t);

  // Marks recency of `entry` (what Lookup returned) for cache-internal LRU
  // eviction (used when the prefetch cache itself is size-limited,
  // Figure 12).
  void TouchLru(CacheEntry* entry) { lru_.Touch(entry->lru); }
  std::optional<SwapSlot> ColdestSlot() const { return lru_.Coldest(); }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  // --- age lists ------------------------------------------------------------

  size_t unhit_count() const { return lists_[kUnhit].size(); }
  size_t consumed_count() const { return lists_[kConsumed].size(); }
  // The oldest prefetched entry not yet hit; nullopt when there is none.
  std::optional<SwapSlot> OldestUnhit() const {
    return lists_[kUnhit].Coldest();
  }

  // A reclaim candidate and its position in the hash table's array order.
  struct ScanPick {
    size_t position = 0;
    SwapSlot slot = kInvalidSlot;
  };

  // kswapd's candidate sets. Each fills `picks` with the first `limit`
  // candidates in table order, sorted by that order: the slots, and the
  // removal order, of a walk over the whole table that stops after `limit`
  // matches - at a cost proportional to the list walked, not the table.
  // Allocation-free once `picks` has capacity for `limit`.
  //
  // Candidates: every consumed entry.
  void PickConsumed(size_t limit, std::vector<ScanPick>* picks) const;
  // Candidates: the unhit entries added before `cutoff` (added_at <
  // cutoff). The walk starts at the oldest and stops once added_at has
  // passed the cutoff by more than the list's disorder (see
  // unhit_disorder_), past which no later entry can qualify.
  void PickUnhitAddedBefore(SimTimeNs cutoff, size_t limit,
                            std::vector<ScanPick>* picks) const;

 private:
  enum ListId : size_t { kUnhit = 0, kConsumed = 1, kNumLists = 2 };

  // The list an entry in this state belongs to; kNumLists for neither (an
  // entry that was never prefetched and is not yet hit).
  static ListId ListFor(const CacheEntry& entry);
  // Pushes `entry` (cached under `slot`) on the newest end of its list.
  void Link(SwapSlot slot, CacheEntry* entry);
  // Takes `entry` off list `id`, if it is on one.
  void Unlink(CacheEntry* entry, ListId id);

  void OfferPick(SwapSlot slot, size_t limit,
                 std::vector<ScanPick>* picks) const;
  static void FinishPicks(std::vector<ScanPick>* picks);

  FlatMap<SwapSlot, CacheEntry> entries_;
  LruChain<SwapSlot> lru_;
  LruChain<SwapSlot> lists_[kNumLists];  // FIFOs: coldest = oldest
  // The latest added_at of any entry that joined the unhit list, and the
  // most any joining entry's added_at fell short of it. Insertion order is
  // added_at order up to this disorder: Machine::Access runs in
  // non-decreasing time per app, but concurrent apps on one machine
  // interleave by local time before their think time, so a later insert
  // can carry a slightly earlier added_at.
  SimTimeNs unhit_added_at_max_ = 0;
  SimTimeNs unhit_disorder_ = 0;
};

}  // namespace leap

#endif  // LEAP_SRC_MEM_PAGE_CACHE_H_
