// Per-process page table: the single record of every page the process has
// touched, keyed by vpn.
//
// An entry holds what the kernel keeps in (or next to) a PTE: the frame
// while the page is present, the dirty bit, the page's swap slot once it
// has been swapped out (a non-present PTE's swp_entry_t: the fault path
// finds the slot here, with no separate lookup), and the handle of the
// page's node in its process's resident LRU. Unmap clears only the frame,
// so a swapped-out page keeps its entry and its slot.
//
// Backed by a flat robin-hood map: the page-table walk on every simulated
// access is a couple of cache lines, not an unordered_map node chase, and
// steady-state map/unmap cycles never allocate (entries are never erased,
// so the table's capacity is bounded by the process's footprint).
#ifndef LEAP_SRC_MEM_PAGE_TABLE_H_
#define LEAP_SRC_MEM_PAGE_TABLE_H_

#include <cstddef>
#include <cstdint>

#include "src/container/flat_map.h"
#include "src/mem/lru_list.h"
#include "src/sim/types.h"

namespace leap {

struct PageTableEntry {
  // The slot field is 32 bits wide (SwapManager refuses slots that do not
  // fit); kNoSlot marks a page with no backing copy.
  static constexpr uint32_t kNoSlot = static_cast<uint32_t>(-1);

  Pfn pfn = kInvalidPfn;  // the page is present iff pfn != kInvalidPfn
  uint32_t slot = kNoSlot;
  // Resident-LRU handle while present, kNoHandle otherwise.
  LruChain<Vpn>::Handle lru = LruChain<Vpn>::kNoHandle;
  bool dirty = false;

  bool present() const { return pfn != kInvalidPfn; }
};
// The page table is the simulator's largest per-page structure; a wider
// entry costs every host memory on every touched page.
static_assert(sizeof(PageTableEntry) <= 16, "PageTableEntry grew past 16 B");

class PageTable {
 public:
  // Maps vpn to pfn as a clean page, creating the entry on first touch and
  // keeping an existing entry's slot and LRU handle. The reference is
  // valid until the next Map (flat-map entries move on insertion).
  PageTableEntry& Map(Vpn vpn, Pfn pfn) {
    PageTableEntry& entry = entries_[vpn];
    present_ += entry.present() ? 0 : 1;
    entry.pfn = pfn;
    entry.dirty = false;
    return entry;
  }

  // Clears `entry`'s frame and returns the frame it held (kInvalidPfn if
  // it was not present). The slot, LRU handle and dirty bit stay. `entry`
  // must belong to this table.
  Pfn Unmap(PageTableEntry& entry) {
    const Pfn pfn = entry.pfn;
    present_ -= entry.present() ? 1 : 0;
    entry.pfn = kInvalidPfn;
    return pfn;
  }

  // The entry for vpn, present or swapped out; nullptr if the page was
  // never mapped. Valid until the next Map.
  PageTableEntry* Find(Vpn vpn) { return entries_.Find(vpn); }
  const PageTableEntry* Find(Vpn vpn) const { return entries_.Find(vpn); }

  bool IsPresent(Vpn vpn) const {
    const PageTableEntry* entry = Find(vpn);
    return entry != nullptr && entry->present();
  }
  size_t resident_pages() const { return present_; }

 private:
  FlatMap<Vpn, PageTableEntry> entries_;
  size_t present_ = 0;
};

}  // namespace leap

#endif  // LEAP_SRC_MEM_PAGE_TABLE_H_
