// The swap area every process of a machine shares: a bump allocator over
// slot numbers with a dense one-byte state per slot.
//
// Slots are handed out in eviction order (next slot = high-water mark) and
// never reused, so pages evicted together land on contiguous offsets.
// Because every process shares one swap space, interleaved evictions from
// different processes interleave their slots - the exact property that
// confuses sequence-based prefetchers (paper section 2.3) and that Leap's
// per-process histories tolerate.
//
// Which page a slot backs is recorded in that page's PTE
// (PageTableEntry::slot), not here. This class keeps what is asked by slot
// number - whether a slot is live and whether its page is mapped again -
// and the per-tenant slot counts the budget governor reads.
#ifndef LEAP_SRC_PAGING_SWAP_MANAGER_H_
#define LEAP_SRC_PAGING_SWAP_MANAGER_H_

#include <cstdint>
#include <vector>

#include "src/container/flat_map.h"
#include "src/mem/page_table.h"
#include "src/sim/types.h"

namespace leap {

class SwapManager {
 public:
  enum class SlotState : uint8_t {
    kFree,           // never handed out, or released
    kSwappedOut,     // backs a page that is not mapped
    kOwnerResident,  // backs a page that is mapped again
  };

  // Slot numbers stay below `capacity`; the default is the widest slot a
  // PTE can hold.
  explicit SwapManager(SwapSlot capacity = PageTableEntry::kNoSlot)
      : capacity_(capacity) {}

  // Hands `pid` the next slot, in state kSwappedOut. Throws
  // std::length_error when the swap area is full.
  SwapSlot Allocate(Pid pid);

  // Records that a live slot's page was mapped (true) or swapped out
  // again (false).
  void SetOwnerResident(SwapSlot slot, bool resident) {
    state_[slot] =
        resident ? SlotState::kOwnerResident : SlotState::kSwappedOut;
  }

  // swap_free: called when a swapped-in page is re-dirtied, so its next
  // eviction allocates a fresh slot. This is what progressively scrambles
  // the swap layout relative to the virtual layout on write-heavy
  // workloads.
  void Release(Pid pid, SwapSlot slot);

  // kFree for slots never handed out (at or past high_water()).
  SlotState StateOf(SwapSlot slot) const {
    return slot < state_.size() ? state_[slot] : SlotState::kFree;
  }

  // Live (not released) slots, over all tenants.
  size_t allocated_slots() const { return allocated_; }
  // Per-tenant accounting: live swap slots held by `pid` - the tenant's
  // footprint on the backing medium (remote slabs in disaggregated runs).
  // The budget governor sizes per-tenant prefetch ceilings from it.
  size_t SlotsOf(Pid pid) const;
  // High-water mark of the swap area: one past the largest slot ever
  // handed out (released slots still lie below it).
  SwapSlot high_water() const { return state_.size(); }
  SwapSlot capacity() const { return capacity_; }

 private:
  SwapSlot capacity_;
  size_t allocated_ = 0;
  std::vector<SlotState> state_;  // indexed by slot; its size is high_water()
  FlatMap<Pid, uint64_t> per_pid_slots_;
};

}  // namespace leap

#endif  // LEAP_SRC_PAGING_SWAP_MANAGER_H_
