#include "src/paging/swap_manager.h"

#include <cassert>
#include <stdexcept>

namespace leap {

SwapSlot SwapManager::Allocate(Pid pid) {
  const SwapSlot slot = high_water();
  if (slot >= capacity_) {
    throw std::length_error("leap::SwapManager: swap area full");
  }
  state_.push_back(SlotState::kSwappedOut);
  ++allocated_;
  ++per_pid_slots_[pid];
  return slot;
}

void SwapManager::Release(Pid pid, SwapSlot slot) {
  assert(StateOf(slot) != SlotState::kFree && SlotsOf(pid) > 0);
  state_[slot] = SlotState::kFree;
  --allocated_;
  --per_pid_slots_[pid];
}

size_t SwapManager::SlotsOf(Pid pid) const {
  const uint64_t* count = per_pid_slots_.Find(pid);
  return count == nullptr ? 0 : static_cast<size_t>(*count);
}

}  // namespace leap
