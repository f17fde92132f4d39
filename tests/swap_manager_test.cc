// The shared swap area: slot allocation order and per-slot state in
// SwapManager, and the slot each page keeps in its PTE (read through
// Machine::SlotOf on a machine whose evictions hand the slots out).
#include "src/paging/swap_manager.h"

#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

#include "src/runtime/machine.h"

namespace leap {
namespace {

using SlotState = SwapManager::SlotState;

// A remote machine with no prefetcher: every eviction and every fault is
// one the test asked for.
MachineConfig PlainConfig() {
  MachineConfig config;
  config.total_frames = 256;
  config.prefetcher = PrefetchKind::kNone;
  return config;
}

// Accesses each page of `vpns` in order, one after another.
SimTimeNs Touch(Machine& machine, Pid pid, std::initializer_list<Vpn> vpns,
                bool write, SimTimeNs now) {
  for (Vpn vpn : vpns) {
    now += 1000;
    now += machine.Access(pid, vpn, write, now).latency;
  }
  return now;
}

TEST(SwapManager, SlotsAssignedSequentially) {
  SwapManager swap;
  EXPECT_EQ(swap.Allocate(1), 0u);
  EXPECT_EQ(swap.Allocate(1), 1u);
  EXPECT_EQ(swap.Allocate(1), 2u);
  EXPECT_EQ(swap.high_water(), 3u);
  EXPECT_EQ(swap.allocated_slots(), 3u);
}

TEST(SwapManager, ProcessesShareTheSwapSpace) {
  // The paper's section 2.3: pages of different processes interleave in
  // one shared swap area.
  SwapManager swap;
  const SwapSlot a = swap.Allocate(1);
  const SwapSlot b = swap.Allocate(2);
  const SwapSlot c = swap.Allocate(1);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c, 2u);
  EXPECT_EQ(swap.SlotsOf(1), 2u);
  EXPECT_EQ(swap.SlotsOf(2), 1u);
  EXPECT_EQ(swap.SlotsOf(3), 0u);
}

// The reverse lookup is a slot-state lookup: the filter only needs to know
// whether a slot's page is mapped again, and the PTE names the page.
TEST(SwapManager, SlotStateLookup) {
  SwapManager swap;
  const SwapSlot slot = swap.Allocate(3);
  EXPECT_EQ(swap.StateOf(slot), SlotState::kSwappedOut);
  swap.SetOwnerResident(slot, true);
  EXPECT_EQ(swap.StateOf(slot), SlotState::kOwnerResident);
  swap.SetOwnerResident(slot, false);
  EXPECT_EQ(swap.StateOf(slot), SlotState::kSwappedOut);
  swap.Release(3, slot);
  EXPECT_EQ(swap.StateOf(slot), SlotState::kFree);
  EXPECT_EQ(swap.SlotsOf(3), 0u);
  EXPECT_EQ(swap.allocated_slots(), 0u);
  EXPECT_EQ(swap.high_water(), 1u) << "a released slot is not handed back";
  EXPECT_EQ(swap.StateOf(999), SlotState::kFree);
}

// A PTE stores 32-bit slots, so the default capacity is the widest slot it
// holds; a full swap area throws instead of truncating a slot number.
TEST(SwapManager, FullSwapAreaThrows) {
  static_assert(std::numeric_limits<decltype(PageTableEntry::slot)>::max() ==
                PageTableEntry::kNoSlot);
  EXPECT_EQ(SwapManager().capacity(), SwapSlot{PageTableEntry::kNoSlot});

  SwapManager swap(/*capacity=*/2);
  swap.Allocate(1);
  swap.Allocate(1);
  EXPECT_THROW(swap.Allocate(1), std::length_error);
  EXPECT_EQ(swap.high_water(), 2u);
  EXPECT_EQ(swap.allocated_slots(), 2u);
}

TEST(SwapManager, LookupDoesNotAllocate) {
  Machine machine(PlainConfig());
  const Pid pid = machine.CreateProcess(0);
  EXPECT_FALSE(machine.SlotOf(pid, 42).has_value());
  EXPECT_FALSE(machine.SlotOf(/*unknown pid=*/99, 42).has_value());
  Touch(machine, pid, {42}, /*write=*/false, 0);
  EXPECT_FALSE(machine.SlotOf(pid, 42).has_value())
      << "a resident page gets a slot only when it is swapped out";
  EXPECT_EQ(machine.swap().allocated_slots(), 0u);
  EXPECT_EQ(machine.swap().high_water(), 0u);
}

TEST(SwapManager, PagesEvictedTogetherGetContiguousSlots) {
  // Temporal locality in evictions becomes spatial locality in slots -
  // the property Leap's swap-offset trend detection relies on.
  Machine machine(PlainConfig());
  const Pid pid = machine.CreateProcess(/*cgroup_limit_pages=*/10);
  SimTimeNs now = Touch(machine, pid, {50, 51, 52, 53, 54, 55, 56, 57, 58, 59},
                        /*write=*/true, 0);
  // Each new page evicts the coldest resident one: 50, 51, ... in order.
  Touch(machine, pid, {60, 61, 62, 63, 64, 65, 66, 67, 68, 69},
        /*write=*/true, now);
  for (Vpn v = 50; v < 59; ++v) {
    ASSERT_TRUE(machine.SlotOf(pid, v).has_value()) << v;
    EXPECT_EQ(*machine.SlotOf(pid, v) + 1, *machine.SlotOf(pid, v + 1)) << v;
  }
}

TEST(SwapManager, PageKeepsItsSlotForLife) {
  // The slot lives in the page's PTE: swapping a clean page in and out
  // again rewrites it in place, like the kernel while a swap entry stays
  // referenced; only the state of the slot changes.
  Machine machine(PlainConfig());
  const SwapManager& swap = machine.swap();
  const Pid pid = machine.CreateProcess(/*cgroup_limit_pages=*/1);
  SimTimeNs now = Touch(machine, pid, {100, 200}, /*write=*/true, 0);
  ASSERT_EQ(machine.SlotOf(pid, 100), SwapSlot{0});
  EXPECT_EQ(swap.StateOf(0), SlotState::kSwappedOut);

  now = Touch(machine, pid, {100}, /*write=*/false, now);  // evicts 200
  EXPECT_EQ(machine.SlotOf(pid, 100), SwapSlot{0});
  EXPECT_EQ(machine.SlotOf(pid, 200), SwapSlot{1});
  EXPECT_EQ(swap.StateOf(0), SlotState::kOwnerResident);
  EXPECT_EQ(swap.StateOf(1), SlotState::kSwappedOut);

  now = Touch(machine, pid, {200}, /*write=*/false, now);  // evicts 100
  EXPECT_EQ(machine.SlotOf(pid, 100), SwapSlot{0});
  EXPECT_EQ(swap.StateOf(0), SlotState::kSwappedOut);
  EXPECT_EQ(swap.StateOf(1), SlotState::kOwnerResident);
  EXPECT_EQ(swap.high_water(), 2u);
  EXPECT_EQ(swap.SlotsOf(pid), 2u);
}

TEST(SwapManager, RedirtiedPageReleasesItsSlot) {
  // swap_free on re-dirty: the page's next eviction gets a fresh slot and
  // the released one is never handed out again.
  Machine machine(PlainConfig());
  const SwapManager& swap = machine.swap();
  const Pid pid = machine.CreateProcess(/*cgroup_limit_pages=*/1);
  SimTimeNs now = Touch(machine, pid, {100, 200}, /*write=*/true, 0);
  now = Touch(machine, pid, {100}, /*write=*/false, now);  // evicts 200
  ASSERT_EQ(machine.SlotOf(pid, 100), SwapSlot{0});

  now = Touch(machine, pid, {100}, /*write=*/true, now);  // local hit
  EXPECT_FALSE(machine.SlotOf(pid, 100).has_value());
  EXPECT_EQ(swap.StateOf(0), SlotState::kFree);
  EXPECT_EQ(swap.SlotsOf(pid), 1u);

  Touch(machine, pid, {200}, /*write=*/false, now);  // evicts 100
  EXPECT_EQ(machine.SlotOf(pid, 100), SwapSlot{2});
  EXPECT_EQ(swap.high_water(), 3u);
  EXPECT_EQ(swap.allocated_slots(), 2u);
}

}  // namespace
}  // namespace leap
