// Minimal discrete-event scheduler.
//
// Components schedule callbacks at absolute simulated times; the machine
// drains events due before each page access so background activity (kswapd
// scans, I/O completions) interleaves deterministically with foreground
// faults.
//
// Built for a hot steady state: the heap is a flat 4-ary array of POD
// entries (src/sim/flat_heap.h), callbacks live in small-buffer storage
// inside pooled nodes (no std::function, no per-event heap allocation),
// and popped nodes are recycled through a free list. After warm-up,
// scheduling and running events never touches the allocator.
#ifndef LEAP_SRC_SIM_EVENT_QUEUE_H_
#define LEAP_SRC_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/types.h"

namespace leap {

class EventQueue {
 public:
  // Inline storage for a scheduled callable. Large enough for a lambda
  // with several captured pointers or a std::function, small enough that
  // the node pool stays compact.
  static constexpr size_t kCallbackCapacity = 48;

  // Move-only callable wrapper with inline (small-buffer) storage. A
  // callable larger than kCallbackCapacity is rejected at compile time -
  // capture less, or capture a pointer to long-lived state.
  class Callback {
   public:
    Callback() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, Callback>>>
    Callback(F&& f) {  // NOLINT(google-explicit-constructor)
      using Fn = std::decay_t<F>;
      static_assert(sizeof(Fn) <= kCallbackCapacity,
                    "callback too large for EventQueue inline storage");
      static_assert(alignof(Fn) <= alignof(std::max_align_t));
      new (storage_) Fn(std::forward<F>(f));
      invoke_ = [](void* s, SimTimeNs now) { (*static_cast<Fn*>(s))(now); };
      relocate_ = [](void* dst, void* src) {
        Fn* from = static_cast<Fn*>(src);
        new (dst) Fn(std::move(*from));
        from->~Fn();
      };
      destroy_ = [](void* s) { static_cast<Fn*>(s)->~Fn(); };
    }

    Callback(Callback&& other) noexcept { MoveFrom(other); }
    Callback& operator=(Callback&& other) noexcept {
      if (this != &other) {
        Destroy();
        MoveFrom(other);
      }
      return *this;
    }
    Callback(const Callback&) = delete;
    Callback& operator=(const Callback&) = delete;
    ~Callback() { Destroy(); }

    void operator()(SimTimeNs now) { invoke_(storage_, now); }
    explicit operator bool() const { return invoke_ != nullptr; }

   private:
    void MoveFrom(Callback& other) noexcept {
      invoke_ = other.invoke_;
      relocate_ = other.relocate_;
      destroy_ = other.destroy_;
      if (invoke_ != nullptr) {
        relocate_(storage_, other.storage_);
      }
      other.invoke_ = nullptr;
      other.relocate_ = nullptr;
      other.destroy_ = nullptr;
    }
    void Destroy() noexcept {
      if (destroy_ != nullptr) {
        destroy_(storage_);
        invoke_ = nullptr;
        relocate_ = nullptr;
        destroy_ = nullptr;
      }
    }

    alignas(std::max_align_t) unsigned char storage_[kCallbackCapacity];
    void (*invoke_)(void*, SimTimeNs) = nullptr;
    void (*relocate_)(void*, void*) = nullptr;
    void (*destroy_)(void*) = nullptr;
  };

  // Schedules `cb` to run at absolute time `when`. Events at equal times run
  // in scheduling order (FIFO).
  void ScheduleAt(SimTimeNs when, Callback cb);

  // Runs every event with time <= `until`. Returns the number of events run.
  size_t RunUntil(SimTimeNs until);

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  // Time of the earliest pending event; kNoEvent if none.
  static constexpr SimTimeNs kNoEvent = static_cast<SimTimeNs>(-1);
  SimTimeNs NextEventTime() const;

  // Drops all pending events; their nodes return to the free pool.
  void Clear();

  // Pool introspection (for tests): total nodes ever allocated, and how
  // many of them are currently free for reuse.
  size_t pool_capacity() const { return nodes_.size(); }
  size_t free_pool_size() const { return free_nodes_.size(); }

 private:
  // POD heap entry; the callable lives in the pooled node it points at.
  struct HeapEntry {
    SimTimeNs when;
    uint64_t seq;
    uint32_t node;
  };

  struct Earlier {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }
  };

  uint32_t AcquireNode(Callback cb);
  void ReleaseNode(uint32_t node);

  std::vector<HeapEntry> heap_;  // flat 4-ary min-heap on (when, seq)
  std::vector<Callback> nodes_;
  std::vector<uint32_t> free_nodes_;
  uint64_t next_seq_ = 0;
};

}  // namespace leap

#endif  // LEAP_SRC_SIM_EVENT_QUEUE_H_
