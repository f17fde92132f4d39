#include "src/sim/event_queue.h"

#include <utility>

#include "src/sim/flat_heap.h"

namespace leap {

uint32_t EventQueue::AcquireNode(Callback cb) {
  if (free_nodes_.empty()) {
    const uint32_t node = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back(std::move(cb));
    return node;
  }
  const uint32_t node = free_nodes_.back();
  free_nodes_.pop_back();
  nodes_[node] = std::move(cb);
  return node;
}

void EventQueue::ReleaseNode(uint32_t node) { free_nodes_.push_back(node); }

void EventQueue::ScheduleAt(SimTimeNs when, Callback cb) {
  const uint32_t node = AcquireNode(std::move(cb));
  HeapPush(heap_, HeapEntry{when, next_seq_++, node}, Earlier{});
}

size_t EventQueue::RunUntil(SimTimeNs until) {
  size_t ran = 0;
  while (!heap_.empty() && heap_[0].when <= until) {
    const HeapEntry top = heap_[0];
    HeapPopTop(heap_, Earlier{});
    // Move the callable out and recycle its node before invoking: the
    // callback may schedule further events (and reuse this very node).
    Callback cb = std::move(nodes_[top.node]);
    ReleaseNode(top.node);
    cb(top.when);
    ++ran;
  }
  return ran;
}

SimTimeNs EventQueue::NextEventTime() const {
  return heap_.empty() ? kNoEvent : heap_[0].when;
}

void EventQueue::Clear() {
  for (const HeapEntry& entry : heap_) {
    nodes_[entry.node] = Callback();  // destroy the callable, keep the slot
    ReleaseNode(entry.node);
  }
  heap_.clear();
  next_seq_ = 0;
}

}  // namespace leap
