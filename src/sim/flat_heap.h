// Flat 4-ary min-heap over a std::vector, shared by the event queue and the
// app scheduler.
//
// A 4-ary heap is shallower than a binary one, and the four children of a
// node share a cache line when entries are small PODs. `earlier(a, b)` is a
// strict weak order; with a key that is unique per entry (e.g. a sequence
// number or index as the tie-break) the pop order is fully deterministic.
#ifndef LEAP_SRC_SIM_FLAT_HEAP_H_
#define LEAP_SRC_SIM_FLAT_HEAP_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace leap {

// Moves heap[i] down to its place after its key grew.
template <typename T, typename Earlier>
void HeapSiftDown(std::vector<T>& heap, size_t i, Earlier earlier) {
  const size_t n = heap.size();
  while (true) {
    const size_t first_child = 4 * i + 1;
    if (first_child >= n) {
      break;
    }
    size_t best = first_child;
    const size_t last_child = std::min(first_child + 4, n);
    for (size_t c = first_child + 1; c < last_child; ++c) {
      if (earlier(heap[c], heap[best])) {
        best = c;
      }
    }
    if (!earlier(heap[best], heap[i])) {
      break;
    }
    std::swap(heap[i], heap[best]);
    i = best;
  }
}

template <typename T, typename Earlier>
void HeapPush(std::vector<T>& heap, T entry, Earlier earlier) {
  heap.push_back(entry);
  size_t i = heap.size() - 1;
  while (i != 0) {
    const size_t parent = (i - 1) / 4;
    if (!earlier(heap[i], heap[parent])) {
      break;
    }
    std::swap(heap[i], heap[parent]);
    i = parent;
  }
}

// Removes heap[0]; the heap must not be empty.
template <typename T, typename Earlier>
void HeapPopTop(std::vector<T>& heap, Earlier earlier) {
  heap[0] = heap.back();
  heap.pop_back();
  if (!heap.empty()) {
    HeapSiftDown(heap, 0, earlier);
  }
}

}  // namespace leap

#endif  // LEAP_SRC_SIM_FLAT_HEAP_H_
