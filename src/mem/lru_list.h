// LruChain: the simulator's one page list type, used for LRU, FIFO and
// heat order alike.
//
// An intrusive doubly-linked list threaded through a slab of pooled nodes
// (indices, not pointers): no per-operation allocation, no pointer-chased
// std::list nodes. Each entry is addressed by its handle (its node index),
// which the record that owns the page keeps: the process LRU stores it in
// the page's PTE, the page cache in its CacheEntry (one handle for the
// cache LRU, one for the unhit/consumed FIFO), and the tiered store in the
// slot's residency record. A touch or an unlink is a few slab stores and no
// lookup at all; the key stored in each node is what the cold-end scans
// (Coldest, WalkColdestFirst) report.
//
// kswapd scans from the cold end, exactly like the kernel walking the
// inactive list. Used as a FIFO, PushFront is the newest end and Coldest
// the oldest.
//
// Kept header-only: a small template used with a handful of key types.
#ifndef LEAP_SRC_MEM_LRU_LIST_H_
#define LEAP_SRC_MEM_LRU_LIST_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace leap {

template <typename Key>
class LruChain {
 public:
  using Handle = uint32_t;
  static constexpr Handle kNoHandle = static_cast<Handle>(-1);

  // Links a new entry for `key` as most-recently-used, with access count
  // 1; returns its handle, valid until the entry is erased or popped.
  Handle PushFront(const Key& key) {
    const Handle idx = NewNode(key);
    LinkFront(idx);
    return idx;
  }

  // Moves `h` to the most-recently-used end and bumps its access count
  // (saturating), the hotness signal the tier migrator's promotion scan
  // reads via CountOf/DecayCounts.
  void Touch(Handle h) {
    if (nodes_[h].count < kCountMax) {
      ++nodes_[h].count;
    }
    Unlink(h);
    LinkFront(h);
  }

  // Unlinks `h` and returns its node to the pool.
  void Erase(Handle h) {
    Unlink(h);
    FreeNode(h);
  }

  uint32_t CountOf(Handle h) const { return nodes_[h].count; }

  // Least-recently-used key, without removing it.
  std::optional<Key> Coldest() const {
    if (tail_ == kNoHandle) {
      return std::nullopt;
    }
    return nodes_[tail_].key;
  }

  // Removes and returns the LRU key.
  std::optional<Key> PopColdest() {
    if (tail_ == kNoHandle) {
      return std::nullopt;
    }
    const Handle idx = tail_;
    Key key = nodes_[idx].key;
    Erase(idx);
    return key;
  }

  // The n hottest keys, hottest first (the tier migrator's promotion
  // scan walks the recency end and filters by access count).
  std::vector<Key> HottestN(size_t n) const {
    std::vector<Key> out;
    out.reserve(n < size_ ? n : size_);
    for (Handle idx = head_; idx != kNoHandle && out.size() < n;
         idx = nodes_[idx].next) {
      out.push_back(nodes_[idx].key);
    }
    return out;
  }

  // Calls visit(key) for each entry from the cold (least recent, or
  // oldest) end towards the hot end, stopping early once visit returns
  // false. The list must not change during the walk.
  template <class F>
  void WalkColdestFirst(F&& visit) const {
    for (Handle idx = tail_; idx != kNoHandle; idx = nodes_[idx].prev) {
      if (!visit(nodes_[idx].key)) {
        return;
      }
    }
  }

  // The n coldest keys, coldest first (for batch reclaim scans).
  std::vector<Key> ColdestN(size_t n) const {
    std::vector<Key> out;
    out.reserve(n < size_ ? n : size_);
    WalkColdestFirst([&](const Key& key) {
      if (out.size() == n) {
        return false;
      }
      out.push_back(key);
      return true;
    });
    return out;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Halves every entry's access count (floor division) - the migrator's
  // periodic aging step, the same exponential decay HeMem-style kswapd
  // loops apply so stale heat drains instead of accumulating forever.
  // List order is untouched.
  void DecayCounts() {
    for (Handle idx = head_; idx != kNoHandle; idx = nodes_[idx].next) {
      nodes_[idx].count >>= 1;
    }
  }

 private:
  static constexpr uint32_t kCountMax = 0xFFFF;

  struct Node {
    Key key{};
    Handle prev = kNoHandle;
    Handle next = kNoHandle;
    uint32_t count = 0;  // saturating access count (hot/cold signal)
  };

  Handle NewNode(const Key& key) {
    Handle idx;
    if (free_.empty()) {
      idx = static_cast<Handle>(nodes_.size());
      nodes_.push_back(Node{});
    } else {
      idx = free_.back();
      free_.pop_back();
    }
    nodes_[idx].key = key;
    nodes_[idx].count = 1;  // recycled slots must not inherit stale heat
    return idx;
  }

  // Returns a node slot to the free pool; list membership (and size_) is
  // Unlink's business.
  void FreeNode(Handle idx) {
    nodes_[idx].key = Key{};
    nodes_[idx].count = 0;
    free_.push_back(idx);
  }

  void LinkFront(Handle idx) {
    nodes_[idx].prev = kNoHandle;
    nodes_[idx].next = head_;
    if (head_ != kNoHandle) {
      nodes_[head_].prev = idx;
    }
    head_ = idx;
    if (tail_ == kNoHandle) {
      tail_ = idx;
    }
    ++size_;
  }

  void Unlink(Handle idx) {
    const Handle prev = nodes_[idx].prev;
    const Handle next = nodes_[idx].next;
    if (prev != kNoHandle) {
      nodes_[prev].next = next;
    } else {
      head_ = next;
    }
    if (next != kNoHandle) {
      nodes_[next].prev = prev;
    } else {
      tail_ = prev;
    }
    --size_;
  }

  std::vector<Node> nodes_;    // slab; front of list = hottest
  std::vector<Handle> free_;   // recycled node indices
  Handle head_ = kNoHandle;
  Handle tail_ = kNoHandle;
  size_t size_ = 0;
};

}  // namespace leap

#endif  // LEAP_SRC_MEM_LRU_LIST_H_
