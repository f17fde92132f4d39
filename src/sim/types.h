// Fundamental scalar types shared by every simulator module.
#ifndef LEAP_SRC_SIM_TYPES_H_
#define LEAP_SRC_SIM_TYPES_H_

#include <cstddef>
#include <cstdint>

#include "src/container/inline_vec.h"

namespace leap {

// Simulated time, in nanoseconds since simulation start.
using SimTimeNs = uint64_t;

constexpr SimTimeNs kNsPerUs = 1'000;
constexpr SimTimeNs kNsPerMs = 1'000'000;
constexpr SimTimeNs kNsPerSec = 1'000'000'000;

constexpr double ToUs(SimTimeNs t) { return static_cast<double>(t) / kNsPerUs; }
constexpr double ToMs(SimTimeNs t) { return static_cast<double>(t) / kNsPerMs; }
constexpr double ToSec(SimTimeNs t) { return static_cast<double>(t) / kNsPerSec; }

// Page geometry. Everything in the data path moves 4 KB pages, like the
// paper's kernel integration.
constexpr size_t kPageSize = 4096;
constexpr size_t kPageShift = 12;

// Virtual page number within a process address space.
using Vpn = uint64_t;
// Physical frame number in the (simulated) local DRAM.
using Pfn = uint32_t;
// Page-granularity offset into a backing store (swap device / remote slab /
// remote file). Mirrors a Linux swap slot.
using SwapSlot = uint64_t;
// Process identifier.
using Pid = uint32_t;

constexpr Pfn kInvalidPfn = static_cast<Pfn>(-1);
constexpr SwapSlot kInvalidSlot = static_cast<SwapSlot>(-1);

// Signed page-address delta between two consecutive remote page accesses.
// This is the unit stored in Leap's AccessHistory (paper section 4.1).
using PageDelta = int64_t;

// Hard cap on prefetch candidates generated for a single fault, across all
// prefetchers. Window/degree knobs are clamped to this at construction, so
// per-fault candidate lists fit in fixed scratch storage and a prefetch
// decision never allocates. The paper's PWsize_max is 8; the largest value
// any bench sweeps is 32.
inline constexpr size_t kMaxPrefetchCandidates = 64;

// One fault's prefetch candidate list (demand page excluded): fixed-
// capacity, stack-allocated, cheap to return by value.
using CandidateVec = InlineVec<SwapSlot, kMaxPrefetchCandidates>;

// Congestion snapshot produced by the transport layer (HostAgent/Fabric)
// and consumed by prefetch policies and the budget governor. Lives here so
// src/rdma does not depend on src/prefetch. All fields are cheap copies
// of continuously-maintained state - a snapshot costs a few loads.
struct CongestionSignals {
  // EWMA of fabric queue delay (wait for a link serialization slot plus
  // incast congestion stall) per page op, in ns, across ALL traffic
  // classes. 0 when not fabric-bound. Kept for policies that want the
  // aggregate view; congestion *control* should key on the per-class
  // signals below so repair/writeback noise cannot masquerade as
  // data-path congestion.
  double queue_delay_ewma_ns = 0.0;
  // Per-class EWMAs of the same quantity for the two classes on the
  // demand-fetch critical path (IoClass::kDemandRead / kPrefetch). The
  // budget governor keys on these.
  double demand_queue_delay_ewma_ns = 0.0;
  double prefetch_queue_delay_ewma_ns = 0.0;
  // Cumulative remote_capacity_exhausted events seen by this host's agent.
  // Monotone; consumers diff consecutive snapshots for "recent ticks".
  uint64_t capacity_exhausted_total = 0;

  // The data-path congestion signal: the worse of the demand and prefetch
  // queue-delay EWMAs. Background classes (writeback/eviction/repair) are
  // deliberately excluded.
  double DataQueueDelayNs() const {
    return demand_queue_delay_ewma_ns > prefetch_queue_delay_ewma_ns
               ? demand_queue_delay_ewma_ns
               : prefetch_queue_delay_ewma_ns;
  }
};

}  // namespace leap

#endif  // LEAP_SRC_SIM_TYPES_H_
