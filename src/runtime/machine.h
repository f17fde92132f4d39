// The simulated host: local DRAM, page tables, swap cache, reclaim, a
// paging (or VFS) data path to a backing medium, and a pluggable prefetch
// policy (optionally clamped by a per-tenant budget governor). This is the
// composition point where Leap's three components
// (process-isolated tracking, majority prefetching, eager eviction) replace
// their legacy counterparts.
#ifndef LEAP_SRC_RUNTIME_MACHINE_H_
#define LEAP_SRC_RUNTIME_MACHINE_H_

#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/container/flat_map.h"
#include "src/core/leap.h"
#include "src/mem/cgroup.h"
#include "src/mem/frame_pool.h"
#include "src/mem/lru_list.h"
#include "src/mem/page_cache.h"
#include "src/mem/page_table.h"
#include "src/paging/data_path.h"
#include "src/paging/swap_manager.h"
#include "src/prefetch/budget_governor.h"
#include "src/prefetch/policy_registry.h"
#include "src/prefetch/prefetcher.h"
#include "src/prefetch/profile_pass.h"
#include "src/rdma/host_agent.h"
#include "src/rdma/remote_agent.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/stats/counters.h"
#include "src/stats/histogram.h"
#include "src/storage/hdd.h"
#include "src/storage/ssd.h"
#include "src/tier/tier_config.h"
#include "src/tier/tier_migrator.h"
#include "src/tier/tiered_store.h"

namespace leap {

enum class Medium { kHdd, kSsd, kRemote };
enum class PathKind { kDefault, kLeap };
// PrefetchKind lives in src/prefetch/policy_registry.h (the shared policy
// registry); re-exported here because every MachineConfig names one.
enum class EvictionKind { kLazyLru, kEagerLeap };

struct MachineConfig {
  // Local DRAM, in 4KB frames.
  size_t total_frames = 64 * 1024;
  Medium medium = Medium::kRemote;
  PathKind path = PathKind::kDefault;
  PrefetchKind prefetcher = PrefetchKind::kReadAhead;
  EvictionKind eviction = EvictionKind::kLazyLru;
  LeapParams leap;
  // Knobs for the learned / profile-guided policies (used only when
  // `prefetcher` selects them).
  OnlineDeltaConfig online_delta;
  ProfileGuidedConfig profile_guided;
  // Test seam: when set, the machine drives THIS policy (non-owning;
  // `prefetcher` is ignored). Lets conformance tests interpose an auditing
  // wrapper around a real policy and observe the exact feedback stream the
  // machine delivers.
  PrefetchPolicy* policy_override = nullptr;

  // File-style access (disaggregated VFS): no page tables; every access is
  // a cache lookup; writes are write-allocate + writeback on eviction.
  bool vfs_mode = false;
  // Cache capacity in vfs_mode (0 = bounded only by DRAM).
  size_t vfs_cache_limit_pages = 0;

  // Cap on unconsumed prefetched pages in the cache (Figure 12); 0 = none.
  size_t prefetch_cache_limit_pages = 0;

  // Adaptive per-tenant prefetch budget governor (disabled by default:
  // candidate vectors pass through unclamped, bit-identical to the
  // governor-free machine).
  PrefetchBudgetConfig budget;

  // CPU-side cost constants.
  SimTimeNs local_access_ns = 90;
  SimTimeNs minor_fault_ns = 900;
  SimTimeNs evict_cpu_ns = 650;
  // Page allocation cost: base plus a per-stale-cache-entry scan component,
  // calibrated so lazy eviction averages ~2.1 us and eager ~1.35 us
  // (paper: eager saves ~750 ns, 36%).
  SimTimeNs alloc_base_ns = 400;
  SimTimeNs alloc_scan_per_entry_ns = 22;
  size_t alloc_scan_cap = 56;

  // kswapd: period and per-wakeup scan batch.
  SimTimeNs kswapd_period_ns = 1 * kNsPerMs;
  size_t kswapd_scan_batch = 256;
  double low_watermark = 0.02;   // fraction of total frames
  double high_watermark = 0.05;
  // Inactive-list aging: an unconsumed prefetched page that survives this
  // long without a hit has cycled to the inactive tail and is reclaimed -
  // this is how cache pollution dies in the kernel even without global
  // memory pressure.
  SimTimeNs prefetch_ttl_ns = 50 * kNsPerMs;

  // Backing media.
  HddConfig hdd;
  SsdConfig ssd;
  HostAgentConfig host_agent;
  size_t remote_nodes = 2;
  size_t node_capacity_slabs = 4096;

  // Tiered far memory (src/tier/): CXL-like fast tier + background
  // hot/cold migrator layered over the remote path. Only honored when
  // medium == kRemote; disabled (default) means no tier state exists and
  // the machine is bit-identical to a pre-tiering build.
  TierConfig tier;

  // Data-path cost presets (see runtime/presets.h for the calibrated ones).
  DefaultPathConfig default_path;
  LeapPathConfig leap_path;

  uint64_t seed = 42;
};

class SlabPlacer;

// Cluster wiring injected by the cluster engine (ShardedCluster). All
// fields are optional: a default MachineEnv gives the classic
// self-contained machine (own event queue, own remote nodes, private NIC
// link).
struct MachineEnv {
  // Shared simulated clock: every machine in a cluster drains the same
  // queue, so background activity (kswapd ticks, failure events) from all
  // hosts interleaves deterministically with every host's faults.
  EventQueue* shared_events = nullptr;
  // Shared donor pool (non-owning). Non-empty replaces the machine's own
  // private remote nodes.
  std::vector<RemoteAgent*> remote_pool;
  // Shared fabric: remote latency becomes a function of cluster traffic.
  PageTransport* fabric = nullptr;
  // Placement policy override (non-owning; default power-of-two-choices).
  SlabPlacer* placer = nullptr;
  // This machine's uplink id on the fabric.
  uint32_t host_id = 0;
  // Cluster-owned flight recorder (non-owning; null = tracing off). The
  // machine forwards it to its host agent and data path and records the
  // prefetch issue/hit/drop lifecycle itself.
  TraceRecorder* trace = nullptr;
};

enum class AccessType {
  kLocalHit,      // page already mapped
  kMinorFault,    // first touch, no backing store involved
  kCacheHit,      // fault served from the page cache
  kCacheWaitHit,  // fault hit an in-flight (prefetched) read
  kMiss,          // fault went to the backing store
};

struct AccessResult {
  AccessType type = AccessType::kLocalHit;
  SimTimeNs latency = 0;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config);
  Machine(const MachineConfig& config, const MachineEnv& env);

  // Registers a process with a cgroup limit (0 = unlimited).
  Pid CreateProcess(size_t cgroup_limit_pages);

  // Performs one memory access at absolute simulated time `now` and
  // returns its type and latency. Callers (the app runners) must invoke
  // accesses in non-decreasing `now` order across the whole machine.
  AccessResult Access(Pid pid, Vpn vpn, bool write, SimTimeNs now);

  // --- Introspection -----------------------------------------------------
  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }
  // Lazy-eviction wait: first hit -> freed (Figure 4).
  Histogram& eviction_wait_hist() { return eviction_wait_hist_; }
  // Prefetch timeliness: inserted -> first hit (Figure 10b).
  Histogram& timeliness_hist() { return timeliness_hist_; }
  // Page allocation cost distribution (eager-eviction effect).
  Histogram& alloc_hist() { return alloc_hist_; }
  const MachineConfig& config() const { return config_; }
  PrefetchPolicy& policy() { return *policy_; }
  // Budget governor (nullptr when config().budget.enabled is false).
  BudgetGovernor* governor() { return governor_.get(); }
  const BudgetGovernor* governor() const { return governor_.get(); }
  HostAgent* host_agent() { return host_agent_.get(); }
  // Tier-aware store (nullptr unless config().tier.enabled on a remote
  // medium); the cluster reads per-tier occupancy through this.
  TieredStore* tiered_store() { return tiered_store_.get(); }
  const TieredStore* tiered_store() const { return tiered_store_.get(); }
  size_t cache_size() const { return cache_.size(); }
  // Consumed cache entries awaiting kswapd (lazy eviction's carcasses).
  // VFS-mode hits keep their frame: they are cache pages that reclaim
  // evicts (writing back dirty ones), not carcasses, and are not counted.
  size_t stale_entries() const {
    return config_.vfs_mode ? 0 : cache_.consumed_count();
  }
  size_t free_frames() const { return frames_.free_count(); }
  size_t resident_pages(Pid pid) const;
  bool IsResident(Pid pid, Vpn vpn) const;
  // The swap slot recorded in (pid, vpn)'s PTE; nullopt when the page has
  // no backing copy (never swapped out, or released on re-dirty).
  std::optional<SwapSlot> SlotOf(Pid pid, Vpn vpn) const;
  SwapManager& swap() { return swap_; }
  const SwapManager& swap() const { return swap_; }
  // Prefetched cache pages not yet hit (what FaultContext reports).
  size_t unconsumed_prefetched() const { return cache_.unhit_count(); }
  // Fault-trace recording hook for the offline profile pass: when set,
  // every policy-visible paging event (cache miss and remote-path cache
  // hit) is appended to `sink` in access order. Observation-only - no
  // machine behavior changes. Pass nullptr to stop recording.
  void SetFaultTraceSink(FaultTrace* sink) { fault_sink_ = sink; }
  // This machine's uplink id when cluster-wired (0 standalone).
  uint32_t host_id() const { return host_id_; }

 private:
  struct ProcessState {
    PageTable table;
    Cgroup cgroup;
    // Resident pages, hottest first; each PTE holds its page's handle.
    LruChain<Vpn> lru;
  };

  void DrainEvents(SimTimeNs now);
  void ScheduleKswapd(SimTimeNs at);
  // One kswapd wakeup: retire consumed cache carcasses, expire prefetches
  // unhit for prefetch_ttl_ns, then refill free frames to the high
  // watermark; the three passes share a budget of kswapd_scan_batch.
  void KswapdTick(SimTimeNs now);

  ProcessState& Proc(Pid pid) {
    auto* state = processes_.Find(pid);
    if (state == nullptr) {
      // Defined failure for unknown pids (the pre-flat-map behavior of
      // unordered_map::at); the branch is perfectly predicted on the
      // hot path.
      throw std::out_of_range("leap::Machine: unknown pid");
    }
    return **state;
  }

  // Allocates a frame, reclaiming if necessary; returns the CPU cost and
  // sets `*pfn`. Reclaim preference: a cache victim, then the coldest
  // mapped page of the largest process.
  SimTimeNs AllocateFrame(SimTimeNs now, Pfn* pfn);

  // Evicts the coldest mapped page of `pid` (cgroup reclaim). Returns CPU
  // cost; no-op (0) when the process has no resident pages.
  SimTimeNs EvictColdestOf(Pid pid, SimTimeNs now);

  // Evicts one cache entry that holds its page: under eager eviction the
  // oldest unhit prefetch, else the coldest non-carcass entry (an unhit
  // prefetch or a VFS-mode page), retiring the carcasses it passes on the
  // way. Returns true when an entry was evicted.
  bool ReclaimOneCacheVictim(SimTimeNs now);

  // delete_from_swap_cache: removes the cache entry for `slot`, if any,
  // with its memcg charge and its frame; returns the removed entry.
  std::optional<CacheEntry> DropCacheEntry(SwapSlot slot);

  // Evicts the cache entry for `slot` as a reclaim victim: drops it, writes
  // it back when dirty, and counts the eviction and an unused prefetch.
  // Returns false when no entry was cached.
  bool ReleaseCacheVictim(SwapSlot slot, SimTimeNs now);

  // Removes the cache entry for `slot` and hands its frame to (pid, vpn).
  // Handles eager-vs-lazy lifecycle, prefetch-hit accounting, and window
  // feedback.
  void ConsumeCacheEntry(SwapSlot slot, Pid pid, Vpn vpn, bool write,
                         SimTimeNs now);

  // Snapshot of machine + cluster state for one fault: clock, free-frame
  // pressure, in-flight prefetch count, congestion signals, and the
  // governor's per-tenant budget (advancing its AIMD epoch).
  FaultContext MakeFaultContext(Pid pid, SwapSlot slot, SimTimeNs now);

  // The one candidate pipeline for both the paging and VFS miss paths:
  // policy OnFault, then filtering, then the governor's budget clamp.
  CandidateVec GeneratePrefetches(const FaultContext& ctx);

  // Outcome-feedback fan-out to the policy and the governor.
  // A prefetch read was submitted and its cache entry inserted; `ready_at`
  // is its completion time (Complete fires immediately - the simulation
  // knows the latency at issue).
  void NotifyPrefetchIssued(Pid pid, SwapSlot slot, SimTimeNs ready_at,
                            SimTimeNs now);
  // First hit on a prefetched entry (records timeliness, credits policy
  // window sizing and governor accuracy).
  void NotifyPrefetchHit(Pid pid, SwapSlot slot, const CacheEntry& entry,
                         SimTimeNs now);
  // Funnel for every path that removes a prefetched-never-hit entry, so
  // the policy and governor see each unconsumed prefetch exactly once.
  void NotifyPrefetchDropped(SwapSlot slot, const CacheEntry& entry);

  // Maps the non-present (pid, vpn) to pfn, charging the cgroup and
  // enforcing its limit.
  // Returns the CPU cost of any synchronous cgroup reclaim triggered.
  SimTimeNs MapPage(Pid pid, Vpn vpn, Pfn pfn, bool write, SimTimeNs now);

  // Issues the demand + prefetch reads for a miss; returns demand-ready
  // time, the CPU cost spent on the critical path, and the frame allocated
  // for the demand page. Inserts in-flight cache entries for prefetched
  // pages.
  SimTimeNs IssueMiss(Pid pid, SwapSlot demand_slot, SimTimeNs now,
                      SimTimeNs* cpu_cost, Pfn* demand_pfn);

  // Filters in place and returns by value: CandidateVec is fixed-capacity
  // inline storage, so the whole candidate pipeline is allocation-free.
  CandidateVec FilterPrefetchCandidates(const CandidateVec& candidates,
                                        SwapSlot demand_slot) const;
  void InsertPrefetchEntries(Pid pid, std::span<const SwapSlot> slots,
                             std::span<const SimTimeNs> ready_at,
                             SimTimeNs now);
  void UnchargeCacheEntry(const CacheEntry& entry);

  // swap_free on re-dirty: releases the page's swap slot, if it has one,
  // and drops cache state keyed by it.
  void OnPageDirtied(Pid pid, PageTableEntry& pte);

  // Enforces the prefetch-cache cap before inserting `incoming` pages.
  void EnforcePrefetchCacheLimit(size_t incoming, SimTimeNs now);

  AccessResult VfsAccess(Pid pid, Vpn vpn, bool write, SimTimeNs now);

  MachineConfig config_;
  Rng rng_;
  // Clock: own queue standalone; a cluster injects a shared one so every
  // host's background events interleave on one timeline.
  EventQueue owned_events_;
  EventQueue* events_;
  SimTimeNs last_event_drain_ = 0;
  uint32_t host_id_ = 0;
  TraceRecorder* trace_ = nullptr;  // null unless the cluster enabled it

  FramePool frames_;
  PageCache cache_;
  SwapManager swap_;

  std::vector<std::unique_ptr<RemoteAgent>> remote_nodes_;  // owned donors
  std::unique_ptr<HostAgent> host_agent_;
  std::unique_ptr<BackingStore> local_store_;  // hdd/ssd when not remote
  // Degradation target when the donor pool is out of slabs (remote runs).
  std::unique_ptr<BackingStore> overflow_store_;
  // Tiered hierarchy over {cxl, host_agent_, overflow ssd}; null unless
  // config_.tier.enabled (the null pointer IS the off switch).
  std::unique_ptr<TieredStore> tiered_store_;
  std::unique_ptr<TierMigrator> tier_migrator_;
  BackingStore* store_ = nullptr;
  std::unique_ptr<DataPath> data_path_;
  std::unique_ptr<PrefetchPolicy> policy_;
  std::unique_ptr<BudgetGovernor> governor_;  // null when disabled
  // Profile-pass recording sink (null = off; see SetFaultTraceSink).
  FaultTrace* fault_sink_ = nullptr;

  // unique_ptr values keep ProcessState addresses stable across map growth
  // (Proc() references are held across container mutations).
  FlatMap<Pid, std::unique_ptr<ProcessState>> processes_;
  Pid next_pid_ = 1;
  // kswapd pick scratch, reused every tick so background reclaim stays
  // allocation-free (bounded by kswapd_scan_batch).
  std::vector<PageCache::ScanPick> kswapd_scratch_;
  // High-water mark of file pages seen in VFS mode (the simulated isize).
  SwapSlot vfs_file_pages_ = 0;

  Counters counters_;
  Histogram eviction_wait_hist_;
  Histogram timeliness_hist_;
  Histogram alloc_hist_;
};

}  // namespace leap

#endif  // LEAP_SRC_RUNTIME_MACHINE_H_
