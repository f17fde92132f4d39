// Tier-aware backing store: routes every page op to the tier the page
// currently lives on and tracks per-page residency + per-tier recency/heat.
//
// The store wraps the ordered hierarchy below DRAM (tier_config.h):
//
//   kTierCxl    - owned CxlStore, capacity-bounded (cxl_capacity_pages)
//   kTierRemote - the host's fabric path (HostAgent), non-owning
//   kTierSsd    - the host's local flash, non-owning
//
// Placement policy: a NEW swap slot is written to the highest tier with
// free capacity (CXL first, spilling to remote when full - counted as
// tier_spills); a rewrite of a known slot stays in place, preserving
// read-your-writes on whatever tier holds the page. Reads are routed by
// residency and never move a page - promotion/demotion is exclusively the
// TierMigrator's job, so the foreground path stays mechanical and the
// migration traffic is the only cross-tier bandwidth consumer.
//
// Hot/cold signal: each tier keeps an LruChain<SwapSlot> in recency order
// whose saturating access counts (bumped per touch, halved by DecayCounts)
// double as the promotion heat. A slot's residency record holds its tier
// and its handle on that tier's list, so a touch or a migration is one
// table probe. Counts restart when a page changes tier: heat is a
// per-residency-epoch signal, which is exactly the hysteresis that keeps
// a just-demoted page from bouncing straight back up.
#ifndef LEAP_SRC_TIER_TIERED_STORE_H_
#define LEAP_SRC_TIER_TIERED_STORE_H_

#include <array>
#include <vector>

#include "src/container/flat_map.h"
#include "src/mem/lru_list.h"
#include "src/obs/trace_recorder.h"
#include "src/stats/counters.h"
#include "src/storage/backing_store.h"
#include "src/tier/cxl_store.h"
#include "src/tier/tier_config.h"

namespace leap {

class TieredStore : public BackingStore {
 public:
  // `remote` and `ssd` are non-owning and must outlive the store.
  TieredStore(const TierConfig& config, BackingStore* remote,
              BackingStore* ssd);

  // --- BackingStore ------------------------------------------------------
  void ReadPages(std::span<const IoRequest> reqs, SimTimeNs now, Rng& rng,
                 std::span<SimTimeNs> ready_at) override;
  SimTimeNs WritePage(const IoRequest& req, SimTimeNs now, Rng& rng) override;
  std::string name() const override { return "tiered"; }
  // Reporting latency is the remote tier's: at steady state the bulk of
  // the footprint lives there, and the fast tier is the part the migrator
  // is trying to make not matter.
  double MeanReadLatencyNs() const override {
    return remote_->MeanReadLatencyNs();
  }

  void SetCounters(Counters* counters) { counters_ = counters; }
  void SetTrace(TraceRecorder* trace, uint32_t host_id) {
    trace_ = trace;
    host_id_ = host_id;
  }

  // --- migrator interface ------------------------------------------------
  size_t TierPages(size_t tier) const { return lru_[tier].size(); }
  size_t FastCapacityPages() const { return config_.cxl_capacity_pages; }
  // Tier currently holding `slot`; kTierCount when the slot is unknown.
  size_t TierOf(SwapSlot slot) const;
  // Accesses to `slot` in its current residency epoch (1 on arrival); 0
  // unless the slot is resident on `tier`.
  uint32_t AccessCount(size_t tier, SwapSlot slot) const;
  std::vector<SwapSlot> HottestOf(size_t tier, size_t n) const {
    return lru_[tier].HottestN(n);
  }
  std::vector<SwapSlot> ColdestOf(size_t tier, size_t n) const {
    return lru_[tier].ColdestN(n);
  }
  // Halves every access count on every tier (the migrator's aging step).
  void DecayCounts();

  // Copies `slot` from tier `from` to tier `to` as IoClass::kMigration
  // traffic (device + fabric occupancy modeled on both ends; remote legs
  // ride the per-link migration bandwidth cap), then flips residency.
  // Returns false - and moves nothing - when the slot is not on `from` or
  // the destination fast tier is full.
  bool MigrateSlot(SwapSlot slot, size_t from, size_t to, SimTimeNs now,
                   Rng& rng);

  const TierConfig& config() const { return config_; }

 private:
  // Where a known slot lives: its tier, and its node on that tier's list
  // (kNoHandle only until the first touch links it).
  struct Residency {
    uint8_t tier = static_cast<uint8_t>(kTierCount);
    LruChain<SwapSlot>::Handle handle = LruChain<SwapSlot>::kNoHandle;
  };

  // The tier a new slot is written to (counts a spill).
  size_t PlaceNewSlot();
  // Links `slot` on its tier's list, or moves it to the hot end and bumps
  // its count if it is already there.
  void Touch(SwapSlot slot, Residency* residency);

  TierConfig config_;
  CxlStore cxl_;
  BackingStore* remote_;
  BackingStore* ssd_;
  std::array<BackingStore*, kTierCount> tiers_;
  FlatMap<SwapSlot, Residency> residency_;
  std::array<LruChain<SwapSlot>, kTierCount> lru_;
  Counters* counters_ = nullptr;
  TraceRecorder* trace_ = nullptr;
  uint32_t host_id_ = 0;
};

}  // namespace leap

#endif  // LEAP_SRC_TIER_TIERED_STORE_H_
