#include "src/obs/stats_sampler.h"

#include "src/stats/json_writer.h"

namespace leap {

void WriteJsonl(const std::vector<StatsSample>& samples, std::ostream& out) {
  JsonWriter json(out);
  for (const StatsSample& s : samples) {
    json.BeginObject(JsonWriter::kInline)
        .Field("ts_ns", s.ts)
        .Field("window_demand_ops", s.window_demand_ops)
        .Field("window_demand_p50_ns", s.window_demand_p50_ns)
        .Field("window_demand_p99_ns", s.window_demand_p99_ns)
        .Field("demand_qdelay_ewma_ns", s.demand_queue_delay_ewma_ns, 1)
        .Field("prefetch_qdelay_ewma_ns", s.prefetch_queue_delay_ewma_ns, 1)
        .Key("node_state")
        .Array(s.node_state)
        .Key("node_ewma_ns")
        .BeginArray();
    for (const double ewma : s.node_ewma_ns) {
      json.Value(ewma, 1);
    }
    json.End()
        .Key("host_free_frames")
        .Array(s.host_free_frames)
        .Key("host_cache_pages")
        .Array(s.host_cache_pages);
    if (!s.tier_pages.empty()) {
      json.Key("tier_pages")
          .Array(s.tier_pages)
          .Field("tier_promotions", s.tier_promotions)
          .Field("tier_demotions", s.tier_demotions);
    }
    json.Key("tenant_budgets").BeginArray();
    for (const StatsSample::TenantBudget& t : s.tenant_budgets) {
      json.BeginObject()
          .Field("host", t.host)
          .Field("pid", t.pid)
          .Field("budget", t.budget, 3)
          .End();
    }
    json.End().End();
  }
}

}  // namespace leap
