#include "src/runtime/cluster.h"

#include <algorithm>

namespace leap {

size_t ClusterStats::SlabImbalance() const {
  if (node_slabs.empty()) {
    return 0;
  }
  const auto [min_it, max_it] =
      std::minmax_element(node_slabs.begin(), node_slabs.end());
  return *max_it - *min_it;
}

uint64_t ClusterStats::ClassOps(IoClass cls) const {
  uint64_t total = 0;
  for (const LinkClassCounts& link : node_downlink_classes) {
    total += link.ops[static_cast<size_t>(cls)];
  }
  return total;
}

}  // namespace leap
