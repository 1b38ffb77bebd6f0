#include "analysis/preferred_dc.hpp"

#include "analysis/streaming.hpp"

namespace ytcdn::analysis {

namespace {

IncrementalDcTraffic dc_traffic(const capture::Dataset& dataset,
                                const ServerDcMap& map) {
    return fold_dataset(dataset, dc_column(dataset, map), IncrementalDcTraffic{});
}

}  // namespace

std::vector<DcTraffic> traffic_by_dc(const capture::Dataset& dataset,
                                     const ServerDcMap& map) {
    return dc_traffic(dataset, map).traffic();
}

int preferred_dc(const capture::Dataset& dataset, const ServerDcMap& map,
                 double heavy_share) {
    return dc_traffic(dataset, map).preferred(map, heavy_share);
}

NonPreferredShare non_preferred_share(const capture::Dataset& dataset,
                                      const ServerDcMap& map, int preferred) {
    return dc_traffic(dataset, map).share(preferred);
}

}  // namespace ytcdn::analysis
