#include "analysis/subnet_analysis.hpp"

#include "analysis/streaming.hpp"

namespace ytcdn::analysis {

std::vector<SubnetShare> subnet_breakdown(const capture::Dataset& dataset,
                                          const ServerDcMap& map, int preferred,
                                          const std::vector<NamedSubnet>& subnets) {
    return fold_dataset(dataset, dc_column(dataset, map),
                        IncrementalSubnetBreakdown(preferred, subnets))
        .shares();
}

}  // namespace ytcdn::analysis
