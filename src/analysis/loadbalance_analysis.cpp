#include "analysis/loadbalance_analysis.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/streaming.hpp"

namespace ytcdn::analysis {

namespace {

IncrementalHourlyLoad hourly_load(const capture::Dataset& dataset,
                                  const ServerDcMap& map, int preferred) {
    return fold_dataset(dataset, dc_column(dataset, map),
                        IncrementalHourlyLoad(preferred, dataset.name));
}

}  // namespace

EmpiricalCdf hourly_non_preferred_fraction(const capture::Dataset& dataset,
                                           const ServerDcMap& map, int preferred) {
    return hourly_load(dataset, map, preferred).non_preferred_cdf();
}

HourlyLoadSeries hourly_preferred_series(const capture::Dataset& dataset,
                                         const ServerDcMap& map, int preferred) {
    return hourly_load(dataset, map, preferred).preferred_series();
}

double pearson_correlation(const Series& a, const Series& b) {
    const std::size_t n = std::min(a.points.size(), b.points.size());
    if (n < 3) return 0.0;
    double ma = 0.0, mb = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        ma += a.points[i].second;
        mb += b.points[i].second;
    }
    ma /= static_cast<double>(n);
    mb /= static_cast<double>(n);
    double cov = 0.0, va = 0.0, vb = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double da = a.points[i].second - ma;
        const double db = b.points[i].second - mb;
        cov += da * db;
        va += da * da;
        vb += db * db;
    }
    if (va <= 0.0 || vb <= 0.0) return 0.0;
    return cov / std::sqrt(va * vb);
}

double load_vs_nonpreferred_correlation(const capture::Dataset& dataset,
                                        const ServerDcMap& map, int preferred,
                                        std::uint64_t min_flows) {
    return hourly_load(dataset, map, preferred).correlation(min_flows);
}

}  // namespace ytcdn::analysis
