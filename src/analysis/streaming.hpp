#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/dc_map.hpp"
#include "analysis/loadbalance_analysis.hpp"
#include "analysis/preferred_dc.hpp"
#include "analysis/redirect_analysis.hpp"
#include "analysis/subnet_analysis.hpp"
#include "capture/dataset.hpp"
#include "capture/flow_record.hpp"

namespace ytcdn::analysis {

/// The §VII per-flow folds: the one implementation of the per-DC traffic
/// split, the hourly load (Figs 9 and 11), the per-video redirect counts
/// (Figs 13 and 14), the subnet breakdown (Fig. 12) and the per-server load
/// (Fig. 15). Each add() takes one flow record and its pre-resolved
/// data-center index (`map.dc_of(server_ip)`, -1 when unmapped), so the
/// caller resolves the map once per record.
///
/// Two execution modes drive the same folds: the batch analyses and the
/// report feed an in-memory dataset through fold_dataset(), and
/// run_scale_study feeds records as they stream back from a YFL2 spill, so
/// a 10-100M-session run fits bounded memory (DESIGN.md §16).
///
/// Feed-order contract: every result is independent of the order records
/// are added in. The tallies are integers; the CDFs sort their samples;
/// the rankings are total orders; and IncrementalServerLoad's hourly mean
/// sums integer-valued doubles, which is exact in any order, while min and
/// max do not depend on order. tests/test_streaming_analysis.cpp checks a
/// shuffled feed against the in-order one for all five folds.

/// Resolves every record's server to its data center once: element i is
/// map.dc_of(dataset.records[i].server_ip), -1 when unmapped. The folds and
/// the session analyses read this column instead of the map, so the hash
/// lookup is paid once per flow per run instead of once per flow per
/// artifact.
[[nodiscard]] std::vector<int> dc_column(const capture::Dataset& dataset,
                                         const ServerDcMap& map);

/// The batch path: adds every record of `dataset`, with its data center
/// dc[i], to `fold` and returns the fold.
template <typename Fold>
[[nodiscard]] Fold fold_dataset(const capture::Dataset& dataset,
                                std::span<const int> dc, Fold fold) {
    for (std::size_t i = 0; i < dataset.records.size(); ++i) {
        fold.add(dataset.records[i], dc[i]);
    }
    return fold;
}

/// The per-DC byte/flow tallies behind preferred_dc() and
/// non_preferred_share().
class IncrementalDcTraffic {
public:
    void add(const capture::FlowRecord& record, int dc);

    /// traffic_by_dc() of everything added: sorted by (bytes desc, dc asc).
    [[nodiscard]] std::vector<DcTraffic> traffic() const;
    /// preferred_dc() of everything added so far.
    [[nodiscard]] int preferred(const ServerDcMap& map,
                                double heavy_share = 0.20) const;
    /// non_preferred_share() of everything added so far.
    [[nodiscard]] NonPreferredShare share(int preferred) const;

private:
    std::unordered_map<int, DcTraffic> tally_;
};

/// The per-hour (all, preferred) video-flow tallies behind Figs 9 and 11
/// and the §VII-A load correlation.
class IncrementalHourlyLoad {
public:
    IncrementalHourlyLoad(int preferred, std::string name)
        : preferred_(preferred), name_(std::move(name)) {}

    void add(const capture::FlowRecord& record, int dc);

    [[nodiscard]] EmpiricalCdf non_preferred_cdf() const;        // Fig. 9
    [[nodiscard]] HourlyLoadSeries preferred_series() const;     // Fig. 11
    [[nodiscard]] double correlation(std::uint64_t min_flows = 5) const;

private:
    int preferred_;
    std::string name_;
    std::vector<std::uint64_t> all_;
    std::vector<std::uint64_t> pref_;
};

/// The per-video non-preferred download counts behind Figs 13 and 14.
class IncrementalVideoRedirects {
public:
    explicit IncrementalVideoRedirects(int preferred) : preferred_(preferred) {}

    void add(const capture::FlowRecord& record, int dc);

    [[nodiscard]] EmpiricalCdf counts_cdf() const;               // Fig. 13
    /// Most-redirected videos, (count desc, video asc), at most k.
    [[nodiscard]] std::vector<cdn::VideoId> top_videos(std::size_t k) const;
    /// Distinct videos with at least one non-preferred download.
    [[nodiscard]] std::uint64_t num_videos() const noexcept {
        return counts_.size();
    }

private:
    int preferred_;
    std::unordered_map<cdn::VideoId, std::uint64_t> counts_;
};

/// Fig. 12's per-subnet breakdown. A flow counts toward the first subnet
/// that contains its client; clients outside every subnet are ignored.
class IncrementalSubnetBreakdown {
public:
    IncrementalSubnetBreakdown(int preferred, std::vector<NamedSubnet> subnets);

    void add(const capture::FlowRecord& record, int dc);

    [[nodiscard]] std::vector<SubnetShare> shares() const;

private:
    int preferred_;
    std::vector<NamedSubnet> subnets_;
    std::vector<std::uint64_t> all_;
    std::vector<std::uint64_t> np_;
    std::uint64_t total_all_ = 0;
    std::uint64_t total_np_ = 0;
};

/// Fig. 15's per-hour per-server request tallies for the preferred data
/// center. The hourly mean iterates an unordered map, but it sums
/// integer-valued doubles far below 2^53, so the sum is exact whatever the
/// iteration order.
class IncrementalServerLoad {
public:
    IncrementalServerLoad(int preferred, std::string name)
        : preferred_(preferred), name_(std::move(name)) {}

    void add(const capture::FlowRecord& record, int dc);

    [[nodiscard]] ServerLoadSeries series() const;

private:
    int preferred_;
    std::string name_;
    std::vector<std::unordered_map<net::IpAddress, std::uint64_t>> hours_;
};

}  // namespace ytcdn::analysis
