#pragma once

#include <cstdint>
#include <vector>

#include "capture/dataset.hpp"
#include "capture/flow_record.hpp"

namespace ytcdn::analysis {

/// The control/video flow-size threshold the paper derives from the kink in
/// Fig. 4: "flows smaller than 1000 bytes ... correspond to control flows".
inline constexpr std::uint64_t kControlFlowMaxBytes = 1000;

enum class FlowKind { Control, Video };

[[nodiscard]] constexpr FlowKind classify_flow_size(std::uint64_t bytes) noexcept {
    return bytes < kControlFlowMaxBytes ? FlowKind::Control : FlowKind::Video;
}

/// A video session: "all flows that i) have the same source IP address and
/// VideoID, and ii) are overlapped in time", where two flows overlap if the
/// gap between the end of one and the start of the next is below T
/// (Section VI-A).
struct VideoSession {
    net::IpAddress client;
    cdn::VideoId video;
    /// Flows in start-time order, pointing into the dataset's records.
    std::vector<const capture::FlowRecord*> flows;

    [[nodiscard]] std::size_t num_flows() const noexcept { return flows.size(); }
    [[nodiscard]] sim::SimTime start() const noexcept { return flows.front()->start; }
};

/// Groups a dataset's records into sessions with gap threshold `gap_T_s`
/// (the paper settles on T = 1 s after the Fig. 5 sensitivity study).
/// The dataset does not need to be pre-sorted. This is the reference
/// grouping: the analyses run on SessionTable (analysis/session_table.hpp)
/// and ytcdnd on IncrementalSessions, and tests check both against it.
[[nodiscard]] std::vector<VideoSession> build_sessions(const capture::Dataset& dataset,
                                                       double gap_T_s = 1.0);

/// Composition of a dataset by streamed resolution — Tstat records the
/// actual itag served, so this is directly available from the flow logs.
struct ResolutionShare {
    cdn::Resolution resolution = cdn::Resolution::R360;
    double flow_share = 0.0;  // of video flows
    double byte_share = 0.0;  // of video-flow bytes
};

/// Shares over video flows only (control flows carry no stream), ordered by
/// ascending resolution. Entries with zero flows are included.
[[nodiscard]] std::vector<ResolutionShare> resolution_breakdown(
    const capture::Dataset& dataset);

}  // namespace ytcdn::analysis
