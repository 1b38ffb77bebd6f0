#pragma once

#include <cstdint>
#include <vector>

#include "capture/dataset.hpp"

namespace ytcdn::analysis {

/// The control/video flow-size threshold the paper derives from the kink in
/// Fig. 4: "flows smaller than 1000 bytes ... correspond to control flows".
inline constexpr std::uint64_t kControlFlowMaxBytes = 1000;

enum class FlowKind { Control, Video };

[[nodiscard]] constexpr FlowKind classify_flow_size(std::uint64_t bytes) noexcept {
    return bytes < kControlFlowMaxBytes ? FlowKind::Control : FlowKind::Video;
}

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
