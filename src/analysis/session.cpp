#include "analysis/session.hpp"

namespace ytcdn::analysis {

std::vector<ResolutionShare> resolution_breakdown(const capture::Dataset& dataset) {
    std::vector<ResolutionShare> out;
    out.reserve(std::size(cdn::kAllResolutions));
    for (const auto r : cdn::kAllResolutions) {
        out.push_back(ResolutionShare{r, 0.0, 0.0});
    }
    std::uint64_t flows = 0;
    std::uint64_t bytes = 0;
    for (const auto& rec : dataset.records) {
        if (classify_flow_size(rec.bytes) != FlowKind::Video) continue;
        auto& share = out[static_cast<std::size_t>(rec.resolution)];
        share.flow_share += 1.0;
        share.byte_share += static_cast<double>(rec.bytes);
        ++flows;
        bytes += rec.bytes;
    }
    for (auto& share : out) {
        if (flows > 0) share.flow_share /= static_cast<double>(flows);
        if (bytes > 0) share.byte_share /= static_cast<double>(bytes);
    }
    return out;
}

}  // namespace ytcdn::analysis
