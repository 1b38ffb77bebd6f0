#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "capture/dataset.hpp"

namespace ytcdn::analysis {

/// Compressed-sparse-row view of a dataset's video sessions: session s owns
/// the records dataset.records[flow_rows[offsets[s] .. offsets[s+1])], in
/// start-time order.
///
/// Semantics match build_sessions exactly — same grouping key (client IP,
/// VideoID), same gap threshold, same (start, client, video) session order —
/// without the per-session pointer vectors (one index array and one offset
/// array replace ~a million small allocations at paper scale). The session
/// analyses (analysis/session_analysis.hpp) and Fig. 16 read this table.
struct SessionTable {
    std::vector<std::uint32_t> offsets;    // num_sessions() + 1 entries
    std::vector<std::uint32_t> flow_rows;  // indices into dataset.records
    std::vector<net::IpAddress> client;    // per session
    std::vector<cdn::VideoId> video;       // per session
    std::vector<sim::SimTime> start;       // per session (first flow's start)

    [[nodiscard]] std::size_t num_sessions() const noexcept {
        return offsets.empty() ? 0 : offsets.size() - 1;
    }
    [[nodiscard]] std::span<const std::uint32_t> flows_of(std::size_t s) const noexcept {
        return {flow_rows.data() + offsets[s], flow_rows.data() + offsets[s + 1]};
    }

    /// Groups the dataset's records into sessions with gap threshold
    /// `gap_T_s` (the paper's T = 1 s by default). The records need not be
    /// pre-sorted.
    [[nodiscard]] static SessionTable build(const capture::Dataset& dataset,
                                            double gap_T_s = 1.0);
};

}  // namespace ytcdn::analysis
