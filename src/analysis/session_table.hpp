#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "capture/dataset.hpp"

namespace ytcdn::analysis {

/// Compressed-sparse-row view of a dataset's video sessions: session s owns
/// the records dataset.records[flow_rows[offsets[s] .. offsets[s+1])], in
/// (start, end) order.
///
/// A video session is "all flows that i) have the same source IP address
/// and VideoID, and ii) are overlapped in time", where two flows overlap if
/// the gap between the end of one and the start of the next is below T
/// (Section VI-A). Sessions are ordered by (start, client, video). One
/// index array and one offset array hold every session, so grouping costs
/// no per-session allocation. The session analyses
/// (analysis/session_analysis.hpp), Fig. 16 and `ytcdn sessions` read this
/// table; tests/golden_digests.hpp pins its output.
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
