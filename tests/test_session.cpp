#include "analysis/session.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "analysis/incremental.hpp"
#include "analysis/session_table.hpp"
#include "golden_digests.hpp"
#include "sim/random.hpp"

namespace analysis = ytcdn::analysis;
namespace capture = ytcdn::capture;
namespace cdn = ytcdn::cdn;
namespace golden = ytcdn::golden;
namespace net = ytcdn::net;
using ytcdn::analysis::SessionTable;

namespace {

capture::FlowRecord flow(std::uint32_t client, std::uint64_t video, double start,
                         double end, std::uint64_t bytes = 5000) {
    capture::FlowRecord r;
    r.client_ip = net::IpAddress{client};
    r.server_ip = net::IpAddress::from_octets(173, 194, 0, 1);
    r.video = cdn::VideoId{video};
    r.start = start;
    r.end = end;
    r.bytes = bytes;
    return r;
}

capture::Dataset dataset(std::vector<capture::FlowRecord> records) {
    capture::Dataset ds;
    ds.name = "T";
    ds.records = std::move(records);
    return ds;
}

TEST(FlowClassify, ThousandByteThreshold) {
    EXPECT_EQ(analysis::classify_flow_size(0), analysis::FlowKind::Control);
    EXPECT_EQ(analysis::classify_flow_size(999), analysis::FlowKind::Control);
    EXPECT_EQ(analysis::classify_flow_size(1000), analysis::FlowKind::Video);
    EXPECT_EQ(analysis::classify_flow_size(5'000'000), analysis::FlowKind::Video);
}

// The hand-built datasets of the Sessions.* tests, each with the gaps its
// test groups it at. Some are deliberately out of time order.

capture::Dataset within_gap() {
    return dataset({
        flow(1, 100, 0.0, 10.0),
        flow(1, 100, 10.5, 20.0),  // gap 0.5 < 1 -> same session
    });
}

capture::Dataset large_gap() {
    return dataset({
        flow(1, 100, 0.0, 10.0),
        flow(1, 100, 12.0, 20.0),  // gap 2 > 1 -> new session
    });
}

capture::Dataset distinct_keys() {
    return dataset({
        flow(1, 100, 0.0, 10.0),
        flow(1, 200, 0.1, 9.0),   // other video
        flow(2, 100, 0.2, 9.5),   // other client
    });
}

capture::Dataset overlapping() {
    return dataset({
        flow(1, 100, 0.0, 100.0),
        flow(1, 100, 50.0, 60.0),  // fully nested
        flow(1, 100, 99.5, 120.0),
    });
}

capture::Dataset nested_control() {
    return dataset({
        flow(1, 100, 0.0, 100.0),  // long video flow
        flow(1, 100, 1.0, 2.0),    // short control flow, ends early
        flow(1, 100, 100.5, 110.0),
    });
}

capture::Dataset reversed_pair() {
    return dataset({
        flow(1, 100, 5.0, 6.0),
        flow(1, 100, 0.0, 4.5),
    });
}

capture::Dataset unsorted_keys() {
    return dataset({
        flow(2, 200, 50.0, 60.0),
        flow(1, 100, 0.0, 10.0),
        flow(3, 300, 25.0, 30.0),
    });
}

struct HandBuilt {
    capture::Dataset ds;
    std::vector<double> gaps;
};

std::vector<HandBuilt> hand_built() {
    return {{within_gap(), {1.0}},     {large_gap(), {1.0, 5.0}},
            {distinct_keys(), {10.0}}, {overlapping(), {1.0}},
            {nested_control(), {1.0}}, {reversed_pair(), {1.0}},
            {unsorted_keys(), {1.0}},  {dataset({}), {1.0}}};
}

TEST(Sessions, GroupsSameClientVideoWithinGap) {
    const auto sessions = SessionTable::build(within_gap(), 1.0);
    ASSERT_EQ(sessions.num_sessions(), 1u);
    EXPECT_EQ(sessions.flows_of(0).size(), 2u);
}

TEST(Sessions, SplitsOnLargeGap) {
    const auto ds = large_gap();
    EXPECT_EQ(SessionTable::build(ds, 1.0).num_sessions(), 2u);
    EXPECT_EQ(SessionTable::build(ds, 5.0).num_sessions(), 1u);  // larger T merges
}

TEST(Sessions, DifferentVideoOrClientNeverMerge) {
    EXPECT_EQ(SessionTable::build(distinct_keys(), 10.0).num_sessions(), 3u);
}

TEST(Sessions, OverlappingFlowsAreOneSession) {
    const auto sessions = SessionTable::build(overlapping(), 1.0);
    ASSERT_EQ(sessions.num_sessions(), 1u);
    EXPECT_EQ(sessions.flows_of(0).size(), 3u);
}

TEST(Sessions, NestedFlowDoesNotShortenHorizon) {
    // A short control flow inside a long video flow must not cause a split
    // when the next flow starts within T of the *latest* end seen so far.
    EXPECT_EQ(SessionTable::build(nested_control(), 1.0).num_sessions(), 1u);
}

TEST(Sessions, FlowsSortedWithinSession) {
    const auto ds = reversed_pair();
    const auto sessions = SessionTable::build(ds, 1.0);
    ASSERT_EQ(sessions.num_sessions(), 1u);
    EXPECT_DOUBLE_EQ(ds.records[sessions.flows_of(0)[0]].start, 0.0);
    EXPECT_DOUBLE_EQ(sessions.start[0], 0.0);
}

TEST(Sessions, OutputSortedByStartTime) {
    const auto sessions = SessionTable::build(unsorted_keys(), 1.0);
    ASSERT_EQ(sessions.num_sessions(), 3u);
    EXPECT_LT(sessions.start[0], sessions.start[1]);
    EXPECT_LT(sessions.start[1], sessions.start[2]);
}

TEST(Sessions, EmptyDataset) {
    EXPECT_EQ(SessionTable::build(dataset({}), 1.0).num_sessions(), 0u);
}

TEST(ResolutionBreakdown, SharesPartitionVideoFlows) {
    capture::Dataset ds;
    auto make = [](std::uint64_t bytes, cdn::Resolution r) {
        capture::FlowRecord rec;
        rec.bytes = bytes;
        rec.resolution = r;
        return rec;
    };
    ds.records = {
        make(10'000, cdn::Resolution::R360), make(10'000, cdn::Resolution::R360),
        make(30'000, cdn::Resolution::R720), make(500, cdn::Resolution::R240),
    };
    const auto shares = analysis::resolution_breakdown(ds);
    ASSERT_EQ(shares.size(), 5u);
    // The 500-byte control flow is excluded.
    EXPECT_DOUBLE_EQ(shares[static_cast<int>(cdn::Resolution::R240)].flow_share, 0.0);
    EXPECT_NEAR(shares[static_cast<int>(cdn::Resolution::R360)].flow_share, 2.0 / 3.0,
                1e-12);
    EXPECT_NEAR(shares[static_cast<int>(cdn::Resolution::R720)].byte_share, 0.6,
                1e-12);
    double flow_sum = 0.0, byte_sum = 0.0;
    for (const auto& s : shares) {
        flow_sum += s.flow_share;
        byte_sum += s.byte_share;
    }
    EXPECT_NEAR(flow_sum, 1.0, 1e-12);
    EXPECT_NEAR(byte_sum, 1.0, 1e-12);
}

TEST(ResolutionBreakdown, EmptyDatasetIsAllZero) {
    const auto shares = analysis::resolution_breakdown(capture::Dataset{});
    for (const auto& s : shares) {
        EXPECT_DOUBLE_EQ(s.flow_share, 0.0);
        EXPECT_DOUBLE_EQ(s.byte_share, 0.0);
    }
}

/// SessionProperty's random dataset: 400 flows over 5 clients and 10
/// videos, durations up to 300 s.
capture::Dataset property_dataset(std::uint64_t seed) {
    ytcdn::sim::Rng rng(seed);
    std::vector<capture::FlowRecord> records;
    for (int i = 0; i < 400; ++i) {
        const double start = rng.uniform(0.0, 3000.0);
        records.push_back(flow(static_cast<std::uint32_t>(rng.uniform_index(5)),
                               rng.uniform_index(10), start,
                               start + rng.uniform(0.1, 300.0)));
    }
    return dataset(std::move(records));
}

constexpr double kPropertyGaps[] = {1.0, 5.0, 10.0, 60.0, 300.0};
constexpr std::uint64_t kPropertySeeds[] = {1, 2, 3, 4};

/// Property: total flows across sessions equals dataset flows; smaller T
/// never produces fewer sessions.
class SessionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SessionProperty, ConservationAndMonotonicity) {
    const auto ds = property_dataset(GetParam());
    std::size_t prev_sessions = SIZE_MAX;
    for (const double t : kPropertyGaps) {
        const auto sessions = SessionTable::build(ds, t);
        std::size_t flows = 0;
        for (std::size_t s = 0; s < sessions.num_sessions(); ++s) {
            flows += sessions.flows_of(s).size();
        }
        EXPECT_EQ(flows, ds.records.size()) << "T=" << t;
        EXPECT_LE(sessions.num_sessions(), prev_sessions) << "T=" << t;
        prev_sessions = sessions.num_sessions();
        for (std::size_t s = 0; s < sessions.num_sessions(); ++s) {
            for (const auto row : sessions.flows_of(s)) {
                EXPECT_EQ(ds.records[row].client_ip, sessions.client[s]);
                EXPECT_EQ(ds.records[row].video, sessions.video[s]);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionProperty, ::testing::ValuesIn(kPropertySeeds));

TEST(Sessions, GroupingsMatchPinnedDigest) {
    // Pinned to build_sessions' grouping of the same datasets at the same gaps.
    golden::ResultLog table;
    for (const auto& h : hand_built()) {
        for (const double gap : h.gaps) table.add(SessionTable::build(h.ds, gap));
    }
    for (const auto seed : kPropertySeeds) {
        const auto ds = property_dataset(seed);
        for (const double gap : kPropertyGaps) table.add(SessionTable::build(ds, gap));
    }
    EXPECT_EQ(table.digest(), golden::kHandBuiltSessions);
}

TEST(IncrementalSummary, HandBuiltDatasetsMatchPinnedDigest) {
    // Pinned to Dataset::summary() of the same datasets.
    golden::ResultLog incremental;
    for (const auto& h : hand_built()) incremental.add(analysis::summarize(h.ds));
    for (const auto seed : kPropertySeeds) {
        incremental.add(analysis::summarize(property_dataset(seed)));
    }
    EXPECT_EQ(incremental.digest(), golden::kHandBuiltSummaries);
}

}  // namespace
