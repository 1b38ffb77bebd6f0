// The CSR SessionTable and every §VI-VII analysis must reproduce, on
// randomized datasets, the digests recorded from the implementations they
// replaced: the build_sessions grouping, the Dataset::summary() Table I
// tally, the AoS record walks, the FlowTable column scans and the
// VideoSession pattern functions.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/incremental.hpp"
#include "analysis/loadbalance_analysis.hpp"
#include "analysis/preferred_dc.hpp"
#include "analysis/redirect_analysis.hpp"
#include "analysis/session.hpp"
#include "analysis/session_analysis.hpp"
#include "analysis/session_table.hpp"
#include "analysis/streaming.hpp"
#include "analysis/subnet_analysis.hpp"
#include "golden_digests.hpp"
#include "sim/random.hpp"

namespace analysis = ytcdn::analysis;
namespace capture = ytcdn::capture;
namespace cdn = ytcdn::cdn;
namespace golden = ytcdn::golden;
namespace net = ytcdn::net;
namespace sim = ytcdn::sim;

namespace {

capture::FlowRecord flow(std::uint8_t client, std::uint8_t server, double start,
                         double end, std::uint64_t bytes, std::uint64_t video) {
    capture::FlowRecord r;
    r.client_ip = net::IpAddress::from_octets(10, 0, 0, client);
    r.server_ip = net::IpAddress::from_octets(173, 194, server, 1);
    r.start = start;
    r.end = end;
    r.bytes = bytes;
    r.video = cdn::VideoId{video};
    r.resolution = cdn::Resolution::R360;
    return r;
}

/// A randomized dataset exercising grouping, gaps, nesting, control flows
/// and unmapped servers, plus the map covering only some of the servers.
struct RandomWorld {
    capture::Dataset dataset;
    analysis::ServerDcMap map;
    int preferred = 0;
};

RandomWorld random_world(std::uint64_t seed, std::size_t flows) {
    sim::Rng rng(seed);
    RandomWorld w;
    w.dataset.name = "RND";
    // 3 mapped data centers over servers .0-.5, servers .6-.7 unmapped.
    for (int d = 0; d < 3; ++d) {
        analysis::DataCenterInfo info;
        info.name = "dc" + std::to_string(d);
        w.map.add_data_center(info);
    }
    for (std::uint8_t s = 0; s < 6; ++s) {
        w.map.assign(net::IpAddress::from_octets(173, 194, s, 1), s % 3);
    }
    for (std::size_t i = 0; i < flows; ++i) {
        const auto client = static_cast<std::uint8_t>(rng.uniform_index(4));
        const auto server = static_cast<std::uint8_t>(rng.uniform_index(8));
        const double start = rng.uniform(0.0, 20.0 * 3600.0);
        const double dur = rng.uniform(0.1, 30.0);
        // ~1/4 control flows (< 1000 bytes).
        const std::uint64_t bytes =
            rng.uniform_index(4) == 0
                ? rng.uniform_index(999)
                : 1000 + rng.uniform_index(5'000'000);
        const std::uint64_t video = rng.uniform_index(6);
        w.dataset.records.push_back(
            flow(client, server, start, start + dur, bytes, video));
    }
    w.dataset.sort_by_time();
    return w;
}

/// Nested flows (a long video flow outliving a control flow started after
/// it) and a gap split, same (client, video) key throughout.
capture::Dataset nested_world() {
    capture::Dataset ds;
    ds.name = "S";
    ds.records.push_back(flow(1, 0, 0.0, 100.0, 5000, 1));   // long video flow
    ds.records.push_back(flow(1, 1, 1.0, 2.0, 500, 1));      // nested control
    ds.records.push_back(flow(1, 2, 100.5, 101.0, 600, 1));  // within gap of horizon
    ds.records.push_back(flow(1, 3, 200.0, 201.0, 5000, 1)); // new session
    ds.records.push_back(flow(2, 0, 0.5, 3.0, 5000, 1));     // other client
    ds.sort_by_time();
    return ds;
}

TEST(SessionTable, MatchesBuildSessions) {
    // Pinned to build_sessions' grouping of this dataset. Sorted, the rows
    // are (0, 100) c1, (0.5, 3) c2, (1, 2) c1, (100.5, 101) c1, (200, 201) c1.
    const auto ds = nested_world();
    const auto csr = analysis::SessionTable::build(ds, 1.0);

    ASSERT_EQ(csr.num_sessions(), 3u);
    const std::vector<std::vector<std::uint32_t>> rows{{0, 2, 3}, {1}, {4}};
    const std::uint8_t clients[] = {1, 2, 1};
    const double starts[] = {0.0, 0.5, 200.0};
    for (std::size_t s = 0; s < 3; ++s) {
        EXPECT_EQ(csr.client[s], net::IpAddress::from_octets(10, 0, 0, clients[s]));
        EXPECT_EQ(csr.video[s], cdn::VideoId{1});
        EXPECT_DOUBLE_EQ(csr.start[s], starts[s]);
        const auto got = csr.flows_of(s);
        EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), rows[s]);
    }
    EXPECT_EQ(golden::ResultLog().add(csr).digest(), golden::kNestedGapSessions);
}

TEST(SessionTable, RandomizedSessionEquivalence) {
    // Pinned to build_sessions' grouping of these worlds; each session's
    // rows carry its key, and the sessions partition the records.
    golden::ResultLog table;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const auto w = random_world(seed, 400);
        const auto csr = analysis::SessionTable::build(w.dataset, 1.0);
        table.add(csr);

        std::vector<int> seen(w.dataset.records.size(), 0);
        for (std::size_t s = 0; s < csr.num_sessions(); ++s) {
            for (const auto row : csr.flows_of(s)) {
                const auto& r = w.dataset.records[row];
                EXPECT_EQ(r.client_ip, csr.client[s]) << "seed " << seed;
                EXPECT_EQ(r.video, csr.video[s]) << "seed " << seed;
                ++seen[row];
            }
        }
        EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
                  static_cast<std::ptrdiff_t>(seen.size()))
            << "seed " << seed;
    }
    EXPECT_EQ(table.digest(), golden::kRandomWorldSessions);
}

TEST(IncrementalSummary, RandomWorldsMatchPinnedDigest) {
    // Pinned to Dataset::summary() of the same worlds.
    golden::ResultLog incremental;
    std::vector<capture::Dataset> worlds{nested_world()};
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        worlds.push_back(random_world(seed, 400).dataset);
    }
    for (const auto& ds : worlds) incremental.add(analysis::summarize(ds));
    EXPECT_EQ(incremental.digest(), golden::kRandomWorldSummaries);
}

TEST(SessionTable, PatternSharesMatchAoS) {
    // Pinned to the VideoSession pattern functions this table replaced.
    golden::ResultLog log;
    for (std::uint64_t seed = 11; seed <= 15; ++seed) {
        const auto w = random_world(seed, 500);
        const auto csr = analysis::SessionTable::build(w.dataset, 1.0);
        const auto dc = analysis::dc_column(w.dataset, w.map);
        log.add(analysis::session_patterns(csr, dc, w.preferred))
            .add(analysis::multi_flow_patterns(csr, dc, w.preferred))
            .add(analysis::flows_per_session_cdf(csr));
    }
    EXPECT_EQ(log.digest(), golden::kRandomSessionPatterns);
}

TEST(FlowTable, ScanAnalysesMatchAoS) {
    // Pinned to the AoS record walks and the FlowTable column scans, which
    // agreed with each other on these worlds before both were replaced.
    golden::ResultLog log;
    for (std::uint64_t seed = 21; seed <= 23; ++seed) {
        const auto w = random_world(seed, 600);
        const auto& ds = w.dataset;
        const int p = w.preferred;
        const cdn::VideoId video{2};
        const std::vector<analysis::NamedSubnet> subnets{
            {"net0", net::Subnet(net::IpAddress::from_octets(10, 0, 0, 0), 31)},
            {"net1", net::Subnet(net::IpAddress::from_octets(10, 0, 0, 2), 31)}};
        const auto sessions = analysis::SessionTable::build(ds, 1.0);
        const auto dc = analysis::dc_column(ds, w.map);
        log.add(analysis::traffic_by_dc(ds, w.map))
            .add(analysis::preferred_dc(ds, w.map))
            .add(analysis::non_preferred_share(ds, w.map, p))
            .add(analysis::hourly_non_preferred_fraction(ds, w.map, p))
            .add(analysis::hourly_preferred_series(ds, w.map, p))
            .add(analysis::load_vs_nonpreferred_correlation(ds, w.map, p))
            .add(analysis::video_non_preferred_counts(ds, w.map, p))
            .add(analysis::top_redirected_videos(ds, w.map, p, 4))
            .add(analysis::video_hourly_load(ds, w.map, p, video))
            .add(analysis::preferred_dc_server_load(ds, w.map, p))
            .add(analysis::subnet_breakdown(ds, w.map, p, subnets))
            .add(analysis::hot_server_sessions(ds, sessions, dc, p, video))
            .add(analysis::resolution_breakdown(ds));
    }
    EXPECT_EQ(log.digest(), golden::kRandomScanAnalyses);
}

}  // namespace
