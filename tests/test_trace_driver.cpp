#include "study/trace_driver.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <vector>

#include "analysis/session.hpp"
#include "capture/binary_log.hpp"
#include "capture/sniffer.hpp"
#include "net/as_registry.hpp"
#include "sim/fault_injector.hpp"
#include "sim/simulator.hpp"
#include "util/parallel.hpp"
#include "workload/noise_source.hpp"

namespace study = ytcdn::study;
namespace capture = ytcdn::capture;
namespace sim = ytcdn::sim;
namespace workload = ytcdn::workload;
namespace analysis = ytcdn::analysis;
namespace net = ytcdn::net;
namespace cdn = ytcdn::cdn;

namespace {

study::StudyConfig tiny_config() {
    study::StudyConfig cfg;
    cfg.scale = 0.005;
    return cfg;
}

TEST(TraceDriver, PlayerConfigOverridePropagates) {
    study::StudyDeployment deployment(tiny_config());
    workload::Player::Config cfg;
    cfg.dns_ttl_s = 3600.0;
    study::TraceDriver driver(deployment, cfg);
    const auto traces = driver.run(ytcdn::sim::kDay);
    std::uint64_t hits = 0;
    for (const auto& stats : traces.player_stats) hits += stats.dns_cache_hits;
    EXPECT_GT(hits, 0u);
}

TEST(TraceDriver, DefaultConfigHasNoDnsCaching) {
    study::StudyDeployment deployment(tiny_config());
    study::TraceDriver driver(deployment);
    const auto traces = driver.run(ytcdn::sim::kDay);
    for (const auto& stats : traces.player_stats) {
        EXPECT_EQ(stats.dns_cache_hits, 0u);
    }
}

TEST(TraceDriver, Eu2LegacyFlowsAreFullQuality) {
    study::StudyDeployment deployment(tiny_config());
    study::TraceDriver driver(deployment);
    const auto traces = driver.run(2 * ytcdn::sim::kDay);

    // Average legacy (YouTube-EU AS) video-flow size: EU2's legacy streams
    // are full encodes; other networks get degraded 240p partials.
    const auto legacy_mean = [&](const ytcdn::capture::Dataset& ds) {
        double sum = 0.0;
        std::uint64_t n = 0;
        for (const auto& r : ds.records) {
            if (deployment.whois().asn_of(r.server_ip) !=
                net::well_known_as::kYouTubeEu) {
                continue;
            }
            if (analysis::classify_flow_size(r.bytes) != analysis::FlowKind::Video) {
                continue;
            }
            sum += static_cast<double>(r.bytes);
            ++n;
        }
        return n == 0 ? 0.0 : sum / static_cast<double>(n);
    };
    double eu2 = 0.0, others = 0.0;
    int other_count = 0;
    for (const auto& ds : traces.datasets) {
        const double mean = legacy_mean(ds);
        if (ds.name == "EU2") {
            eu2 = mean;
        } else if (mean > 0.0) {
            others += mean;
            ++other_count;
        }
    }
    ASSERT_GT(eu2, 0.0);
    ASSERT_GT(other_count, 0);
    EXPECT_GT(eu2, 2.0 * (others / other_count));
}

TEST(TraceDriver, HorizonIsRespectedWithDrainWindow) {
    study::StudyDeployment deployment(tiny_config());
    study::TraceDriver driver(deployment);
    const double horizon = ytcdn::sim::kDay;
    const auto traces = driver.run(horizon);
    for (const auto& ds : traces.datasets) {
        for (const auto& r : ds.records) {
            // No flow *starts* after the capture horizon plus the redirect
            // drain window (pause resumes can trail the last arrival).
            EXPECT_LE(r.start, horizon + 2.0 * ytcdn::sim::kHour) << ds.name;
        }
    }
}

TEST(TraceDriver, SharedCdnStateAcrossVantagePoints) {
    // A video pulled by one network's miss is warm for another: run the
    // driver and check pulled caches are globally visible.
    study::StudyDeployment deployment(tiny_config());
    study::TraceDriver driver(deployment);
    (void)driver.run(ytcdn::sim::kDay);
    std::size_t pulled_total = 0;
    for (const auto& dc : deployment.cdn().data_centers()) {
        if (!cdn::in_analysis_scope(dc.infra)) continue;
        pulled_total += deployment.cdn().cache(dc.id).pulled_count();
    }
    EXPECT_GT(pulled_total, 0u);
}

TEST(TraceDriver, UnknownFaultTargetsFailLoudly) {
    // A chaos experiment aimed at a typo'd target must throw, not quietly
    // run a healthy baseline.
    const std::pair<sim::FaultAction, const char*> bad[] = {
        {sim::FaultAction::DcDown, "Atlantis"},
        {sim::FaultAction::ServerDrain, "no-such-server.example"},
        {sim::FaultAction::ResolverDown, "no-such-resolver"},
    };
    for (const auto& [action, target] : bad) {
        SCOPED_TRACE(target);
        auto cfg = tiny_config();
        cfg.fault_schedule.add(60.0, action, target);
        study::StudyDeployment deployment(cfg);
        study::TraceDriver driver(deployment);
        EXPECT_THROW((void)driver.run(ytcdn::sim::kHour), std::invalid_argument);
    }
}

TEST(TraceDriver, SinkCountMustMatchVantagePoints) {
    study::StudyDeployment deployment(tiny_config());
    struct Discard : capture::FlowSink {
        void on_flow(const capture::FlowRecord&) override {}
    } sink;
    study::TraceDriver driver(deployment);
    driver.set_flow_sinks(std::vector<capture::FlowSink*>(
        deployment.num_vantage_points() - 1, &sink));
    EXPECT_THROW((void)driver.run(ytcdn::sim::kHour), std::invalid_argument);
}

TEST(TraceDriver, StreamingSinksSeeTheExactMaterializedRecords) {
    // Sink mode is the bounded-memory capture path: the forwarded stream
    // must carry the same records the materializing run accumulates, each
    // VP's stream sorted by non-decreasing start time (the precondition
    // the incremental analyses rely on), and the returned datasets must
    // stay empty while every counter still matches.
    study::StudyDeployment reference_dep(tiny_config());
    const auto materialized = study::TraceDriver(reference_dep).run();

    struct Collect : capture::FlowSink {
        std::vector<capture::FlowRecord> records;
        void on_flow(const capture::FlowRecord& r) override {
            records.push_back(r);
        }
    };
    std::vector<Collect> collectors(study::kNumVantagePoints);
    std::vector<capture::FlowSink*> sinks;
    for (auto& c : collectors) sinks.push_back(&c);

    study::StudyDeployment dep(tiny_config());
    study::TraceDriver driver(dep);
    driver.set_flow_sinks(std::move(sinks));
    const auto streamed = driver.run();

    ASSERT_EQ(streamed.datasets.size(), materialized.datasets.size());
    for (std::size_t i = 0; i < streamed.datasets.size(); ++i) {
        EXPECT_TRUE(streamed.datasets[i].records.empty()) << i;
        EXPECT_EQ(streamed.flows_observed[i], materialized.flows_observed[i]);
        EXPECT_EQ(streamed.flows_ignored[i], materialized.flows_ignored[i]);

        // The stream arrives start-sorted...
        const auto& got = collectors[i].records;
        for (std::size_t k = 1; k < got.size(); ++k) {
            ASSERT_LE(got[k - 1].start, got[k].start) << i << "/" << k;
        }
        // ...and sorting it like the materializing join does yields the
        // exact dataset the materializing run produced.
        capture::Dataset ds;
        ds.name = materialized.datasets[i].name;
        ds.records = got;
        ds.sort_by_time();
        std::ostringstream a, b;
        capture::write_binary_log(a, ds.records);
        capture::write_binary_log(b, materialized.datasets[i].records);
        EXPECT_EQ(a.str(), b.str()) << i;
    }
    EXPECT_EQ(streamed.unique_hosts, materialized.unique_hosts);
}

TEST(TraceDriver, IgnoredFlowsEqualAStandaloneNoiseReplay) {
    // Each vantage point's background traffic runs on its own clock and
    // sniffer beside the engine, and the join adds the lanes' counts to the
    // engine's. A standalone replay of each noise stream — a private
    // Simulator and Sniffer with the run's "noise-<vp>" fork — must account
    // for every flow the run ignored, and the event total must equal the
    // value recorded when noise still went through the engine's merge.
    study::StudyDeployment dep(tiny_config());
    ytcdn::util::ThreadPool pool(4);
    const auto traces = study::TraceDriver(dep).run(pool);

    const sim::Rng driver_rng = dep.root_rng().fork("trace-driver");
    std::uint64_t replayed_events = 0;
    for (std::size_t i = 0; i < dep.num_vantage_points(); ++i) {
        auto& vp = dep.vantage(i);
        SCOPED_TRACE(vp.name);
        sim::Simulator clock;
        capture::Sniffer sniffer(vp.name);
        workload::NoiseSource noise(clock, vp, sniffer, workload::NoiseSource::Config{},
                                    driver_rng.fork("noise-" + vp.name));
        noise.run(sim::kWeek);
        clock.run_until(sim::kWeek + 2.0 * sim::kHour);
        replayed_events += clock.events_processed();
        EXPECT_GT(noise.flows_emitted(), 0u);
        EXPECT_EQ(sniffer.flows_ignored(), noise.flows_emitted());
        EXPECT_EQ(traces.flows_ignored[i], sniffer.flows_ignored());
        EXPECT_EQ(traces.flows_observed[i] - traces.flows_ignored[i],
                  traces.datasets[i].records.size());
    }
    EXPECT_LT(replayed_events, traces.events_processed);
    EXPECT_EQ(traces.events_processed, 51158u);
}

}  // namespace
