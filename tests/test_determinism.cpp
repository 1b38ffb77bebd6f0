// Bit-for-bit reproducibility: the whole study — world construction,
// week-long simulation across five vantage points, DNS randomness, player
// behaviour — must be a pure function of the configuration. This is the
// regression guard that makes every EXPERIMENTS.md number trustworthy.

#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/geo_analysis.hpp"
#include "analysis/incremental.hpp"
#include "analysis/loadbalance_analysis.hpp"
#include "analysis/series.hpp"
#include "geo/city.hpp"
#include "geoloc/cbg.hpp"
#include "golden_digests.hpp"
#include "sim/tracer.hpp"
#include "study/dc_map_builder.hpp"
#include "study/report.hpp"
#include "study/scale_run.hpp"
#include "study/study_run.hpp"
#include "study/supervisor.hpp"
#include "util/io.hpp"
#include "util/metrics.hpp"

namespace analysis = ytcdn::analysis;
namespace geo = ytcdn::geo;
namespace geoloc = ytcdn::geoloc;
namespace golden = ytcdn::golden;
namespace sim = ytcdn::sim;
namespace study = ytcdn::study;

namespace {

study::StudyConfig small_config(std::uint64_t seed = 0xCDA1'2011ull) {
    study::StudyConfig cfg;
    cfg.scale = 0.005;
    cfg.seed = seed;
    return cfg;
}

/// Renders every table and figure series the study emits into one string —
/// the byte-compare target. Any unordered-container iteration or unseeded
/// randomness leaking into the output pipeline shows up here.
std::string render_artifacts(const study::StudyRun& run) {
    std::ostringstream os;
    os << study::make_table1(run).render()
       << study::make_table2(run).render()
       << study::make_failure_table(run).render()
       << study::make_retry_table(run).render();

    std::vector<analysis::Series> series;
    for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
        const auto& ds = run.traces.datasets[i];
        series.push_back(analysis::bytes_vs_rtt(ds, run.maps[i]));
        series.push_back(analysis::bytes_vs_distance(ds, run.maps[i]));
        series.push_back({ds.name + " hourly-np",
                          analysis::hourly_non_preferred_fraction(ds, run.maps[i],
                                                                  run.preferred[i])
                              .curve(60)});
    }
    const auto eu2 = run.vp_index("EU2");
    auto hourly = analysis::hourly_preferred_series(run.traces.datasets[eu2],
                                                    run.maps[eu2], run.preferred[eu2]);
    series.push_back(std::move(hourly.fraction_preferred));
    series.push_back(std::move(hourly.flows_per_hour));
    analysis::write_series(os, series);
    return os.str();
}

/// Table III goes through the full CBG geolocation pipeline (landmarks, probe
/// RNG, region clustering) — rendered with a locator built from scratch so the
/// whole path is covered, not a shared calibration.
std::string render_table3(const study::StudyRun& run, const study::StudyConfig& cfg) {
    const auto opts = golden::reduced_table3_options();
    geoloc::CbgLocator locator(
        run.deployment->rtt(),
        geoloc::make_planetlab_landmarks(geo::CityDatabase::builtin(),
                                         sim::Rng(cfg.seed ^ 0x9B), opts.landmarks),
        opts.cbg, cfg.seed ^ 0xCB6);
    locator.calibrate();
    std::vector<analysis::ContinentCounts> continent_counts;
    for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
        const auto mapping =
            study::cbg_dc_map(*run.deployment, run.traces.datasets[i], locator,
                              run.deployment->vantage(i), run.deployment->local_as(i));
        continent_counts.push_back(analysis::servers_per_continent(mapping.located));
    }
    return study::make_table3(run, continent_counts).render();
}

TEST(Determinism, ThreadCountInvariance) {
    // The parallel layer is an execution detail: the full pipeline — study
    // run, per-VP map derivation, every report artifact including the CBG
    // pipeline behind Table III — must render byte-identical output whether
    // it runs on one thread, two, or eight.
    const auto cfg = small_config();
    const auto opts = golden::reduced_table3_options();

    const auto render_at = [&](std::size_t threads) {
        ytcdn::util::ThreadPool pool(threads);
        const auto run = study::run_study(cfg, pool);
        return study::make_full_report(run, pool, opts).render();
    };

    const std::string serial = render_at(1);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, render_at(2));
    EXPECT_EQ(serial, render_at(8));
}

TEST(Determinism, RenderedArtifactsAreByteIdentical) {
    // The paper-facing outputs — every table and figure series — must be
    // byte-for-byte reproducible, end to end, including the CBG geolocation
    // pipeline behind Table III.
    const auto cfg = small_config();
    const auto a = study::run_study(cfg);
    const auto b = study::run_study(cfg);

    EXPECT_EQ(render_artifacts(a), render_artifacts(b));
    EXPECT_EQ(render_table3(a, cfg), render_table3(b, cfg));
}

TEST(Determinism, FlowTableEquivalence) {
    // The report — §VII folds over the dataset records, SessionTable and dc
    // columns — must render the exact bytes the AoS record walks and the
    // FlowTable column scans rendered before they were retired. Their output
    // survives as a recorded digest; the per-function digests live in
    // test_flow_table and test_streaming_analysis. Table III does not read
    // the flow records' analyses and is expensive, so it is excluded here.
    const auto run = study::run_study(small_config());
    study::ReportOptions opts;
    opts.include_table3 = false;
    const std::string bytes = study::make_full_report(run, opts).render();
    ASSERT_FALSE(bytes.empty());
    EXPECT_EQ(golden::digest_of(bytes), golden::kScale0005[0].report);
}

TEST(Determinism, RenderedArtifactsWithFaultScheduleAreByteIdentical) {
    // Same guarantee under chaos: an outage script changes the numbers but
    // must not introduce any run-to-run variation.
    auto cfg = small_config();
    cfg.fault_schedule = ytcdn::sim::FaultSchedule::dc_outage(
        "Dallas", 2.0 * ytcdn::sim::kDay, 1.5 * ytcdn::sim::kDay);

    const auto a = study::run_study(cfg);
    const auto b = study::run_study(cfg);

    const auto artifacts = render_artifacts(a);
    EXPECT_EQ(artifacts, render_artifacts(b));
    // And the schedule demonstrably changed the output vs. the fault-free run.
    EXPECT_NE(artifacts, render_artifacts(study::run_study(small_config())));
}

TEST(Determinism, IdenticalRunsProduceIdenticalTraces) {
    const auto a = study::run_study(small_config());
    const auto b = study::run_study(small_config());

    ASSERT_EQ(a.traces.datasets.size(), b.traces.datasets.size());
    for (std::size_t i = 0; i < a.traces.datasets.size(); ++i) {
        const auto& ra = a.traces.datasets[i].records;
        const auto& rb = b.traces.datasets[i].records;
        ASSERT_EQ(ra.size(), rb.size()) << a.traces.datasets[i].name;
        for (std::size_t k = 0; k < ra.size(); ++k) {
            ASSERT_EQ(ra[k].client_ip, rb[k].client_ip) << i << "/" << k;
            ASSERT_EQ(ra[k].server_ip, rb[k].server_ip) << i << "/" << k;
            ASSERT_EQ(ra[k].bytes, rb[k].bytes) << i << "/" << k;
            ASSERT_EQ(ra[k].video, rb[k].video) << i << "/" << k;
            ASSERT_DOUBLE_EQ(ra[k].start, rb[k].start) << i << "/" << k;
            ASSERT_DOUBLE_EQ(ra[k].end, rb[k].end) << i << "/" << k;
        }
    }
    EXPECT_EQ(a.traces.events_processed, b.traces.events_processed);
    EXPECT_EQ(a.preferred, b.preferred);
}

TEST(Determinism, DifferentSeedsProduceDifferentTraces) {
    const auto a = study::run_study(small_config(1));
    const auto b = study::run_study(small_config(2));
    // Same magnitudes...
    ASSERT_EQ(a.traces.datasets.size(), b.traces.datasets.size());
    const auto sa = analysis::summarize(a.traces.datasets[0]);
    const auto sb = analysis::summarize(b.traces.datasets[0]);
    EXPECT_NEAR(static_cast<double>(sa.flows), static_cast<double>(sb.flows),
                static_cast<double>(sa.flows) * 0.2);
    // ...but different flows.
    EXPECT_NE(a.traces.datasets[0].records.front().video,
              b.traces.datasets[0].records.front().video);
}

TEST(Determinism, PlayerStatsAreReproducible) {
    const auto a = study::run_study(small_config());
    const auto b = study::run_study(small_config());
    for (std::size_t i = 0; i < a.traces.player_stats.size(); ++i) {
        EXPECT_EQ(a.traces.player_stats[i].video_flows,
                  b.traces.player_stats[i].video_flows);
        EXPECT_EQ(a.traces.player_stats[i].redirects_miss,
                  b.traces.player_stats[i].redirects_miss);
        EXPECT_EQ(a.traces.player_stats[i].redirects_overload,
                  b.traces.player_stats[i].redirects_overload);
    }
    EXPECT_EQ(a.traces.flows_observed, b.traces.flows_observed);
    EXPECT_EQ(a.traces.flows_ignored, b.traces.flows_ignored);
}

TEST(Determinism, ChaosScheduleIsReproducible) {
    // A fault schedule is part of the configuration: two runs with the same
    // seed and the same outage script must be bit-identical too.
    auto cfg = small_config();
    cfg.fault_schedule = golden::chaos_schedule();

    const auto a = study::run_study(cfg);
    const auto b = study::run_study(cfg);

    EXPECT_EQ(a.traces.faults_injected, 4u);
    EXPECT_EQ(a.traces.faults_injected, b.traces.faults_injected);
    EXPECT_EQ(a.traces.events_processed, b.traces.events_processed);
    ASSERT_EQ(a.traces.datasets.size(), b.traces.datasets.size());
    for (std::size_t i = 0; i < a.traces.datasets.size(); ++i) {
        const auto& ra = a.traces.datasets[i].records;
        const auto& rb = b.traces.datasets[i].records;
        ASSERT_EQ(ra.size(), rb.size()) << a.traces.datasets[i].name;
        for (std::size_t k = 0; k < ra.size(); ++k) {
            ASSERT_EQ(ra[k].server_ip, rb[k].server_ip) << i << "/" << k;
            ASSERT_EQ(ra[k].bytes, rb[k].bytes) << i << "/" << k;
            ASSERT_DOUBLE_EQ(ra[k].start, rb[k].start) << i << "/" << k;
        }
        const auto& sa = a.traces.player_stats[i];
        const auto& sb = b.traces.player_stats[i];
        EXPECT_EQ(sa.connect_timeouts, sb.connect_timeouts) << i;
        EXPECT_EQ(sa.failovers, sb.failovers) << i;
        EXPECT_EQ(sa.dns_servfails, sb.dns_servfails) << i;
        EXPECT_EQ(sa.failures.total(), sb.failures.total()) << i;
        EXPECT_EQ(sa.retry_histogram, sb.retry_histogram) << i;
    }
}

/// Current total of the engine's cross-shard tie counter; nullopt until the
/// first engine run registers it.
std::optional<std::uint64_t> cross_shard_ties() {
    const auto snapshot = ytcdn::util::metrics::Registry::global().snapshot();
    for (const auto& e : snapshot.entries) {
        if (e.name == "sim.engine.cross_shard_ties") return e.value;
    }
    return std::nullopt;
}

TEST(Determinism, EventEngineShardInvariance) {
    // The sharded event engine is an execution detail, like thread count:
    // any shard count must reproduce the recorded digests of the
    // single-queue driver — every dataset byte, every counter, the full
    // YTR1 structured trace and the full report — with and without an
    // active fault schedule. The invariance rests on cross-shard timestamp
    // ties never occurring, so the engine's tie counter must stay at zero.
    auto chaos = golden::config_at(0.02);
    chaos.fault_schedule = golden::chaos_schedule();
    ytcdn::util::ThreadPool pool(2);

    for (const bool with_faults : {false, true}) {
        auto cfg = with_faults ? chaos : golden::config_at(0.02);
        const auto& expected =
            with_faults ? golden::kScale002Faults : golden::kScale002;
        for (const std::size_t shards : {1u, 2u, 8u}) {
            SCOPED_TRACE("faults=" + std::to_string(with_faults) +
                         " shards=" + std::to_string(shards));
            cfg.engine_shards = shards;
            const std::uint64_t ties_before = cross_shard_ties().value_or(0);
            sim::Tracer tracer;
            const auto run = study::run_study(cfg, pool, &tracer);
            const auto ties_after = cross_shard_ties();
            ASSERT_TRUE(ties_after.has_value());
            EXPECT_EQ(*ties_after - ties_before, 0u);
            EXPECT_EQ(run.traces.faults_injected, with_faults ? 4u : 0u);
            EXPECT_EQ(golden::digests_of(run, &tracer, pool), expected);
        }
    }
}

std::string render_scale_summary(const study::ScaleRunSummary& s) {
    std::ostringstream os;
    os.precision(17);
    os << "sessions " << s.sessions << " flows " << s.flows << " events " << s.events
       << '\n';
    for (const auto& v : s.vantage) {
        os << v.name << " flows " << v.flows << " preferred " << v.preferred
           << " np_bytes " << v.share.byte_fraction << " np_flows "
           << v.share.flow_fraction << " corr " << v.load_correlation
           << " redirected " << v.redirected_videos << '\n';
    }
    return os.str();
}

TEST(Determinism, NoiseLanesAreUnobservable) {
    // Background traffic runs as one pool lane per vantage point beside the
    // engine, on its own clock and sniffer. Where those lanes run is an
    // execution detail: every pool size, at any shard count, with and
    // without a fault schedule, must reproduce the digests recorded when
    // noise still went through the engine's merge — datasets, counters
    // (events, flows observed and ignored), the YTR1 trace and the report.
    auto chaos = golden::config_at(0.02);
    chaos.fault_schedule = golden::chaos_schedule();
    for (const bool with_faults : {false, true}) {
        auto cfg = with_faults ? chaos : golden::config_at(0.02);
        const auto& expected =
            with_faults ? golden::kScale002Faults : golden::kScale002;
        for (const std::size_t threads : {1u, 2u, 8u}) {
            ytcdn::util::ThreadPool pool(threads);
            for (const std::size_t shards : {1u, 8u}) {
                SCOPED_TRACE("faults=" + std::to_string(with_faults) + " threads=" +
                             std::to_string(threads) + " shards=" +
                             std::to_string(shards));
                cfg.engine_shards = shards;
                const std::uint64_t ties_before = cross_shard_ties().value_or(0);
                sim::Tracer tracer;
                const auto run = study::run_study(cfg, pool, &tracer);
                EXPECT_EQ(cross_shard_ties().value_or(0) - ties_before, 0u);
                EXPECT_EQ(golden::digests_of(run, &tracer, pool), expected);
            }
        }
    }

    // The out-of-core runner drives the same lanes on its own pool.
    std::string reference;
    for (const std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE("scale run threads=" + std::to_string(threads));
        study::ScaleRunConfig cfg;
        cfg.study = golden::config_at(0.02);
        cfg.spill_dir = std::filesystem::temp_directory_path() /
                        ("ytcdn_det_noise_lanes_t" + std::to_string(threads));
        ytcdn::util::ThreadPool pool(threads);
        const auto summary = study::run_scale_study(cfg, pool);
        std::filesystem::remove_all(cfg.spill_dir);
        ASSERT_TRUE(summary.ok()) << summary.error().what();
        const std::string text = render_scale_summary(summary.value());
        if (reference.empty()) {
            reference = text;
        } else {
            EXPECT_EQ(text, reference);
        }
    }
}

TEST(Determinism, CheckpointResume) {
    // An interrupted supervised run, resumed from its YCK1 checkpoints, must
    // render the byte-identical report an uninterrupted run renders — at one
    // worker thread and at eight. This is the determinism contract behind
    // `ytcdn study --resume`: a crash costs wall time, never correctness.
    namespace fs = std::filesystem;
    const auto report_at = [](int threads, bool interrupt) {
        auto cfg = small_config();
        cfg.threads = threads;
        const auto dir = fs::temp_directory_path() /
                         ("ytcdn_det_resume_t" + std::to_string(threads) +
                          (interrupt ? "_int" : "_ref"));
        fs::remove_all(dir);
        study::SupervisorOptions opt;
        opt.run_dir = dir;
        opt.report.include_table3 = false;
        if (interrupt) {
            // Stop at the geolocate/analyze boundary, then resume: the
            // second run replays simulate+capture+geolocate from disk.
            opt.max_stages = 3;
            auto first = study::Supervisor(cfg, opt).run();
            EXPECT_TRUE(first.ok() && !first.value().completed);
            opt.max_stages = 0;
            opt.resume = true;
        }
        const auto result = study::Supervisor(cfg, opt).run();
        EXPECT_TRUE(result.ok()) << result.error().what();
        const std::string report =
            ytcdn::util::io::read_file(result.value().report_path)
                .value_or_throw();
        fs::remove_all(dir);
        return report;
    };

    // The resumed run rebuilds its session tables and dc columns from the
    // checkpointed maps, so it renders through the same folds as a cold run;
    // both must match the recorded report of this configuration.
    const std::string serial = report_at(1, false);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(golden::digest_of(serial), golden::kScale0005[0].report);
    EXPECT_EQ(serial, report_at(1, true));
    EXPECT_EQ(serial, report_at(8, false));
    EXPECT_EQ(serial, report_at(8, true));
}

TEST(Determinism, EmptyScheduleMatchesBaseline) {
    // Faults are strictly opt-in: a config whose schedule is empty must
    // produce the exact run the pre-fault-injection code produced (the
    // health checks and DNS query path consume no extra randomness).
    auto cfg = small_config();
    const auto a = study::run_study(cfg);
    ASSERT_TRUE(cfg.fault_schedule.empty());
    EXPECT_EQ(a.traces.faults_injected, 0u);
    for (const auto& stats : a.traces.player_stats) {
        EXPECT_EQ(stats.connect_timeouts, 0u);
        EXPECT_EQ(stats.connect_resets, 0u);
        EXPECT_EQ(stats.dns_servfails, 0u);
        EXPECT_EQ(stats.stale_dns_answers, 0u);
        EXPECT_EQ(stats.failovers, 0u);
    }
}

}  // namespace
