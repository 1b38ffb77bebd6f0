// The bench snapshot cache: a week of traces written to the YSS2 format and
// loaded back must be indistinguishable from the simulation that produced
// it, and a snapshot written for one configuration must never be served for
// another (seed, scale or schema drift ⇒ re-simulate, silently). Damaged
// cache files are quarantined — never fatal, never silently trusted.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <utility>
#include <vector>

#include "capture/binary_log.hpp"
#include "golden_digests.hpp"
#include "study/checkpoint.hpp"
#include "study/report.hpp"
#include "study/snapshot.hpp"
#include "study/study_run.hpp"
#include "util/crc32.hpp"
#include "util/io.hpp"
#include "util/parallel.hpp"

namespace capture = ytcdn::capture;
namespace fs = std::filesystem;
namespace golden = ytcdn::golden;
namespace study = ytcdn::study;
namespace util = ytcdn::util;

namespace {

study::StudyConfig tiny_config() {
    study::StudyConfig cfg;
    cfg.scale = 0.004;
    return cfg;
}

void expect_traces_equal(const study::TraceOutputs& a, const study::TraceOutputs& b) {
    EXPECT_EQ(a.events_processed, b.events_processed);
    EXPECT_EQ(a.faults_injected, b.faults_injected);
    EXPECT_EQ(a.requests_generated, b.requests_generated);
    EXPECT_EQ(a.flows_observed, b.flows_observed);
    EXPECT_EQ(a.flows_ignored, b.flows_ignored);
    ASSERT_EQ(a.datasets.size(), b.datasets.size());
    for (std::size_t i = 0; i < a.datasets.size(); ++i) {
        EXPECT_EQ(a.datasets[i].name, b.datasets[i].name);
        const auto& ra = a.datasets[i].records;
        const auto& rb = b.datasets[i].records;
        ASSERT_EQ(ra.size(), rb.size()) << a.datasets[i].name;
        for (std::size_t k = 0; k < ra.size(); ++k) {
            ASSERT_EQ(ra[k].client_ip, rb[k].client_ip) << i << "/" << k;
            ASSERT_EQ(ra[k].server_ip, rb[k].server_ip) << i << "/" << k;
            ASSERT_EQ(ra[k].bytes, rb[k].bytes) << i << "/" << k;
            ASSERT_EQ(ra[k].video, rb[k].video) << i << "/" << k;
            ASSERT_EQ(ra[k].resolution, rb[k].resolution) << i << "/" << k;
            ASSERT_DOUBLE_EQ(ra[k].start, rb[k].start) << i << "/" << k;
            ASSERT_DOUBLE_EQ(ra[k].end, rb[k].end) << i << "/" << k;
        }
        const auto& sa = a.player_stats[i];
        const auto& sb = b.player_stats[i];
        EXPECT_EQ(sa.sessions, sb.sessions) << i;
        EXPECT_EQ(sa.video_flows, sb.video_flows) << i;
        EXPECT_EQ(sa.control_flows, sb.control_flows) << i;
        EXPECT_EQ(sa.redirects_miss, sb.redirects_miss) << i;
        EXPECT_EQ(sa.redirects_overload, sb.redirects_overload) << i;
        EXPECT_EQ(sa.resolution_probes, sb.resolution_probes) << i;
        EXPECT_EQ(sa.pauses, sb.pauses) << i;
        EXPECT_EQ(sa.dns_cache_hits, sb.dns_cache_hits) << i;
        EXPECT_EQ(sa.failures.total(), sb.failures.total()) << i;
        EXPECT_EQ(sa.retry_histogram, sb.retry_histogram) << i;
    }
}

TEST(Snapshot, RoundTripIsLossFree) {
    const auto cfg = tiny_config();
    const auto run = study::run_study(cfg);

    std::ostringstream os;
    ASSERT_TRUE(study::write_trace_snapshot(os, cfg, run.traces));

    std::istringstream is(os.str());
    const auto loaded = study::load_trace_snapshot(is, cfg);
    ASSERT_TRUE(loaded.has_value());
    expect_traces_equal(run.traces, *loaded);
}

TEST(Snapshot, AssembledRunMatchesSimulatedRun) {
    // The cache contract: a bench that loads the snapshot and re-derives
    // maps/preferred renders the exact artifacts of a fresh simulation.
    const auto cfg = tiny_config();
    const auto fresh = study::run_study(cfg);

    std::ostringstream os;
    ASSERT_TRUE(study::write_trace_snapshot(os, cfg, fresh.traces));
    std::istringstream is(os.str());
    auto traces = study::load_trace_snapshot(is, cfg);
    ASSERT_TRUE(traces.has_value());

    ytcdn::util::ThreadPool pool(2);
    const auto assembled = study::assemble_study_run(cfg, std::move(*traces), pool);

    EXPECT_EQ(fresh.preferred, assembled.preferred);
    ASSERT_EQ(fresh.maps.size(), assembled.maps.size());
    study::ReportOptions opts;
    opts.include_table3 = false;  // CBG exercised elsewhere; keep the test fast
    EXPECT_EQ(study::make_full_report(fresh, pool, opts).render(),
              study::make_full_report(assembled, pool, opts).render());
}

TEST(Snapshot, SeedMismatchIsRejected) {
    const auto cfg = tiny_config();
    const auto run = study::run_study(cfg);
    std::ostringstream os;
    ASSERT_TRUE(study::write_trace_snapshot(os, cfg, run.traces));

    auto other = cfg;
    other.seed ^= 1;
    std::istringstream is(os.str());
    EXPECT_FALSE(study::load_trace_snapshot(is, other).has_value());
}

TEST(Snapshot, ScaleMismatchIsRejected) {
    const auto cfg = tiny_config();
    const auto run = study::run_study(cfg);
    std::ostringstream os;
    ASSERT_TRUE(study::write_trace_snapshot(os, cfg, run.traces));

    auto other = cfg;
    other.scale = cfg.scale * (1.0 + 1e-12);  // any representable drift counts
    std::istringstream is(os.str());
    EXPECT_FALSE(study::load_trace_snapshot(is, other).has_value());
}

TEST(Snapshot, SimulationKnobMismatchIsRejected) {
    const auto cfg = tiny_config();
    const auto run = study::run_study(cfg);
    std::ostringstream os;
    ASSERT_TRUE(study::write_trace_snapshot(os, cfg, run.traces));

    auto other = cfg;
    other.feb2011_us_shift = true;
    std::istringstream is(os.str());
    EXPECT_FALSE(study::load_trace_snapshot(is, other).has_value());
}

TEST(Snapshot, SchemaVersionMismatchIsRejected) {
    const auto cfg = tiny_config();
    const auto run = study::run_study(cfg);
    std::ostringstream os;
    ASSERT_TRUE(study::write_trace_snapshot(os, cfg, run.traces));

    std::string bytes = os.str();
    bytes[4] ^= 0x01;  // u32 schema version sits right after the magic
    std::istringstream is(std::move(bytes));
    EXPECT_FALSE(study::load_trace_snapshot(is, cfg).has_value());
}

TEST(Snapshot, BadMagicAndTruncationAreRejected) {
    const auto cfg = tiny_config();
    const auto run = study::run_study(cfg);
    std::ostringstream os;
    ASSERT_TRUE(study::write_trace_snapshot(os, cfg, run.traces));
    const std::string bytes = os.str();

    {
        std::string corrupt = bytes;
        corrupt[0] = 'X';
        std::istringstream is(std::move(corrupt));
        EXPECT_FALSE(study::load_trace_snapshot(is, cfg).has_value());
    }
    {
        std::istringstream is(bytes.substr(0, bytes.size() / 2));
        EXPECT_FALSE(study::load_trace_snapshot(is, cfg).has_value());
    }
    {
        std::istringstream is(bytes + "tail");
        EXPECT_FALSE(study::load_trace_snapshot(is, cfg).has_value());
    }
}

TEST(Snapshot, FaultScheduleRunsAreNeverCached) {
    auto cfg = tiny_config();
    cfg.fault_schedule = ytcdn::sim::FaultSchedule::dc_outage(
        "Dallas", 2.0 * ytcdn::sim::kDay, 1.0 * ytcdn::sim::kDay);
    const auto run = study::run_study(cfg);

    std::ostringstream os;
    EXPECT_FALSE(study::write_trace_snapshot(os, cfg, run.traces));
    EXPECT_TRUE(os.str().empty());

    // Nor may a chaos config read the healthy baseline's snapshot.
    auto healthy = tiny_config();
    const auto baseline = study::run_study(healthy);
    std::ostringstream healthy_os;
    ASSERT_TRUE(study::write_trace_snapshot(healthy_os, healthy, baseline.traces));
    std::istringstream is(healthy_os.str());
    EXPECT_FALSE(study::load_trace_snapshot(is, cfg).has_value());
}

TEST(Snapshot, PathOverloadRoundTripsAndMissesGracefully) {
    const auto cfg = tiny_config();
    const auto run = study::run_study(cfg);
    const auto dir = std::filesystem::temp_directory_path() / "ytcdn_snapshot_test";
    const auto path = dir / study::snapshot_name(cfg);
    std::filesystem::remove_all(dir);

    EXPECT_FALSE(study::load_trace_snapshot(path, cfg).has_value());
    ASSERT_TRUE(study::write_trace_snapshot(path, cfg, run.traces));
    const auto loaded = study::load_trace_snapshot(path, cfg);
    ASSERT_TRUE(loaded.has_value());
    expect_traces_equal(run.traces, *loaded);
    std::filesystem::remove_all(dir);
}

TEST(Snapshot, TypedErrorsNameTheFailure) {
    const auto cfg = tiny_config();
    const auto run = study::run_study(cfg);
    std::ostringstream os;
    ASSERT_TRUE(study::write_trace_snapshot(os, cfg, run.traces));
    const std::string bytes = os.str();

    const auto error_for = [&](std::string corrupt, const study::StudyConfig& c) {
        std::istringstream is(std::move(corrupt));
        auto r = study::load_trace_snapshot_result(is, c);
        EXPECT_FALSE(r.ok());
        return r.error();
    };

    {
        std::string corrupt = bytes;
        corrupt[0] = 'X';
        EXPECT_EQ(error_for(corrupt, cfg).code(), ytcdn::ErrorCode::BadMagic);
    }
    {
        std::string corrupt = bytes;
        corrupt[4] ^= 0x01;
        EXPECT_EQ(error_for(corrupt, cfg).code(),
                  ytcdn::ErrorCode::UnsupportedVersion);
    }
    {  // a flipped bit anywhere in the body trips the whole-file CRC
        std::string corrupt = bytes;
        corrupt[corrupt.size() / 2] ^= 0x20;
        const auto e = error_for(corrupt, cfg);
        EXPECT_EQ(e.code(), ytcdn::ErrorCode::ChecksumMismatch);
        ASSERT_TRUE(e.where().byte_offset.has_value());
        EXPECT_EQ(*e.where().byte_offset, bytes.size() - 4);  // CRC trailer
    }
    {  // wrong config on an intact file: a key mismatch, not corruption
        auto other = cfg;
        other.seed ^= 1;
        EXPECT_EQ(error_for(bytes, other).code(), ytcdn::ErrorCode::KeyMismatch);
    }
    {
        EXPECT_EQ(error_for("", cfg).code(), ytcdn::ErrorCode::Truncated);
    }
}

TEST(Snapshot, QuarantineMovesDamagedFileAsideAndReportsOnce) {
    const auto cfg = tiny_config();
    const auto run = study::run_study(cfg);
    const auto dir =
        std::filesystem::temp_directory_path() / "ytcdn_snapshot_quarantine";
    const auto path = dir / study::snapshot_name(cfg);
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(study::write_trace_snapshot(path, cfg, run.traces));

    // Flip one byte in the middle of the cache file on disk.
    {
        std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
        ASSERT_TRUE(f);
        f.seekg(0, std::ios::end);
        const auto size = static_cast<std::streamoff>(f.tellg());
        f.seekp(size / 2);
        char b = 0;
        f.seekg(size / 2);
        f.read(&b, 1);
        b = static_cast<char>(b ^ 0x10);
        f.seekp(size / 2);
        f.write(&b, 1);
    }

    std::string warning;
    EXPECT_FALSE(study::load_or_quarantine_snapshot(path, cfg, &warning).has_value());
    EXPECT_NE(warning.find("quarantined"), std::string::npos) << warning;
    EXPECT_NE(warning.find("CRC mismatch"), std::string::npos) << warning;
    EXPECT_FALSE(std::filesystem::exists(path));
    // Quarantine copies are numbered and pruned to the newest few (see
    // util::io::quarantine_file); a single corruption lands at ".corrupt.1".
    const auto quarantined = std::filesystem::path(path.string() + ".corrupt.1");
    EXPECT_TRUE(std::filesystem::exists(quarantined));

    // Second attempt sees a plain cold miss: no warning, nothing renamed.
    warning.clear();
    EXPECT_FALSE(study::load_or_quarantine_snapshot(path, cfg, &warning).has_value());
    EXPECT_TRUE(warning.empty()) << warning;

    // Regeneration then works as for any cold cache.
    ASSERT_TRUE(study::write_trace_snapshot(path, cfg, run.traces));
    warning.clear();
    const auto reloaded = study::load_or_quarantine_snapshot(path, cfg, &warning);
    ASSERT_TRUE(reloaded.has_value());
    EXPECT_TRUE(warning.empty()) << warning;
    expect_traces_equal(run.traces, *reloaded);
    std::filesystem::remove_all(dir);
}

TEST(Snapshot, CorruptCacheRegeneratesByteIdenticalReport) {
    // The acceptance contract of the quarantine path: corrupting the cached
    // snapshot must not abort the study, and the regenerated run's report
    // must be byte-identical to a cold (never-cached) run.
    const auto cfg = tiny_config();
    ytcdn::util::ThreadPool pool(2);
    study::ReportOptions opts;
    opts.include_table3 = false;  // CBG exercised elsewhere; keep the test fast

    const auto cold = study::run_study(cfg, pool);
    const std::string cold_report = study::make_full_report(cold, pool, opts).render();

    const auto dir =
        std::filesystem::temp_directory_path() / "ytcdn_snapshot_regen";
    const auto path = dir / study::snapshot_name(cfg);
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(study::write_trace_snapshot(path, cfg, cold.traces));
    {  // zero out a chunk of the cache file
        std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
        ASSERT_TRUE(f);
        f.seekp(64);
        const std::string zeros(32, '\0');
        f.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
    }

    // The bench flow: try the cache, fall back to simulating on quarantine.
    std::string warning;
    auto traces = study::load_or_quarantine_snapshot(path, cfg, &warning);
    EXPECT_FALSE(traces.has_value());
    EXPECT_FALSE(warning.empty());
    const auto regenerated = study::run_study(cfg, pool);
    EXPECT_EQ(study::make_full_report(regenerated, pool, opts).render(),
              cold_report);
    std::filesystem::remove_all(dir);
}

TEST(Snapshot, NameEncodesSeedScaleAndSchema) {
    const auto cfg = tiny_config();
    auto reseeded = cfg;
    reseeded.seed = 7;
    auto rescaled = cfg;
    rescaled.scale = 0.9;
    EXPECT_NE(study::snapshot_name(cfg), study::snapshot_name(reseeded));
    EXPECT_NE(study::snapshot_name(cfg), study::snapshot_name(rescaled));
    EXPECT_EQ(study::snapshot_name(cfg), study::snapshot_name(tiny_config()));
}

}  // namespace

TEST(Snapshot, BytesMatchPinnedDigests) {
    // The YSS2 cache of the scale-0.02 run, and YCK1 checkpoints of that
    // run's capture, geolocate and analyze payloads, pinned byte for byte.
    const auto cfg = golden::config_at(0.02);
    util::ThreadPool pool(2);
    const auto run = study::run_study(cfg, pool);
    std::ostringstream snapshot;
    ASSERT_TRUE(study::write_trace_snapshot(snapshot, cfg, run.traces));
    EXPECT_EQ(golden::digest_of(snapshot.str()), golden::kSnapshot002);

    std::vector<study::CaptureEntry> entries;
    for (const auto& ds : run.traces.datasets) {
        std::ostringstream log;
        capture::write_binary_log(log, ds.records);
        entries.push_back({ds.name, log.str().size(), util::crc32(log.str())});
    }
    study::ReportOptions opts;
    opts.include_table3 = false;
    const std::pair<study::Stage, std::string> payloads[] = {
        {study::Stage::Capture, study::encode_capture(entries)},
        {study::Stage::Geolocate, study::encode_geolocate(run.maps, run.preferred)},
        {study::Stage::Analyze,
         study::encode_report(study::make_full_report(run, pool, opts))},
    };
    const auto dir = fs::temp_directory_path() / "ytcdn_snapshot_checkpoints";
    fs::remove_all(dir);
    std::string checkpoints;
    for (const auto& [stage, payload] : payloads) {
        const auto path = study::checkpoint_path(dir, stage);
        ASSERT_TRUE(study::write_checkpoint(path, study::config_fingerprint(cfg),
                                            stage, payload)
                        .ok());
        checkpoints += util::io::read_file(path).value_or_throw();
    }
    EXPECT_EQ(golden::digest_of(checkpoints), golden::kCheckpoints002);
    fs::remove_all(dir);
}
