#pragma once

// Golden digests of the simulator's paper-facing outputs: the rendered full
// report, the per-vantage-point YFL2 flow logs with their counters, the
// YTR1 structured trace, Table I tallies and session groupings, and the
// §VI-VII analysis functions' results; and
// of the on-disk formats' decoders and encoders: every outcome of the YFL2
// and YTR1 readers on damaged input, the YSS2 snapshot, YCK1 checkpoints
// and the ytcdnd aggregate and checkpoint bytes. Each constant is a 64-bit
// FNV-1a over the bytes plus their length.
//
// Most were recorded from the reference paths the repository used to carry
// — the single-queue simulation driver (one sim::Simulator for every
// vantage point), the AoS record-walk report and analyses, the FlowTable
// column scans, the VideoSession pattern functions, the build_sessions
// grouping and the Dataset::summary() Table I tally — immediately before
// those paths were deleted. The sharded event engine, the report and the
// one remaining implementation of each analysis are checked against them,
// so the equivalence evidence outlives the code it compared against. A
// deliberate output change (a new RNG draw order, a new artifact)
// re-baselines these constants and says so in EXPERIMENTS.md.

#include <cstdint>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/incremental.hpp"
#include "analysis/loadbalance_analysis.hpp"
#include "analysis/preferred_dc.hpp"
#include "analysis/redirect_analysis.hpp"
#include "analysis/session.hpp"
#include "analysis/session_analysis.hpp"
#include "analysis/session_table.hpp"
#include "analysis/subnet_analysis.hpp"
#include "capture/binary_log.hpp"
#include "sim/fault_injector.hpp"
#include "study/config.hpp"
#include "sim/tracer.hpp"
#include "study/report.hpp"
#include "study/study_run.hpp"
#include "study/trace_driver.hpp"

namespace ytcdn::golden {

struct Digest {
    std::uint64_t fnv = 0;
    std::uint64_t size = 0;

    friend bool operator==(const Digest&, const Digest&) = default;
};

inline void PrintTo(const Digest& d, std::ostream* os) {
    *os << "{0x" << std::hex << d.fnv << std::dec << ", " << d.size << "}";
}

/// 64-bit FNV-1a (the hash perfbench/expected.json records) plus length.
inline Digest digest_of(std::string_view bytes) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return {h, bytes.size()};
}

/// Exact text forms of §VI-VII analysis results, so a function's output can
/// be pinned as a Digest. Doubles print as hexfloat: a change in the last
/// bit moves the digest.
inline void put(std::ostream& os, double v) { os << v; }
inline void put(std::ostream& os, int v) { os << v; }
inline void put(std::ostream& os, const std::vector<double>& v) {
    os << "doubles " << v.size();
    for (const double x : v) os << ' ' << x;
}
inline void put(std::ostream& os, const analysis::Series& s) {
    os << "series " << s.name << ' ' << s.points.size();
    for (const auto& [x, y] : s.points) os << ' ' << x << ',' << y;
}
inline void put(std::ostream& os, const analysis::EmpiricalCdf& cdf) {
    os << "cdf " << cdf.size();
    for (const auto& [x, f] : cdf.curve(std::numeric_limits<std::size_t>::max())) {
        os << ' ' << x << ',' << f;
    }
}
inline void put(std::ostream& os, const std::vector<analysis::DcTraffic>& traffic) {
    os << "traffic";
    for (const auto& t : traffic) {
        os << ' ' << t.dc << ':' << t.bytes << ':' << t.video_flows;
    }
}
inline void put(std::ostream& os, const analysis::NonPreferredShare& s) {
    os << "share " << s.byte_fraction << ' ' << s.flow_fraction;
}
inline void put(std::ostream& os, const analysis::HourlyLoadSeries& h) {
    put(os, h.fraction_preferred);
    os << '\n';
    put(os, h.flows_per_hour);
}
inline void put(std::ostream& os, const std::vector<cdn::VideoId>& videos) {
    os << "videos";
    for (const auto v : videos) os << ' ' << v.value();
}
inline void put(std::ostream& os, const analysis::VideoLoadSeries& v) {
    put(os, v.all);
    os << '\n';
    put(os, v.non_preferred);
}
inline void put(std::ostream& os, const analysis::ServerLoadSeries& s) {
    put(os, s.avg);
    os << '\n';
    put(os, s.max);
}
inline void put(std::ostream& os, const analysis::HotServerSessions& h) {
    os << "server " << h.server.value() << '\n';
    put(os, h.all_preferred);
    os << '\n';
    put(os, h.first_preferred_then_other);
    os << '\n';
    put(os, h.others);
}
inline void put(std::ostream& os, const std::vector<analysis::SubnetShare>& shares) {
    os << "subnets";
    for (const auto& s : shares) {
        os << ' ' << s.name << ':' << s.all_flows_share << ':' << s.non_preferred_share;
    }
}
inline void put(std::ostream& os, const std::vector<analysis::ResolutionShare>& shares) {
    os << "resolutions";
    for (const auto& s : shares) {
        os << ' ' << static_cast<int>(s.resolution) << ':' << s.flow_share << ':'
           << s.byte_share;
    }
}
inline void put(std::ostream& os, const analysis::SessionPatternShares& p) {
    os << "patterns " << p.total_sessions << ' ' << p.single_flow << ' '
       << p.single_preferred << ' ' << p.single_non_preferred << ' ' << p.two_flow
       << ' ' << p.two_pref_pref << ' ' << p.two_pref_nonpref << ' '
       << p.two_nonpref_pref << ' ' << p.two_nonpref_nonpref << ' ' << p.more_flows;
}
inline void put(std::ostream& os, const analysis::MultiFlowPatternShares& m) {
    os << "multi " << m.sessions << ' ' << m.share_of_all_sessions << ' '
       << m.all_preferred << ' ' << m.first_preferred_then_other << ' '
       << m.first_non_preferred;
}
/// A session grouping: the session count, then per session its client,
/// video, start and flow rows (indices into the dataset's records) in order.
inline void put(std::ostream& os, const analysis::SessionTable& t) {
    os << "sessions " << t.num_sessions();
    for (std::size_t s = 0; s < t.num_sessions(); ++s) {
        os << '\n' << t.client[s].value() << ' ' << t.video[s].value() << ' '
           << t.start[s] << " rows";
        for (const auto row : t.flows_of(s)) os << ' ' << row;
    }
}
/// Table I's four columns: flows, volume, distinct servers and clients.
inline void put(std::ostream& os, const analysis::IncrementalSummary& s) {
    os << "summary " << s.flows << ' ' << s.volume_gb() << ' ' << s.servers.size()
       << ' ' << s.clients.size();
}

/// Accumulates results, one per line, into the text a pinned digest covers.
class ResultLog {
public:
    ResultLog() { os_ << std::hexfloat; }

    template <typename T>
    ResultLog& add(const T& result) {
        put(os_, result);
        os_ << '\n';
        return *this;
    }
    [[nodiscard]] std::string text() const { return os_.str(); }
    [[nodiscard]] Digest digest() const { return digest_of(os_.str()); }

private:
    std::ostringstream os_;
};

/// A decoder's error as one line: code, record index, byte offset and the
/// rendered message, so a pinned digest covers the whole error taxonomy and
/// not just the code.
inline std::string error_line(const Error& e) {
    const auto field = [](const std::optional<std::uint64_t>& v) {
        return v ? std::to_string(*v) : std::string("-");
    };
    return std::string(to_string(e.code())) + " record=" +
           field(e.where().record_index) + " byte=" + field(e.where().byte_offset) +
           ' ' + e.what() + '\n';
}

/// Every dataset as "<name>\n" + its YFL2 serialization — field-exact,
/// float bits included.
inline std::string dataset_bytes(const study::TraceOutputs& traces) {
    std::ostringstream os;
    for (const auto& ds : traces.datasets) {
        os << ds.name << '\n';
        capture::write_binary_log(os, ds.records);
    }
    return os.str();
}

/// Every counter a trace run reports, one per line, plus the preferred
/// data-center index per vantage point.
inline std::string counters_text(const study::TraceOutputs& traces,
                                 const std::vector<int>& preferred) {
    std::ostringstream os;
    os << "events " << traces.events_processed << '\n'
       << "faults " << traces.faults_injected << '\n'
       << "unique_hosts " << traces.unique_hosts << '\n';
    for (std::size_t i = 0; i < traces.datasets.size(); ++i) {
        const auto& s = traces.player_stats[i];
        os << traces.datasets[i].name << " observed " << traces.flows_observed[i]
           << " ignored " << traces.flows_ignored[i] << " requests "
           << traces.requests_generated[i] << " preferred " << preferred[i]
           << " sessions " << s.sessions << " video " << s.video_flows
           << " control " << s.control_flows << " miss " << s.redirects_miss
           << " overload " << s.redirects_overload << " probes "
           << s.resolution_probes << " pauses " << s.pauses << " dns_hits "
           << s.dns_cache_hits << " timeouts " << s.connect_timeouts
           << " resets " << s.connect_resets << " servfails " << s.dns_servfails
           << " stale " << s.stale_dns_answers << " failovers " << s.failovers
           << " failed " << s.failures.timeout << '/' << s.failures.reset << '/'
           << s.failures.dns_failure << '/' << s.failures.retries_exhausted
           << '/' << s.failures.redirect_exhausted << " retries";
        for (const auto n : s.retry_histogram) os << ' ' << n;
        os << '\n';
    }
    return os.str();
}

/// The configurations the digests were recorded at.
inline study::StudyConfig config_at(double scale,
                                    std::uint64_t seed = 0xCDA1'2011ull) {
    study::StudyConfig cfg;
    cfg.scale = scale;
    cfg.seed = seed;
    return cfg;
}

/// The determinism suite's 4-event chaos schedule: a 1.5-day Dallas outage
/// plus a short EU1-ADSL resolver outage.
inline sim::FaultSchedule chaos_schedule() {
    auto schedule = sim::FaultSchedule::dc_outage("Dallas", 2.0 * sim::kDay,
                                                  1.5 * sim::kDay);
    schedule.add(3.0 * sim::kDay, sim::FaultAction::ResolverDown, "eu1-adsl");
    schedule.add(3.2 * sim::kDay, sim::FaultAction::ResolverUp, "eu1-adsl");
    return schedule;
}

/// The reduced Table III landmark set and CBG grid the tests render with.
inline study::ReportOptions reduced_table3_options() {
    study::ReportOptions opts;
    opts.landmarks.north_america = 24;
    opts.landmarks.europe = 24;
    opts.landmarks.asia = 8;
    opts.landmarks.south_america = 3;
    opts.landmarks.oceania = 2;
    opts.landmarks.africa = 1;
    opts.cbg.grid = 48;
    return opts;
}

/// The digests of one recorded run.
struct RunDigests {
    Digest datasets;  // dataset_bytes
    Digest counters;  // counters_text
    Digest trace;     // YTR1 bytes of the run's Tracer::log(); {} if untraced
    Digest report;    // FullReport::render() without Table III

    friend bool operator==(const RunDigests&, const RunDigests&) = default;
};

inline void PrintTo(const RunDigests& d, std::ostream* os) {
    *os << "datasets ";
    PrintTo(d.datasets, os);
    *os << " counters ";
    PrintTo(d.counters, os);
    *os << " trace ";
    PrintTo(d.trace, os);
    *os << " report ";
    PrintTo(d.report, os);
}

/// Digests `run` the way the constants below were recorded. `tracer` is the
/// one the run streamed into, or null for an untraced run.
inline RunDigests digests_of(const study::StudyRun& run, const sim::Tracer* tracer,
                             util::ThreadPool& pool) {
    study::ReportOptions opts;
    opts.include_table3 = false;
    return {digest_of(dataset_bytes(run.traces)),
            digest_of(counters_text(run.traces, run.preferred)),
            tracer ? digest_of(sim::write_trace_bytes(tracer->log())) : Digest{},
            digest_of(study::make_full_report(run, pool, opts).render())};
}

// Recorded from the single-queue driver and the AoS report at seed
// 0xCDA12011 unless noted; every run was also cross-checked against the
// sharded engine (one shard per vantage point) and the column-scan report,
// and matched.

/// Scale 0.02, no faults.
inline constexpr RunDigests kScale002{{0x454fa96b2325b8d2ull, 1984907},
                                      {0x8270558e9d806298ull, 1231},
                                      {0xc18f949a89d7680bull, 11147288},
                                      {0xf0c829e8c86d3843ull, 69740}};
/// The same run's full report with Table III (reduced_table3_options()).
inline constexpr Digest kScale002ReportWithTable3{0xc472c38e04168c84ull, 70070};

/// Scale 0.02 under chaos_schedule().
inline constexpr RunDigests kScale002Faults{{0x6c49a31461f39b43ull, 1969450},
                                            {0x0a7e500a570546f7ull, 1244},
                                            {0xe1dadb8453c895aeull, 11335046},
                                            {0xf309899d0303612bull, 72439}};

/// Scale 0.15 (the bench suite's default), untraced.
inline constexpr RunDigests kScale015{{0x1c8fcd1a7c639f64ull, 14911060},
                                      {0x9fe4e19db461915bull, 1286},
                                      {},
                                      {0x05002785d8088673ull, 71943}};

/// Scale 0.005 at three seeds.
inline constexpr std::uint64_t kSeeds0005[] = {0xCDA1'2011ull, 0xDEAD'BEEFull,
                                               0x1234'5678ull};
inline constexpr RunDigests kScale0005[] = {
    {{0x4bd6c4dc1b412847ull, 491992},
     {0x861de5505fdc1217ull, 1199},
     {0x7e7f45008766d3a8ull, 2760120},
     {0x79342cabfc69bf99ull, 71410}},
    {{0x35bd54403497caa7ull, 499331},
     {0x5002bf256044b46eull, 1197},
     {0x6d2ed41f0feba36full, 2800496},
     {0x965d3bfcf3bb522eull, 68721}},
    {{0xce308ce10afcb8e1ull, 494042},
     {0x2e0085a9708baf67ull, 1198},
     {0x884b2d76e6177f48ull, 2774120},
     {0x18f52524bc447237ull, 69557}},
};

// §VI-VII analysis outputs, each a ResultLog digest recorded from the
// implementations that existed before every analysis was reduced to one:
// the AoS record walks, the FlowTable column scans (equal to them) and the
// VideoSession pattern functions.

/// The StreamingModules world (scale 0.005, seed 0xCDA12011), every vantage
/// point in order, with its own map and preferred data center:
/// traffic_by_dc, preferred_dc, non_preferred_share.
inline constexpr Digest kFoldDcTraffic{0x17817e679186c475ull, 1741};
/// hourly_non_preferred_fraction, hourly_preferred_series,
/// load_vs_nonpreferred_correlation.
inline constexpr Digest kFoldHourlyLoad{0xbf793d770d23c2b2ull, 56457};
/// video_non_preferred_counts, top_redirected_videos(4), then
/// video_hourly_load of each of those videos.
inline constexpr Digest kFoldVideoRedirects{0x0262ea62bc2afd84ull, 126783};
/// subnet_breakdown over the vantage point's own subnets.
inline constexpr Digest kFoldSubnetBreakdown{0xb7ed0acd830cf544ull, 694};
/// preferred_dc_server_load.
inline constexpr Digest kFoldServerLoad{0x56faf4c62d5a7bd9ull, 29872};

/// test_flow_table's random_world(seed, 600) for seeds 21-23, preferred 0,
/// video 2, subnets 10.0.0.0/31 and 10.0.0.2/31: traffic_by_dc,
/// preferred_dc, non_preferred_share, hourly_non_preferred_fraction,
/// hourly_preferred_series, load_vs_nonpreferred_correlation,
/// video_non_preferred_counts, top_redirected_videos(4), video_hourly_load,
/// preferred_dc_server_load, subnet_breakdown, hot_server_sessions,
/// resolution_breakdown.
inline constexpr Digest kRandomScanAnalyses{0x8ed167521b3ebc66ull, 14080};
/// random_world(seed, 500) for seeds 11-15 at T = 1 s: session_patterns,
/// multi_flow_patterns, flows_per_session_cdf.
inline constexpr Digest kRandomSessionPatterns{0xf77d023ec0aef6faull, 1364};

// Session groupings and Table I tallies, recorded from build_sessions and
// Dataset::summary() before SessionTable::build and IncrementalSummary
// became the only implementations. Each is a ResultLog of put(SessionTable)
// or put(IncrementalSummary) over the named worlds; the deleted paths'
// results were printed in the same text form.

/// test_flow_table's nested-flow dataset (SessionTable.MatchesBuildSessions)
/// at T = 1 s.
inline constexpr Digest kNestedGapSessions{0x6feb79694b0c4140ull, 95};
/// test_flow_table's random_world(seed, 400) for seeds 1-5 at T = 1 s.
inline constexpr Digest kRandomWorldSessions{0xb2a09d9329416af2ull, 84924};
/// The Table I summaries of the nested-flow dataset, then of those worlds.
inline constexpr Digest kRandomWorldSummaries{0x84361e914fa11524ull, 221};
/// test_session's hand-built Sessions.* datasets at the gaps their tests
/// use, then SessionProperty's seeds 1-4 at T = 1, 5, 10, 60 and 300 s.
inline constexpr Digest kHandBuiltSessions{0x480d04baff9edde3ull, 174130};
/// The same datasets' Table I summaries.
inline constexpr Digest kHandBuiltSummaries{0x13b060e93036bc5dull, 421};
/// test_service's sample_records() Table I summary.
inline constexpr Digest kServiceSampleSummary{0x09f92bee4aaa13b0ull, 37};

// Decoder outcomes and codec bytes, recorded before the YFL2, YTR1 and
// YFL1 decoders were reduced to one per format and the byte codecs to one.

/// StreamingLog.OutcomesMatchPinnedDigests: the batch YFL2 reader on every
/// cut of random_records(10, 25), every ^0x2A flip of random_records(10, 26)
/// and the named corpus fixtures, one golden::error_line (or "ok n") each.
inline constexpr Digest kYfl2CutOutcomes{0x8428697b08cc623aull, 43236};
inline constexpr Digest kYfl2FlipOutcomes{0xda4e9991182d5cf1ull, 40750};
inline constexpr Digest kYfl2FixtureOutcomes{0xf7df68dc5af022deull, 880};
/// Tracer.ReadAndSalvageOutcomesMatchPinnedDigests: read_trace_bytes and
/// salvage_trace_bytes on every cut and every ^0x2A flip of the fixture
/// log, and on the six YTR1 corpus fixtures.
inline constexpr Digest kYtr1CutOutcomes{0x6c25278f900f11edull, 75054};
inline constexpr Digest kYtr1FlipOutcomes{0x7391bd97fa34f60cull, 59692};
inline constexpr Digest kYtr1FixtureOutcomes{0x8d8c661c3c4f46f8ull, 983};
/// The YSS2 snapshot of config_at(0.02), and the YCK1 capture, geolocate and
/// analyze (no Table III) checkpoints of the same run, concatenated.
inline constexpr Digest kSnapshot002{0x843d23313ac52de2ull, 1985902};
inline constexpr Digest kCheckpoints002{0xd549a6f89b6d11ffull, 78985};
/// test_service's ServiceAggregates::encode (load policy, "far" drained,
/// streams eu1 and us1) and the service checkpoint after one `once` pass
/// over its fixed spool.
inline constexpr Digest kServiceAggregates{0x40420cbe91d8df71ull, 2037};
inline constexpr Digest kServiceCheckpoint{0x8699514fe9b28250ull, 2250};

}  // namespace ytcdn::golden
