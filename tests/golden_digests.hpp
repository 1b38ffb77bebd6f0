#pragma once

// Golden digests of the simulator's paper-facing outputs: the rendered full
// report, the per-vantage-point YFL2 flow logs with their counters, and the
// YTR1 structured trace. Each constant is a 64-bit FNV-1a over the bytes plus
// their length.
//
// They were recorded from the two reference paths the repository used to
// carry — the single-queue simulation driver (one sim::Simulator for every
// vantage point) and the AoS record-walk report — immediately before those
// paths were deleted. The sharded event engine and the column-scan report
// are checked against them, so the equivalence evidence outlives the code it
// compared against. A deliberate output change (a new RNG draw order, a new
// artifact) re-baselines these constants and says so in EXPERIMENTS.md.

#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

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

}  // namespace ytcdn::golden
