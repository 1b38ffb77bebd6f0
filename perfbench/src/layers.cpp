#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <system_error>

#include "capture/binary_log.hpp"
#include "study/dc_map_builder.hpp"
#include "study/deployment.hpp"
#include "util/crc32.hpp"

namespace perfbench {

SetupTimes measure_setup(const study::StudyConfig& config, util::ThreadPool& pool) {
    SetupTimes times;
    std::unique_ptr<study::StudyDeployment> deployment;
    {
        Span span(times.deployment_s);
        deployment = std::make_unique<study::StudyDeployment>(config);
    }
    {
        Span span(times.dc_maps_s);
        const auto& dep = *deployment;
        auto maps = util::parallel_map_indexed(
            pool, dep.num_vantage_points(), [&dep](std::size_t i) {
                return study::ground_truth_dc_map(dep, dep.vantage(i));
            });
        (void)maps;
    }
    return times;
}

double median_setup_s(const Options& options, const study::StudyConfig& config,
                      util::ThreadPool& pool) {
    std::vector<double> totals;
    for (int i = 0; i < std::max(1, options.setup_repeats); ++i) {
        totals.push_back(measure_setup(config, pool).total());
    }
    return median(std::move(totals));
}

double counter_value(const util::metrics::Snapshot& snapshot, std::string_view name) {
    for (const auto& entry : snapshot.entries) {
        if (entry.name == name) return static_cast<double>(entry.value);
    }
    return 0.0;
}

std::uint64_t sessions_of(const study::TraceOutputs& traces) {
    std::uint64_t sessions = 0;
    for (const auto r : traces.requests_generated) sessions += r;
    return sessions;
}

void set_simulation_layers(Result& result, const study::TraceOutputs& traces,
                           const util::metrics::Snapshot& snapshot) {
    const double sessions = static_cast<double>(sessions_of(traces));
    const double events = static_cast<double>(traces.events_processed);
    result.set("sim.events", events);
    result.set("sim.events_per_session", sessions > 0 ? events / sessions : 0.0);

    const double player_sessions = counter_value(snapshot, "workload.player.sessions");
    const double per_session = player_sessions > 0 ? 1.0 / player_sessions : 0.0;
    result.set("workload.redirects_per_session",
               counter_value(snapshot, "workload.player.redirects") * per_session);
    result.set("workload.failures", counter_value(snapshot, "workload.player.failures"));

    // Buckets from the registry (bounds 0, 1, 2, 4, +inf); the registry
    // keeps no sum, so it comes from the players' exact per-k tallies.
    for (const auto& entry : snapshot.entries) {
        if (entry.name != "workload.player.retries_per_session") continue;
        static const char* const kBuckets[] = {
            "workload.retries_per_session.le_0", "workload.retries_per_session.le_1",
            "workload.retries_per_session.le_2", "workload.retries_per_session.le_4",
            "workload.retries_per_session.le_inf"};
        if (entry.buckets.size() != std::size(kBuckets)) {
            throw std::runtime_error(
                "workload.player.retries_per_session: unexpected bucket layout");
        }
        for (std::size_t b = 0; b < entry.buckets.size(); ++b) {
            result.set(kBuckets[b], static_cast<double>(entry.buckets[b]));
        }
    }
    double retry_sum = 0.0;
    for (const auto& stats : traces.player_stats) {
        for (std::size_t k = 0; k < stats.retry_histogram.size(); ++k) {
            retry_sum += static_cast<double>(k * stats.retry_histogram[k]);
        }
    }
    result.set("workload.retries_per_session.sum", retry_sum);

    const double queries = counter_value(snapshot, "cdn.dns.queries");
    const double hits = counter_value(snapshot, "workload.player.dns_cache_hits");
    result.set("cdn.dns_queries_per_session", queries * per_session);
    result.set("cdn.dns_cache_hit_ratio",
               hits + queries > 0 ? hits / (hits + queries) : 0.0);

    std::uint64_t observed = 0;
    std::uint64_t ignored = 0;
    for (const auto o : traces.flows_observed) observed += o;
    for (const auto i : traces.flows_ignored) ignored += i;
    result.set("capture.flows_observed", static_cast<double>(observed));
    result.set("capture.useful_flow_ratio",
               observed > 0 ? static_cast<double>(observed - ignored) /
                                  static_cast<double>(observed)
                            : 0.0);
    result.set("util.pool.tasks", counter_value(snapshot, "util.pool.tasks"));
    export_histograms(result, snapshot);
}

void export_histograms(Result& result, const util::metrics::Snapshot& snapshot) {
    using Kind = util::metrics::SnapshotEntry::Kind;
    for (const auto& entry : snapshot.entries) {
        if (entry.kind != Kind::Histogram) continue;
        const std::string prefix = "hist." + entry.name + ".le_";
        for (std::size_t b = 0; b < entry.buckets.size(); ++b) {
            char bound[32] = "inf";
            if (b < entry.bounds.size()) std::snprintf(bound, sizeof bound, "%g", entry.bounds[b]);
            result.info[prefix + bound] = Metric{static_cast<double>(entry.buckets[b]), "count"};
        }
        result.info["hist." + entry.name + ".count"] =
            Metric{static_cast<double>(entry.count), "count"};
    }
}

std::uint64_t replay_read(Result& result,
                          const std::vector<std::filesystem::path>& logs) {
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
    double read_s = 0.0;
    std::vector<ytcdn::capture::FlowRecord> block;
    for (const auto& path : logs) {
        bytes += std::filesystem::file_size(path);
        Span span(read_s);
        auto reader = ytcdn::capture::FlowLogReader::open(path);
        if (!reader.ok()) throw std::runtime_error(reader.error().what());
        for (;;) {
            auto n = reader.value().next(block);
            if (!n.ok()) throw std::runtime_error(n.error().what());
            if (n.value() == 0) break;
            records += n.value();
        }
    }
    result.set("capture.read_s", read_s);
    result.set("capture.read_mib_per_s",
               read_s > 0 ? static_cast<double>(bytes) / kMiB / read_s : 0.0);
    return records;
}

void replay_crc(Result& result, const std::vector<std::filesystem::path>& logs) {
    double crc_s = 0.0;
    std::uint64_t bytes = 0;
    std::uint32_t crc = 0;
    for (const auto& path : logs) {
        const std::string data = read_bytes(path);
        bytes += data.size();
        Span span(crc_s);
        crc = util::crc32(data, crc);
    }
    result.info["util.crc32_of_logs"] = Metric{static_cast<double>(crc), "crc"};
    result.set("util.crc32_s", crc_s);
    result.set("util.crc32_mib_per_s",
               crc_s > 0 ? static_cast<double>(bytes) / kMiB / crc_s : 0.0);
}

std::vector<std::filesystem::path> flow_logs_in(const std::filesystem::path& dir) {
    std::vector<std::filesystem::path> logs;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.is_regular_file() && entry.path().extension() == ".yfl") {
            logs.push_back(entry.path());
        }
    }
    std::sort(logs.begin(), logs.end());
    return logs;
}

}  // namespace perfbench
