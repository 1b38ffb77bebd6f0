#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <system_error>

#include "util/io.hpp"

namespace perfbench {

study::StudyConfig workload_config(const Options& options) {
    study::StudyConfig cfg;
    cfg.seed = options.seed;
    cfg.scale = options.workload == "paper_report"
                    ? options.report_scale
                    : static_cast<double>(options.sessions) / kSessionsPerUnitScale;
    cfg.threads = static_cast<int>(options.threads);
    return cfg;
}

void Result::check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
}

void Result::set(const std::string& name, double value) {
    const auto it = metrics.find(name);
    if (it == metrics.end()) {
        throw std::logic_error("metric not in the catalogue: " + name);
    }
    it->second.value = value;
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_catalogue() {
    static const std::vector<std::pair<std::string, std::string>> catalogue{
        {"sessions_per_s", "1/s"},
        {"records_per_s", "1/s"},
        {"study_wall_s", "s"},
        {"peak_rss_mib", "MiB"},
    };
    return catalogue;
}

const std::vector<std::pair<std::string, std::string>>& layer_catalogue() {
    static const std::vector<std::pair<std::string, std::string>> catalogue{
        // Traced-run accounting, per workload.
        {"scale_stream.traced_wall_s", "s"},
        {"scale_stream.trace_overhead_s", "s"},
        {"scale_stream.other_s", "s"},
        {"paper_report.traced_wall_s", "s"},
        {"paper_report.trace_overhead_s", "s"},
        {"paper_report.other_s", "s"},
        {"service_ingest.traced_wall_s", "s"},
        {"service_ingest.trace_overhead_s", "s"},
        {"service_ingest.other_s", "s"},
        {"error_rate", "ratio"},
        // study
        {"study.deployment_s", "s"},
        {"study.dc_maps_s", "s"},
        {"study.derive_s", "s"},
        {"study.report_s", "s"},
        {"study.render_s", "s"},
        {"study.degraded_artifacts", "count"},
        // sim
        {"sim.drive_s", "s"},
        {"sim.trace_drive_s", "s"},
        {"sim.events", "count"},
        {"sim.events_per_session", "ratio"},
        {"sim.ns_per_event", "ns"},
        // workload
        {"workload.noise_replay_s", "s"},
        {"workload.noise_flows", "count"},
        {"workload.redirects_per_session", "ratio"},
        {"workload.failures", "count"},
        {"workload.retries_per_session.le_0", "count"},
        {"workload.retries_per_session.le_1", "count"},
        {"workload.retries_per_session.le_2", "count"},
        {"workload.retries_per_session.le_4", "count"},
        {"workload.retries_per_session.le_inf", "count"},
        {"workload.retries_per_session.sum", "count"},
        // cdn
        {"cdn.dns_queries_per_session", "ratio"},
        {"cdn.dns_cache_hit_ratio", "ratio"},
        // capture
        {"capture.flows_observed", "count"},
        {"capture.useful_flow_ratio", "ratio"},
        {"capture.sniff_replay_s", "s"},
        {"capture.sniff_ns_per_flow", "ns"},
        {"capture.spill_s", "s"},
        {"capture.spill_ns_per_record", "ns"},
        {"capture.spill_mib", "MiB"},
        {"capture.read_s", "s"},
        {"capture.read_mib_per_s", "MiB/s"},
        // analysis
        {"analysis.stream_fold_s", "s"},
        {"analysis.stream_fold_ns_per_record", "ns"},
        // geoloc
        {"geoloc.cbg_s", "s"},
        {"geoloc.cbg_locates", "count"},
        // service
        {"service.run_s", "s"},
        {"service.parse_s", "s"},
        {"service.fold_s", "s"},
        {"service.fold_ns_per_record", "ns"},
        {"service.encode_s", "s"},
        {"service.render_s", "s"},
        {"service.loop_other_s", "s"},
        {"service.files", "count"},
        {"service.checkpoints", "count"},
        {"service.shed_records", "count"},
        // util
        {"util.crc32_s", "s"},
        {"util.crc32_mib_per_s", "MiB/s"},
        {"util.pool.tasks", "count"},
    };
    return catalogue;
}

std::map<std::string, Metric> zeroed(
    const std::vector<std::pair<std::string, std::string>>& catalogue) {
    std::map<std::string, Metric> out;
    for (const auto& [name, unit] : catalogue) out[name] = Metric{0.0, unit};
    return out;
}

std::string digest(std::string_view bytes) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void record_walls(Result& result, const std::vector<double>& walls) {
    result.info["iterations"] = Metric{static_cast<double>(walls.size()), "count"};
    result.info["wall_min_s"] = Metric{*std::min_element(walls.begin(), walls.end()), "s"};
    result.info["wall_max_s"] = Metric{*std::max_element(walls.begin(), walls.end()), "s"};
}

double peak_rss_mib() {
    struct rusage self {};
    if (getrusage(RUSAGE_SELF, &self) != 0) return 0.0;
    return static_cast<double>(self.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t dir_bytes(const std::filesystem::path& dir) {
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
        if (entry.is_regular_file(ec)) total += entry.file_size(ec);
    }
    return total;
}

std::string read_bytes(const std::filesystem::path& path) {
    auto bytes = ytcdn::util::io::read_file(path);
    if (!bytes.ok()) throw std::runtime_error(bytes.error().what());
    return std::move(bytes).value();
}

}  // namespace perfbench
