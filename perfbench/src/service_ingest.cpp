// service_ingest: the ytcdnd daemon ingesting one vantage point's week.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>

#include "analysis/dc_map.hpp"
#include "analysis/incremental.hpp"
#include "capture/binary_log.hpp"
#include "layers.hpp"
#include "service/aggregates.hpp"
#include "service/service.hpp"
#include "service/spool.hpp"
#include "study/dc_map_builder.hpp"
#include "study/deployment.hpp"
#include "study/scale_run.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace analysis = ytcdn::analysis;
namespace capture = ytcdn::capture;
namespace service = ytcdn::service;

constexpr const char* kVantage = "US-Campus";
constexpr const char* kStream = "us_campus";
constexpr std::size_t kRecordsPerFile = 20'000;

struct SpoolMeta {
    std::uint64_t records = 0;
    std::uint64_t sessions = 0;
    std::uint64_t files = 0;
};

SpoolMeta read_meta(const std::filesystem::path& spool) {
    SpoolMeta meta;
    std::istringstream in(read_bytes(spool / "spool.meta"));
    std::string key;
    std::uint64_t value = 0;
    while (in >> key >> value) {
        if (key == "records") meta.records = value;
        if (key == "sessions") meta.sessions = value;
        if (key == "files") meta.files = value;
    }
    if (meta.records == 0 || meta.files == 0) {
        throw std::runtime_error("spool.meta under " + spool.string() + " is incomplete");
    }
    return meta;
}

/// A fresh copy of the generated spool for one ingest (the service renames
/// and quarantines inside its spool). Untimed.
std::filesystem::path copy_spool(const Options& options, bool corrupt) {
    const auto copy = options.work_dir / "spool";
    std::filesystem::remove_all(copy);
    std::filesystem::create_directories(copy);
    for (const auto& entry : std::filesystem::directory_iterator(options.spool_dir)) {
        if (entry.path().filename() == "spool.meta") continue;
        std::filesystem::copy_file(entry.path(), copy / entry.path().filename());
    }
    if (corrupt) {
        const auto logs = flow_logs_in(copy);
        std::fstream f(logs.front(), std::ios::in | std::ios::out | std::ios::binary);
        f.seekg(100);
        char byte = 0;
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x5A);
        f.seekp(100);
        f.write(&byte, 1);
    }
    return copy;
}

service::ServiceOptions service_options(const Options& options,
                                        const std::filesystem::path& spool) {
    service::ServiceOptions opts;
    opts.spool_dir = spool;
    opts.run_dir = options.work_dir / "service_run";
    opts.once = true;
    opts.threads = options.threads;
    // No control socket and no idle wait between ticks: the run measures
    // ingest, not the poll cadence.
    opts.tick_ms = 0;
    return opts;
}

struct Ingest {
    double wall_s = 0.0;   // Service::run
    double total_s = 0.0;  // Service construction to aggregates.txt read
    service::ServiceReport report;
    std::string aggregates;
};

Ingest ingest_once(const Options& options, bool corrupt) {
    const auto spool = copy_spool(options, corrupt);
    auto opts = service_options(options, spool);
    std::filesystem::remove_all(opts.run_dir);
    service::clear_stop();
    Ingest out;
    const auto start = Clock::now();
    service::Service daemon(opts);
    const auto run_start = Clock::now();
    auto report = daemon.run();
    out.wall_s = seconds_since(run_start);
    if (!report.ok()) throw std::runtime_error(report.error().what());
    out.report = std::move(report).value();
    out.aggregates = read_bytes(out.report.aggregates_path);
    out.total_s = seconds_since(start);
    return out;
}

/// The ingest path's layers, replayed from outside over a fresh spool copy:
/// parse (read_spool_file, fanned out on the pool as the daemon does), fold
/// (ServiceAggregates::add in name order), checkpoint-payload encode after
/// every file, render.
void replay_service(Result& result, const Options& options, util::ThreadPool& pool,
                    const std::string& aggregates) {
    const auto spool = copy_spool(options, false);
    const auto files = service::scan_spool(spool);
    double parse_s = 0.0, fold_s = 0.0, encode_s = 0.0, render_s = 0.0;
    std::vector<std::vector<capture::FlowRecord>> parsed;
    {
        Span span(parse_s);
        parsed = util::parallel_map(pool, files, [](const service::SpoolFile& file) {
            auto records = service::read_spool_file(file.path);
            if (!records.ok()) throw std::runtime_error(records.error().what());
            return std::move(records).value();
        });
    }
    service::ServiceAggregates agg(1.0);
    std::istringstream map_text(read_bytes(service::scan_dc_maps(spool).front().path));
    agg.preference().set_map(analysis::read_dc_map(map_text));
    std::uint64_t records = 0;
    std::size_t encoded = 0;
    for (std::size_t f = 0; f < files.size(); ++f) {
        const std::string stream = service::stream_of(files[f].name);
        {
            Span span(fold_s);
            for (const auto& record : parsed[f]) agg.add(stream, record);
        }
        records += parsed[f].size();
        Span span(encode_s);
        encoded += agg.encode().size();
    }
    std::string rendered;
    {
        Span span(render_s);
        rendered = agg.render();
    }
    result.check(rendered == aggregates,
                 "replayed fold renders differently from the service's aggregates");
    const auto& pref = agg.preference();
    const double np_bytes =
        static_cast<double>(pref.non_preferred_bytes) /
        static_cast<double>(pref.preferred_bytes + pref.non_preferred_bytes);
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s non-preferred bytes %.3f (want < 0.15)", kVantage,
                  np_bytes);
    result.check(np_bytes < 0.15, buf);
    result.info["service.encoded_bytes"] = Metric{static_cast<double>(encoded), "B"};
    result.set("service.parse_s", parse_s);
    result.set("service.fold_s", fold_s);
    result.set("service.fold_ns_per_record", fold_s * 1e9 / static_cast<double>(records));
    result.set("service.encode_s", encode_s);
    result.set("service.render_s", render_s);

    const std::uint64_t reread = replay_read(result, flow_logs_in(spool));
    result.check(reread == records, "reader replay read " + std::to_string(reread) +
                                        " of " + std::to_string(records) + " records");
    replay_crc(result, flow_logs_in(spool));
}

}  // namespace

void generate_spool(const Options& options, util::ThreadPool& pool) {
    study::ScaleRunConfig cfg;
    cfg.study = workload_config(options);
    cfg.spill_dir = options.work_dir / "spool_spill";
    cfg.keep_spill = true;
    auto summary = study::run_scale_study(cfg, pool);
    if (!summary.ok()) throw std::runtime_error(summary.error().what());

    const auto& out = options.spool_dir;
    std::filesystem::remove_all(out);
    std::filesystem::create_directories(out);

    auto reader = capture::FlowLogReader::open(cfg.spill_dir / (std::string(kVantage) + ".yfl"));
    if (!reader.ok()) throw std::runtime_error(reader.error().what());
    analysis::IncrementalSessions sessions(1.0);
    std::vector<capture::FlowRecord> block;
    std::vector<capture::FlowRecord> file_records;
    SpoolMeta meta;
    const auto flush = [&] {
        if (file_records.empty()) return;
        char name[64];
        std::snprintf(name, sizeof name, "%s-%04llu.yfl", kStream,
                      static_cast<unsigned long long>(meta.files));
        auto written = capture::write_binary_log_result(out / name, file_records);
        if (!written.ok()) throw std::runtime_error(written.error().what());
        meta.records += file_records.size();
        ++meta.files;
        file_records.clear();
    };
    for (;;) {
        auto next = reader.value().next(block);
        if (!next.ok()) throw std::runtime_error(next.error().what());
        if (next.value() == 0) break;
        for (const auto& record : block) {
            sessions.add(record);
            file_records.push_back(record);
            if (file_records.size() == kRecordsPerFile) flush();
        }
    }
    flush();
    sessions.close_all();
    meta.sessions = sessions.sessions_closed();
    std::filesystem::remove_all(cfg.spill_dir);

    study::StudyDeployment deployment(cfg.study);
    std::ofstream map_out(out / (std::string(kStream) + ".dcmap"));
    analysis::write_dc_map(map_out, study::ground_truth_dc_map(
                                        deployment, deployment.vantage(std::string_view(kVantage))));
    std::ofstream meta_out(out / "spool.meta");
    meta_out << "records " << meta.records << "\nsessions " << meta.sessions << "\nfiles "
             << meta.files << "\n";
}

Result run_service_ingest(const Options& options, util::ThreadPool& pool,
                          bool corrupt_spool) {
    Result result;
    const SpoolMeta meta = read_meta(options.spool_dir);
    result.size = "vantage=" + std::string(kVantage) +
                  " sessions_target=" + std::to_string(options.sessions) +
                  " records=" + std::to_string(meta.records) +
                  " files=" + std::to_string(meta.files);

    std::string aggregates;
    std::uint64_t ingested = 0;
    const auto walls = timed_iterations(options, [&] {
        const Ingest in = ingest_once(options, corrupt_spool);
        result.attempted += meta.records;
        result.failed += meta.records - std::min(meta.records, in.report.records_ingested);
        ingested = in.report.records_ingested;
        result.check(in.report.records_ingested == meta.records,
                     "service ingested " + std::to_string(in.report.records_ingested) +
                         " of the spool's " + std::to_string(meta.records) + " records");
        result.check(in.report.files_ingested == meta.files,
                     "service took " + std::to_string(in.report.files_ingested) + " of " +
                         std::to_string(meta.files) + " spool files");
        result.check(aggregates.empty() || in.aggregates == aggregates,
                     "aggregates differ between iterations of one seed");
        aggregates = in.aggregates;
        return in.wall_s;
    });
    result.digests["aggregates"] = digest(aggregates);
    const double wall = median(walls);
    record_walls(result, walls);
    result.info["records_ingested"] = Metric{static_cast<double>(ingested), "count"};

    if (!options.trace) {
        result.metrics = zeroed(end_to_end_catalogue());
        result.set("sessions_per_s", static_cast<double>(meta.sessions) / wall);
        result.set("records_per_s", static_cast<double>(meta.records) / wall);
        result.set("study_wall_s", wall);
        result.set("peak_rss_mib", peak_rss_mib());
        return result;
    }

    result.metrics = zeroed(layer_catalogue());
    util::metrics::Registry::global().reset();
    const Ingest in = ingest_once(options, corrupt_spool);
    const double traced_wall = in.total_s;
    const auto snapshot = util::metrics::Registry::global().snapshot();
    result.check(in.aggregates == aggregates, "traced ingest aggregates differ");

    const double offered = static_cast<double>(meta.records);
    result.set("error_rate",
               (offered - static_cast<double>(in.report.records_ingested)) / offered);
    result.set("service_ingest.traced_wall_s", traced_wall);
    result.set("service_ingest.trace_overhead_s", traced_wall - wall);
    result.set("service_ingest.other_s", traced_wall - in.wall_s);
    result.set("service.run_s", in.wall_s);
    result.set("service.files", static_cast<double>(in.report.files_ingested));
    result.set("service.checkpoints",
               counter_value(snapshot, "service.checkpoints_written"));
    result.set("service.shed_records", static_cast<double>(in.report.records_shed));
    result.set("util.pool.tasks", counter_value(snapshot, "util.pool.tasks"));
    export_histograms(result, snapshot);

    replay_service(result, options, pool, in.aggregates);
    const double parts = result.metrics["service.parse_s"].value +
                         result.metrics["service.fold_s"].value +
                         result.metrics["service.encode_s"].value +
                         result.metrics["service.render_s"].value;
    result.set("service.loop_other_s", in.wall_s - parts);
    return result;
}

}  // namespace perfbench
