// scale_stream: the out-of-core study at about 1M sessions.

#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>

#include "analysis/streaming.hpp"
#include "capture/binary_log.hpp"
#include "capture/flow_sink.hpp"
#include "capture/sniffer.hpp"
#include "cdn/http.hpp"
#include "cdn/video.hpp"
#include "layers.hpp"
#include "sim/simulator.hpp"
#include "study/dc_map_builder.hpp"
#include "study/deployment.hpp"
#include "study/event_engine_driver.hpp"
#include "study/scale_run.hpp"
#include "workload/noise_source.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace analysis = ytcdn::analysis;
namespace capture = ytcdn::capture;
namespace cdn = ytcdn::cdn;
namespace sim = ytcdn::sim;
namespace workload = ytcdn::workload;

std::string render_summary(const study::ScaleRunSummary& s) {
    std::string out = "sessions=" + std::to_string(s.sessions) +
                      " flows=" + std::to_string(s.flows) +
                      " events=" + std::to_string(s.events) + "\n";
    char buf[256];
    for (const auto& v : s.vantage) {
        std::snprintf(buf, sizeof buf,
                      "%s flows=%llu preferred=%d np_bytes=%.17g np_flows=%.17g "
                      "corr=%.17g redirected=%llu\n",
                      v.name.c_str(), static_cast<unsigned long long>(v.flows),
                      v.preferred, v.share.byte_fraction, v.share.flow_fraction,
                      v.load_correlation,
                      static_cast<unsigned long long>(v.redirected_videos));
        out += buf;
    }
    return out;
}

/// The paper's §VII shape, at any seed: the four non-EU2 networks fetch
/// under 15% of their bytes from non-preferred data centers; EU2 over 40%,
/// tracking its load (correlation over 0.8).
void check_shape(Result& result, const std::string& name, double np_bytes, double corr) {
    char buf[160];
    if (name == "EU2") {
        std::snprintf(buf, sizeof buf, "EU2 non-preferred bytes %.3f (want > 0.40)", np_bytes);
        result.check(np_bytes > 0.40, buf);
        std::snprintf(buf, sizeof buf, "EU2 load correlation %.3f (want > 0.8)", corr);
        result.check(corr > 0.8, buf);
    } else {
        std::snprintf(buf, sizeof buf, "%s non-preferred bytes %.3f (want < 0.15)",
                      name.c_str(), np_bytes);
        result.check(np_bytes < 0.15, buf);
    }
}

study::ScaleRunConfig scale_config(const Options& options) {
    study::ScaleRunConfig cfg;
    cfg.study = workload_config(options);
    cfg.spill_dir = options.work_dir / "spill";
    return cfg;
}

/// Pass-1 sink of the traced run: the same tally + spill as the library's
/// own sink, with the two halves timed apart.
class TracedSpillSink final : public capture::FlowSink {
public:
    TracedSpillSink(capture::FlowLogWriter writer, const analysis::ServerDcMap& map)
        : writer_(std::move(writer)), map_(&map) {}

    void on_flow(const capture::FlowRecord& record) override {
        const auto t0 = Clock::now();
        tally_.add(record, map_->dc_of(record.server_ip));
        const auto t1 = Clock::now();
        if (!error_) {
            if (auto r = writer_.add(record); !r.ok()) error_ = r.error().what();
        }
        const auto t2 = Clock::now();
        fold_ += t1 - t0;
        spill_ += t2 - t1;
    }

    std::uint64_t finish() {
        if (error_) throw std::runtime_error("spill failed: " + *error_);
        if (auto r = writer_.finish(); !r.ok()) throw std::runtime_error(r.error().what());
        return writer_.records_written();
    }

    [[nodiscard]] const analysis::IncrementalDcTraffic& tally() const { return tally_; }
    [[nodiscard]] double fold_s() const { return std::chrono::duration<double>(fold_).count(); }
    [[nodiscard]] double spill_s() const { return std::chrono::duration<double>(spill_).count(); }

private:
    capture::FlowLogWriter writer_;
    const analysis::ServerDcMap* map_;
    analysis::IncrementalDcTraffic tally_;
    std::optional<std::string> error_;
    Clock::duration fold_{};
    Clock::duration spill_{};
};

struct TracedPass {
    double wall_s = 0.0;
    double deployment_s = 0.0;
    double dc_maps_s = 0.0;
    double drive_s = 0.0;    // EventEngineDriver::run, sink spans excluded
    double spill_s = 0.0;    // writer adds + finish
    double fold_s = 0.0;     // pass-1 tally + pass-2 incremental modules
    double read_s = 0.0;     // pass-2 FlowLogReader::next
    study::ScaleRunSummary summary;
    study::TraceOutputs traces;
    std::unique_ptr<study::StudyDeployment> deployment;
    std::vector<std::filesystem::path> spills;
};

/// run_scale_study, reproduced from outside with a span per layer. Pass 2
/// runs serially here so the read and fold spans partition wall time; the
/// spill files stay on disk for the replays.
TracedPass traced_pass(const study::ScaleRunConfig& cfg, util::ThreadPool& pool) {
    TracedPass t;
    const auto start = Clock::now();
    {
        Span span(t.deployment_s);
        t.deployment = std::make_unique<study::StudyDeployment>(cfg.study);
    }
    auto& dep = *t.deployment;
    const std::size_t n = dep.num_vantage_points();
    std::vector<analysis::ServerDcMap> maps;
    {
        Span span(t.dc_maps_s);
        maps = util::parallel_map_indexed(pool, n, [&dep](std::size_t i) {
            return study::ground_truth_dc_map(dep, dep.vantage(i));
        });
    }

    std::filesystem::create_directories(cfg.spill_dir);
    std::vector<std::unique_ptr<TracedSpillSink>> sinks;
    std::vector<capture::FlowSink*> sink_ptrs;
    for (std::size_t i = 0; i < n; ++i) {
        t.spills.push_back(cfg.spill_dir / (dep.vantage(i).name + ".yfl"));
        auto writer = capture::FlowLogWriter::create(t.spills.back());
        if (!writer.ok()) throw std::runtime_error(writer.error().what());
        sinks.push_back(std::make_unique<TracedSpillSink>(std::move(writer).value(), maps[i]));
        sink_ptrs.push_back(sinks.back().get());
    }

    study::EventEngineDriver driver(dep);
    driver.set_num_shards(cfg.study.engine_shards);
    driver.set_flow_sinks(std::move(sink_ptrs));
    double run_s = 0.0;
    {
        Span span(run_s);
        t.traces = driver.run();
    }
    double sink_fold_s = 0.0;
    double sink_spill_s = 0.0;
    for (const auto& sink : sinks) {
        sink_fold_s += sink->fold_s();
        sink_spill_s += sink->spill_s();
    }
    t.drive_s = run_s - sink_fold_s - sink_spill_s;
    t.fold_s = sink_fold_s;
    t.spill_s = sink_spill_s;

    t.summary.events = t.traces.events_processed;
    t.summary.sessions = sessions_of(t.traces);
    {
        Span span(t.spill_s);
        for (const auto& sink : sinks) t.summary.flows += sink->finish();
    }

    std::vector<capture::FlowRecord> block;
    for (std::size_t i = 0; i < n; ++i) {
        study::VantageScaleSummary v;
        v.name = dep.vantage(i).name;
        v.preferred = sinks[i]->tally().preferred(maps[i]);
        v.share = sinks[i]->tally().share(v.preferred);
        analysis::IncrementalHourlyLoad hourly(v.preferred, v.name);
        analysis::IncrementalVideoRedirects redirects(v.preferred);
        auto reader = [&] {
            Span span(t.read_s);
            return capture::FlowLogReader::open(t.spills[i], cfg.reader_chunk_bytes);
        }();
        if (!reader.ok()) throw std::runtime_error(reader.error().what());
        for (;;) {
            std::size_t got = 0;
            {
                Span span(t.read_s);
                auto next = reader.value().next(block);
                if (!next.ok()) throw std::runtime_error(next.error().what());
                got = next.value();
            }
            if (got == 0) break;
            Span span(t.fold_s);
            for (const auto& record : block) {
                const int dc = maps[i].dc_of(record.server_ip);
                hourly.add(record, dc);
                redirects.add(record, dc);
            }
        }
        v.flows = reader.value().records_read();
        v.load_correlation = hourly.correlation();
        v.redirected_videos = redirects.num_videos();
        t.summary.vantage.push_back(std::move(v));
    }
    t.wall_s = seconds_since(start);
    return t;
}

/// NoiseSource alone on a private simulator and sniffer per vantage point,
/// with the run's own RNG fork: the background traffic pass 1 pays for.
void replay_noise(Result& result, study::StudyDeployment& dep,
                  const study::TraceOutputs& traces) {
    double noise_s = 0.0;
    std::uint64_t emitted = 0;
    std::uint64_t ignored = 0;
    const sim::Rng driver_rng = dep.root_rng().fork("trace-driver");
    for (std::size_t i = 0; i < dep.num_vantage_points(); ++i) {
        auto& vp = dep.vantage(i);
        Span span(noise_s);
        sim::Simulator simulator;
        capture::Sniffer sniffer(vp.name);
        workload::NoiseSource noise(simulator, vp, sniffer, workload::NoiseSource::Config{},
                                    driver_rng.fork("noise-" + vp.name));
        noise.run(sim::kWeek);
        simulator.run_until(sim::kWeek + 2.0 * sim::kHour);
        emitted += noise.flows_emitted();
        ignored += sniffer.flows_ignored();
    }
    std::uint64_t run_ignored = 0;
    for (const auto i : traces.flows_ignored) run_ignored += i;
    result.check(ignored == run_ignored && emitted == ignored,
                 "noise replay dropped " + std::to_string(ignored) + " of " +
                     std::to_string(emitted) + " flows; the run dropped " +
                     std::to_string(run_ignored));
    result.set("workload.noise_replay_s", noise_s);
    result.set("workload.noise_flows", static_cast<double>(emitted));
}

/// Sniffer::observe on the spilled records, each re-formatted as the
/// player's HTTP request (formatting is outside the span).
void replay_sniffer(Result& result, const std::vector<std::filesystem::path>& spills) {
    double sniff_s = 0.0;
    std::uint64_t replayed = 0;
    std::uint64_t classified = 0;
    std::vector<capture::FlowRecord> block;
    std::vector<std::string> payloads;
    for (const auto& path : spills) {
        capture::Sniffer sniffer(path.stem().string());
        auto reader = capture::FlowLogReader::open(path);
        if (!reader.ok()) throw std::runtime_error(reader.error().what());
        for (;;) {
            auto next = reader.value().next(block);
            if (!next.ok()) throw std::runtime_error(next.error().what());
            if (next.value() == 0) break;
            payloads.clear();
            for (const auto& r : block) {
                const std::uint32_t ip = r.server_ip.value();
                payloads.push_back(cdn::format_request(
                    {cdn::server_hostname(static_cast<int>((ip >> 8) & 0xFF),
                                          static_cast<int>(ip & 0xFF)),
                     r.video, cdn::itag_of(r.resolution)}));
            }
            Span span(sniff_s);
            for (std::size_t k = 0; k < block.size(); ++k) {
                const auto& r = block[k];
                sniffer.observe({r.client_ip, r.server_ip, r.start, r.end, r.bytes,
                                 payloads[k]});
            }
        }
        replayed += sniffer.flows_observed();
        classified += sniffer.flows_classified();
    }
    result.check(classified == replayed,
                 "sniffer replay classified " + std::to_string(classified) + " of " +
                     std::to_string(replayed) + " spilled records");
    result.set("capture.sniff_replay_s", sniff_s);
    result.set("capture.sniff_ns_per_flow",
               replayed > 0 ? sniff_s * 1e9 / static_cast<double>(replayed) : 0.0);
}

}  // namespace

Result run_scale_stream(const Options& options, util::ThreadPool& pool) {
    Result result;
    const auto cfg = scale_config(options);
    char size[96];
    std::snprintf(size, sizeof size, "sessions_target=%llu scale=%.6f",
                  static_cast<unsigned long long>(options.sessions), cfg.study.scale);
    result.size = size;

    std::string summary_text;
    std::uint64_t sessions = 0;
    std::uint64_t flows = 0;
    const auto walls = timed_iterations(options, [&] {
        util::metrics::Registry::global().reset();
        const auto start = Clock::now();
        auto summary = study::run_scale_study(cfg, pool);
        const double wall = seconds_since(start);
        std::error_code ignore;
        std::filesystem::remove_all(cfg.spill_dir, ignore);
        if (!summary.ok()) {
            result.attempted += options.sessions;
            result.failed += options.sessions;
            result.check(false, std::string("run_scale_study: ") + summary.error().what());
            return wall;
        }
        const auto& s = summary.value();
        const auto snapshot = util::metrics::Registry::global().snapshot();
        result.attempted += s.sessions;
        result.failed +=
            static_cast<std::uint64_t>(counter_value(snapshot, "workload.player.failures"));
        const std::string text = render_summary(s);
        result.check(summary_text.empty() || text == summary_text,
                     "summary differs between iterations of one seed");
        summary_text = text;
        sessions = s.sessions;
        flows = s.flows;
        std::uint64_t vantage_flows = 0;
        for (const auto& v : s.vantage) vantage_flows += v.flows;
        result.check(vantage_flows == s.flows,
                     "records re-read (" + std::to_string(vantage_flows) +
                         ") differ from records spilled (" + std::to_string(s.flows) + ")");
        for (const auto& v : s.vantage) {
            check_shape(result, v.name, v.share.byte_fraction, v.load_correlation);
        }
        return wall;
    });
    result.digests["summary"] = digest(summary_text);
    const double wall = median(walls);
    record_walls(result, walls);
    result.info["sessions"] = Metric{static_cast<double>(sessions), "count"};
    result.info["records"] = Metric{static_cast<double>(flows), "count"};

    if (!options.trace) {
        result.metrics = zeroed(end_to_end_catalogue());
        result.set("sessions_per_s", static_cast<double>(sessions) / wall);
        result.set("records_per_s", static_cast<double>(flows) / wall);
        result.set("study_wall_s", wall);
        result.set("peak_rss_mib", peak_rss_mib());
        return result;
    }

    result.metrics = zeroed(layer_catalogue());
    util::metrics::Registry::global().reset();
    TracedPass t = traced_pass(cfg, pool);
    const auto snapshot = util::metrics::Registry::global().snapshot();
    result.check(render_summary(t.summary) == summary_text,
                 "traced pass summary differs from run_scale_study's");

    const double records = static_cast<double>(t.summary.flows);
    set_simulation_layers(result, t.traces, snapshot);
    result.set("error_rate", counter_value(snapshot, "workload.player.failures") /
                                 static_cast<double>(t.summary.sessions));
    result.set("scale_stream.traced_wall_s", t.wall_s);
    result.set("scale_stream.trace_overhead_s", t.wall_s - wall);
    result.set("study.deployment_s", t.deployment_s);
    result.set("study.dc_maps_s", t.dc_maps_s);
    result.set("sim.drive_s", t.drive_s);
    result.set("sim.ns_per_event",
               t.drive_s * 1e9 / static_cast<double>(t.traces.events_processed));
    result.set("capture.spill_s", t.spill_s);
    result.set("capture.spill_ns_per_record", t.spill_s * 1e9 / records);
    const double spill_bytes = static_cast<double>(dir_bytes(cfg.spill_dir));
    result.set("capture.spill_mib", spill_bytes / kMiB);
    result.set("capture.read_s", t.read_s);
    result.set("capture.read_mib_per_s", spill_bytes / kMiB / t.read_s);
    result.set("analysis.stream_fold_s", t.fold_s);
    result.set("analysis.stream_fold_ns_per_record", t.fold_s * 1e9 / records);
    result.set("scale_stream.other_s", t.wall_s - t.deployment_s - t.dc_maps_s - t.drive_s -
                                           t.spill_s - t.fold_s - t.read_s);

    // Replays outside the traced wall: each isolates one layer's cost.
    replay_noise(result, *t.deployment, t.traces);
    replay_sniffer(result, t.spills);
    replay_crc(result, t.spills);
    std::error_code ignore;
    std::filesystem::remove_all(cfg.spill_dir, ignore);
    return result;
}

}  // namespace perfbench
