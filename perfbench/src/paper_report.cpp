// paper_report: the in-memory study and the full report at scale 0.3.

#include <cstdio>
#include <memory>
#include <string>

#include "analysis/geo_analysis.hpp"
#include "analysis/loadbalance_analysis.hpp"
#include "analysis/preferred_dc.hpp"
#include "geo/city.hpp"
#include "geoloc/cbg.hpp"
#include "geoloc/landmark.hpp"
#include "layers.hpp"
#include "study/dc_map_builder.hpp"
#include "study/deployment.hpp"
#include "study/report.hpp"
#include "study/study_run.hpp"
#include "study/trace_driver.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace analysis = ytcdn::analysis;
namespace geoloc = ytcdn::geoloc;
namespace sim = ytcdn::sim;

void check_shapes(Result& result, const study::StudyRun& run) {
    for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
        const auto& ds = run.traces.datasets[i];
        const double np =
            analysis::non_preferred_share(ds, run.maps[i], run.preferred[i]).byte_fraction;
        const double corr =
            analysis::load_vs_nonpreferred_correlation(ds, run.maps[i], run.preferred[i]);
        char buf[160];
        if (ds.name == "EU2") {
            std::snprintf(buf, sizeof buf, "EU2 non-preferred bytes %.3f (want > 0.40)", np);
            result.check(np > 0.40, buf);
            std::snprintf(buf, sizeof buf, "EU2 load correlation %.3f (want > 0.8)", corr);
            result.check(corr > 0.8, buf);
        } else {
            std::snprintf(buf, sizeof buf, "%s non-preferred bytes %.3f (want < 0.15)",
                          ds.name.c_str(), np);
            result.check(np < 0.15, buf);
        }
    }
}

std::uint64_t records_of(const study::StudyRun& run) {
    std::uint64_t records = 0;
    for (const auto& ds : run.traces.datasets) records += ds.records.size();
    return records;
}

/// Table III outside make_full_report: calibrate the CBG locator and map
/// each dataset's servers with study::cbg_dc_map, as the report's own
/// Table III closure does.
std::string table3(const study::StudyRun& run, const study::ReportOptions& options,
                   util::ThreadPool& pool) {
    geoloc::CbgLocator locator(
        run.deployment->rtt(),
        geoloc::make_planetlab_landmarks(ytcdn::geo::CityDatabase::builtin(),
                                         sim::Rng(run.config.seed ^ 0x9B),
                                         options.landmarks),
        options.cbg, run.config.seed ^ 0xCB6);
    locator.calibrate(pool);
    std::vector<analysis::ContinentCounts> counts;
    for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
        const auto mapping =
            study::cbg_dc_map(*run.deployment, run.traces.datasets[i], locator,
                              run.deployment->vantage(i), run.deployment->local_as(i), pool);
        counts.push_back(analysis::servers_per_continent(mapping.located));
    }
    return study::make_table3(run, counts).render();
}

}  // namespace

Result run_paper_report(const Options& options, util::ThreadPool& pool) {
    Result result;
    const auto cfg = workload_config(options);
    char size[64];
    std::snprintf(size, sizeof size, "scale=%.4f", cfg.scale);
    result.size = size;

    std::string report_text;
    std::uint64_t sessions = 0;
    std::uint64_t records = 0;
    const auto walls = timed_iterations(options, [&] {
        util::metrics::Registry::global().reset();
        const auto start = Clock::now();
        const study::StudyRun run = study::run_study(cfg, pool);
        const study::FullReport report = study::make_full_report(run, pool);
        const std::string text = report.render();
        const double wall = seconds_since(start);
        result.attempted += report.artifacts.size();
        result.failed += report.degraded.size();
        for (const auto& name : report.degraded) {
            result.check(false, "degraded artifact " + name);
        }
        result.check(report_text.empty() || text == report_text,
                     "report differs between iterations of one seed");
        report_text = text;
        sessions = sessions_of(run.traces);
        records = records_of(run);
        check_shapes(result, run);
        return wall;
    });
    result.digests["report"] = digest(report_text);
    const double wall = median(walls);
    record_walls(result, walls);
    result.info["sessions"] = Metric{static_cast<double>(sessions), "count"};
    result.info["records"] = Metric{static_cast<double>(records), "count"};

    if (!options.trace) {
        result.metrics = zeroed(end_to_end_catalogue());
        result.set("sessions_per_s", static_cast<double>(sessions) / wall);
        result.set("records_per_s", static_cast<double>(records) / wall);
        result.set("study_wall_s", wall);
        result.set("peak_rss_mib", peak_rss_mib());
        return result;
    }

    // run_study + make_full_report from outside, one span per call. The
    // first deployment drives the trace; assemble_study_run builds its own,
    // which derive_s excludes by the first one's time and other_s carries.
    result.metrics = zeroed(layer_catalogue());
    util::metrics::Registry::global().reset();
    double deployment_s = 0.0, drive_s = 0.0, assemble_s = 0.0, report_s = 0.0;
    double cbg_s = 0.0, render_s = 0.0;
    const auto start = Clock::now();
    study::TraceOutputs traces;
    {
        std::unique_ptr<study::StudyDeployment> deployment;
        {
            Span span(deployment_s);
            deployment = std::make_unique<study::StudyDeployment>(cfg);
        }
        Span span(drive_s);
        traces = study::TraceDriver(*deployment).run();
    }
    study::StudyRun run;
    {
        Span span(assemble_s);
        run = study::assemble_study_run(cfg, std::move(traces), pool);
    }
    study::ReportOptions no_table3;
    no_table3.include_table3 = false;
    study::FullReport report;
    {
        Span span(report_s);
        report = study::make_full_report(run, pool, no_table3);
    }
    {
        // Inside make_full_report the Table III closure runs on one pool
        // lane, where nested pool calls degrade to serial; a one-lane pool
        // keeps the same critical path here.
        util::ThreadPool one_lane(1);
        Span span(cbg_s);
        std::string content = table3(run, study::ReportOptions{}, one_lane);
        auto at = report.artifacts.begin();
        while (at != report.artifacts.end() && at->name != "table2.txt") ++at;
        if (at != report.artifacts.end()) ++at;
        report.artifacts.insert(at, study::ReportArtifact{"table3.txt", std::move(content)});
    }
    std::string text;
    {
        Span span(render_s);
        text = report.render();
    }
    const double traced_wall = seconds_since(start);
    const auto snapshot = util::metrics::Registry::global().snapshot();
    result.check(text == report_text, "traced pass report differs from make_full_report's");

    set_simulation_layers(result, run.traces, snapshot);
    const double derive_s = assemble_s - deployment_s;
    result.set("error_rate", static_cast<double>(report.degraded.size()) /
                                 static_cast<double>(report.artifacts.size()));
    result.set("paper_report.traced_wall_s", traced_wall);
    result.set("paper_report.trace_overhead_s", traced_wall - wall);
    result.set("paper_report.other_s", traced_wall - deployment_s - drive_s - derive_s -
                                           report_s - cbg_s - render_s);
    result.set("study.deployment_s", deployment_s);
    result.set("study.derive_s", derive_s);
    result.set("study.report_s", report_s);
    result.set("study.render_s", render_s);
    result.set("study.degraded_artifacts", static_cast<double>(report.degraded.size()));
    result.set("sim.trace_drive_s", drive_s);
    result.set("sim.ns_per_event",
               drive_s * 1e9 / static_cast<double>(run.traces.events_processed));
    result.set("geoloc.cbg_s", cbg_s);
    result.set("geoloc.cbg_locates", counter_value(snapshot, "geoloc.cbg.locates"));
    // The DC maps are built inside assemble_study_run; time them apart.
    result.set("study.dc_maps_s", measure_setup(cfg, pool).dc_maps_s);
    return result;
}

}  // namespace perfbench
