#include "study/study_run.hpp"

#include <stdexcept>
#include <utility>

#include "analysis/preferred_dc.hpp"
#include "analysis/streaming.hpp"
#include "study/dc_map_builder.hpp"
#include "util/metrics.hpp"

namespace ytcdn::study {

namespace {

struct StudyMetrics {
    util::metrics::Counter runs = util::metrics::counter("study.runs");
    util::metrics::Counter maps_derived = util::metrics::counter("study.maps_derived");
};

StudyMetrics& study_metrics() {
    static StudyMetrics metrics;
    return metrics;
}

}  // namespace

std::size_t StudyRun::vp_index(std::string_view name) const {
    const auto it = vp_index_by_name.find(std::string(name));
    if (it == vp_index_by_name.end()) {
        throw std::out_of_range("StudyRun::vp_index: unknown dataset");
    }
    return it->second;
}

const capture::Dataset& StudyRun::dataset(std::string_view name) const {
    return traces.datasets[vp_index(name)];
}

namespace {

StudyRun new_run(const StudyConfig& config,
                 std::unique_ptr<StudyDeployment> deployment, TraceOutputs traces) {
    StudyRun run;
    run.config = config;
    run.deployment = std::move(deployment);
    run.traces = std::move(traces);
    return run;
}

/// Ground-truth server->DC map and preferred data center per vantage point.
void derive_maps(StudyRun& run, util::ThreadPool& pool) {
    // Each vantage point's map derivation pings with its own Pinger seeded
    // from (config seed, vp name) — independent tasks, input-order results.
    // The closure captures only `run`, read-only; ytcdn-parallel-shared-mutation
    // verifies nothing shared is written from the tasks.
    const std::size_t n = run.deployment->num_vantage_points();
    auto derived = util::parallel_map_indexed(pool, n, [&run](std::size_t i) {
        auto map = ground_truth_dc_map(*run.deployment, run.deployment->vantage(i));
        const int preferred = analysis::preferred_dc(run.traces.datasets[i], map);
        return std::pair<analysis::ServerDcMap, int>(std::move(map), preferred);
    });
    run.maps.reserve(n);
    run.preferred.reserve(n);
    for (auto& [map, preferred] : derived) {
        run.maps.push_back(std::move(map));
        run.preferred.push_back(preferred);
    }
    study_metrics().maps_derived.inc(n);
}

/// Everything the report reads besides the datasets and maps: the name
/// index, the per-record dc columns and the CSR session tables.
void derive_tables(StudyRun& run, util::ThreadPool& pool) {
    const std::size_t n = run.traces.datasets.size();
    for (std::size_t i = 0; i < n; ++i) {
        run.vp_index_by_name.emplace(run.traces.datasets[i].name, i);
    }
    // Independent per-VP tasks; results in input order.
    auto bundles = util::parallel_map_indexed(pool, n, [&run](std::size_t i) {
        const auto& dataset = run.traces.datasets[i];
        return std::pair(analysis::dc_column(dataset, run.maps[i]),
                         analysis::SessionTable::build(dataset, 1.0));
    });
    run.dc_columns.reserve(n);
    run.sessions.reserve(n);
    for (auto& [dc, sessions] : bundles) {
        run.dc_columns.push_back(std::move(dc));
        run.sessions.push_back(std::move(sessions));
    }
}

StudyRun derive_run(const StudyConfig& config,
                    std::unique_ptr<StudyDeployment> deployment,
                    TraceOutputs traces, util::ThreadPool& pool) {
    auto run = new_run(config, std::move(deployment), std::move(traces));
    derive_maps(run, pool);
    derive_tables(run, pool);
    return run;
}

}  // namespace

StudyRun assemble_study_run(const StudyConfig& config, TraceOutputs traces,
                            util::ThreadPool& pool) {
    return derive_run(config, std::make_unique<StudyDeployment>(config),
                      std::move(traces), pool);
}

StudyRun assemble_study_run(const StudyConfig& config, TraceOutputs traces,
                            std::vector<analysis::ServerDcMap> maps,
                            std::vector<int> preferred, util::ThreadPool& pool) {
    if (maps.size() != traces.datasets.size() ||
        preferred.size() != traces.datasets.size()) {
        throw std::invalid_argument(
            "assemble_study_run: one map and preferred index per dataset");
    }
    auto run = new_run(config, std::make_unique<StudyDeployment>(config),
                       std::move(traces));
    run.maps = std::move(maps);
    run.preferred = std::move(preferred);
    derive_tables(run, pool);
    return run;
}

StudyRun run_study(const StudyConfig& config, util::ThreadPool& pool,
                   sim::Tracer* tracer) {
    study_metrics().runs.inc();
    auto deployment = std::make_unique<StudyDeployment>(config);
    TraceDriver driver(*deployment);
    driver.set_num_shards(config.engine_shards);
    driver.set_tracer(tracer);
    return derive_run(config, std::move(deployment), driver.run(pool), pool);
}

StudyRun run_study(const StudyConfig& config, sim::Tracer* tracer) {
    util::ThreadPool pool(config.effective_threads());
    return run_study(config, pool, tracer);
}

}  // namespace ytcdn::study
