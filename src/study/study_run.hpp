#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "analysis/dc_map.hpp"
#include "analysis/session_table.hpp"
#include "study/deployment.hpp"
#include "study/trace_driver.hpp"
#include "util/parallel.hpp"

namespace ytcdn::study {

/// A complete, analysis-ready run of the study: deployment + one week of
/// traces + per-vantage-point data-center maps and preferred data centers.
/// Benches and examples start from one of these.
struct StudyRun {
    StudyConfig config;
    std::unique_ptr<StudyDeployment> deployment;
    TraceOutputs traces;
    /// Ground-truth server->DC map per vantage point (probe RTT measured).
    std::vector<analysis::ServerDcMap> maps;
    /// Preferred data-center index (into maps[i]) per vantage point.
    std::vector<int> preferred;
    /// Dataset name -> index (the analyses resolve vantage points by name
    /// in inner loops).
    std::unordered_map<std::string, std::size_t> vp_index_by_name;

    /// CSR session tables over traces.datasets at the paper's T = 1 s gap,
    /// index-aligned with the datasets (fig05's gap-sensitivity sweep
    /// rebuilds at other gaps on the fly).
    std::vector<analysis::SessionTable> sessions;
    /// Pre-resolved dc_of(server_ip) per record (analysis::dc_column),
    /// index-aligned with the datasets.
    std::vector<std::vector<int>> dc_columns;

    /// Throws std::out_of_range for an unknown dataset name.
    [[nodiscard]] std::size_t vp_index(std::string_view name) const;
    [[nodiscard]] const capture::Dataset& dataset(std::string_view name) const;
};

/// Builds the deployment, simulates the week, and derives the per-vantage
/// point maps and preferred data centers. The event merge is sequential by
/// design (all vantage points share one CDN); the background-traffic lanes
/// run beside it and the derivation stages fan out, both on `pool`
/// (TraceDriver::run). A non-null `tracer` collects the
/// simulation's structured event stream (see sim/tracer.hpp) without
/// changing any output byte.
[[nodiscard]] StudyRun run_study(const StudyConfig& config, util::ThreadPool& pool,
                                 sim::Tracer* tracer = nullptr);
/// Same, on a pool sized by config.effective_threads().
[[nodiscard]] StudyRun run_study(const StudyConfig& config,
                                 sim::Tracer* tracer = nullptr);

/// Rebuilds the analysis-ready run around already-simulated traces (e.g.
/// loaded from a snapshot — see study/snapshot.hpp): constructs the
/// deployment and derives maps/preferred exactly as run_study would, so the
/// result is bit-identical to the run that produced the traces.
[[nodiscard]] StudyRun assemble_study_run(const StudyConfig& config,
                                          TraceOutputs traces,
                                          util::ThreadPool& pool);

/// Same, with the maps and preferred data centers already known (a resumed
/// supervisor run reloads them from its geolocate checkpoint): only the
/// name index, session tables and dc columns are derived, through the
/// same code as above.
[[nodiscard]] StudyRun assemble_study_run(const StudyConfig& config,
                                          TraceOutputs traces,
                                          std::vector<analysis::ServerDcMap> maps,
                                          std::vector<int> preferred,
                                          util::ThreadPool& pool);

}  // namespace ytcdn::study
