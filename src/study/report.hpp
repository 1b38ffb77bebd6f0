#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "analysis/failure_analysis.hpp"
#include "analysis/geo_analysis.hpp"
#include "analysis/table.hpp"
#include "geoloc/cbg.hpp"
#include "study/study_run.hpp"
#include "util/parallel.hpp"

namespace ytcdn::study {

/// Table I: traffic summary per dataset (flows, volume, #servers, #clients),
/// with the paper's values alongside for comparison.
[[nodiscard]] analysis::AsciiTable make_table1(const StudyRun& run);

/// Table II: percentage of servers and bytes per AS group per dataset.
[[nodiscard]] analysis::AsciiTable make_table2(const StudyRun& run);

/// Table III: located Google servers per continent per dataset.
/// `counts[i]` must correspond to dataset i.
[[nodiscard]] analysis::AsciiTable make_table3(
    const StudyRun& run, const std::vector<analysis::ContinentCounts>& counts);

/// Bridges the workload layer's per-player stats into the analysis layer's
/// failure counters (the analysis library does not link workload).
[[nodiscard]] analysis::VantageFailureCounts failure_counts_of(
    std::string vantage, const workload::Player::Stats& stats);

/// All vantage points' failure counters for the run, in dataset order.
[[nodiscard]] std::vector<analysis::VantageFailureCounts> failure_counts(
    const StudyRun& run);

/// Per-vantage session-failure breakdown (rates + terminal causes); the
/// chaos-run companion to Table I.
[[nodiscard]] analysis::AsciiTable make_failure_table(const StudyRun& run);

/// Connection-retry histogram per vantage point.
[[nodiscard]] analysis::AsciiTable make_retry_table(const StudyRun& run);

/// One named paper artifact: "table1.txt" holds rendered ASCII, a
/// "figNN_*.dat" holds gnuplot-ready series blocks.
struct ReportArtifact {
    std::string name;
    std::string content;
};

/// Every table and figure the study derives from one StudyRun, in a fixed
/// name order that does not depend on how the report was computed.
struct FullReport {
    std::vector<ReportArtifact> artifacts;

    /// Names of artifacts that failed and were replaced with a placeholder
    /// (non-strict mode only; empty on a healthy run). The supervisor lists
    /// these in the run manifest instead of aborting the campaign.
    std::vector<std::string> degraded;

    /// The artifact's content, or nullptr if the report was built without it
    /// (e.g. table3 with ReportOptions::include_table3 = false).
    [[nodiscard]] const std::string* content(std::string_view name) const;

    /// Concatenates every artifact under a "== name ==" banner — the
    /// byte-compare target of the determinism tests.
    [[nodiscard]] std::string render() const;
};

struct ReportOptions {
    /// Table III re-runs the whole CBG geolocation pipeline (calibrate 215
    /// landmarks, locate every /24) — by far the most expensive artifact.
    bool include_table3 = true;
    /// Landmark set and CBG grid for Table III; tests shrink both.
    geoloc::LandmarkCounts landmarks;
    geoloc::CbgLocator::Config cbg;
};

/// Renders the full report. Each artifact is an independent pure closure
/// over the immutable `run`, dispatched to `pool`; the artifact list (order
/// and bytes) is identical at any thread count.
[[nodiscard]] FullReport make_full_report(const StudyRun& run,
                                          util::ThreadPool& pool,
                                          const ReportOptions& options = {});
/// Same, on a pool sized by run.config.effective_threads().
[[nodiscard]] FullReport make_full_report(const StudyRun& run,
                                          const ReportOptions& options = {});

}  // namespace ytcdn::study
