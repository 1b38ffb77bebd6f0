#pragma once

// Shared pieces of the benchmark program: options, timing spans, the fixed
// metric catalogue, digests and the result every workload returns.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "study/config.hpp"

namespace perfbench {

namespace study = ytcdn::study;
namespace util = ytcdn::util;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Adds the lifetime of the span to `total` (seconds). Spans are taken in
/// the benchmark's own code, around calls into the libraries.
class Span {
public:
    explicit Span(double& total) : total_(&total), start_(Clock::now()) {}
    ~Span() { *total_ += seconds_since(start_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    double* total_;
    Clock::time_point start_;
};

/// Sessions per unit of StudyConfig::scale over the simulated week (the
/// figure bench_scale_10m converts session targets with).
inline constexpr double kSessionsPerUnitScale = 1'947'062.0;

struct Options {
    std::string workload;
    std::uint64_t seed = 0xCDA1'2011ull;
    double seconds = 10.0;
    bool trace = false;
    std::size_t threads = 1;
    /// Working directory for spills, spool copies and service run directories.
    std::filesystem::path work_dir;
    /// scale_stream and service_ingest size: target sessions in the week.
    std::uint64_t sessions = 1'000'000;
    /// paper_report size: StudyConfig::scale.
    double report_scale = 0.3;
    /// service_ingest input, made by `gen-spool`.
    std::filesystem::path spool_dir;
    /// Set-ups the `setup` command measures; setup_s is their median.
    int setup_repeats = 21;
    /// Timed iterations per run at least, whatever --seconds says.
    int min_iterations = 3;
};

/// The StudyConfig of `options.workload`: the seed, the size (report_scale
/// for paper_report, `sessions` otherwise) and the fixed pool size (never
/// YTCDN_THREADS).
[[nodiscard]] study::StudyConfig workload_config(const Options& options);

struct Metric {
    double value = 0.0;
    std::string unit;
};

/// Everything a workload run reports. `metrics` holds the end-to-end
/// metrics (untraced run) or the per-layer metrics (traced run); `info`
/// holds numbers printed for people but not part of the result contract.
struct Result {
    std::map<std::string, Metric> metrics;
    std::map<std::string, Metric> info;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// Exact digests of the outputs, by name ("summary", "report", ...).
    std::map<std::string, std::string> digests;
    /// Failed correctness checks, one line each (empty = all held).
    std::vector<std::string> check_failures;
    /// Workload size, as printed in the provenance block.
    std::string size;

    void check(bool ok, const std::string& what);
    void set(const std::string& name, double value);
};

/// The per-layer catalogue: every traced run prints every one of these,
/// with 0 for the layers its workload never enters.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& layer_catalogue();
/// The end-to-end catalogue, printed by every untraced run (setup_s is
/// measured by the `setup` command, in a process of its own).
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& end_to_end_catalogue();
/// A metric map holding every catalogue entry at 0.
[[nodiscard]] std::map<std::string, Metric> zeroed(
    const std::vector<std::pair<std::string, std::string>>& catalogue);

/// 64-bit FNV-1a, printed as 16 hex digits.
[[nodiscard]] std::string digest(std::string_view bytes);

[[nodiscard]] double median(std::vector<double> values);
/// Adds the iteration count and the fastest and slowest iteration to `info`.
void record_walls(Result& result, const std::vector<double>& walls);
/// Peak resident set of this process so far (RUSAGE_SELF), MiB.
[[nodiscard]] double peak_rss_mib();
/// Total size of the regular files directly under `dir`, bytes.
[[nodiscard]] std::uint64_t dir_bytes(const std::filesystem::path& dir);
/// Reads a whole file through the repository's I/O facade; throws on error.
[[nodiscard]] std::string read_bytes(const std::filesystem::path& path);

/// Runs `body` (which returns the wall time of its timed part) at least
/// `min_iterations` times, and again while one more iteration as long as
/// the last fits in `seconds`. Returns each iteration's wall time.
template <typename F>
std::vector<double> timed_iterations(const Options& options, F&& body) {
    std::vector<double> walls;
    const auto start = Clock::now();
    while (static_cast<int>(walls.size()) < options.min_iterations ||
           seconds_since(start) + walls.back() <= options.seconds) {
        walls.push_back(body());
    }
    return walls;
}

}  // namespace perfbench
