#pragma once

// Measurements shared by several workloads: the set-up time, the
// simulation-side layer counts, and the codec replays (read, CRC).

#include <filesystem>
#include <vector>

#include "common.hpp"
#include "study/trace_driver.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace perfbench {

struct SetupTimes {
    double deployment_s = 0.0;
    double dc_maps_s = 0.0;
    [[nodiscard]] double total() const { return deployment_s + dc_maps_s; }
};

/// One set-up as every study starts: the StudyDeployment plus the
/// ground-truth server->DC map of each vantage point, built on `pool`.
[[nodiscard]] SetupTimes measure_setup(const study::StudyConfig& config,
                                       util::ThreadPool& pool);

/// setup_s: the median of `options.setup_repeats` set-ups.
[[nodiscard]] double median_setup_s(const Options& options,
                                    const study::StudyConfig& config,
                                    util::ThreadPool& pool);

/// The registry value of a counter, or 0 if nothing registered it yet.
[[nodiscard]] double counter_value(const util::metrics::Snapshot& snapshot,
                                   std::string_view name);

/// Sessions the trace generated, over all vantage points.
[[nodiscard]] std::uint64_t sessions_of(const study::TraceOutputs& traces);

/// Sets the sim/workload/cdn/capture/util counts of a traced simulation:
/// per-session ratios, the retry histogram (buckets from the metrics
/// snapshot, the exact sum from the players' own retry tallies) and the
/// sniffer's observed/classified flows.
void set_simulation_layers(Result& result, const study::TraceOutputs& traces,
                           const util::metrics::Snapshot& snapshot);

/// Every histogram in the snapshot, bucket by bucket, as `info` lines
/// ("hist.<name>.le_<bound>", "hist.<name>.le_inf", "hist.<name>.count").
void export_histograms(Result& result, const util::metrics::Snapshot& snapshot);

/// Streams every YFL2 log through capture::FlowLogReader without folding;
/// sets capture.read_s and capture.read_mib_per_s. Returns records read.
[[nodiscard]] std::uint64_t replay_read(Result& result,
                          const std::vector<std::filesystem::path>& logs);

/// util::crc32 over the logs' bytes; sets util.crc32_s and
/// util.crc32_mib_per_s.
void replay_crc(Result& result, const std::vector<std::filesystem::path>& logs);

/// The "*.yfl" files directly under `dir`, sorted by name.
[[nodiscard]] std::vector<std::filesystem::path> flow_logs_in(
    const std::filesystem::path& dir);

inline constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace perfbench
