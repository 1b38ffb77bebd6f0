#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "capture/dataset.hpp"
#include "capture/flow_sink.hpp"
#include "sim/time.hpp"
#include "sim/tracer.hpp"
#include "study/deployment.hpp"
#include "util/parallel.hpp"
#include "workload/player.hpp"

namespace ytcdn::study {

/// Everything a trace run produces, per vantage point.
struct TraceOutputs {
    std::vector<capture::Dataset> datasets;         // one per vantage point
    std::vector<workload::Player::Stats> player_stats;
    std::vector<std::uint64_t> requests_generated;
    /// Total flows the vantage point's probe saw on the wire (YouTube +
    /// background noise) and how many the DPI classifier rejected: the
    /// video sniffer's counts plus the noise lane's sniffer's.
    std::vector<std::uint64_t> flows_observed;
    std::vector<std::uint64_t> flows_ignored;
    /// Workload + background events: the engine's events plus every noise
    /// lane's clock events (the same total at any pool or shard count).
    std::uint64_t events_processed = 0;
    /// Fault events injected from the config's schedule (0 on baselines).
    std::uint64_t faults_injected = 0;
    /// Distinct content-server hostnames DPI saw across all vantage points
    /// (the canonical interner's size after the ordered per-VP merge). Zero
    /// on snapshot-cache loads, like the other capture-side counters.
    std::uint64_t unique_hosts = 0;
};

/// Runs the paper's capture campaign: all five vantage points generate
/// traffic against the shared CDN (server load and cache state are global,
/// as in reality), while a Tstat-like sniffer at each edge records its own
/// dataset.
///
/// The simulation runs on the sharded sim::EventEngine (DESIGN.md §16).
/// Each vantage point's YouTube components (player, request generator,
/// video sniffer) live on shard `vp % num_shards`; the engine pops events
/// across shards in global (time, shard) order. Background traffic lives on
/// no shard: each vantage point's NoiseSource runs on its own private
/// Simulator and Sniffer, as one pool lane beside the engine's (§16.2).
/// Noise touches only its own RNG forks, the read-only VP census and its
/// own sniffer, and no noise flow is ever classified, so running it off the
/// merge moves no output byte. Cross-shard timestamp ties
/// do not occur in this workload (event times are sums of continuous RNG
/// draws; fault times are schedule constants on shard 0), so every output
/// byte is the same at any shard count — the engine counts ties as
/// `sim.engine.cross_shard_ties` and Determinism.EventEngineShardInvariance
/// asserts zero. tests/golden_digests.hpp pins the bytes.
///
/// RNG streams are forked by name from the deployment's root ("trace-driver",
/// then "player-<vp>", "generator-<vp>", "noise-<vp>"), so they do not
/// depend on construction order or shard layout.
class TraceDriver {
public:
    explicit TraceDriver(StudyDeployment& deployment)
        : TraceDriver(deployment, workload::Player::Config{}) {}

    /// Overrides the Flash-player behaviour for every vantage point (DNS
    /// TTL, abort rates, ... — used by the ablation benches).
    TraceDriver(StudyDeployment& deployment, const workload::Player::Config& player_config);

    /// Number of engine shards; 0 (the default) means one shard per vantage
    /// point. Output is byte-identical at any value.
    void set_num_shards(std::size_t shards) noexcept { num_shards_ = shards; }

    /// Routes structured sim events to `tracer` (owned by the caller; may
    /// be null to disable). Each vantage point's player streams under its
    /// index; fault injections stream under vantage point 0xFF. Tracing
    /// consumes no randomness, so traced and untraced runs produce
    /// byte-identical datasets, at any shard count.
    void set_tracer(sim::Tracer* tracer) noexcept { tracer_ = tracer; }

    /// Streaming capture: one sink per vantage point (parallel to the
    /// deployment's VP order). With sinks installed, sniffers forward
    /// records instead of accumulating them, so the returned datasets are
    /// empty and memory stays bounded at any run length; counters, player
    /// stats and host interning are unchanged. An empty vector (the
    /// default) materializes the datasets.
    void set_flow_sinks(std::vector<capture::FlowSink*> sinks) {
        sinks_ = std::move(sinks);
    }

    /// Simulates `horizon` seconds (default: the paper's one week) and
    /// returns the per-vantage-point datasets, sorted by time. The engine
    /// and the vantage points' noise lanes run as `num_vantage_points() + 1`
    /// tasks on `pool`; output is byte-identical at any pool size. Throws
    /// std::invalid_argument when the sink count differs from the
    /// vantage-point count, or when the fault schedule names an unknown
    /// data center, server or resolver — a chaos experiment aimed at a
    /// typo must fail loudly, not run a clean baseline by accident. Throws
    /// std::logic_error if the classifier accepted a background flow.
    [[nodiscard]] TraceOutputs run(util::ThreadPool& pool,
                                   sim::SimTime horizon = sim::kWeek);

    /// run() on util::shared_pool(). Callers that hold a pool pass it.
    [[nodiscard]] TraceOutputs run(sim::SimTime horizon = sim::kWeek);

private:
    StudyDeployment* deployment_;
    workload::Player::Config player_config_;
    sim::Tracer* tracer_ = nullptr;
    std::vector<capture::FlowSink*> sinks_;
    std::size_t num_shards_ = 0;
};

}  // namespace ytcdn::study
