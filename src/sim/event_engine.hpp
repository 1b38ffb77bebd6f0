#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace ytcdn::sim {

/// A sharded discrete-event core: one time-ordered event queue (a whole
/// Simulator, so components keep their existing `Simulator&` interface) per
/// shard, executed as a single deterministic K-way merge (DESIGN.md §16).
///
/// Why a merge and not free-running shards: all vantage points share one
/// CDN world — content pulls, per-server flow counts and DC health couple
/// every shard's future to every other shard's past, so events must run in
/// global (time, shard) order for the run to be reproducible. The merge
/// picks, at every step, the shard whose earliest pending event has the
/// smallest timestamp (lowest shard index wins a tie) and runs exactly that
/// event. With one shard this degenerates to Simulator::run_until — the
/// same pops in the same order.
///
/// Shard-count invariance: partitioning the same event population across K
/// queues only changes the tie-break among *equal* timestamps in different
/// shards. Workload timestamps are sums of continuous RNG draws and fault
/// times are schedule constants, so cross-shard collisions do not occur in
/// practice. The merge counts every pop that won such a tie
/// (cross_shard_ties(), metric `sim.engine.cross_shard_ties`), and
/// Determinism.EventEngineShardInvariance asserts the count stays zero.
///
/// Each shard's queue allocates its task payloads from its own
/// util::SlabPool blocks (see sim/event_queue.hpp), so per-shard arenas
/// come for free and a popped task never crosses shards.
class EventEngine {
public:
    explicit EventEngine(std::size_t num_shards);

    [[nodiscard]] std::size_t num_shards() const noexcept {
        return shards_.size();
    }

    /// The shard's Simulator: schedule into it, read its clock. Components
    /// bound to shard i only ever see shard i's queue; the engine owns the
    /// global ordering.
    [[nodiscard]] Simulator& shard(std::size_t i) noexcept {
        return *shards_[i];
    }
    [[nodiscard]] const Simulator& shard(std::size_t i) const noexcept {
        return *shards_[i];
    }

    /// Runs every event with timestamp <= horizon in global merge order,
    /// then advances every shard's clock to the horizon (mirroring
    /// Simulator::run_until so back-to-back phases agree on "now").
    void run_until(SimTime horizon);

    /// Total events executed across all shards.
    [[nodiscard]] std::uint64_t events_processed() const noexcept;

    /// Earliest pending timestamp across shards (+infinity when idle).
    [[nodiscard]] SimTime next_event_time() const noexcept;

    /// Events popped while another shard's head held the same timestamp
    /// (the lowest shard index won). Zero means the pop order did not
    /// depend on the shard layout.
    [[nodiscard]] std::uint64_t cross_shard_ties() const noexcept {
        return cross_shard_ties_;
    }

private:
    // Simulator is non-movable (its EventQueue pins slab blocks), so the
    // shard table owns them indirectly.
    std::vector<std::unique_ptr<Simulator>> shards_;
    std::uint64_t cross_shard_ties_ = 0;
};

}  // namespace ytcdn::sim
