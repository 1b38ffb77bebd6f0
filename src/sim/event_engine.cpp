#include "sim/event_engine.hpp"

#include <limits>

#include "util/metrics.hpp"

namespace ytcdn::sim {

EventEngine::EventEngine(std::size_t num_shards) {
    shards_.reserve(num_shards == 0 ? 1 : num_shards);
    for (std::size_t i = 0; i < (num_shards == 0 ? 1 : num_shards); ++i) {
        shards_.push_back(std::make_unique<Simulator>());
    }
}

void EventEngine::run_until(SimTime horizon) {
    static const util::metrics::Counter ties_metric =
        util::metrics::counter("sim.engine.cross_shard_ties");
    std::uint64_t ties = 0;
    for (;;) {
        // The merge point: earliest (time, shard) across all queues. A
        // strict `<` keeps the lowest shard index on ties, so the order is
        // a pure function of queue contents.
        std::size_t best = shards_.size();
        SimTime best_time = std::numeric_limits<SimTime>::infinity();
        bool tie = false;
        for (std::size_t i = 0; i < shards_.size(); ++i) {
            const SimTime t = shards_[i]->next_event_time();
            if (t < best_time) {
                best_time = t;
                best = i;
                tie = false;
            } else if (t == best_time && best != shards_.size()) {
                tie = true;
            }
        }
        if (best == shards_.size() || best_time > horizon) break;
        // A cross-shard tie is the one place the shard layout could steer
        // the run: the popped event would differ at another shard count.
        if (tie) ++ties;
        shards_[best]->run_one();
    }
    for (auto& s : shards_) s->advance_to(horizon);
    cross_shard_ties_ += ties;
    ties_metric.inc(ties);
}

std::uint64_t EventEngine::events_processed() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s->events_processed();
    return total;
}

SimTime EventEngine::next_event_time() const noexcept {
    SimTime best = std::numeric_limits<SimTime>::infinity();
    for (const auto& s : shards_) {
        const SimTime t = s->next_event_time();
        if (t < best) best = t;
    }
    return best;
}

}  // namespace ytcdn::sim
