#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <string_view>

#include "util/bits.hpp"

namespace ytcdn::sim {

/// The project-wide random number generator.
///
/// A thin wrapper over std::mt19937_64 adding the distributions the
/// reproduction needs and deterministic substream forking: every subsystem
/// derives its own independent stream from one master seed, so a run is
/// reproducible bit-for-bit regardless of subsystem evaluation order.
class Rng {
public:
    explicit Rng(std::uint64_t seed = 0x853C49E6748FEA9Bull) : engine_(seed), seed_(seed) {}

    /// Derives an independent generator for a named subsystem. The same
    /// (seed, tag) pair always yields the same stream.
    [[nodiscard]] Rng fork(std::string_view tag) const;

    /// Derives an independent generator for an indexed entity (client id,
    /// video rank, ...).
    [[nodiscard]] Rng fork(std::uint64_t index) const;

    [[nodiscard]] std::mt19937_64& engine() noexcept { return engine_; }
    [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

    /// Uniform in [0, 1).
    [[nodiscard]] double uniform01();
    /// Uniform in [lo, hi).
    [[nodiscard]] double uniform(double lo, double hi);
    /// Uniform integer in [0, n). n must be > 0.
    [[nodiscard]] std::uint64_t uniform_index(std::uint64_t n);
    /// Uniform integer in [lo, hi] inclusive.
    [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
    /// Exponential with the given mean (> 0).
    [[nodiscard]] double exponential(double mean);
    /// Lognormal given the mean and sigma of the underlying normal.
    [[nodiscard]] double lognormal(double mu, double sigma);
    /// Normal with mean/stddev.
    [[nodiscard]] double normal(double mean, double stddev);
    /// True with probability p (clamped to [0, 1]).
    [[nodiscard]] bool bernoulli(double p);

    /// Uniformly picks an element of a non-empty span.
    template <typename T>
    [[nodiscard]] const T& pick(std::span<const T> items) {
        if (items.empty()) throw std::invalid_argument("pick from empty span");
        return items[uniform_index(items.size())];
    }

private:
    std::mt19937_64 engine_;
    std::uint64_t seed_;
};

/// SplitMix64 finalizer, exposed for deterministic hash-derived values
/// (per-path inflation, server assignment, ...).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
    return util::splitmix64(x);
}

/// FNV-1a hash of a string, for stable tag-based seeding.
[[nodiscard]] std::uint64_t hash_string(std::string_view s) noexcept;

}  // namespace ytcdn::sim
