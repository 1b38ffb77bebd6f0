#include "net/rtt_model.hpp"

#include <stdexcept>
#include <utility>

#include "util/bits.hpp"

namespace ytcdn::net {

RttModel::RttModel(const Config& config) : config_(config) {
    if (config_.ms_per_km <= 0.0) throw std::invalid_argument("ms_per_km must be > 0");
    if (config_.min_inflation < 1.0 || config_.max_inflation < config_.min_inflation) {
        throw std::invalid_argument("inflation range must satisfy 1 <= min <= max");
    }
    if (config_.jitter_mean_ms < 0.0) {
        throw std::invalid_argument("jitter_mean_ms must be >= 0");
    }
}

std::uint64_t RttModel::pair_key(std::uint64_t a, std::uint64_t b) noexcept {
    if (a > b) std::swap(a, b);
    return util::splitmix64(util::splitmix64(a) ^ (b + 0x9E3779B97F4A7C15ull));
}

void RttModel::set_inflation(std::uint64_t a, std::uint64_t b, double factor) {
    if (factor < 1.0) throw std::invalid_argument("inflation factor must be >= 1");
    inflation_overrides_[pair_key(a, b)] = factor;
}

double RttModel::inflation(std::uint64_t a, std::uint64_t b) const noexcept {
    const std::uint64_t key = pair_key(a, b);
    if (const auto it = inflation_overrides_.find(key); it != inflation_overrides_.end()) {
        return it->second;
    }
    // Uniform in [min_inflation, max_inflation], derived from the pair hash.
    const double u = static_cast<double>(util::splitmix64(key) >> 11) /
                     static_cast<double>(1ull << 53);
    return config_.min_inflation + u * (config_.max_inflation - config_.min_inflation);
}

double RttModel::base_rtt_ms(const NetSite& a, const NetSite& b) const noexcept {
    if (a.id == b.id) return a.access_rtt_ms;  // loopback within a site
    const double distance = geo::distance_km(a.location, b.location);
    // Overridden paths are fully specified by their inflation factor; all
    // other paths carry a deterministic additive peering-noise term.
    const std::uint64_t key = pair_key(a.id, b.id);
    double noise = 0.0;
    if (!inflation_overrides_.contains(key)) {
        const double u = static_cast<double>(util::splitmix64(key ^ 0x5157ull) >> 11) /
                         static_cast<double>(1ull << 53);
        // Right-skewed (u^2): most paths are clean, a minority carries
        // noticeable peering detours — matching the long tail of CBG
        // confidence radii in the paper's Fig. 3.
        noise = u * u * 2.0 * config_.max_path_noise_ms;
    }
    return distance * config_.ms_per_km * inflation(a.id, b.id) + noise +
           a.access_rtt_ms + b.access_rtt_ms + config_.base_overhead_ms;
}

double RttModel::sample_rtt_ms(const NetSite& a, const NetSite& b,
                               std::mt19937_64& rng) const {
    std::exponential_distribution<double> jitter(
        config_.jitter_mean_ms > 0.0 ? 1.0 / config_.jitter_mean_ms : 1e9);
    const double j = config_.jitter_mean_ms > 0.0 ? jitter(rng) : 0.0;
    return base_rtt_ms(a, b) + j;
}

}  // namespace ytcdn::net
