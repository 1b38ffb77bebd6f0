#include "sim/random.hpp"

#include <algorithm>

namespace ytcdn::sim {

std::uint64_t hash_string(std::string_view s) noexcept {
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const char c : s) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001B3ull;
    }
    return h;
}

Rng Rng::fork(std::string_view tag) const {
    return Rng{mix64(seed_ ^ hash_string(tag))};
}

Rng Rng::fork(std::uint64_t index) const {
    return Rng{mix64(seed_ ^ mix64(index ^ 0xA5A5A5A5A5A5A5A5ull))};
}

double Rng::uniform01() {
    return std::uniform_real_distribution<double>{0.0, 1.0}(engine_);
}

double Rng::uniform(double lo, double hi) {
    if (hi < lo) throw std::invalid_argument("uniform: hi < lo");
    return std::uniform_real_distribution<double>{lo, hi}(engine_);
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
    if (n == 0) throw std::invalid_argument("uniform_index: n must be > 0");
    return std::uniform_int_distribution<std::uint64_t>{0, n - 1}(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
    if (hi < lo) throw std::invalid_argument("uniform_int: hi < lo");
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
}

double Rng::exponential(double mean) {
    if (mean <= 0.0) throw std::invalid_argument("exponential: mean must be > 0");
    return std::exponential_distribution<double>{1.0 / mean}(engine_);
}

double Rng::lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>{mu, sigma}(engine_);
}

double Rng::normal(double mean, double stddev) {
    return std::normal_distribution<double>{mean, stddev}(engine_);
}

bool Rng::bernoulli(double p) {
    return std::bernoulli_distribution{std::clamp(p, 0.0, 1.0)}(engine_);
}

}  // namespace ytcdn::sim
