#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace ytcdn::util {

/// SplitMix64 finalizer: a strong 64-bit mix with good avalanche behaviour.
/// The one definition behind every seeded hash in the tree — RNG forks
/// (sim::mix64), RTT inflation keys, fault-plan draws and the checkpoint
/// fingerprints — so a digest recorded anywhere stays comparable. Header
/// only, so layers below sim/ (util, net) can use it without linking it.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/// `v` as `digits` lowercase hex digits, zero-padded (high digits beyond
/// `digits` are dropped): fingerprints and CRCs in the run manifests.
[[nodiscard]] inline std::string hex(std::uint64_t v, int digits = 16) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out(static_cast<std::size_t>(digits), '0');
    for (int i = digits - 1; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
        v >>= 4;
    }
    return out;
}

}  // namespace ytcdn::util
