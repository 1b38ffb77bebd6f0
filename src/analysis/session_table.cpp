#include "analysis/session_table.hpp"

#include <algorithm>

namespace ytcdn::analysis {

SessionTable SessionTable::build(const capture::Dataset& dataset, double gap_T_s) {
    // One global sort: records of the same (client, video) key become
    // contiguous, ordered by (start, end) within the key. The record-index
    // tiebreak makes the permutation deterministic. Sorting compact keys
    // rather than indices keeps each comparison on one contiguous key
    // instead of two record lookups.
    struct Key {
        net::IpAddress client;
        std::uint32_t row;
        cdn::VideoId video;
        sim::SimTime start;
        sim::SimTime end;
    };
    const std::size_t n = dataset.records.size();
    std::vector<Key> keys;
    keys.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto& r = dataset.records[i];
        keys.push_back(
            {r.client_ip, static_cast<std::uint32_t>(i), r.video, r.start, r.end});
    }
    std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
        if (a.client != b.client) return a.client < b.client;
        if (a.video != b.video) return a.video < b.video;
        if (a.start != b.start) return a.start < b.start;
        if (a.end != b.end) return a.end < b.end;
        return a.row < b.row;
    });

    // Sessions are contiguous slices [lo, hi) of `keys`; collect the slice
    // bounds, then order sessions by (start, client, video).
    struct Slice {
        sim::SimTime start;
        net::IpAddress client;
        cdn::VideoId video;
        std::uint32_t lo, hi;
    };
    std::vector<Slice> slices;
    std::size_t i = 0;
    while (i < n) {
        const net::IpAddress client = keys[i].client;
        const cdn::VideoId video = keys[i].video;
        std::size_t key_end = i + 1;
        while (key_end < n && keys[key_end].client == client &&
               keys[key_end].video == video) {
            ++key_end;
        }
        // Split the key's run at gaps, tracking the furthest end seen so
        // far: flows can nest (a long video flow can outlive a short
        // control flow started after it).
        std::size_t lo = i;
        double horizon = keys[i].end;
        for (std::size_t j = i + 1; j < key_end; ++j) {
            if (keys[j].start - horizon > gap_T_s) {
                slices.push_back({keys[lo].start, client, video,
                                  static_cast<std::uint32_t>(lo),
                                  static_cast<std::uint32_t>(j)});
                lo = j;
                horizon = keys[j].end;
            } else {
                horizon = std::max(horizon, keys[j].end);
            }
        }
        slices.push_back({keys[lo].start, client, video,
                          static_cast<std::uint32_t>(lo),
                          static_cast<std::uint32_t>(key_end)});
        i = key_end;
    }

    std::sort(slices.begin(), slices.end(), [](const Slice& a, const Slice& b) {
        if (a.start != b.start) return a.start < b.start;
        if (a.client != b.client) return a.client < b.client;
        return a.video < b.video;
    });

    SessionTable t;
    t.offsets.reserve(slices.size() + 1);
    t.flow_rows.reserve(n);
    t.client.reserve(slices.size());
    t.video.reserve(slices.size());
    t.start.reserve(slices.size());
    t.offsets.push_back(0);
    for (const auto& s : slices) {
        for (std::uint32_t j = s.lo; j < s.hi; ++j) t.flow_rows.push_back(keys[j].row);
        t.offsets.push_back(static_cast<std::uint32_t>(t.flow_rows.size()));
        t.client.push_back(s.client);
        t.video.push_back(s.video);
        t.start.push_back(s.start);
    }
    return t;
}

}  // namespace ytcdn::analysis
