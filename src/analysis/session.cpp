#include "analysis/session.hpp"

#include <algorithm>
#include <unordered_map>

namespace ytcdn::analysis {

namespace {

struct GroupKey {
    net::IpAddress client;
    cdn::VideoId video;
    friend bool operator==(const GroupKey&, const GroupKey&) = default;
};

struct GroupKeyHash {
    std::size_t operator()(const GroupKey& k) const noexcept {
        const std::size_t h1 = std::hash<net::IpAddress>{}(k.client);
        const std::size_t h2 = std::hash<cdn::VideoId>{}(k.video);
        return h1 ^ (h2 + 0x9E3779B97F4A7C15ull + (h1 << 6) + (h1 >> 2));
    }
};

}  // namespace

std::vector<VideoSession> build_sessions(const capture::Dataset& dataset,
                                         double gap_T_s) {
    std::unordered_map<GroupKey, std::vector<const capture::FlowRecord*>, GroupKeyHash>
        groups;
    for (const auto& r : dataset.records) {
        groups[GroupKey{r.client_ip, r.video}].push_back(&r);
    }

    std::vector<VideoSession> sessions;
    sessions.reserve(groups.size());
    for (auto& [key, flows] : groups) {
        std::sort(flows.begin(), flows.end(),
                  [](const capture::FlowRecord* a, const capture::FlowRecord* b) {
                      if (a->start != b->start) return a->start < b->start;
                      return a->end < b->end;
                  });
        VideoSession current{key.client, key.video, {}};
        // Track the furthest end seen so far: flows can nest (a long video
        // flow can outlive a short control flow started after it).
        double horizon = 0.0;
        for (const auto* f : flows) {
            if (!current.flows.empty() && f->start - horizon > gap_T_s) {
                sessions.push_back(std::move(current));
                current = VideoSession{key.client, key.video, {}};
            }
            horizon = current.flows.empty() ? f->end : std::max(horizon, f->end);
            current.flows.push_back(f);
        }
        if (!current.flows.empty()) sessions.push_back(std::move(current));
    }

    std::sort(sessions.begin(), sessions.end(),
              [](const VideoSession& a, const VideoSession& b) {
                  if (a.start() != b.start()) return a.start() < b.start();
                  if (a.client != b.client) return a.client < b.client;
                  return a.video < b.video;
              });
    return sessions;
}

std::vector<ResolutionShare> resolution_breakdown(const capture::Dataset& dataset) {
    std::vector<ResolutionShare> out;
    out.reserve(std::size(cdn::kAllResolutions));
    for (const auto r : cdn::kAllResolutions) {
        out.push_back(ResolutionShare{r, 0.0, 0.0});
    }
    std::uint64_t flows = 0;
    std::uint64_t bytes = 0;
    for (const auto& rec : dataset.records) {
        if (classify_flow_size(rec.bytes) != FlowKind::Video) continue;
        auto& share = out[static_cast<std::size_t>(rec.resolution)];
        share.flow_share += 1.0;
        share.byte_share += static_cast<double>(rec.bytes);
        ++flows;
        bytes += rec.bytes;
    }
    for (auto& share : out) {
        if (flows > 0) share.flow_share /= static_cast<double>(flows);
        if (bytes > 0) share.byte_share /= static_cast<double>(bytes);
    }
    return out;
}

}  // namespace ytcdn::analysis
