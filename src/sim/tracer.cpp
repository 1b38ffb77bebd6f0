#include "sim/tracer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <utility>

#include "util/codec.hpp"
#include "util/crc32.hpp"
#include "util/io.hpp"

namespace ytcdn::sim {

namespace {

constexpr char kMagic[4] = {'Y', 'T', 'R', '1'};
constexpr char kTrailerMagic[4] = {'Y', 'T', 'R', 'E'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderSize = 4 + 4 + 8 + 4;       // magic|version|count|crc
constexpr std::size_t kStringsHeaderSize = 4 + 4 + 4;    // count|bytes|crc
constexpr std::size_t kBlockHeaderSize = 4 + 4;          // events-in-block|crc
constexpr std::size_t kTrailerSize = 4 + 8 + 4;          // magic|count|crc
constexpr std::size_t kRecordSize = 56;
constexpr std::uint64_t kBlockEvents = 1024;
/// Interned strings are short entity names; a multi-gigabyte declared
/// table length is an attack on the reader, not a trace.
constexpr std::uint64_t kMaxStringBytes = 1u << 28;

constexpr std::string_view kTypeNames[kNumTraceEventTypes] = {
    "session-start", "session-end", "dns-query",    "dns-cache-hit",
    "dns-answer",    "dns-servfail", "dc-selected",  "redirect",
    "connect-fail",  "retry",        "failover",     "pause",
    "resume",        "fault",        "guard",
};

using util::codec::load;
using util::codec::put;

void put_event(std::string& buf, const TraceEvent& e) {
    put<double>(buf, e.time);
    put<std::uint64_t>(buf, e.seq);
    put<std::uint64_t>(buf, e.session);
    put<std::int64_t>(buf, e.a);
    put<std::int64_t>(buf, e.b);
    put<double>(buf, e.x);
    put<std::uint8_t>(buf, static_cast<std::uint8_t>(e.type));
    put<std::uint8_t>(buf, e.vp);
    put<std::uint16_t>(buf, e.code);
    put<std::uint32_t>(buf, 0);  // pad to 56 bytes
}

util::Result<TraceEvent> parse_event(const char* p, std::uint64_t index,
                                     std::uint64_t offset) {
    TraceEvent e;
    e.time = load<double>(p);
    e.seq = load<std::uint64_t>(p + 8);
    e.session = load<std::uint64_t>(p + 16);
    e.a = load<std::int64_t>(p + 24);
    e.b = load<std::int64_t>(p + 32);
    e.x = load<double>(p + 40);
    const auto type = load<std::uint8_t>(p + 48);
    e.vp = load<std::uint8_t>(p + 49);
    e.code = load<std::uint16_t>(p + 50);
    if (!std::isfinite(e.time)) {
        return error_at_record(ErrorCode::BadField, "non-finite event time",
                               index, offset);
    }
    if (type >= kNumTraceEventTypes) {
        return error_at_record(ErrorCode::BadField,
                               "unknown event type " + std::to_string(type),
                               index, offset);
    }
    e.type = static_cast<TraceEventType>(type);
    return e;
}

std::uint64_t num_blocks(std::uint64_t n) {
    return (n + kBlockEvents - 1) / kBlockEvents;
}

/// %.17g: shortest formatting that round-trips a double, locale-free.
std::string fmt_double(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void append_json_escaped(std::string& out, std::string_view s) {
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(static_cast<unsigned char>(c)));
            out += buf;
        } else {
            out.push_back(c);
        }
    }
}

}  // namespace

std::string_view to_string(TraceEventType t) noexcept {
    const auto i = static_cast<std::size_t>(t);
    return i < kNumTraceEventTypes ? kTypeNames[i] : "?";
}

util::Result<TraceEventType> trace_event_type_from(std::string_view name) {
    for (std::size_t i = 0; i < kNumTraceEventTypes; ++i) {
        if (kTypeNames[i] == name) return static_cast<TraceEventType>(i);
    }
    return Error(ErrorCode::InvalidArgument,
                 "unknown trace event type '" + std::string(name) + "'");
}

TraceFilter TraceFilter::all() noexcept {
    TraceFilter f;
    f.enabled.fill(true);
    return f;
}

util::Result<TraceFilter> TraceFilter::parse(std::string_view csv) {
    TraceFilter f;  // nothing enabled yet
    std::size_t pos = 0;
    bool any = false;
    while (pos <= csv.size()) {
        const std::size_t comma = std::min(csv.find(',', pos), csv.size());
        const std::string_view name = csv.substr(pos, comma - pos);
        pos = comma + 1;
        if (name.empty()) continue;
        auto type = trace_event_type_from(name);
        if (!type) return std::move(type).error();
        f.enabled[static_cast<std::size_t>(type.value())] = true;
        any = true;
    }
    if (!any) {
        return Error(ErrorCode::InvalidArgument,
                     "empty --trace-filter (expected comma-separated event "
                     "type names)");
    }
    return f;
}

void Tracer::emit(double time, TraceEventType type, std::uint8_t vp,
                  std::uint64_t session, std::uint16_t code, std::int64_t a,
                  std::int64_t b, double x) {
    const std::uint64_t seq = next_seq_++;
    if (!filter_.accepts(type)) return;
    TraceEvent e;
    e.time = time;
    e.seq = seq;
    e.session = session;
    e.a = a;
    e.b = b;
    e.x = x;
    e.type = type;
    e.vp = vp;
    e.code = code;
    events_.push_back(e);
}

std::uint32_t Tracer::intern(std::string_view s) {
    for (std::size_t i = 0; i < strings_.size(); ++i) {
        if (strings_[i] == s) return static_cast<std::uint32_t>(i);
    }
    strings_.emplace_back(s);
    return static_cast<std::uint32_t>(strings_.size() - 1);
}

TraceLog Tracer::sorted_log() const {
    TraceLog log{strings_, events_};
    std::sort(log.events.begin(), log.events.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                  return a.time != b.time ? a.time < b.time : a.seq < b.seq;
              });
    return log;
}

void Tracer::clear() {
    events_.clear();
    strings_.clear();
    next_seq_ = 0;
}

std::string write_trace_bytes(const TraceLog& log) {
    std::string out;
    const auto count = static_cast<std::uint64_t>(log.events.size());
    out.reserve(kHeaderSize + kStringsHeaderSize +
                count * kRecordSize + num_blocks(count) * kBlockHeaderSize +
                kTrailerSize);

    out.append(kMagic, sizeof(kMagic));
    put<std::uint32_t>(out, kVersion);
    put<std::uint64_t>(out, count);
    put<std::uint32_t>(out, util::crc32(out));

    std::string strings;
    for (const std::string& s : log.strings) util::codec::put_str32(strings, s);
    put<std::uint32_t>(out, static_cast<std::uint32_t>(log.strings.size()));
    put<std::uint32_t>(out, static_cast<std::uint32_t>(strings.size()));
    put<std::uint32_t>(out, util::crc32(strings));
    out += strings;

    for (std::uint64_t start = 0; start < count; start += kBlockEvents) {
        const std::uint64_t n = std::min(kBlockEvents, count - start);
        std::string block;
        block.reserve(n * kRecordSize);
        for (std::uint64_t i = 0; i < n; ++i) {
            put_event(block, log.events[start + i]);
        }
        put<std::uint32_t>(out, static_cast<std::uint32_t>(n));
        put<std::uint32_t>(out, util::crc32(block));
        out += block;
    }

    std::string trailer;
    trailer.append(kTrailerMagic, sizeof(kTrailerMagic));
    put<std::uint64_t>(trailer, count);
    put<std::uint32_t>(trailer, util::crc32(trailer));
    out += trailer;
    return out;
}

util::Result<void> write_trace_file(const std::filesystem::path& path,
                                    const TraceLog& log) {
    return util::io::write_file_atomic(path, write_trace_bytes(log));
}

namespace {

/// Where and how a YTR1 stream broke off before its trailer validated.
/// The strict reader reports a tear as corruption; salvage keeps what came
/// before it.
struct Tear {
    enum class Kind {
        PartialBlockHeader,  // fewer than 8 bytes where a block header belongs
        BadBlockCount,       // block header count is 0, > 1024 or past the total
        PartialBlock,        // the stream ends inside a block's payload
        MissingTrailer,      // every block arrived; the trailer did not
        TrailingBytes,       // more than a trailer follows the last block
    };
    Kind kind;
    std::uint64_t offset;     // where the torn frame starts
    std::uint32_t block = 0;  // the block's declared event count
};

struct TraceWalk {
    TraceLog log;
    std::uint64_t declared = 0;  // the header's event count
    std::optional<Tear> tear;    // nullopt: the trailer validated
};

/// Rejects a header event count before any size arithmetic uses it.
using CountCheck = util::Result<void> (*)(std::uint64_t count,
                                          std::size_t stream_size);

/// The one YTR1 walk: header, string table, event blocks, trailer. Damage
/// a tear cannot explain (bad magic or version, a CRC mismatch on a
/// complete frame, an invalid event) is a typed error; a stream that stops
/// early comes back with the events of every complete block and a Tear.
util::Result<TraceWalk> walk_trace(std::string_view data, CountCheck check_count) {
    if (data.size() < kHeaderSize) {
        return Error(ErrorCode::Truncated, "truncated trace header (" +
                                               std::to_string(data.size()) +
                                               " bytes)");
    }
    if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
        return Error(ErrorCode::BadMagic, "not a YTR1 trace stream");
    }
    const auto version = load<std::uint32_t>(data.data() + 4);
    const auto count = load<std::uint64_t>(data.data() + 8);
    if (load<std::uint32_t>(data.data() + 16) !=
        util::crc32(data.substr(0, kHeaderSize - 4))) {
        return error_at_byte(ErrorCode::ChecksumMismatch, "header CRC mismatch",
                             kHeaderSize - 4);
    }
    if (version != kVersion) {
        return Error(ErrorCode::UnsupportedVersion,
                     "trace version " + std::to_string(version) +
                         " (reader supports " + std::to_string(kVersion) + ")");
    }
    if (auto sane = check_count(count, data.size()); !sane) return sane.error();

    std::size_t offset = kHeaderSize;
    if (data.size() - offset < kStringsHeaderSize) {
        return error_at_byte(ErrorCode::Truncated, "truncated string table",
                             offset);
    }
    const auto string_count = load<std::uint32_t>(data.data() + offset);
    const auto string_bytes = load<std::uint32_t>(data.data() + offset + 4);
    const auto string_crc = load<std::uint32_t>(data.data() + offset + 8);
    offset += kStringsHeaderSize;
    if (string_bytes > kMaxStringBytes ||
        string_bytes > data.size() - offset ||
        static_cast<std::uint64_t>(string_count) * 4 > string_bytes) {
        return error_at_byte(ErrorCode::CountMismatch,
                             "string table length inconsistent", offset);
    }
    const std::string_view strings_payload = data.substr(offset, string_bytes);
    if (util::crc32(strings_payload) != string_crc) {
        return error_at_byte(ErrorCode::ChecksumMismatch,
                             "string table CRC mismatch", offset);
    }
    TraceWalk walk;
    walk.declared = count;
    walk.log.strings.reserve(string_count);
    util::codec::ByteReader strings(strings_payload);
    for (std::uint32_t i = 0; i < string_count; ++i) {
        std::uint32_t len = 0;
        if (!strings.take(len)) {
            return error_at_byte(ErrorCode::Truncated, "truncated string entry",
                                 offset + strings.offset());
        }
        std::string_view s;
        if (!strings.take_view(s, len)) {
            return error_at_byte(ErrorCode::Truncated,
                                 "string length exceeds table",
                                 offset + strings.offset());
        }
        walk.log.strings.emplace_back(s);
    }
    if (!strings.done()) {
        return error_at_byte(ErrorCode::CountMismatch,
                             "string table has trailing bytes", offset);
    }
    offset += string_bytes;

    const auto torn = [&walk](Tear::Kind kind, std::uint64_t at,
                              std::uint32_t block = 0) {
        walk.tear = Tear{kind, at, block};
        return std::move(walk);
    };
    walk.log.events.reserve(std::min<std::uint64_t>(count, data.size() / kRecordSize));
    std::uint64_t parsed = 0;
    while (parsed < count) {
        if (data.size() - offset < kBlockHeaderSize) {
            return torn(Tear::Kind::PartialBlockHeader, offset);
        }
        const auto n = load<std::uint32_t>(data.data() + offset);
        const auto block_crc = load<std::uint32_t>(data.data() + offset + 4);
        if (n == 0 || n > kBlockEvents || n > count - parsed) {
            return torn(Tear::Kind::BadBlockCount, offset, n);
        }
        const std::size_t payload_size = n * kRecordSize;
        if (data.size() - offset - kBlockHeaderSize < payload_size) {
            return torn(Tear::Kind::PartialBlock, offset, n);
        }
        const std::string_view payload =
            data.substr(offset + kBlockHeaderSize, payload_size);
        if (util::crc32(payload) != block_crc) {
            return error_at_byte(ErrorCode::ChecksumMismatch,
                                 "event block CRC mismatch", offset);
        }
        for (std::uint32_t i = 0; i < n; ++i) {
            auto event = parse_event(payload.data() + i * kRecordSize,
                                     parsed + i,
                                     offset + kBlockHeaderSize + i * kRecordSize);
            if (!event) return std::move(event).error();
            // An interned-string reference must resolve: fault and guard
            // events index the table through `b`.
            if ((event.value().type == TraceEventType::Fault ||
                 event.value().type == TraceEventType::Guard) &&
                (event.value().b < 0 ||
                 static_cast<std::uint64_t>(event.value().b) >=
                     walk.log.strings.size())) {
                return error_at_record(ErrorCode::BadField,
                                       "fault target index out of range",
                                       parsed + i, offset);
            }
            walk.log.events.push_back(event.value());
        }
        parsed += n;
        offset += kBlockHeaderSize + payload_size;
    }

    if (data.size() - offset < kTrailerSize) {
        return torn(Tear::Kind::MissingTrailer, offset);
    }
    if (data.size() - offset > kTrailerSize) {
        return torn(Tear::Kind::TrailingBytes, offset);
    }
    const char* trailer = data.data() + offset;
    if (std::memcmp(trailer, kTrailerMagic, sizeof(kTrailerMagic)) != 0) {
        return error_at_byte(ErrorCode::BadMagic, "bad trailer magic", offset);
    }
    if (load<std::uint32_t>(trailer + kTrailerSize - 4) !=
        util::crc32(data.substr(offset, kTrailerSize - 4))) {
        return error_at_byte(ErrorCode::ChecksumMismatch, "trailer CRC mismatch",
                             offset + kTrailerSize - 4);
    }
    if (load<std::uint64_t>(trailer + sizeof(kTrailerMagic)) != count) {
        return error_at_byte(ErrorCode::CountMismatch,
                             "trailer/header event count mismatch", offset);
    }
    return walk;
}

/// A strict read needs every declared event in the stream.
util::Result<void> fits_stream(std::uint64_t count, std::size_t stream_size) {
    if (count <= stream_size / kRecordSize) return {};
    return Error(ErrorCode::CountMismatch,
                 "declared " + std::to_string(count) + " events, stream holds " +
                     std::to_string(stream_size) + " bytes");
}

/// A tear removes tail bytes; it cannot inflate the header's count. An
/// absurd count (the CRC-valid overflow fixture) is corruption.
util::Result<void> plausible(std::uint64_t count, std::size_t) {
    if (count <= (std::uint64_t{1} << 40)) return {};
    return Error(ErrorCode::CountMismatch, "declared event count " +
                                               std::to_string(count) +
                                               " is implausible");
}

}  // namespace

util::Result<TraceLog> read_trace_bytes(std::string_view data) {
    auto walk = walk_trace(data, fits_stream);
    if (!walk) return walk.error();
    const auto& tear = walk.value().tear;
    if (!tear) return std::move(walk.value().log);
    switch (tear->kind) {
        case Tear::Kind::PartialBlockHeader:
            return error_at_byte(ErrorCode::Truncated, "truncated block header",
                                 tear->offset);
        case Tear::Kind::BadBlockCount:
            return error_at_byte(ErrorCode::CountMismatch,
                                 "bad block event count " +
                                     std::to_string(tear->block),
                                 tear->offset);
        case Tear::Kind::PartialBlock:
            return error_at_byte(ErrorCode::Truncated, "truncated event block",
                                 tear->offset);
        case Tear::Kind::MissingTrailer:
            return error_at_byte(ErrorCode::Truncated, "truncated trailer",
                                 tear->offset);
        case Tear::Kind::TrailingBytes:
            break;
    }
    return error_at_byte(ErrorCode::Truncated, "trailing bytes after trailer",
                         tear->offset);
}

util::Result<TraceSalvage> salvage_trace_bytes(std::string_view data) {
    auto walk = walk_trace(data, plausible);
    if (!walk) return walk.error();
    TraceSalvage out;
    out.log = std::move(walk.value().log);
    out.declared_events = walk.value().declared;
    const auto& tear = walk.value().tear;
    if (!tear) {
        out.complete = true;
        return out;
    }
    const std::string at = "tail torn at byte " + std::to_string(tear->offset);
    switch (tear->kind) {
        case Tear::Kind::PartialBlockHeader:
            out.note = at + ": partial block header";
            break;
        case Tear::Kind::BadBlockCount:
            out.note = at + ": implausible block count " + std::to_string(tear->block);
            break;
        case Tear::Kind::PartialBlock:
            out.note = at + ": block holds " + std::to_string(tear->block) +
                       " events but the stream ends first";
            break;
        case Tear::Kind::MissingTrailer:
            out.note = at + ": trailer missing";
            break;
        case Tear::Kind::TrailingBytes:
            // Every event arrived; an oversized trailer is corruption.
            return error_at_byte(ErrorCode::BadMagic, "bad trailer magic",
                                 tear->offset);
    }
    return out;
}

std::string render_trace_jsonl(const TraceLog& log) {
    std::string out;
    for (const TraceEvent& e : log.events) {
        out += "{\"t\":";
        out += fmt_double(e.time);
        out += ",\"seq\":";
        out += std::to_string(e.seq);
        out += ",\"type\":\"";
        out += to_string(e.type);
        out += "\",\"vp\":";
        out += std::to_string(e.vp);
        out += ",\"session\":";
        out += std::to_string(e.session);
        out += ",\"code\":";
        out += std::to_string(e.code);
        out += ",\"a\":";
        out += std::to_string(e.a);
        out += ",\"b\":";
        out += std::to_string(e.b);
        out += ",\"x\":";
        out += fmt_double(e.x);
        if ((e.type == TraceEventType::Fault ||
             e.type == TraceEventType::Guard) &&
            e.b >= 0 &&
            static_cast<std::uint64_t>(e.b) < log.strings.size()) {
            out += ",\"target\":\"";
            append_json_escaped(out, log.strings[static_cast<std::size_t>(e.b)]);
            out += "\"";
        }
        out += "}\n";
    }
    return out;
}

util::Result<void> write_trace_jsonl(const std::filesystem::path& path,
                                     const TraceLog& log) {
    return util::io::write_file_atomic(path, render_trace_jsonl(log));
}

std::vector<SessionTimeline> session_timelines(const TraceLog& log) {
    // std::map, not unordered: the returned order is part of trace_dump's
    // byte-stable output.
    std::map<std::pair<std::uint8_t, std::uint64_t>, SessionTimeline> grouped;
    for (const TraceEvent& e : log.events) {
        if (e.session == 0) continue;
        auto& timeline = grouped[{e.vp, e.session}];
        timeline.vp = e.vp;
        timeline.session = e.session;
        timeline.events.push_back(e);
    }
    std::vector<SessionTimeline> out;
    out.reserve(grouped.size());
    for (auto& [key, timeline] : grouped) out.push_back(std::move(timeline));
    return out;
}

TraceValidation validate_trace(const TraceLog& log, int max_retries) {
    TraceValidation v;
    v.events = log.events.size();
    const auto note = [&v](std::string problem) {
        // Cap the report: a hostile trace must not balloon the validator.
        if (v.problems.size() < 50) v.problems.push_back(std::move(problem));
    };

    double last_time = -std::numeric_limits<double>::infinity();
    for (const TraceEvent& e : log.events) {
        if (e.time < last_time) {
            note("time goes backwards at seq " + std::to_string(e.seq));
        }
        last_time = std::max(last_time, e.time);
    }

    for (const SessionTimeline& timeline : session_timelines(log)) {
        ++v.sessions;
        const std::string who = "session vp" + std::to_string(timeline.vp) + "/" +
                                std::to_string(timeline.session);
        std::uint64_t starts = 0;
        std::uint64_t ends = 0;
        std::uint64_t retries = 0;
        bool end_before_start = false;
        for (const TraceEvent& e : timeline.events) {
            if (e.type == TraceEventType::SessionStart) ++starts;
            if (e.type == TraceEventType::SessionEnd) {
                ++ends;
                if (starts == 0) end_before_start = true;
            }
            if (e.type == TraceEventType::Retry) {
                ++retries;
                v.max_retries_seen = std::max(v.max_retries_seen,
                                              static_cast<std::uint64_t>(e.code));
            }
        }
        if (starts != 1) {
            note(who + ": " + std::to_string(starts) + " session-start events");
        }
        if (ends != 1) {
            note(who + ": " + std::to_string(ends) +
                 " session-end events (want exactly 1)");
        }
        if (end_before_start) note(who + ": session-end precedes session-start");
        if (retries > static_cast<std::uint64_t>(std::max(0, max_retries))) {
            note(who + ": " + std::to_string(retries) +
                 " retries exceed the configured bound " +
                 std::to_string(max_retries));
        }
    }
    return v;
}

}  // namespace ytcdn::sim
