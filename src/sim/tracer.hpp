#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace ytcdn::sim {

/// One structured event kind the simulation can emit. The enum values are
/// the on-disk type bytes of the YTR1 format — append only, never
/// renumber (DESIGN.md §11 documents the schema).
enum class TraceEventType : std::uint8_t {
    SessionStart = 0,  // a=video id, b=ldns id, code=itag
    SessionEnd,        // code=SessionOutcome (0 = served)
    DnsQuery,          // cache miss: the stub asked the local resolver; a=ldns
    DnsCacheHit,       // stub cache answered; a=dc
    DnsAnswer,         // a=dc, code=1 when the answer was a stale replay
    DnsServFail,       // a=DNS retries left
    DcSelected,        // a=dc, code=rank among RTT-ordered candidates, b=#candidates
    Redirect,          // code=1 miss / 2 overload, a=from dc, b=to dc, x=delay s
    ConnectFail,       // code=1 timeout / 2 reset, a=server
    Retry,             // code=retry count, a=failover server, x=backoff delay s
    Failover,          // resume-path failover: a=server, x=delay s
    Pause,             // a=server, x=viewer gap s
    Resume,            // a=server, x=remaining watch fraction
    Fault,             // code=FaultAction, a=schedule index, b=interned target
    Guard,             // resource-guard report from the study supervisor:
                       // code=1 RSS ceiling / 2 stage deadline, a=observed
                       // (KiB or ms), b=interned stage name, x=budget
};

inline constexpr std::size_t kNumTraceEventTypes = 15;

/// Kebab-case name ("session-start", "fault") used by JSONL output and the
/// --trace-filter flag; "?" for out-of-range values.
[[nodiscard]] std::string_view to_string(TraceEventType t) noexcept;
/// Inverse of to_string; unknown names yield ErrorCode::InvalidArgument
/// (the flag's usage error, exit 2).
[[nodiscard]] util::Result<TraceEventType> trace_event_type_from(
    std::string_view name);

/// One emitted event. 56 bytes on disk, fixed layout (see write_trace_bytes).
struct TraceEvent {
    double time = 0.0;         // simulator time, seconds
    std::uint64_t seq = 0;     // global emission index (pre-filter)
    std::uint64_t session = 0; // per-player session id; 0 = not session-bound
    std::int64_t a = 0;        // type-specific (see TraceEventType)
    std::int64_t b = 0;
    double x = 0.0;
    TraceEventType type = TraceEventType::SessionStart;
    std::uint8_t vp = 0xFF;    // vantage-point index; 0xFF = global (faults)
    std::uint16_t code = 0;

    friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Which event types a Tracer records. Filtering happens at emit time, so
/// a narrow filter keeps memory proportional to what was asked for; `seq`
/// still counts every emission, filtered or not, so two runs differing
/// only in filter agree on the seq of every surviving event.
struct TraceFilter {
    std::array<bool, kNumTraceEventTypes> enabled{};

    [[nodiscard]] static TraceFilter all() noexcept;
    /// Parses a comma-separated type-name list ("session-start,redirect").
    [[nodiscard]] static util::Result<TraceFilter> parse(std::string_view csv);
    [[nodiscard]] bool accepts(TraceEventType t) const noexcept {
        const auto i = static_cast<std::size_t>(t);
        return i < enabled.size() && enabled[i];
    }
};

/// In-memory container matching the on-disk format: an interned string
/// table (fault targets) plus the event list in emission order.
struct TraceLog {
    std::vector<std::string> strings;
    std::vector<TraceEvent> events;

    friend bool operator==(const TraceLog&, const TraceLog&) = default;
};

/// Buffers structured events during a run and writes them at the end.
/// Emission appends to a vector — no I/O, no clock reads and no RNG draws
/// on the hot path, which is what keeps a traced run byte-identical to an
/// untraced one (Determinism.MetricsAndTrace pins this).
///
/// All emission happens on the single simulator thread (the parallel
/// derivation stages never trace), so the Tracer is deliberately
/// unsynchronized; events arrive in deterministic sim order.
class Tracer {
public:
    explicit Tracer(TraceFilter filter = TraceFilter::all()) : filter_(filter) {}

    void emit(double time, TraceEventType type, std::uint8_t vp,
              std::uint64_t session, std::uint16_t code = 0, std::int64_t a = 0,
              std::int64_t b = 0, double x = 0.0);

    /// Interns a string (e.g. a fault target) and returns its table index.
    [[nodiscard]] std::uint32_t intern(std::string_view s);

    [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
        return events_;
    }
    /// Total emissions including filtered-out ones.
    [[nodiscard]] std::uint64_t emitted() const noexcept { return next_seq_; }
    [[nodiscard]] TraceLog log() const { return TraceLog{strings_, events_}; }
    /// Events sorted by (time, seq) — a stable no-op for a well-formed
    /// trace, pinned by the golden tests that byte-compare sorted output.
    [[nodiscard]] TraceLog sorted_log() const;

    void clear();

private:
    TraceFilter filter_;
    std::vector<TraceEvent> events_;
    std::vector<std::string> strings_;
    std::uint64_t next_seq_ = 0;
};

/// Null-safe handle the instrumented layers hold: a Tracer pointer plus
/// this component's vantage-point index. A default-constructed stream is
/// disabled and every call is a no-op branch — the untraced hot path costs
/// one pointer test.
class TraceStream {
public:
    TraceStream() = default;
    TraceStream(Tracer* tracer, std::uint8_t vp) : tracer_(tracer), vp_(vp) {}

    [[nodiscard]] bool enabled() const noexcept { return tracer_ != nullptr; }

    void emit(double time, TraceEventType type, std::uint64_t session,
              std::uint16_t code = 0, std::int64_t a = 0, std::int64_t b = 0,
              double x = 0.0) const {
        if (tracer_ != nullptr) {
            tracer_->emit(time, type, vp_, session, code, a, b, x);
        }
    }

    /// Interns via the tracer; 0 when disabled.
    [[nodiscard]] std::uint32_t intern(std::string_view s) const {
        return tracer_ != nullptr ? tracer_->intern(s) : 0;
    }

private:
    Tracer* tracer_ = nullptr;
    std::uint8_t vp_ = 0xFF;
};

// --- YTR1 on-disk format ---------------------------------------------------
//
// Little-endian, CRC-framed like the YFL2 flow log (DESIGN.md §11):
//
//   header   "YTR1" | u32 version=1 | u64 event count | u32 crc(prev 16 B)
//   strings  u32 count | u32 payload bytes | u32 crc(payload) | payload
//            where payload = count x (u32 length | bytes)
//   blocks   ceil(count / 1024) x (u32 n | u32 crc(payload) | n x 56 B)
//   trailer  "YTRE" | u64 event count | u32 crc(prev 12 B)
//
// Event record (56 B): f64 time | u64 seq | u64 session | i64 a | i64 b |
// f64 x | u8 type | u8 vp | u16 code | u32 zero-pad.

/// Serializes to YTR1 bytes (pure; the golden tests pin the output).
[[nodiscard]] std::string write_trace_bytes(const TraceLog& log);
/// Atomic tmp+fsync+rename write of write_trace_bytes.
[[nodiscard]] util::Result<void> write_trace_file(
    const std::filesystem::path& path, const TraceLog& log);

/// Parses YTR1 bytes; corruption yields typed errors (BadMagic,
/// UnsupportedVersion, Truncated, ChecksumMismatch, CountMismatch,
/// BadField) with byte provenance — exit code 4 at the CLI boundary.
[[nodiscard]] util::Result<TraceLog> read_trace_bytes(std::string_view data);

/// Partial recovery of a torn YTR1 stream — a writer killed mid-append
/// leaves a valid prefix that a strict read rejects as Truncated. Salvage
/// walks the stream exactly as read_trace_bytes does (one walker serves
/// both) and differs only at the end: a torn final block or missing
/// trailer ends the salvage with every fully CRC-verified block kept, and
/// the header's event count need only be plausible, not fit the stream.
/// Damage to the header or string table and a CRC mismatch on a complete
/// block are still hard errors — bit rot must never be dressed up as a
/// tear.
struct TraceSalvage {
    TraceLog log;
    std::uint64_t declared_events = 0;  // the header's promise
    bool complete = false;  // trailer validated: nothing was actually lost
    std::string note;       // one line locating the tear, when !complete
};

[[nodiscard]] util::Result<TraceSalvage> salvage_trace_bytes(
    std::string_view data);

/// One JSON object per event, in order; Fault events carry their resolved
/// "target" string. Deterministic formatting (%.17g doubles).
[[nodiscard]] std::string render_trace_jsonl(const TraceLog& log);
[[nodiscard]] util::Result<void> write_trace_jsonl(
    const std::filesystem::path& path, const TraceLog& log);

// --- timelines & invariants (trace_dump, tests) ----------------------------

/// All events of one session, in emission order.
struct SessionTimeline {
    std::uint8_t vp = 0;
    std::uint64_t session = 0;
    std::vector<TraceEvent> events;
};

/// Per-session timelines grouped from a log, ordered by (vp, session id).
/// Events with session == 0 (faults) are left out.
[[nodiscard]] std::vector<SessionTimeline> session_timelines(const TraceLog& log);

/// Trace invariant check:
///   - sim time is non-decreasing in seq order;
///   - every session has exactly one session-start and exactly one
///     session-end, with the start first;
///   - no session carries more than `max_retries` retry events, and retry
///     counters stay within the bound.
struct TraceValidation {
    std::uint64_t sessions = 0;
    std::uint64_t events = 0;
    std::uint64_t max_retries_seen = 0;
    std::vector<std::string> problems;  // empty = all invariants hold

    [[nodiscard]] bool ok() const noexcept { return problems.empty(); }
};
[[nodiscard]] TraceValidation validate_trace(const TraceLog& log,
                                             int max_retries);

}  // namespace ytcdn::sim
