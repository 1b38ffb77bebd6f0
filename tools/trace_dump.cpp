// trace_dump — reads a YTR1 structured-event trace (ytcdn --trace-out),
// reconstructs per-session timelines and checks the trace invariants:
// every session-start pairs with exactly one terminal session-end, sim
// time never goes backwards, and no session exceeds the retry bound.
//
//   trace_dump [--format text|jsonl] [--sessions N] [--max-retries N]
//              [--no-validate] FILE
//
// Exit codes follow the repo convention: 0 ok, 1 invariant violation,
// 2 usage, 3 I/O, 4 corrupt trace. A *torn* trace — a valid prefix cut
// short by a crashed writer — is salvaged instead: every CRC-verified
// block is dumped, a warning names the tear, and the exit code is 6 so
// callers can tell "partial but trustworthy" from "corrupt".

#include <cstdint>
#include <iostream>
#include <map>
#include <string>

#include "sim/tracer.hpp"
#include "util/args.hpp"
#include "util/error.hpp"
#include "util/io.hpp"

namespace {

using namespace ytcdn;

int usage() {
    std::cerr <<
        "usage: trace_dump [--format text|jsonl] [--sessions N] [--max-retries N]\n"
        "                  [--no-validate] FILE\n"
        "  --format text     per-session timelines + event-type counts (default)\n"
        "  --format jsonl    one JSON object per event, in emission order\n"
        "  --sessions N      timelines to print in text mode (default 5)\n"
        "  --max-retries N   retry bound checked per session (default 3)\n"
        "  --no-validate     skip the invariant check (dump only)\n";
    return 2;
}

void print_text(const sim::TraceLog& log, std::size_t max_sessions) {
    const auto timelines = sim::session_timelines(log);
    std::cout << log.events.size() << " events, " << log.strings.size()
              << " interned strings, " << timelines.size() << " sessions\n";

    // Per-type counts in enum (= on-disk byte) order.
    std::map<std::uint8_t, std::uint64_t> by_type;
    for (const auto& e : log.events) ++by_type[static_cast<std::uint8_t>(e.type)];
    for (const auto& [type, count] : by_type) {
        std::cout << "  " << sim::to_string(static_cast<sim::TraceEventType>(type))
                  << ": " << count << '\n';
    }

    const std::size_t shown = std::min(max_sessions, timelines.size());
    for (std::size_t i = 0; i < shown; ++i) {
        const auto& t = timelines[i];
        std::cout << "session vp=" << static_cast<int>(t.vp) << " id=" << t.session
                  << " (" << t.events.size() << " events)\n";
        for (const auto& e : t.events) {
            std::cout << "  t=" << e.time << ' ' << sim::to_string(e.type)
                      << " code=" << e.code << " a=" << e.a << " b=" << e.b
                      << " x=" << e.x << '\n';
        }
    }
    if (shown < timelines.size()) {
        std::cout << "... " << (timelines.size() - shown) << " more sessions\n";
    }
}

int run(const util::ArgParser& args) {
    if (args.positionals().size() != 1) return usage();

    const std::string format = args.get_or("format", "text");
    if (format != "text" && format != "jsonl") {
        throw Error(ErrorCode::InvalidArgument,
                    "--format must be text or jsonl, got '" + format + "'");
    }
    const long max_sessions = args.get_long_or("sessions", 5);
    const long max_retries = args.get_long_or("max-retries", 3);
    if (const auto unknown = args.unknown_options(
            {"format", "sessions", "max-retries", "no-validate"});
        !unknown.empty()) {
        throw Error(ErrorCode::InvalidArgument,
                    "unknown option --" + unknown.front());
    }

    const std::string path = args.positionals().front();
    const std::string bytes =
        util::io::read_file(path).context("trace " + path).value_or_throw();
    bool torn = false;
    sim::TraceLog log;
    auto strict = sim::read_trace_bytes(bytes).context("trace " + path);
    if (strict) {
        log = std::move(strict).value();
    } else {
        // Strict read failed: try the torn-tail salvage of the same bytes.
        // It walks the stream with the same checks, so real corruption
        // still fails here and the strict typed error (exit 4) is what's
        // reported.
        auto salvage = sim::salvage_trace_bytes(bytes);
        if (!salvage || salvage.value().complete) {
            throw std::move(strict).error();
        }
        torn = true;
        log = std::move(salvage.value().log);
        std::cerr << "warning: " << salvage.value().note << "; recovered "
                  << log.events.size() << " of "
                  << salvage.value().declared_events
                  << " declared events (partial dump)\n";
    }

    if (format == "jsonl") {
        std::cout << sim::render_trace_jsonl(log);
    } else {
        print_text(log, max_sessions < 0 ? 0 : static_cast<std::size_t>(max_sessions));
    }

    // A torn tail legitimately strands open sessions, so the invariant
    // check is skipped; 6 says "partial but every dumped byte verified".
    if (torn) return 6;
    if (args.has_flag("no-validate")) return 0;
    const auto validation =
        sim::validate_trace(log, static_cast<int>(max_retries));
    if (format == "text") {
        std::cout << "validated " << validation.events << " events, "
                  << validation.sessions << " sessions, max retries seen "
                  << validation.max_retries_seen << '\n';
    }
    if (!validation.ok()) {
        for (const auto& p : validation.problems) {
            std::cerr << "invariant violation: " << p << '\n';
        }
        return 1;
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        // Chaos hook: YTCDN_IO_FAULTS exercises the read path (see
        // util/io.hpp); the trace load then reports a typed Io error.
        ytcdn::util::io::install_fault_plan_from_env().value_or_throw();
        const util::ArgParser args(argc, argv, {"no-validate"});
        return run(args);
    } catch (const ytcdn::Error& e) {
        std::cerr << "error: " << e.what() << '\n';
        return ytcdn::exit_code_for(e.code());
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
