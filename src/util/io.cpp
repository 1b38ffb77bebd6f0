#include "util/io.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <sstream>
#include <thread>

#include "util/bits.hpp"
#include "util/metrics.hpp"

#include "util/host_clock.hpp"

#if !defined(__unix__) && !defined(__APPLE__)
#error "util::io is POSIX-only: it needs fd-level fsync and Unix-domain sockets"
#endif
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace ytcdn::util::io {

namespace {

struct IoMetrics {
    metrics::Counter operations = metrics::counter("util.io.operations");
    metrics::Counter faults = metrics::counter("util.io.faults_injected");
};

IoMetrics& io_metrics() {
    static IoMetrics m;
    return m;
}

double unit_interval(std::uint64_t h) {
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Minimal glob: '*' matches any run (including '/'), '?' one character.
bool glob_match(std::string_view pattern, std::string_view text) {
    if (pattern.empty() || pattern == "*") return true;
    std::size_t p = 0;
    std::size_t t = 0;
    std::size_t star_p = std::string_view::npos;
    std::size_t star_t = 0;
    while (t < text.size()) {
        if (p < pattern.size() &&
            (pattern[p] == '?' || pattern[p] == text[t])) {
            ++p;
            ++t;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star_p = p++;
            star_t = t;
        } else if (star_p != std::string_view::npos) {
            p = star_p + 1;
            t = ++star_t;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*') ++p;
    return p == pattern.size();
}

Error injected_error(FaultKind kind, Op op, const std::filesystem::path& path) {
    return Error(ErrorCode::Io, "injected " + std::string(to_string(kind)) +
                                    " during " + std::string(to_string(op)) +
                                    " of " + path.string());
}

void stall(double ms) {
    if (ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(static_cast<long>(ms * 1000.0)));
    }
}

}  // namespace

std::string_view to_string(Op op) noexcept {
    switch (op) {
        case Op::Open: return "open";
        case Op::Read: return "read";
        case Op::Write: return "write";
        case Op::Fsync: return "fsync";
        case Op::Rename: return "rename";
        case Op::Accept: return "accept";
        case Op::Poll: return "poll";
    }
    return "?";
}

std::string_view to_string(FaultKind kind) noexcept {
    switch (kind) {
        case FaultKind::None: return "none";
        case FaultKind::Eio: return "EIO";
        case FaultKind::Enospc: return "ENOSPC";
        case FaultKind::ShortWrite: return "short-write";
        case FaultKind::SlowWrite: return "slow-write";
    }
    return "?";
}

// --- FaultPlan ---------------------------------------------------------------

struct FaultPlan::State {
    mutable std::mutex mutex;
    std::vector<std::uint64_t> draws;     // per rule
    std::vector<std::int64_t> injected;   // per rule
    FaultCounts totals;
};

std::shared_ptr<FaultPlan::State> FaultPlan::make_state() {
    return std::make_shared<State>();
}

void FaultPlan::add(FaultRule rule) {
    rules_.push_back(std::move(rule));
    const std::lock_guard<std::mutex> lock(state_->mutex);
    state_->draws.push_back(0);
    state_->injected.push_back(0);
}

FaultKind FaultPlan::draw(Op op, const std::filesystem::path& path,
                          double* slow_ms) {
    const std::string text = path.string();
    const std::lock_guard<std::mutex> lock(state_->mutex);
    ++state_->totals.checked;
    for (std::size_t i = 0; i < rules_.size(); ++i) {
        const FaultRule& rule = rules_[i];
        if ((rule.ops & op_bit(op)) == 0) continue;
        if (!glob_match(rule.glob, text)) continue;
        const std::uint64_t seq = state_->draws[i]++;
        if (rule.max_faults >= 0 && state_->injected[i] >= rule.max_faults) {
            continue;
        }
        const std::uint64_t h =
            splitmix64(seed_ ^ splitmix64(static_cast<std::uint64_t>(i) + 1) ^
                       splitmix64(seq));
        if (unit_interval(h) < rule.probability) {
            ++state_->injected[i];
            ++state_->totals.injected;
            io_metrics().faults.inc();
            if (slow_ms != nullptr) *slow_ms = rule.slow_ms;
            return rule.kind;
        }
    }
    return FaultKind::None;
}

FaultCounts FaultPlan::counts() const {
    const std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->totals;
}

Result<FaultPlan> FaultPlan::parse(std::string_view text) {
    FaultPlan plan;
    std::istringstream lines{std::string(text)};
    std::string line;
    std::uint64_t line_no = 0;
    while (std::getline(lines, line)) {
        ++line_no;
        std::istringstream tokens(line);
        std::string head;
        if (!(tokens >> head) || head.front() == '#') continue;
        if (head == "seed") {
            unsigned long long seed = 0;
            if (!(tokens >> seed)) {
                return error_at_line(ErrorCode::Parse,
                                     "fault plan: seed needs an integer",
                                     line_no);
            }
            plan.seed_ = seed;
            continue;
        }
        FaultRule rule;
        if (head == "eio") {
            rule.kind = FaultKind::Eio;
        } else if (head == "enospc") {
            rule.kind = FaultKind::Enospc;
        } else if (head == "short-write") {
            rule.kind = FaultKind::ShortWrite;
        } else if (head == "slow-write") {
            rule.kind = FaultKind::SlowWrite;
        } else {
            return error_at_line(ErrorCode::Parse,
                                 "fault plan: unknown kind '" + head + "'",
                                 line_no);
        }
        bool have_p = false;
        std::string kv;
        while (tokens >> kv) {
            const auto eq = kv.find('=');
            if (eq == std::string::npos) {
                return error_at_line(ErrorCode::Parse,
                                     "fault plan: expected key=value, got '" +
                                         kv + "'",
                                     line_no);
            }
            const std::string key = kv.substr(0, eq);
            const std::string value = kv.substr(eq + 1);
            if (key == "p") {
                char* end = nullptr;
                rule.probability = std::strtod(value.c_str(), &end);
                if (end == value.c_str() || rule.probability < 0.0 ||
                    rule.probability > 1.0) {
                    return error_at_line(
                        ErrorCode::Parse,
                        "fault plan: p must be a probability, got '" + value +
                            "'",
                        line_no);
                }
                have_p = true;
            } else if (key == "ops") {
                rule.ops = 0;
                std::istringstream ops(value);
                std::string op;
                while (std::getline(ops, op, ',')) {
                    if (op == "open") {
                        rule.ops |= op_bit(Op::Open);
                    } else if (op == "read") {
                        rule.ops |= op_bit(Op::Read);
                    } else if (op == "write") {
                        rule.ops |= op_bit(Op::Write);
                    } else if (op == "fsync") {
                        rule.ops |= op_bit(Op::Fsync);
                    } else if (op == "rename") {
                        rule.ops |= op_bit(Op::Rename);
                    } else if (op == "accept") {
                        rule.ops |= op_bit(Op::Accept);
                    } else if (op == "poll") {
                        rule.ops |= op_bit(Op::Poll);
                    } else {
                        return error_at_line(
                            ErrorCode::Parse,
                            "fault plan: unknown op '" + op + "'", line_no);
                    }
                }
                if (rule.ops == 0) {
                    return error_at_line(ErrorCode::Parse,
                                         "fault plan: empty ops list", line_no);
                }
            } else if (key == "glob") {
                rule.glob = value;
            } else if (key == "max") {
                rule.max_faults = std::strtoll(value.c_str(), nullptr, 10);
            } else if (key == "slow-ms") {
                rule.slow_ms = std::strtod(value.c_str(), nullptr);
            } else {
                return error_at_line(ErrorCode::Parse,
                                     "fault plan: unknown key '" + key + "'",
                                     line_no);
            }
        }
        if (!have_p) {
            return error_at_line(ErrorCode::Parse,
                                 "fault plan: rule is missing p=<probability>",
                                 line_no);
        }
        plan.add(std::move(rule));
    }
    return plan;
}

// --- global installation -----------------------------------------------------

namespace {

std::mutex& plan_mutex() {
    static std::mutex m;
    return m;
}

std::shared_ptr<FaultPlan>& plan_slot() {
    static std::shared_ptr<FaultPlan> plan;
    return plan;
}

/// The fault this operation draws under the installed plan (None when no
/// plan is installed). SlowWrite is resolved here: the stall happens, and
/// None is returned so callers only branch on hard faults.
FaultKind check_fault(Op op, const std::filesystem::path& path) {
    io_metrics().operations.inc();
    std::shared_ptr<FaultPlan> plan;
    {
        const std::lock_guard<std::mutex> lock(plan_mutex());
        plan = plan_slot();
    }
    if (!plan) return FaultKind::None;
    double slow_ms = 2.0;
    const FaultKind kind = plan->draw(op, path, &slow_ms);
    if (kind == FaultKind::SlowWrite) {
        stall(slow_ms);
        return FaultKind::None;
    }
    return kind;
}

}  // namespace

void set_fault_plan(std::shared_ptr<FaultPlan> plan) {
    const std::lock_guard<std::mutex> lock(plan_mutex());
    plan_slot() = std::move(plan);
}

std::shared_ptr<FaultPlan> fault_plan() {
    const std::lock_guard<std::mutex> lock(plan_mutex());
    return plan_slot();
}

Result<void> install_fault_plan_from_env() {
    const char* spec = std::getenv("YTCDN_IO_FAULTS");
    if (spec == nullptr || *spec == '\0') return {};
    std::string text;
    if (spec[0] == '@') {
        auto file = read_file(spec + 1);
        if (!file) {
            return std::move(file).context("YTCDN_IO_FAULTS").error();
        }
        text = std::move(file).value();
    } else {
        text = spec;
        std::replace(text.begin(), text.end(), ';', '\n');
    }
    auto plan = FaultPlan::parse(text);
    if (!plan) return std::move(plan).context("YTCDN_IO_FAULTS").error();
    set_fault_plan(std::make_shared<FaultPlan>(std::move(plan).value()));
    return {};
}

// --- files -------------------------------------------------------------------

namespace {

constexpr std::size_t kReadChunk = 1 << 16;

int open_retry(const char* path, int flags, mode_t mode = 0) {
    int fd = -1;
    do {
        fd = ::open(path, flags, mode);
    } while (fd < 0 && errno == EINTR);
    return fd;
}

/// Writes the whole buffer at the file position, or at `offset` (pwrite)
/// when one is given, retrying EINTR and continuing partial writes.
bool write_all(int fd, std::string_view bytes, std::int64_t offset = -1) {
    std::size_t done = 0;
    while (done < bytes.size()) {
        const char* data = bytes.data() + done;
        const std::size_t left = bytes.size() - done;
        const ssize_t n =
            offset < 0 ? ::write(fd, data, left)
                       : ::pwrite(fd, data, left,
                                  static_cast<off_t>(offset) +
                                      static_cast<off_t>(done));
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        done += static_cast<std::size_t>(n);
    }
    return true;
}

bool fsync_retry(int fd) {
    int rc = -1;
    do {
        rc = ::fsync(fd);
    } while (rc < 0 && errno == EINTR);
    return rc == 0;
}

Error errno_error(std::string_view what, const std::filesystem::path& path) {
    return Error(ErrorCode::Io, std::string(what) + " failed for " +
                                    path.string() + ": " +
                                    std::strerror(errno));
}

/// Durability for the rename itself: the new directory entry must reach
/// stable storage. Directories that refuse to open (some filesystems) are
/// tolerated; an fsync error on an opened directory is not.
Result<void> sync_parent_dir(const std::filesystem::path& path) {
    const std::filesystem::path dir =
        path.has_parent_path() ? path.parent_path() : ".";
    const int fd = open_retry(dir.c_str(), O_RDONLY);
    if (fd < 0) return {};
    const bool ok = fsync_retry(fd);
    close_fd(fd);
    if (!ok) return errno_error("fsync of parent directory", dir);
    return {};
}

/// Fault point: Rename, drawn against `key` — the published name for a
/// FileWriter, the damaged file for a quarantine.
Result<void> rename_file(const std::filesystem::path& from,
                         const std::filesystem::path& to,
                         const std::filesystem::path& key) {
    if (const FaultKind f = check_fault(Op::Rename, key); f != FaultKind::None) {
        return injected_error(f, Op::Rename, key);
    }
    if (::rename(from.c_str(), to.c_str()) != 0) {
        return errno_error("rename", from);
    }
    return {};
}

}  // namespace

Result<std::string> read_file(const std::filesystem::path& path) {
    auto reader = FileReader::open(path);
    if (!reader) return std::move(reader).error();
    std::string out;
    char buf[kReadChunk];
    for (;;) {
        auto n = reader.value().read(buf, sizeof(buf));
        if (!n) return std::move(n).error();
        if (n.value() == 0) return out;
        out.append(buf, n.value());
    }
}

Result<void> write_file_atomic(const std::filesystem::path& path,
                               std::string_view bytes) {
    auto writer = FileWriter::create(path);
    if (!writer) return std::move(writer).error();
    // A failed append leaves the writer to discard its temp file.
    if (auto r = writer.value().append(bytes); !r) return r;
    return writer.value().publish();
}

struct FileReader::Impl {
    int fd = -1;
    std::filesystem::path path;
    Impl() = default;
    Impl(const Impl&) = delete;
    Impl& operator=(const Impl&) = delete;
    ~Impl() { close_fd(fd); }
};

FileReader::FileReader() = default;
FileReader::FileReader(FileReader&&) noexcept = default;
FileReader& FileReader::operator=(FileReader&&) noexcept = default;
FileReader::~FileReader() = default;

Result<FileReader> FileReader::open(const std::filesystem::path& path) {
    if (const FaultKind f = check_fault(Op::Open, path); f != FaultKind::None) {
        return injected_error(f, Op::Open, path);
    }
    const int fd = open_retry(path.c_str(), O_RDONLY);
    if (fd < 0) return errno_error("open", path);
    FileReader reader;
    reader.impl_ = std::make_unique<Impl>();
    reader.impl_->fd = fd;
    reader.impl_->path = path;
    return reader;
}

Result<std::size_t> FileReader::read(char* buf, std::size_t max) {
    if (!impl_) return Error(ErrorCode::Io, "FileReader: not open");
    // Fill the whole buffer unless the file ends first, so a short count
    // always means end of file.
    std::size_t n = 0;
    while (n < max) {
        const ssize_t got = ::read(impl_->fd, buf + n, max - n);
        if (got < 0) {
            if (errno == EINTR) continue;
            return errno_error("read", impl_->path);
        }
        if (got == 0) break;
        n += static_cast<std::size_t>(got);
    }
    if (n > 0) {
        if (const FaultKind f = check_fault(Op::Read, impl_->path);
            f != FaultKind::None) {
            return injected_error(f, Op::Read, impl_->path);
        }
    }
    return n;
}

Result<std::size_t> FileReader::read_chunk(std::string& out, std::size_t max) {
    const std::size_t base = out.size();
    out.resize(base + max);
    auto n = read(out.data() + base, max);
    out.resize(base + (n.ok() ? n.value() : 0));
    if (!n) return n.error();
    return n.value();
}

struct FileWriter::Impl {
    int fd = -1;
    std::filesystem::path final_path;
    std::filesystem::path tmp_path;
    std::uint64_t logical_end = 0;
    Impl() = default;
    Impl(const Impl&) = delete;
    Impl& operator=(const Impl&) = delete;
    ~Impl() { close_fd(fd); }
};

FileWriter::FileWriter() = default;
FileWriter::FileWriter(FileWriter&&) noexcept = default;
FileWriter& FileWriter::operator=(FileWriter&&) noexcept = default;
FileWriter::~FileWriter() { discard(); }

Result<FileWriter> FileWriter::create(const std::filesystem::path& path) {
    std::error_code ec;
    if (path.has_parent_path()) {
        std::filesystem::create_directories(path.parent_path(), ec);
        if (ec) {
            return Error(ErrorCode::Io, "create_directories failed for " +
                                            path.parent_path().string());
        }
    }
    if (const FaultKind f = check_fault(Op::Open, path); f != FaultKind::None) {
        return injected_error(f, Op::Open, path);
    }
    const std::filesystem::path tmp = path.string() + ".tmp";
    const int fd = open_retry(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return errno_error("open", tmp);
    FileWriter writer;
    writer.impl_ = std::make_unique<Impl>();
    writer.impl_->fd = fd;
    writer.impl_->final_path = path;
    writer.impl_->tmp_path = tmp;
    return writer;
}

Result<void> FileWriter::append(std::string_view bytes) {
    if (!impl_) return Error(ErrorCode::Io, "FileWriter: not open");
    if (const FaultKind f = check_fault(Op::Write, impl_->final_path);
        f != FaultKind::None) {
        if (f == FaultKind::ShortWrite) {
            // Tear the temp file exactly as a real short write would; the
            // caller's discard (or our destructor) removes the evidence and
            // the final name never existed.
            (void)write_all(impl_->fd, bytes.substr(0, bytes.size() / 2));
        }
        return injected_error(f, Op::Write, impl_->final_path);
    }
    if (!write_all(impl_->fd, bytes)) {
        return errno_error("write", impl_->tmp_path);
    }
    impl_->logical_end += bytes.size();
    return {};
}

Result<void> FileWriter::write_at(std::uint64_t offset, std::string_view bytes) {
    if (!impl_) return Error(ErrorCode::Io, "FileWriter: not open");
    if (offset + bytes.size() > impl_->logical_end) {
        return Error(ErrorCode::InvalidArgument,
                     "FileWriter::write_at: patch beyond written bytes in " +
                         impl_->tmp_path.string());
    }
    if (const FaultKind f = check_fault(Op::Write, impl_->final_path);
        f != FaultKind::None) {
        return injected_error(f, Op::Write, impl_->final_path);
    }
    if (!write_all(impl_->fd, bytes, static_cast<std::int64_t>(offset))) {
        return errno_error("write_at", impl_->tmp_path);
    }
    return {};
}

const std::filesystem::path& FileWriter::path() const noexcept {
    static const std::filesystem::path empty;
    return impl_ ? impl_->final_path : empty;
}

Result<void> FileWriter::publish() {
    if (!impl_) return Error(ErrorCode::Io, "FileWriter: not open");
    const auto fail = [this](Error error) {
        discard();
        return error;
    };
    const std::filesystem::path published = impl_->final_path;
    if (const FaultKind f = check_fault(Op::Fsync, published);
        f != FaultKind::None) {
        return fail(injected_error(f, Op::Fsync, published));
    }
    if (!fsync_retry(impl_->fd)) {
        return fail(errno_error("fsync", impl_->tmp_path));
    }
    if (auto r = rename_file(impl_->tmp_path, published, published); !r) {
        return fail(std::move(r).error());
    }
    impl_.reset();
    return sync_parent_dir(published);
}

void FileWriter::discard() {
    if (!impl_) return;
    std::error_code ignore;
    std::filesystem::remove(impl_->tmp_path, ignore);
    impl_.reset();
}

Result<std::filesystem::path> quarantine_file(const std::filesystem::path& path) {
    // Existing quarantined siblings: "<name>.corrupt.<k>".
    const std::filesystem::path dir =
        path.has_parent_path() ? path.parent_path() : ".";
    const std::string prefix = path.filename().string() + ".corrupt.";
    std::vector<std::pair<std::uint64_t, std::filesystem::path>> existing;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix) != 0) {
            continue;
        }
        const std::string suffix = name.substr(prefix.size());
        if (suffix.empty() ||
            suffix.find_first_not_of("0123456789") != std::string::npos) {
            continue;
        }
        existing.emplace_back(std::strtoull(suffix.c_str(), nullptr, 10),
                              entry.path());
    }
    std::sort(existing.begin(), existing.end());

    const std::uint64_t next = existing.empty() ? 1 : existing.back().first + 1;
    const std::filesystem::path target =
        dir / (prefix + std::to_string(next));
    if (auto r = rename_file(path, target, path); !r) {
        return std::move(r).context("quarantine").error();
    }

    // Keep the newest kDefaultQuarantineKeep quarantined copies including
    // the one just created; delete the oldest beyond that so repeated
    // corruption in a long run cannot fill the disk.
    const std::size_t total = existing.size() + 1;
    if (total > kDefaultQuarantineKeep) {
        const std::size_t drop = total - kDefaultQuarantineKeep;
        for (std::size_t i = 0; i < drop && i < existing.size(); ++i) {
            std::filesystem::remove(existing[i].second, ec);
        }
    }
    return target;
}

// --- local sockets (the ytcdnd control endpoint) -----------------------------

namespace {

const std::filesystem::path& fd_label(const std::filesystem::path& what) {
    static const std::filesystem::path anonymous("<fd>");
    return what.empty() ? anonymous : what;
}

}  // namespace

void close_fd(int fd) {
    if (fd < 0) return;
    int rc = -1;
    do {
        rc = ::close(fd);
    } while (rc < 0 && errno == EINTR);
}

Result<bool> poll_readable(int fd, int timeout_ms,
                           const std::filesystem::path& what) {
    const std::filesystem::path& label = fd_label(what);
    if (const FaultKind f = check_fault(Op::Poll, label);
        f != FaultKind::None) {
        return injected_error(f, Op::Poll, label);
    }
    if (fd < 0) {
        // Pure bounded wait: the service loop's pacing tick when no control
        // socket is listening.
        stall(static_cast<double>(timeout_ms));
        return false;
    }
    const double start_s = host_clock::monotonic_s();
    int remaining_ms = timeout_ms < 0 ? 0 : timeout_ms;
    for (;;) {
        struct pollfd p{};
        p.fd = fd;
        p.events = POLLIN;
        const int rc = ::poll(&p, 1, remaining_ms);
        if (rc > 0) return true;
        if (rc == 0) return false;
        if (errno != EINTR) return errno_error("poll", label);
        // EINTR: keep the original deadline instead of restarting the wait.
        const double elapsed_ms =
            (host_clock::monotonic_s() - start_s) * 1000.0;
        remaining_ms = timeout_ms - static_cast<int>(elapsed_ms);
        if (remaining_ms <= 0) return false;
    }
}

Result<std::string> read_line_fd(int fd, int timeout_ms, std::size_t max_len) {
    const std::filesystem::path& label = fd_label({});
    std::string out;
    while (out.size() < max_len) {
        auto ready = poll_readable(fd, timeout_ms, label);
        if (!ready) return std::move(ready).context("read_line").error();
        if (!ready.value()) {
            return Error(ErrorCode::Io,
                         "timed out waiting for a line on fd " +
                             std::to_string(fd));
        }
        if (const FaultKind f = check_fault(Op::Read, label);
            f != FaultKind::None) {
            return injected_error(f, Op::Read, label);
        }
        char c = 0;
        const ssize_t n = ::read(fd, &c, 1);
        if (n < 0) {
            if (errno == EINTR) continue;
            return errno_error("read", label);
        }
        if (n == 0) break;  // EOF before newline: yield the partial line.
        if (c == '\n') break;
        out.push_back(c);
    }
    return out;
}

Result<std::string> read_all_fd(int fd, int timeout_ms, std::size_t max_len) {
    const std::filesystem::path& label = fd_label({});
    std::string out;
    char buf[1 << 14];
    while (out.size() < max_len) {
        auto ready = poll_readable(fd, timeout_ms, label);
        if (!ready) return std::move(ready).context("read_all").error();
        if (!ready.value()) break;  // quiet line: treat as end of response
        if (const FaultKind f = check_fault(Op::Read, label);
            f != FaultKind::None) {
            return injected_error(f, Op::Read, label);
        }
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR) continue;
            return errno_error("read", label);
        }
        if (n == 0) break;  // EOF: the server closed the connection
        const std::size_t take =
            std::min(static_cast<std::size_t>(n), max_len - out.size());
        out.append(buf, take);
    }
    return out;
}

Result<void> write_fd_all(int fd, std::string_view bytes) {
    const std::filesystem::path& label = fd_label({});
    if (const FaultKind f = check_fault(Op::Write, label);
        f != FaultKind::None) {
        return injected_error(f, Op::Write, label);
    }
    if (!write_all(fd, bytes)) {
        return errno_error("write", label);
    }
    return {};
}

namespace {

/// Fills sockaddr_un, rejecting paths too long for sun_path.
Result<sockaddr_un> unix_addr(const std::filesystem::path& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    const std::string text = path.string();
    if (text.size() >= sizeof(addr.sun_path)) {
        return Error(ErrorCode::InvalidArgument, "socket path too long (" +
                                           std::to_string(text.size()) +
                                           " bytes): " + text);
    }
    std::memcpy(addr.sun_path, text.c_str(), text.size() + 1);
    return addr;
}

}  // namespace

Result<UnixServerSocket> UnixServerSocket::listen(
    const std::filesystem::path& path) {
    if (const FaultKind f = check_fault(Op::Open, path);
        f != FaultKind::None) {
        return injected_error(f, Op::Open, path);
    }
    auto addr = unix_addr(path);
    if (!addr) return std::move(addr).context("listen").error();
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return errno_error("socket", path);
    // A daemon killed with SIGKILL leaves its socket file behind; the
    // replacement instance owns the path and may reclaim it.
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr.value()),
               sizeof(sockaddr_un)) != 0) {
        const Error e = errno_error("bind", path);
        close_fd(fd);
        return e;
    }
    if (::listen(fd, 16) != 0) {
        const Error e = errno_error("listen", path);
        close_fd(fd);
        ::unlink(path.c_str());
        return e;
    }
    // Non-blocking so a connection that vanishes between poll and accept
    // surfaces as EAGAIN (treated as a timeout) instead of wedging the loop.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    UnixServerSocket sock;
    sock.fd_ = fd;
    sock.path_ = path;
    return sock;
}

Result<int> UnixServerSocket::accept_ready(int timeout_ms) {
    if (fd_ < 0) {
        return Error(ErrorCode::InvalidArgument,
                     "accept on a closed server socket");
    }
    auto ready = poll_readable(fd_, timeout_ms, path_);
    if (!ready) return std::move(ready).context("accept").error();
    if (!ready.value()) return -1;
    if (const FaultKind f = check_fault(Op::Accept, path_);
        f != FaultKind::None) {
        return injected_error(f, Op::Accept, path_);
    }
    for (;;) {
        const int client = ::accept(fd_, nullptr, nullptr);
        if (client >= 0) return client;
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) {
            return -1;  // the peer vanished between poll and accept
        }
        return errno_error("accept", path_);
    }
}

Result<int> connect_unix(const std::filesystem::path& path) {
    if (const FaultKind f = check_fault(Op::Open, path);
        f != FaultKind::None) {
        return injected_error(f, Op::Open, path);
    }
    auto addr = unix_addr(path);
    if (!addr) return std::move(addr).context("connect").error();
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return errno_error("socket", path);
    int rc = -1;
    do {
        rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr.value()),
                       sizeof(sockaddr_un));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
        const Error e = errno_error("connect", path);
        close_fd(fd);
        return e;
    }
    return fd;
}

UnixServerSocket::UnixServerSocket(UnixServerSocket&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
    other.fd_ = -1;
    other.path_.clear();
}

UnixServerSocket& UnixServerSocket::operator=(
    UnixServerSocket&& other) noexcept {
    if (this != &other) {
        close();
        fd_ = other.fd_;
        path_ = std::move(other.path_);
        other.fd_ = -1;
        other.path_.clear();
    }
    return *this;
}

UnixServerSocket::~UnixServerSocket() { close(); }

void UnixServerSocket::close() {
    if (fd_ >= 0) {
        close_fd(fd_);
        fd_ = -1;
    }
    if (!path_.empty()) {
        std::error_code ignore;
        std::filesystem::remove(path_, ignore);
        path_.clear();
    }
}

}  // namespace ytcdn::util::io
