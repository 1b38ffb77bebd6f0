#include "capture/binary_log.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "util/codec.hpp"
#include "util/crc32.hpp"
#include "util/io.hpp"

namespace ytcdn::capture {

namespace {

constexpr char kMagic[4] = {'Y', 'F', 'L', '2'};
constexpr char kTrailerMagic[4] = {'Y', 'F', 'L', 'E'};
constexpr std::uint32_t kVersion = 2;
constexpr std::size_t kPreambleSize = 4 + 4 + 8;     // magic|version|count
constexpr std::size_t kHeaderSize = kPreambleSize + 4;  // + header CRC
constexpr std::size_t kRecordSize = 4 + 4 + 8 + 8 + 8 + 8 + 1;
constexpr std::size_t kBlockHeaderSize = 4 + 4;  // records-in-block + CRC
constexpr std::size_t kTrailerSize = 4 + 8 + 4;  // magic + count + CRC
constexpr std::uint64_t kBlockRecords = 4096;

using util::codec::load;
using util::codec::put;

std::uint64_t num_blocks(std::uint64_t n) {
    return (n + kBlockRecords - 1) / kBlockRecords;
}

void put_record(std::string& buf, const FlowRecord& r) {
    put<std::uint32_t>(buf, r.client_ip.value());
    put<std::uint32_t>(buf, r.server_ip.value());
    put<double>(buf, r.start);
    put<double>(buf, r.end);
    put<std::uint64_t>(buf, r.bytes);
    put<std::uint64_t>(buf, r.video.value());
    put<std::uint8_t>(buf, static_cast<std::uint8_t>(cdn::itag_of(r.resolution)));
}

/// Parses one 41-byte record, validating field values. `offset` is the
/// record's absolute byte offset in the stream, for provenance.
util::Result<FlowRecord> parse_record(const char* p, std::uint64_t index,
                                      std::uint64_t offset) {
    FlowRecord r;
    r.client_ip = net::IpAddress{load<std::uint32_t>(p)};
    r.server_ip = net::IpAddress{load<std::uint32_t>(p + 4)};
    r.start = load<double>(p + 8);
    r.end = load<double>(p + 16);
    if (!std::isfinite(r.start) || !std::isfinite(r.end)) {
        return error_at_record(ErrorCode::BadField, "non-finite timestamp",
                               index, offset);
    }
    r.bytes = load<std::uint64_t>(p + 24);
    r.video = cdn::VideoId{load<std::uint64_t>(p + 32)};
    const auto itag = load<std::uint8_t>(p + 40);
    const auto resolution = cdn::resolution_from_itag(itag);
    if (!resolution) {
        return error_at_record(ErrorCode::BadField,
                               "bad itag " + std::to_string(itag), index, offset);
    }
    r.resolution = *resolution;
    return r;
}

/// The 20-byte header for `count` records (shared by the batch writer, the
/// streaming writer's up-front zero-count write and its finish()-time
/// patch, so all three take the exact same layout).
std::string header_bytes(std::uint64_t count) {
    std::string header(kMagic, sizeof(kMagic));
    put(header, kVersion);
    put(header, count);
    put(header, util::crc32(header));
    return header;
}

std::string trailer_bytes(std::uint64_t count) {
    std::string trailer(kTrailerMagic, sizeof(kTrailerMagic));
    put(trailer, count);
    put(trailer, util::crc32(trailer));
    return trailer;
}

}  // namespace

std::size_t binary_log_size(std::size_t n) noexcept {
    return kHeaderSize + num_blocks(n) * kBlockHeaderSize + n * kRecordSize +
           kTrailerSize;
}

std::string binary_log_bytes(const std::vector<FlowRecord>& records) {
    std::string buf = header_bytes(records.size());
    buf.reserve(binary_log_size(records.size()));
    std::string payload;
    for (std::size_t i = 0; i < records.size(); i += kBlockRecords) {
        const std::size_t n =
            std::min<std::size_t>(kBlockRecords, records.size() - i);
        payload.clear();
        for (std::size_t k = 0; k < n; ++k) put_record(payload, records[i + k]);
        put(buf, static_cast<std::uint32_t>(n));
        put(buf, util::crc32(payload));
        buf += payload;
    }
    buf += trailer_bytes(records.size());
    return buf;
}

void write_binary_log(std::ostream& os, const std::vector<FlowRecord>& records) {
    const std::string buf = binary_log_bytes(records);
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    if (!os) throw Error(ErrorCode::Io, "write_binary_log: stream write failed");
}

util::Result<void> write_binary_log_result(const std::filesystem::path& path,
                                           const std::vector<FlowRecord>& records) {
    return util::io::write_file_atomic(path, binary_log_bytes(records))
        .context("write_binary_log " + path.string());
}

void write_binary_log(const std::filesystem::path& path,
                      const std::vector<FlowRecord>& records) {
    write_binary_log_result(path, records).value_or_throw();
}

util::Result<std::vector<FlowRecord>> read_binary_log_bytes(std::string_view data) {
    auto reader = FlowLogReader::from_bytes(data);
    if (!reader) return reader.error();
    return reader.value().read_all();
}

util::Result<std::vector<FlowRecord>> read_binary_log_result(std::istream& is) {
    const std::string data{std::istreambuf_iterator<char>(is),
                           std::istreambuf_iterator<char>()};
    return read_binary_log_bytes(data);
}

util::Result<std::vector<FlowRecord>> read_binary_log_result(
    const std::filesystem::path& path) {
    auto data = util::io::read_file(path);
    if (!data) {
        return std::move(data).context("read_binary_log " + path.string()).error();
    }
    return read_binary_log_bytes(data.value())
        .context("read_binary_log " + path.string());
}

std::vector<FlowRecord> read_binary_log(std::istream& is) {
    return read_binary_log_result(is).value_or_throw();
}

std::vector<FlowRecord> read_binary_log(const std::filesystem::path& path) {
    return read_binary_log_result(path).value_or_throw();
}

// --- streaming writer --------------------------------------------------------

util::Result<FlowLogWriter> FlowLogWriter::create(
    const std::filesystem::path& path) {
    auto writer = util::io::FileWriter::create(path);
    if (!writer) {
        return std::move(writer).context("FlowLogWriter " + path.string()).error();
    }
    FlowLogWriter out;
    out.writer_ = std::move(writer).value();
    out.block_.reserve(kBlockRecords * kRecordSize);
    if (auto r = out.writer_.append(header_bytes(0)); !r) {
        return std::move(r).context("FlowLogWriter " + path.string()).error();
    }
    return out;
}

util::Result<void> FlowLogWriter::flush_block() {
    if (block_records_ == 0) return {};
    std::string frame;
    frame.reserve(kBlockHeaderSize + block_.size());
    put(frame, block_records_);
    put(frame, util::crc32(block_));
    frame += block_;
    block_.clear();
    block_records_ = 0;
    return writer_.append(frame);
}

util::Result<void> FlowLogWriter::add(const FlowRecord& record) {
    if (!writer_.is_open()) {
        return Error(ErrorCode::Io, "FlowLogWriter: not open");
    }
    put_record(block_, record);
    ++block_records_;
    ++count_;
    if (block_records_ == kBlockRecords) return flush_block();
    return {};
}

util::Result<void> FlowLogWriter::finish() {
    if (!writer_.is_open()) {
        return Error(ErrorCode::Io, "FlowLogWriter: not open");
    }
    const std::string where = writer_.path().string();
    const auto fail = [this, &where](Error error) {
        writer_.discard();
        return std::move(error).context("FlowLogWriter " + where);
    };
    if (auto r = flush_block(); !r) return fail(std::move(r).error());
    if (auto r = writer_.append(trailer_bytes(count_)); !r) {
        return fail(std::move(r).error());
    }
    if (auto r = writer_.write_at(0, header_bytes(count_)); !r) {
        return fail(std::move(r).error());
    }
    return writer_.publish().context("FlowLogWriter " + where);
}

// --- reader ------------------------------------------------------------------

util::Result<FlowLogReader> FlowLogReader::open(const std::filesystem::path& path,
                                                std::size_t chunk_bytes) {
    auto reader = util::io::FileReader::open(path);
    if (!reader) {
        return std::move(reader).context("FlowLogReader " + path.string()).error();
    }
    std::error_code size_ec;
    const std::uint64_t file_size = std::filesystem::file_size(path, size_ec);
    if (size_ec) {
        return Error(ErrorCode::Io, "stat failed for " + path.string() + ": " +
                                        size_ec.message());
    }
    FlowLogReader out;
    out.reader_ = std::move(reader).value();
    out.chunk_ = chunk_bytes == 0 ? 1 : chunk_bytes;
    if (auto r = out.read_header(file_size); !r) return r.error();
    return out;
}

util::Result<FlowLogReader> FlowLogReader::from_bytes(std::string_view data) {
    FlowLogReader out;
    out.bytes_ = data;
    if (auto r = out.read_header(data.size()); !r) return r.error();
    return out;
}

util::Result<void> FlowLogReader::read_header(std::uint64_t stream_size) {
    auto have = fill(kPreambleSize);
    if (!have) return std::move(have).error();
    if (!have.value()) {
        return Error(ErrorCode::Truncated,
                     "truncated header: " + std::to_string(unread().size()) +
                         " bytes");
    }
    const char* p = unread().data();
    if (std::memcmp(p, kMagic, sizeof(kMagic)) != 0) {
        return error_at_byte(ErrorCode::BadMagic, "bad magic", 0);
    }
    const auto version = load<std::uint32_t>(p + sizeof(kMagic));
    if (version != kVersion) {
        return Error(ErrorCode::UnsupportedVersion,
                     "magic YFL2 with version " + std::to_string(version));
    }
    if (stream_size < kHeaderSize + kTrailerSize) {
        return Error(ErrorCode::Truncated, "truncated v2 header/trailer");
    }
    have = fill(kHeaderSize);
    if (!have) return std::move(have).error();
    if (!have.value()) {
        return Error(ErrorCode::Truncated, "truncated v2 header/trailer");
    }
    p = unread().data();
    count_ = load<std::uint64_t>(p + sizeof(kMagic) + sizeof(version));
    if (load<std::uint32_t>(p + kPreambleSize) !=
        util::crc32(std::string_view(p, kPreambleSize))) {
        return error_at_byte(ErrorCode::ChecksumMismatch, "header CRC mismatch",
                             kPreambleSize);
    }
    // The declared count is checked against the whole stream's size before
    // any block is touched (bounded first, so a tampered count cannot
    // overflow binary_log_size into a spurious match): a truncated log fails
    // with this one CountMismatch, not with Truncated from whichever block
    // the read happened to reach.
    if (count_ > (stream_size - kHeaderSize - kTrailerSize) / kRecordSize ||
        stream_size != binary_log_size(count_)) {
        return Error(ErrorCode::CountMismatch,
                     "v2 size mismatch: declared " + std::to_string(count_) +
                         " records (" + std::to_string(binary_log_size(count_)) +
                         " bytes), stream holds " + std::to_string(stream_size));
    }
    consume(kHeaderSize);
    return {};
}

util::Result<bool> FlowLogReader::fill(std::size_t need) {
    if (!reader_.is_open()) return bytes_.size() - pos_ >= need;
    if (pos_ > 0 && buf_.size() - pos_ < need) {
        buf_.erase(0, pos_);
        pos_ = 0;
    }
    while (buf_.size() - pos_ < need) {
        auto n = reader_.read_chunk(buf_, chunk_);
        if (!n) return std::move(n).error();
        if (n.value() == 0) return false;
    }
    return true;
}

std::string_view FlowLogReader::unread() const noexcept {
    return (reader_.is_open() ? std::string_view(buf_) : bytes_).substr(pos_);
}

void FlowLogReader::consume(std::size_t n) noexcept {
    pos_ += n;
    abs_ += n;
}

util::Result<std::size_t> FlowLogReader::next(std::vector<FlowRecord>& out) {
    out.clear();
    return read_block(out);
}

util::Result<std::vector<FlowRecord>> FlowLogReader::read_all() {
    std::vector<FlowRecord> out;
    out.reserve(count_ - read_);
    for (;;) {
        auto n = read_block(out);
        if (!n) return std::move(n).error();
        if (n.value() == 0) return out;
    }
}

util::Result<std::size_t> FlowLogReader::read_block(std::vector<FlowRecord>& out) {
    if (done_) return std::size_t{0};
    if (read_ == count_) {
        auto have = fill(kTrailerSize);
        if (!have) return std::move(have).error();
        if (!have.value()) {
            return error_at_byte(ErrorCode::Truncated, "truncated v2 trailer",
                                 abs_);
        }
        const char* tp = unread().data();
        if (std::memcmp(tp, kTrailerMagic, sizeof(kTrailerMagic)) != 0) {
            return error_at_byte(ErrorCode::BadMagic, "bad trailer magic", abs_);
        }
        const auto trailer_count = load<std::uint64_t>(tp + sizeof(kTrailerMagic));
        if (load<std::uint32_t>(tp + kTrailerSize - 4) !=
            util::crc32(std::string_view(tp, kTrailerSize - 4))) {
            return error_at_byte(ErrorCode::ChecksumMismatch,
                                 "trailer CRC mismatch",
                                 abs_ + kTrailerSize - 4);
        }
        if (trailer_count != count_) {
            return error_at_byte(ErrorCode::CountMismatch,
                                 "trailer count " + std::to_string(trailer_count) +
                                     " != header count " + std::to_string(count_),
                                 abs_ + sizeof(kTrailerMagic));
        }
        consume(kTrailerSize);
        auto more = fill(1);
        if (!more) return std::move(more).error();
        if (more.value()) {
            return error_at_byte(ErrorCode::CountMismatch,
                                 "bytes remain past the trailer", abs_);
        }
        done_ = true;
        return std::size_t{0};
    }

    const std::uint64_t block = read_ / kBlockRecords;
    const auto expected = static_cast<std::size_t>(
        std::min<std::uint64_t>(kBlockRecords, count_ - read_));
    auto have = fill(kBlockHeaderSize);
    if (!have) return std::move(have).error();
    if (!have.value()) {
        return error_at_byte(ErrorCode::Truncated,
                             "truncated block " + std::to_string(block), abs_);
    }
    const auto block_records = load<std::uint32_t>(unread().data());
    if (block_records != expected) {
        return error_at_record(
            ErrorCode::CountMismatch,
            "block " + std::to_string(block) + " declares " +
                std::to_string(block_records) + " records, expected " +
                std::to_string(expected),
            read_, abs_);
    }
    const std::size_t payload_size = expected * kRecordSize;
    have = fill(kBlockHeaderSize + payload_size);
    if (!have) return std::move(have).error();
    if (!have.value()) {
        return error_at_byte(ErrorCode::Truncated,
                             "stream ends inside block " + std::to_string(block),
                             abs_ + kBlockHeaderSize);
    }
    const char* bp = unread().data();
    const std::uint64_t payload_abs = abs_ + kBlockHeaderSize;
    if (util::crc32(std::string_view(bp + kBlockHeaderSize, payload_size)) !=
        load<std::uint32_t>(bp + 4)) {
        return error_at_record(
            ErrorCode::ChecksumMismatch,
            "block " + std::to_string(block) + " (records " +
                std::to_string(read_) + ".." +
                std::to_string(read_ + expected - 1) + ") CRC mismatch",
            read_, payload_abs);
    }
    consume(kBlockHeaderSize);
    out.reserve(out.size() + expected);
    for (std::size_t i = 0; i < expected; ++i) {
        auto record = parse_record(unread().data(), read_, abs_);
        if (!record) return std::move(record).error();
        out.push_back(std::move(record).value());
        consume(kRecordSize);
        ++read_;
    }
    return expected;
}

}  // namespace ytcdn::capture
