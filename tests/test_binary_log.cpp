#include "capture/binary_log.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <sstream>
#include <string_view>

#include "capture/flow_log.hpp"
#include "sim/random.hpp"
#include "util/crc32.hpp"

namespace capture = ytcdn::capture;
namespace cdn = ytcdn::cdn;
namespace net = ytcdn::net;
namespace sim = ytcdn::sim;

namespace {

std::vector<capture::FlowRecord> random_records(std::size_t n, std::uint64_t seed) {
    sim::Rng rng(seed);
    std::vector<capture::FlowRecord> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        capture::FlowRecord r;
        r.client_ip = net::IpAddress{static_cast<std::uint32_t>(rng.engine()())};
        r.server_ip = net::IpAddress{static_cast<std::uint32_t>(rng.engine()())};
        r.start = rng.uniform(0.0, 604800.0);
        r.end = r.start + rng.uniform(0.0, 500.0);
        r.bytes = rng.engine()() % (1ull << 34);
        r.video = cdn::VideoId{rng.engine()()};
        r.resolution = cdn::kAllResolutions[rng.uniform_index(5)];
        out.push_back(r);
    }
    return out;
}

TEST(BinaryLog, RoundTripsExactly) {
    const auto records = random_records(500, 1);
    std::stringstream ss;
    capture::write_binary_log(ss, records);
    const auto back = capture::read_binary_log(ss);
    ASSERT_EQ(back.size(), records.size());
    for (std::size_t i = 0; i < back.size(); ++i) {
        EXPECT_EQ(back[i].client_ip, records[i].client_ip);
        EXPECT_EQ(back[i].server_ip, records[i].server_ip);
        EXPECT_DOUBLE_EQ(back[i].start, records[i].start);  // bit-exact
        EXPECT_DOUBLE_EQ(back[i].end, records[i].end);
        EXPECT_EQ(back[i].bytes, records[i].bytes);
        EXPECT_EQ(back[i].video, records[i].video);
        EXPECT_EQ(back[i].resolution, records[i].resolution);
    }
}

TEST(BinaryLog, EmptyLogRoundTrips) {
    std::stringstream ss;
    capture::write_binary_log(ss, {});
    EXPECT_TRUE(capture::read_binary_log(ss).empty());
}

TEST(BinaryLog, SizeIsPredictedAndSmallerThanTsv) {
    const auto records = random_records(1000, 2);
    std::stringstream binary, tsv;
    capture::write_binary_log(binary, records);
    capture::write_flow_log(tsv, records);
    EXPECT_EQ(binary.str().size(), capture::binary_log_size(records.size()));
    EXPECT_LT(binary.str().size(), tsv.str().size() / 2);
}

/// The typed error produced by parsing `bytes` as a binary log.
ytcdn::Error parse_error(const std::string& bytes) {
    std::istringstream in(bytes);
    auto result = capture::read_binary_log_result(in);
    EXPECT_FALSE(result.ok());
    return result.error();
}

// v2 layout constants the corruption tests poke at: 20-byte header
// (magic|version|count|crc), 8-byte block header, 41-byte records.
constexpr std::size_t kV2Header = 20;
constexpr std::size_t kV2FirstRecord = kV2Header + 8;

TEST(BinaryLog, RejectsCorruptionWithTypedErrors) {
    const auto records = random_records(10, 3);
    std::stringstream ss;
    capture::write_binary_log(ss, records);
    const std::string good = ss.str();

    {  // bad magic
        std::string bad = good;
        bad[0] = 'X';
        EXPECT_EQ(parse_error(bad).code(), ytcdn::ErrorCode::BadMagic);
    }
    {  // unknown version is named as such, not reported as CRC damage
        std::string bad = good;
        bad[4] = 9;
        EXPECT_EQ(parse_error(bad).code(), ytcdn::ErrorCode::UnsupportedVersion);
    }
    {  // tampered record count: also caught by the header CRC at byte 16
        std::string bad = good;
        bad[8] = static_cast<char>(0xFF);
        const auto e = parse_error(bad);
        EXPECT_EQ(e.code(), ytcdn::ErrorCode::ChecksumMismatch);
        ASSERT_TRUE(e.where().byte_offset.has_value());
        EXPECT_EQ(*e.where().byte_offset, 16u);
    }
    {  // truncated body
        EXPECT_EQ(parse_error(good.substr(0, good.size() - 7)).code(),
                  ytcdn::ErrorCode::CountMismatch);
    }
    {  // trailing garbage
        EXPECT_EQ(parse_error(good + "junk").code(),
                  ytcdn::ErrorCode::CountMismatch);
    }
    {  // truncated header
        EXPECT_EQ(parse_error(good.substr(0, 6)).code(),
                  ytcdn::ErrorCode::Truncated);
    }
    {  // flipped bit inside record 5: the block CRC rejects it, naming the
       // block, its record range and the payload's byte offset
        std::string bad = good;
        bad[kV2FirstRecord + 5 * 41 + 3] ^= 0x10;
        const auto e = parse_error(bad);
        EXPECT_EQ(e.code(), ytcdn::ErrorCode::ChecksumMismatch);
        EXPECT_NE(std::string(e.what()).find("block 0 (records 0..9) CRC mismatch"),
                  std::string::npos)
            << e.what();
        ASSERT_TRUE(e.where().record_index.has_value());
        EXPECT_EQ(*e.where().record_index, 0u);
        ASSERT_TRUE(e.where().byte_offset.has_value());
        EXPECT_EQ(*e.where().byte_offset, kV2FirstRecord);
    }
    {  // flipped byte in the trailer
        std::string bad = good;
        bad[bad.size() - 6] ^= 0x01;  // inside the trailer's count field
        EXPECT_EQ(parse_error(bad).code(), ytcdn::ErrorCode::ChecksumMismatch);
    }
    {  // zero-length input
        EXPECT_EQ(parse_error("").code(), ytcdn::ErrorCode::Truncated);
    }
    {  // garbage header of plausible size
        EXPECT_EQ(parse_error(std::string(64, 'z')).code(),
                  ytcdn::ErrorCode::BadMagic);
    }
    // The legacy throwing reader surfaces the same typed Error.
    std::string bad = good;
    bad[0] = 'X';
    std::istringstream in(bad);
    EXPECT_THROW((void)capture::read_binary_log(in), ytcdn::Error);
}

TEST(BinaryLog, ReadersRejectV1AsBadMagic) {
    // YFL1 (magic, u32 version 1, u64 count, bare 41-byte records, no CRC)
    // is retired: every batch entry point rejects a well-formed YFL1 stream
    // as BadMagic at byte 0 rather than decoding it.
    std::stringstream v2;
    capture::write_binary_log(v2, random_records(100, 7));
    std::string v1 = "YFL1";
    const std::uint32_t version = 1;
    const std::uint64_t count = 100;
    v1.append(reinterpret_cast<const char*>(&version), sizeof(version));
    v1.append(reinterpret_cast<const char*>(&count), sizeof(count));
    v1 += v2.str().substr(kV2FirstRecord, 100 * 41);

    const auto e = parse_error(v1);
    EXPECT_EQ(e.code(), ytcdn::ErrorCode::BadMagic);
    ASSERT_TRUE(e.where().byte_offset.has_value());
    EXPECT_EQ(*e.where().byte_offset, 0u);

    const auto bytes = capture::read_binary_log_bytes(v1);
    ASSERT_FALSE(bytes.ok());
    EXPECT_EQ(bytes.error().code(), ytcdn::ErrorCode::BadMagic);

    std::istringstream in(v1);
    EXPECT_THROW((void)capture::read_binary_log(in), ytcdn::Error);
}

/// Re-seals block 0's CRC over its first `records` records, so an edited
/// field reaches record validation instead of the block checksum.
void reseal_first_block(std::string& log, std::size_t records) {
    const std::uint32_t crc =
        ytcdn::util::crc32(std::string_view(log).substr(kV2FirstRecord, records * 41));
    std::memcpy(log.data() + kV2Header + 4, &crc, sizeof(crc));
}

TEST(BinaryLog, FieldValidationNamesTheRecord) {
    const auto records = random_records(10, 3);
    std::stringstream ss;
    capture::write_binary_log(ss, records);
    const std::string good = ss.str();

    {  // a bad itag (last byte of record 4) under a valid block CRC reaches
       // field validation, which names the record and its byte offset
        std::string bad = good;
        bad[kV2FirstRecord + 5 * 41 - 1] = static_cast<char>(250);
        reseal_first_block(bad, records.size());
        const auto e = parse_error(bad);
        EXPECT_EQ(e.code(), ytcdn::ErrorCode::BadField);
        EXPECT_NE(std::string(e.what()).find("bad itag 250"), std::string::npos);
        ASSERT_TRUE(e.where().record_index.has_value());
        EXPECT_EQ(*e.where().record_index, 4u);
        ASSERT_TRUE(e.where().byte_offset.has_value());
        EXPECT_EQ(*e.where().byte_offset, kV2FirstRecord + 4u * 41u);
    }
    {  // NaN timestamp smuggled into the first record's start field
        std::string bad = good;
        const double nan_value = std::numeric_limits<double>::quiet_NaN();
        std::memcpy(bad.data() + kV2FirstRecord + 8, &nan_value, sizeof(nan_value));
        reseal_first_block(bad, records.size());
        const auto e = parse_error(bad);
        EXPECT_EQ(e.code(), ytcdn::ErrorCode::BadField);
        EXPECT_NE(std::string(e.what()).find("non-finite timestamp"),
                  std::string::npos);
    }
    {  // count/size mismatch
        EXPECT_EQ(parse_error(good.substr(0, good.size() - 1)).code(),
                  ytcdn::ErrorCode::CountMismatch);
    }
}

TEST(BinaryLog, BlockFramingCoversMultipleBlocks) {
    // 4100 records span two blocks (4096 + 4); both round-trip and a flip
    // in the second block names it.
    const auto records = random_records(4100, 11);
    std::stringstream ss;
    capture::write_binary_log(ss, records);
    const std::string good = ss.str();
    EXPECT_EQ(good.size(), capture::binary_log_size(records.size()));
    {
        std::istringstream in(good);
        const auto back = capture::read_binary_log(in);
        EXPECT_EQ(back.size(), records.size());
    }
    std::string bad = good;
    const std::size_t second_block_payload =
        kV2FirstRecord + 4096 * 41 + 8;  // after block 0 payload + block 1 header
    bad[second_block_payload + 17] ^= 0x40;
    const auto e = parse_error(bad);
    EXPECT_EQ(e.code(), ytcdn::ErrorCode::ChecksumMismatch);
    EXPECT_NE(std::string(e.what()).find("block 1 (records 4096..4099)"),
              std::string::npos)
        << e.what();
    ASSERT_TRUE(e.where().record_index.has_value());
    EXPECT_EQ(*e.where().record_index, 4096u);
}

TEST(BinaryLog, FileRoundTrip) {
    const auto path =
        std::filesystem::temp_directory_path() / "ytcdn_binary_log_test.yfl";
    const auto records = random_records(50, 4);
    capture::write_binary_log(path, records);
    const auto back = capture::read_binary_log(path);
    EXPECT_EQ(back.size(), records.size());
    std::filesystem::remove(path);
    // Missing file: an Io-category error naming the path, not corruption.
    auto missing = capture::read_binary_log_result(path);
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().code(), ytcdn::ErrorCode::Io);
    EXPECT_NE(std::string(missing.error().what()).find(path.string()),
              std::string::npos);
    EXPECT_THROW((void)capture::read_binary_log(path), std::runtime_error);
}

}  // namespace
