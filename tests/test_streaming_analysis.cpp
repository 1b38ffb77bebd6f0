// Streaming §VII battery (DESIGN.md §16): the out-of-core pipeline —
// FlowLogWriter spill, FlowLogReader replay, the §VII folds, and the
// two-pass scale runner — must reproduce the in-memory study bit for bit.
// Golden tests pin each fold's output on a real study dataset to the
// digests recorded from the implementations it replaced, and check that a
// shuffled feed gives the same results; property tests split the YFL2
// stream at every byte (hence every record boundary) and prove the readers
// fail identically on every truncation and every single-byte corruption.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/loadbalance_analysis.hpp"
#include "analysis/preferred_dc.hpp"
#include "analysis/redirect_analysis.hpp"
#include "analysis/streaming.hpp"
#include "analysis/subnet_analysis.hpp"
#include "capture/binary_log.hpp"
#include "golden_digests.hpp"
#include "sim/random.hpp"
#include "study/scale_run.hpp"
#include "study/study_run.hpp"
#include "util/parallel.hpp"

namespace analysis = ytcdn::analysis;
namespace capture = ytcdn::capture;
namespace cdn = ytcdn::cdn;
namespace fs = std::filesystem;
namespace golden = ytcdn::golden;
namespace net = ytcdn::net;
namespace sim = ytcdn::sim;
namespace study = ytcdn::study;
namespace util = ytcdn::util;

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

fs::path scratch_dir(const std::string& tag) {
    const auto dir = fs::temp_directory_path() / ("ytcdn_streaming_" + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string file_bytes(const fs::path& path) {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

void write_file(const fs::path& path, const std::string& bytes) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Drains a FlowLogReader; on success fills `out` with every record.
util::Result<void> stream_all(const fs::path& path, std::size_t chunk,
                              std::vector<capture::FlowRecord>& out) {
    out.clear();
    auto reader = capture::FlowLogReader::open(path, chunk);
    if (!reader.ok()) return reader.error();
    std::vector<capture::FlowRecord> block;
    for (;;) {
        auto n = reader.value().next(block);
        if (!n.ok()) return n.error();
        if (n.value() == 0) break;
        out.insert(out.end(), block.begin(), block.end());
    }
    EXPECT_EQ(reader.value().records_read(), out.size());
    return {};
}

/// The streaming reader's error code on `bytes`, or nullopt on success.
std::optional<ytcdn::ErrorCode> stream_code(const fs::path& path,
                                            const std::string& bytes) {
    write_file(path, bytes);
    std::vector<capture::FlowRecord> sink;
    auto r = stream_all(path, 64, sink);
    if (r.ok()) return std::nullopt;
    return r.error().code();
}

/// The batch reader's error code on `bytes`, or nullopt on success.
std::optional<ytcdn::ErrorCode> batch_code(const std::string& bytes) {
    std::istringstream in(bytes);
    auto r = capture::read_binary_log_result(in);
    if (r.ok()) return std::nullopt;
    return r.error().code();
}

/// The batch reader's outcome on `bytes`: "ok <records>" or the error line.
std::string batch_outcome(const std::string& bytes) {
    std::istringstream in(bytes);
    auto r = capture::read_binary_log_result(in);
    return r.ok() ? "ok " + std::to_string(r.value().size()) + "\n"
                  : golden::error_line(r.error());
}

/// The streaming reader's outcome on `bytes` (64-byte chunks), same form.
std::string stream_outcome(const fs::path& path, const std::string& bytes) {
    write_file(path, bytes);
    std::vector<capture::FlowRecord> records;
    auto r = stream_all(path, 64, records);
    return r.ok() ? "ok " + std::to_string(records.size()) + "\n"
                  : golden::error_line(r.error());
}

void expect_records_equal(const std::vector<capture::FlowRecord>& a,
                          const std::vector<capture::FlowRecord>& b) {
    ASSERT_EQ(a.size(), b.size());
    std::ostringstream sa, sb;
    capture::write_binary_log(sa, a);
    capture::write_binary_log(sb, b);
    EXPECT_EQ(sa.str(), sb.str());
}

std::vector<std::pair<double, double>> cdf_points(const analysis::EmpiricalCdf& c) {
    return c.curve(std::numeric_limits<std::size_t>::max());
}

// --- FlowLogWriter / FlowLogReader vs the batch serializers ---------------

TEST(StreamingLog, WriterProducesBatchIdenticalBytes) {
    // 5000 records span two CRC blocks, exercising the mid-stream flush
    // and the finish-time header patch. Byte equality with write_binary_log
    // is the property the whole spill pipeline rests on.
    const auto dir = scratch_dir("writer");
    const auto records = random_records(5000, 21);
    const auto path = dir / "log.yfl";
    auto writer = capture::FlowLogWriter::create(path);
    ASSERT_TRUE(writer.ok()) << writer.error().what();
    for (const auto& r : records) {
        ASSERT_TRUE(writer.value().add(r).ok());
    }
    EXPECT_EQ(writer.value().records_written(), records.size());
    ASSERT_TRUE(std::move(writer.value()).finish().ok());

    std::ostringstream batch;
    capture::write_binary_log(batch, records);
    EXPECT_EQ(file_bytes(path), batch.str());

    // The empty spill (a vantage point that saw nothing) is well-formed too.
    const auto empty_path = dir / "empty.yfl";
    auto empty = capture::FlowLogWriter::create(empty_path);
    ASSERT_TRUE(empty.ok());
    ASSERT_TRUE(std::move(empty.value()).finish().ok());
    std::ostringstream empty_batch;
    capture::write_binary_log(empty_batch, {});
    EXPECT_EQ(file_bytes(empty_path), empty_batch.str());
    fs::remove_all(dir);
}

TEST(StreamingLog, UnfinishedWriterPublishesNothing) {
    // Crash-safety: until finish(), the final name must not exist — a spill
    // interrupted mid-run can never be mistaken for a complete log.
    const auto dir = scratch_dir("unfinished");
    const auto path = dir / "log.yfl";
    {
        auto writer = capture::FlowLogWriter::create(path);
        ASSERT_TRUE(writer.ok());
        ASSERT_TRUE(writer.value().add(random_records(1, 3)[0]).ok());
        EXPECT_FALSE(fs::exists(path));
        // Destructor without finish(): discard.
    }
    EXPECT_FALSE(fs::exists(path));
    fs::remove_all(dir);
}

TEST(StreamingLog, ReaderStreamsBatchIdenticalRecords) {
    const auto dir = scratch_dir("reader");
    const auto records = random_records(4100, 22);  // two blocks: 4096 + 4
    const auto path = dir / "log.yfl";
    capture::write_binary_log(path, records);

    std::vector<capture::FlowRecord> streamed;
    auto r = stream_all(path, 1 << 16, streamed);
    ASSERT_TRUE(r.ok()) << r.error().what();
    expect_records_equal(streamed, records);

    auto reader = capture::FlowLogReader::open(path);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.value().declared_records(), records.size());
    fs::remove_all(dir);
}

TEST(StreamingLog, Yfl1IsRejectedByBothReaders) {
    // YFL2 is the only flow-log version: a stream in the retired
    // unchecksummed YFL1 layout (magic, u32 version 1, u64 count, bare
    // records) is BadMagic at byte 0 from the batch and the streaming
    // reader alike, as are the three v1_* corpus fixtures.
    const auto dir = scratch_dir("yfl1");
    const auto path = dir / "log.yfl";
    std::ostringstream os;
    capture::write_binary_log(os, random_records(3, 23));
    std::string yfl1 = "YFL1";
    const std::uint32_t version = 1;
    const std::uint64_t count = 3;
    yfl1.append(reinterpret_cast<const char*>(&version), sizeof(version));
    yfl1.append(reinterpret_cast<const char*>(&count), sizeof(count));
    yfl1 += os.str().substr(28, 3 * 41);  // the v2 block's three records

    std::vector<std::string> inputs = {yfl1};
    for (const char* name : {"v1_bad_itag.yfl", "v1_count_overflow.yfl",
                             "v1_truncated.yfl"}) {
        inputs.push_back(file_bytes(fs::path(YTCDN_CORPUS_DIR) / name));
    }
    for (const std::string& bytes : inputs) {
        EXPECT_EQ(batch_outcome(bytes), "bad-magic record=- byte=0 bad magic [byte 0]\n");
        EXPECT_EQ(stream_outcome(path, bytes), batch_outcome(bytes));
    }
    fs::remove_all(dir);
}

TEST(StreamingLog, ChunkBoundaryInvariance) {
    // Sweeping the refill granularity from one byte up places a chunk
    // boundary inside every header, every block frame and every record —
    // the "split the stream at every record boundary" property. Output must
    // be identical at every granularity.
    const auto dir = scratch_dir("chunks");
    const auto records = random_records(300, 24);
    const auto path = dir / "log.yfl";
    capture::write_binary_log(path, records);

    std::vector<capture::FlowRecord> baseline;
    ASSERT_TRUE(stream_all(path, 1 << 20, baseline).ok());
    expect_records_equal(baseline, records);

    std::vector<std::size_t> chunks;
    for (std::size_t c = 1; c <= 96; ++c) chunks.push_back(c);
    chunks.insert(chunks.end(), {97, 101, 4096, 1 << 15});
    for (const std::size_t chunk : chunks) {
        std::vector<capture::FlowRecord> streamed;
        auto r = stream_all(path, chunk, streamed);
        ASSERT_TRUE(r.ok()) << "chunk=" << chunk << ": " << r.error().what();
        ASSERT_EQ(streamed.size(), records.size()) << "chunk=" << chunk;
        expect_records_equal(streamed, records);
    }
    fs::remove_all(dir);
}

TEST(StreamingLog, EveryTruncationFailsLikeTheBatchReader) {
    // Cut the stream after every prefix length: the incremental reader
    // must report an error (or, never, success where batch fails) with the
    // same code the batch reader assigns — one shared taxonomy, not two.
    const auto dir = scratch_dir("trunc");
    const auto records = random_records(10, 25);
    std::ostringstream os;
    capture::write_binary_log(os, records);
    const std::string good = os.str();
    const auto path = dir / "cut.yfl";

    for (std::size_t cut = 0; cut < good.size(); ++cut) {
        const std::string bytes = good.substr(0, cut);
        const auto batch = batch_code(bytes);
        const auto streamed = stream_code(path, bytes);
        ASSERT_TRUE(batch.has_value()) << "cut=" << cut;
        ASSERT_TRUE(streamed.has_value()) << "cut=" << cut;
        EXPECT_EQ(*streamed, *batch)
            << "cut=" << cut << " batch=" << ytcdn::to_string(*batch)
            << " streamed=" << ytcdn::to_string(*streamed);
    }
    fs::remove_all(dir);
}

TEST(StreamingLog, EveryByteFlipFailsLikeTheBatchReader) {
    const auto dir = scratch_dir("flip");
    const auto records = random_records(10, 26);
    std::ostringstream os;
    capture::write_binary_log(os, records);
    const std::string good = os.str();
    const auto path = dir / "flip.yfl";

    for (std::size_t at = 0; at < good.size(); ++at) {
        std::string bytes = good;
        bytes[at] = static_cast<char>(bytes[at] ^ 0x2A);
        const auto batch = batch_code(bytes);
        const auto streamed = stream_code(path, bytes);
        ASSERT_EQ(streamed.has_value(), batch.has_value()) << "at=" << at;
        if (batch.has_value()) {
            EXPECT_EQ(*streamed, *batch)
                << "at=" << at << " batch=" << ytcdn::to_string(*batch)
                << " streamed=" << ytcdn::to_string(*streamed);
        }
    }
    fs::remove_all(dir);
}

TEST(StreamingLog, CorruptFixturesFailIdenticallyInBothReaders) {
    // The checked-in fuzz fixtures (tests/fuzz/corpus) are crafted attacks
    // on individual validation steps; the incremental reader must map every
    // one to the exact same typed outcome as the batch reader.
    const fs::path corpus = YTCDN_CORPUS_DIR;
    ASSERT_TRUE(fs::is_directory(corpus));
    const auto scratch = scratch_dir("fixtures");
    const auto path = scratch / "fixture.yfl";
    std::size_t swept = 0;
    for (const auto& entry : fs::directory_iterator(corpus)) {
        if (!entry.is_regular_file()) continue;
        if (entry.path().extension() != ".yfl") continue;
        const std::string bytes = file_bytes(entry.path());
        const auto batch = batch_code(bytes);
        const auto streamed = stream_code(path, bytes);
        SCOPED_TRACE(entry.path().filename().string());
        ASSERT_EQ(streamed.has_value(), batch.has_value());
        if (batch.has_value()) {
            EXPECT_EQ(*streamed, *batch);
        }
        ++swept;
    }
    // The corpus must include the incremental-reader fixtures (truncated
    // mid-block, lying block count, bad trailer magic, bad itag) and the
    // retired v1 streams.
    EXPECT_GE(swept, 10u);
    // The well-framed log with an invalid record reaches field validation.
    EXPECT_EQ(batch_outcome(file_bytes(corpus / "v2_bad_itag.yfl")),
              "bad-field record=0 byte=28 bad itag 250 [record 0 @ byte 28]\n");
    fs::remove_all(scratch);
}

/// The corpus fixtures kYfl2FixtureOutcomes covers, in digest order.
constexpr const char* kPinnedYflFixtures[] = {
    "bad_magic.yfl",          "empty.yfl",
    "truncated_header.yfl",   "v2_bad_block_crc.yfl",
    "v2_block_count_lies.yfl", "v2_count_overflow.yfl",
    "v2_future_version.yfl",  "v2_trailer_bad_magic.yfl",
    "v2_truncated_mid_block.yfl",
};

TEST(StreamingLog, OutcomesMatchPinnedDigests) {
    // Every cut of one 10-record log, every single-byte flip of another and
    // the YFL2 corpus fixtures: the code, record index, byte offset and
    // message of each outcome are pinned, and the streaming reader must
    // produce exactly the batch reader's lines.
    const auto dir = scratch_dir("outcomes");
    const auto path = dir / "log.yfl";
    std::string cuts, cuts_streamed;
    {
        std::ostringstream os;
        capture::write_binary_log(os, random_records(10, 25));
        const std::string good = os.str();
        for (std::size_t cut = 0; cut < good.size(); ++cut) {
            cuts += batch_outcome(good.substr(0, cut));
            cuts_streamed += stream_outcome(path, good.substr(0, cut));
        }
    }
    std::string flips, flips_streamed;
    {
        std::ostringstream os;
        capture::write_binary_log(os, random_records(10, 26));
        const std::string good = os.str();
        for (std::size_t at = 0; at < good.size(); ++at) {
            std::string bytes = good;
            bytes[at] = static_cast<char>(bytes[at] ^ 0x2A);
            flips += batch_outcome(bytes);
            flips_streamed += stream_outcome(path, bytes);
        }
    }
    std::string fixtures, fixtures_streamed;
    for (const char* name : kPinnedYflFixtures) {
        const std::string bytes = file_bytes(fs::path(YTCDN_CORPUS_DIR) / name);
        fixtures += std::string(name) + ": " + batch_outcome(bytes);
        fixtures_streamed += std::string(name) + ": " + stream_outcome(path, bytes);
    }
    EXPECT_EQ(golden::digest_of(cuts), golden::kYfl2CutOutcomes) << cuts;
    EXPECT_EQ(golden::digest_of(flips), golden::kYfl2FlipOutcomes) << flips;
    EXPECT_EQ(golden::digest_of(fixtures), golden::kYfl2FixtureOutcomes) << fixtures;
    EXPECT_EQ(cuts_streamed, cuts);
    EXPECT_EQ(flips_streamed, flips);
    EXPECT_EQ(fixtures_streamed, fixtures);
    fs::remove_all(dir);
}

// --- the §VII folds: pinned outputs and feed-order invariance ------------

class StreamingModules : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        study::StudyConfig cfg;
        cfg.scale = 0.005;
        cfg.seed = 0xCDA1'2011ull;
        run_ = std::make_unique<study::StudyRun>(study::run_study(cfg));
    }
    static void TearDownTestSuite() { run_.reset(); }
    static const study::StudyRun& run() { return *run_; }

    /// Feeds vantage point i's records to `fold` in a seeded random order.
    template <typename Fold>
    static Fold fold_shuffled(std::size_t i, Fold fold) {
        const auto& records = run().traces.datasets[i].records;
        std::vector<std::size_t> order(records.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        sim::Rng rng(0x5EED + i);
        std::shuffle(order.begin(), order.end(), rng.engine());
        for (const std::size_t k : order) fold.add(records[k], run().dc_columns[i][k]);
        return fold;
    }

private:
    static std::unique_ptr<study::StudyRun> run_;
};

std::unique_ptr<study::StudyRun> StreamingModules::run_;

// Each test below logs the batch functions' results (the fold fed in record
// order) and checks them against the digest recorded from the record walks
// they replaced, then logs the same results from a shuffled feed and
// requires identical text.

TEST_F(StreamingModules, DcTrafficMatchesBatch) {
    golden::ResultLog batch, shuffled;
    for (std::size_t i = 0; i < run().traces.datasets.size(); ++i) {
        const auto& ds = run().traces.datasets[i];
        const auto& map = run().maps[i];
        const int preferred = run().preferred[i];
        batch.add(analysis::traffic_by_dc(ds, map))
            .add(analysis::preferred_dc(ds, map))
            .add(analysis::non_preferred_share(ds, map, preferred));
        const auto inc = fold_shuffled(i, analysis::IncrementalDcTraffic{});
        shuffled.add(inc.traffic()).add(inc.preferred(map)).add(inc.share(preferred));
        EXPECT_EQ(inc.preferred(map), preferred) << ds.name;
    }
    EXPECT_EQ(batch.digest(), golden::kFoldDcTraffic);
    EXPECT_EQ(shuffled.text(), batch.text());
}

TEST_F(StreamingModules, HourlyLoadMatchesBatch) {
    golden::ResultLog batch, shuffled;
    for (std::size_t i = 0; i < run().traces.datasets.size(); ++i) {
        const auto& ds = run().traces.datasets[i];
        const auto& map = run().maps[i];
        const int preferred = run().preferred[i];
        batch.add(analysis::hourly_non_preferred_fraction(ds, map, preferred))
            .add(analysis::hourly_preferred_series(ds, map, preferred))
            .add(analysis::load_vs_nonpreferred_correlation(ds, map, preferred));
        const auto inc =
            fold_shuffled(i, analysis::IncrementalHourlyLoad(preferred, ds.name));
        shuffled.add(inc.non_preferred_cdf())
            .add(inc.preferred_series())
            .add(inc.correlation());
    }
    EXPECT_EQ(batch.digest(), golden::kFoldHourlyLoad);
    EXPECT_EQ(shuffled.text(), batch.text());
}

TEST_F(StreamingModules, VideoRedirectsMatchBatch) {
    golden::ResultLog batch, shuffled;
    for (std::size_t i = 0; i < run().traces.datasets.size(); ++i) {
        const auto& ds = run().traces.datasets[i];
        const auto& map = run().maps[i];
        const int preferred = run().preferred[i];
        const auto top = analysis::top_redirected_videos(ds, map, preferred, 4);
        batch.add(analysis::video_non_preferred_counts(ds, map, preferred)).add(top);
        for (const auto video : top) {
            batch.add(analysis::video_hourly_load(ds, map, preferred, video));
        }
        const auto inc = fold_shuffled(i, analysis::IncrementalVideoRedirects(preferred));
        shuffled.add(inc.counts_cdf()).add(inc.top_videos(4));
        for (const auto video : inc.top_videos(4)) {
            shuffled.add(analysis::video_hourly_load(ds, run().dc_columns[i], preferred,
                                                     video));
        }
    }
    EXPECT_EQ(batch.digest(), golden::kFoldVideoRedirects);
    EXPECT_EQ(shuffled.text(), batch.text());
}

TEST_F(StreamingModules, SubnetBreakdownMatchesBatch) {
    golden::ResultLog batch, shuffled;
    for (std::size_t i = 0; i < run().traces.datasets.size(); ++i) {
        const auto& ds = run().traces.datasets[i];
        const int preferred = run().preferred[i];
        std::vector<analysis::NamedSubnet> subnets;
        for (const auto& g : run().deployment->vantage(i).subnets) {
            subnets.push_back({g.name, g.prefix});
        }
        batch.add(analysis::subnet_breakdown(ds, run().maps[i], preferred, subnets));
        shuffled.add(
            fold_shuffled(i, analysis::IncrementalSubnetBreakdown(preferred, subnets))
                .shares());
    }
    EXPECT_EQ(batch.digest(), golden::kFoldSubnetBreakdown);
    EXPECT_EQ(shuffled.text(), batch.text());
}

TEST_F(StreamingModules, ServerLoadMatchesBatch) {
    golden::ResultLog batch, shuffled;
    for (std::size_t i = 0; i < run().traces.datasets.size(); ++i) {
        const auto& ds = run().traces.datasets[i];
        const int preferred = run().preferred[i];
        batch.add(analysis::preferred_dc_server_load(ds, run().maps[i], preferred));
        shuffled.add(
            fold_shuffled(i, analysis::IncrementalServerLoad(preferred, ds.name))
                .series());
    }
    EXPECT_EQ(batch.digest(), golden::kFoldServerLoad);
    EXPECT_EQ(shuffled.text(), batch.text());
}

TEST_F(StreamingModules, ChunkedSpillReplayMatchesDirectFeed) {
    // End-to-end incremental path: spill a dataset with FlowLogWriter, read
    // it back block-wise at an adversarial chunk size, feed the modules —
    // identical results to feeding the in-memory vector.
    const auto dir = scratch_dir("replay");
    const auto& ds = run().traces.datasets[0];
    const auto& map = run().maps[0];
    const int preferred = run().preferred[0];

    const auto path = dir / "spill.yfl";
    auto writer = capture::FlowLogWriter::create(path);
    ASSERT_TRUE(writer.ok());
    for (const auto& r : ds.records) ASSERT_TRUE(writer.value().add(r).ok());
    ASSERT_TRUE(std::move(writer.value()).finish().ok());

    analysis::IncrementalHourlyLoad direct(preferred, ds.name);
    for (const auto& r : ds.records) direct.add(r, map.dc_of(r.server_ip));

    analysis::IncrementalHourlyLoad replayed(preferred, ds.name);
    auto reader = capture::FlowLogReader::open(path, 997);  // prime chunk
    ASSERT_TRUE(reader.ok());
    std::vector<capture::FlowRecord> block;
    for (;;) {
        auto n = reader.value().next(block);
        ASSERT_TRUE(n.ok()) << n.error().what();
        if (n.value() == 0) break;
        for (const auto& r : block) replayed.add(r, map.dc_of(r.server_ip));
    }
    EXPECT_EQ(reader.value().records_read(), ds.records.size());

    EXPECT_EQ(cdf_points(replayed.non_preferred_cdf()),
              cdf_points(direct.non_preferred_cdf()));
    EXPECT_EQ(replayed.correlation(), direct.correlation());
    fs::remove_all(dir);
}

// --- the two-pass scale runner vs the batch study -------------------------

TEST_F(StreamingModules, ScaleRunMatchesBatchAnalysis) {
    // The full out-of-core pipeline at a small scale: pass 1 spills via the
    // event engine, pass 2 streams the spills — and every per-VP figure it
    // reports must equal what the in-memory batch toolchain computes.
    const auto dir = scratch_dir("scale");
    study::ScaleRunConfig cfg;
    cfg.study = run().config;
    cfg.spill_dir = dir;
    util::ThreadPool pool(2);
    auto summary = study::run_scale_study(cfg, pool);
    ASSERT_TRUE(summary.ok()) << summary.error().what();

    std::uint64_t sessions = 0;
    for (const auto r : run().traces.requests_generated) sessions += r;
    EXPECT_EQ(summary.value().sessions, sessions);
    EXPECT_GT(summary.value().sessions, 0u);

    std::uint64_t flows = 0;
    ASSERT_EQ(summary.value().vantage.size(), run().traces.datasets.size());
    for (std::size_t i = 0; i < summary.value().vantage.size(); ++i) {
        const auto& vp = summary.value().vantage[i];
        const auto& ds = run().traces.datasets[i];
        const auto& map = run().maps[i];
        const int preferred = run().preferred[i];
        SCOPED_TRACE(ds.name);
        EXPECT_EQ(vp.name, ds.name);
        EXPECT_EQ(vp.flows, ds.records.size());
        EXPECT_EQ(vp.preferred, preferred);
        const auto share = analysis::non_preferred_share(ds, map, preferred);
        EXPECT_EQ(vp.share.byte_fraction, share.byte_fraction);
        EXPECT_EQ(vp.share.flow_fraction, share.flow_fraction);
        EXPECT_EQ(vp.load_correlation,
                  analysis::load_vs_nonpreferred_correlation(ds, map, preferred));
        flows += vp.flows;
        // keep_spill defaults off: pass 2 cleaned up after itself.
        EXPECT_FALSE(fs::exists(dir / (ds.name + ".yfl")));
    }
    EXPECT_EQ(summary.value().flows, flows);
    fs::remove_all(dir);
}

TEST_F(StreamingModules, ScaleRunKeptSpillsAreTheLegacyDatasets) {
    const auto dir = scratch_dir("scale_keep");
    study::ScaleRunConfig cfg;
    cfg.study = run().config;
    cfg.spill_dir = dir;
    cfg.keep_spill = true;
    util::ThreadPool pool(1);
    auto summary = study::run_scale_study(cfg, pool);
    ASSERT_TRUE(summary.ok()) << summary.error().what();

    for (std::size_t i = 0; i < run().traces.datasets.size(); ++i) {
        const auto& ds = run().traces.datasets[i];
        const auto path = dir / (ds.name + ".yfl");
        ASSERT_TRUE(fs::exists(path)) << ds.name;
        // The spill is the stream in emission order; the legacy dataset is
        // the same records after the driver's time sort. Same multiset,
        // byte-identical once sorted the same way.
        capture::Dataset spilled;
        spilled.name = ds.name;
        spilled.records = capture::read_binary_log(path);
        spilled.sort_by_time();
        expect_records_equal(spilled.records, ds.records);
    }
    fs::remove_all(dir);
}

}  // namespace
