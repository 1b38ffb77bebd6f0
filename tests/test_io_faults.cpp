// The injectable I/O facade: deterministic fault plans, durable atomic
// writes under injected faults, fault keying on the published name, the
// quarantine bound, and the env hook.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "capture/binary_log.hpp"
#include "util/crc32.hpp"
#include "util/io.hpp"

namespace io = ytcdn::util::io;
namespace fs = std::filesystem;
using ytcdn::ErrorCode;

namespace {

fs::path temp_dir(const std::string& tag) {
    const auto dir = fs::temp_directory_path() / ("ytcdn_io_" + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

io::FaultRule rule(io::FaultKind kind, double p, std::uint8_t ops = io::kAllOps,
                   std::string glob = {}, std::int64_t max = -1) {
    io::FaultRule r;
    r.kind = kind;
    r.probability = p;
    r.ops = ops;
    r.glob = std::move(glob);
    r.max_faults = max;
    return r;
}

}  // namespace

TEST(FaultPlan, ParseAcceptsTheDocumentedFormat) {
    const auto plan = io::FaultPlan::parse(
        "# chaos\n"
        "seed 42\n"
        "eio p=0.5 ops=open,write glob=*.yfl max=3\n"
        "enospc p=0.25 ops=write,fsync,rename\n"
        "short-write p=1 ops=write\n"
        "slow-write p=0.125 slow-ms=0.5\n"
        "\n");
    ASSERT_TRUE(plan.ok()) << plan.error().what();
    EXPECT_FALSE(plan.value().empty());
}

TEST(FaultPlan, ParseRejectsMalformedInput) {
    for (const char* bad : {"bogus p=0.1", "eio", "eio p=2.0", "eio p=x",
                            "seed notanumber", "eio p=0.1 ops=teleport"}) {
        const auto plan = io::FaultPlan::parse(bad);
        ASSERT_FALSE(plan.ok()) << "accepted: " << bad;
        EXPECT_EQ(plan.error().code(), ErrorCode::Parse) << bad;
    }
}

TEST(FaultPlan, DrawsAreDeterministicGivenSeedAndSequence) {
    const auto draws = [](std::uint64_t seed) {
        io::FaultPlan plan(seed);
        plan.add(rule(io::FaultKind::Eio, 0.3));
        std::vector<io::FaultKind> out;
        for (int i = 0; i < 64; ++i) {
            out.push_back(plan.draw(io::Op::Write, "x.bin"));
        }
        return out;
    };
    EXPECT_EQ(draws(7), draws(7));
    EXPECT_NE(draws(7), draws(8));  // astronomically unlikely to collide
}

TEST(FaultPlan, GlobSelectsPathsAndOpsSelectOperations) {
    io::FaultPlan plan(1);
    plan.add(rule(io::FaultKind::Eio, 1.0, io::op_bit(io::Op::Write), "*.yfl"));
    EXPECT_EQ(plan.draw(io::Op::Write, "logs/EU2.yfl"), io::FaultKind::Eio);
    EXPECT_EQ(plan.draw(io::Op::Write, "report.txt"), io::FaultKind::None);
    EXPECT_EQ(plan.draw(io::Op::Read, "logs/EU2.yfl"), io::FaultKind::None);
    const auto counts = plan.counts();
    EXPECT_EQ(counts.checked, 3u);
    EXPECT_EQ(counts.injected, 1u);
}

TEST(FaultPlan, MaxFaultsBoundsInjections) {
    io::FaultPlan plan(1);
    plan.add(rule(io::FaultKind::Eio, 1.0, io::kAllOps, {}, 2));
    int injected = 0;
    for (int i = 0; i < 10; ++i) {
        injected += plan.draw(io::Op::Write, "f") == io::FaultKind::Eio ? 1 : 0;
    }
    EXPECT_EQ(injected, 2);
}

TEST(IoFacade, RoundTripsBytesWithNoPlanInstalled) {
    const auto dir = temp_dir("roundtrip");
    const auto path = dir / "nested" / "deep" / "file.bin";
    const std::string payload = "payload\0with\0nuls and \n lines";
    ASSERT_TRUE(io::write_file_atomic(path, payload).ok());
    const auto read = io::read_file(path);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value(), payload);
    fs::remove_all(dir);
}

TEST(IoFacade, InjectedWriteFaultLeavesNoFileBehind) {
    const auto dir = temp_dir("nofile");
    auto plan = std::make_shared<io::FaultPlan>(3);
    plan->add(rule(io::FaultKind::Enospc, 1.0, io::op_bit(io::Op::Write)));
    io::ScopedFaultPlan scoped(plan);

    const auto path = dir / "out.txt";
    const auto written = io::write_file_atomic(path, "doomed");
    ASSERT_FALSE(written.ok());
    EXPECT_EQ(written.error().code(), ErrorCode::Io);
    // Atomicity: neither the final name nor a torn temp file survives.
    EXPECT_TRUE(fs::is_empty(dir));
    fs::remove_all(dir);
}

TEST(IoFacade, ShortWriteNeverPublishesTornOutput) {
    const auto dir = temp_dir("short");
    auto plan = std::make_shared<io::FaultPlan>(5);
    plan->add(rule(io::FaultKind::ShortWrite, 1.0, io::op_bit(io::Op::Write),
                   {}, 1));
    io::ScopedFaultPlan scoped(plan);

    const auto path = dir / "framed.bin";
    const std::string payload(4096, 'A');
    EXPECT_FALSE(io::write_file_atomic(path, payload).ok());
    EXPECT_FALSE(fs::exists(path));
    // The plan's single fault is spent: the retry succeeds and the full
    // payload lands.
    ASSERT_TRUE(io::write_file_atomic(path, payload).ok());
    EXPECT_EQ(io::read_file(path).value_or_throw(), payload);
    fs::remove_all(dir);
}

TEST(IoFacade, SlowWriteSucceedsAfterTheStall) {
    const auto dir = temp_dir("slow");
    auto plan = std::make_shared<io::FaultPlan>(9);
    io::FaultRule r = rule(io::FaultKind::SlowWrite, 1.0);
    r.slow_ms = 0.1;  // keep the test fast
    plan->add(r);
    io::ScopedFaultPlan scoped(plan);
    const auto path = dir / "slow.txt";
    ASSERT_TRUE(io::write_file_atomic(path, "late but intact").ok());
    EXPECT_EQ(io::read_file(path).value_or_throw(), "late but intact");
    fs::remove_all(dir);
}

TEST(IoFacade, ReadFaultsSurfaceAsTypedIoErrors) {
    const auto dir = temp_dir("readfault");
    const auto path = dir / "data.bin";
    ASSERT_TRUE(io::write_file_atomic(path, "bytes").ok());

    auto plan = std::make_shared<io::FaultPlan>(11);
    plan->add(rule(io::FaultKind::Eio, 1.0, io::op_bit(io::Op::Open)));
    io::ScopedFaultPlan scoped(plan);
    const auto read = io::read_file(path);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.error().code(), ErrorCode::Io);
    fs::remove_all(dir);
}

TEST(IoFacade, EmptyPlanIsByteIdenticalToNoPlan) {
    const auto dir = temp_dir("emptyplan");
    const std::string payload = "identical bytes";
    const auto a = dir / "no_plan.txt";
    ASSERT_TRUE(io::write_file_atomic(a, payload).ok());
    {
        io::ScopedFaultPlan scoped(std::make_shared<io::FaultPlan>(1));
        const auto b = dir / "empty_plan.txt";
        ASSERT_TRUE(io::write_file_atomic(b, payload).ok());
        EXPECT_EQ(io::read_file(a).value_or_throw(),
                  io::read_file(b).value_or_throw());
    }
    fs::remove_all(dir);
}

// Plans without a glob see one draw per point: a whole-file write draws Open,
// Write, Fsync and Rename once each; a read draws Open plus one Read per
// non-empty 64 KiB chunk.
TEST(IoFacade, WholeFileCallsDrawOncePerPointAndChunk) {
    const auto dir = temp_dir("draws");
    auto plan = std::make_shared<io::FaultPlan>(1);
    plan->add(rule(io::FaultKind::Eio, 0.0));
    io::ScopedFaultPlan scoped(plan);
    std::uint64_t expected = 0;
    for (const std::size_t chunks : {1, 3}) {
        const auto path = dir / ("chunks_" + std::to_string(chunks));
        const std::size_t size = chunks == 1 ? 65536 : 2 * 65536 + 1;
        ASSERT_TRUE(io::write_file_atomic(path, std::string(size, 'x')).ok());
        EXPECT_EQ(plan->counts().checked, expected += 4);
        ASSERT_EQ(io::read_file(path).value_or_throw().size(), size);
        EXPECT_EQ(plan->counts().checked, expected += 1 + chunks);
    }
    fs::remove_all(dir);
}

// Every fault point of a file write draws against the published name, never
// "<path>.tmp", so a rule globbing the final extension reaches the
// whole-file write and the streaming YFL2 writer alike.
TEST(IoFacade, FaultRulesMatchThePublishedName) {
    const std::pair<const char*, io::Op> cases[] = {{"open", io::Op::Open},
                                                    {"write", io::Op::Write},
                                                    {"fsync", io::Op::Fsync},
                                                    {"rename", io::Op::Rename}};
    for (const auto& [name, op] : cases) {
        SCOPED_TRACE(name);
        const auto dir = temp_dir(std::string("published_") + name);
        const auto path = dir / "x.yfl";
        auto plan = std::make_shared<io::FaultPlan>(1);
        plan->add(rule(io::FaultKind::Eio, 1.0, io::op_bit(op), "*.yfl"));
        io::ScopedFaultPlan scoped(plan);

        const auto whole = io::write_file_atomic(path, "bytes");
        ASSERT_FALSE(whole.ok());
        EXPECT_EQ(whole.error().code(), ErrorCode::Io);
        EXPECT_FALSE(fs::exists(path));
        EXPECT_FALSE(fs::exists(path.string() + ".tmp"));

        // Open and Write fire inside create (which appends the header);
        // Fsync and Rename fire inside finish.
        const auto streamed = [&]() -> ytcdn::util::Result<void> {
            auto writer = ytcdn::capture::FlowLogWriter::create(path);
            if (!writer) return writer.error();
            if (auto r = writer.value().add(ytcdn::capture::FlowRecord{}); !r) {
                return r;
            }
            return writer.value().finish();
        }();
        ASSERT_FALSE(streamed.ok());
        EXPECT_EQ(streamed.error().code(), ErrorCode::Io);
        EXPECT_FALSE(fs::exists(path));
        EXPECT_FALSE(fs::exists(path.string() + ".tmp"));
        EXPECT_EQ(plan->counts().injected, 2u);
        fs::remove_all(dir);
    }
}

TEST(Quarantine, NumbersCopiesAndKeepsOnlyTheNewest) {
    const auto dir = temp_dir("quarantine");
    const auto victim = dir / "cache.yss";
    std::vector<std::string> quarantined;
    for (int round = 0; round < 5; ++round) {
        ASSERT_TRUE(
            io::write_file_atomic(victim, "gen " + std::to_string(round)).ok());
        auto moved = io::quarantine_file(victim);
        ASSERT_TRUE(moved.ok()) << moved.error().what();
        quarantined.push_back(moved.value().filename().string());
        EXPECT_FALSE(fs::exists(victim));
    }
    // Names increment monotonically...
    EXPECT_EQ(quarantined.front(), "cache.yss.corrupt.1");
    EXPECT_EQ(quarantined.back(), "cache.yss.corrupt.5");
    // ...and only the newest 3 survive the prune.
    std::vector<std::string> left;
    for (const auto& entry : fs::directory_iterator(dir)) {
        left.push_back(entry.path().filename().string());
    }
    std::sort(left.begin(), left.end());
    EXPECT_EQ(left, (std::vector<std::string>{"cache.yss.corrupt.3",
                                              "cache.yss.corrupt.4",
                                              "cache.yss.corrupt.5"}));
    EXPECT_EQ(io::read_file(dir / "cache.yss.corrupt.5").value_or_throw(),
              "gen 4");
    fs::remove_all(dir);
}

TEST(FaultPlanEnv, InstallsAndClears) {
    ::setenv("YTCDN_IO_FAULTS", "seed 3; eio p=1 ops=open", 1);
    ASSERT_TRUE(io::install_fault_plan_from_env().ok());
    ASSERT_NE(io::fault_plan(), nullptr);
    const auto read = io::read_file("/definitely/missing");
    EXPECT_FALSE(read.ok());
    ::unsetenv("YTCDN_IO_FAULTS");
    ASSERT_TRUE(io::install_fault_plan_from_env().ok());
    io::set_fault_plan(nullptr);
}

TEST(FaultPlanEnv, RejectsMalformedSpecs) {
    ::setenv("YTCDN_IO_FAULTS", "eio p=notaprob", 1);
    const auto installed = io::install_fault_plan_from_env();
    ASSERT_FALSE(installed.ok());
    EXPECT_EQ(installed.error().code(), ErrorCode::Parse);
    ::unsetenv("YTCDN_IO_FAULTS");
    io::set_fault_plan(nullptr);
}
