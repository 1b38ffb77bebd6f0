// Engine battery: the merge protocol of the sharded event engine, and the
// golden digests (tests/golden_digests.hpp) the engine-driven study must
// reproduce byte for byte — every flow record, every counter, every trace
// event, every report artifact — at any shard and thread count. The
// digests were recorded from the single-queue legacy driver and the AoS
// report before both were deleted, so "legacy" below names those recorded
// outputs.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "golden_digests.hpp"
#include "sim/event_engine.hpp"
#include "sim/tracer.hpp"
#include "study/report.hpp"
#include "study/study_run.hpp"

namespace golden = ytcdn::golden;
namespace sim = ytcdn::sim;
namespace study = ytcdn::study;
namespace util = ytcdn::util;

namespace {

TEST(EventEngine, SingleShardIsExactlyTheLegacySimulator) {
    // The degenerate case underpinning the whole equivalence argument: with
    // one shard the merge loop is the pop sequence of Simulator::run_until.
    sim::EventEngine engine(1);
    std::vector<int> order;
    engine.shard(0).schedule_at(2.0, [&] { order.push_back(2); });
    engine.shard(0).schedule_at(1.0, [&] { order.push_back(1); });
    engine.shard(0).schedule_at(3.0, [&] { order.push_back(3); });
    engine.run_until(10.0);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(engine.events_processed(), 3u);
    EXPECT_DOUBLE_EQ(engine.shard(0).now(), 10.0);
}

TEST(EventEngine, MergeOrdersAcrossShardsWithShardTieBreak) {
    sim::EventEngine engine(3);
    std::vector<int> order;
    engine.shard(2).schedule_at(1.0, [&] { order.push_back(20); });
    engine.shard(0).schedule_at(2.0, [&] { order.push_back(1); });
    engine.shard(1).schedule_at(2.0, [&] { order.push_back(10); });
    // Same-time events on different shards: lowest shard index first.
    engine.shard(1).schedule_at(3.0, [&] { order.push_back(11); });
    engine.shard(0).schedule_at(3.0, [&] { order.push_back(2); });
    engine.run_until(10.0);
    EXPECT_EQ(order, (std::vector<int>{20, 1, 10, 2, 11}));
    // Every shard's clock reaches the horizon, even idle ones.
    for (std::size_t i = 0; i < engine.num_shards(); ++i) {
        EXPECT_DOUBLE_EQ(engine.shard(i).now(), 10.0);
    }
}

TEST(EventEngine, EventsScheduledDuringMergeAreInterleaved) {
    // A shard-1 handler scheduling earlier work than shard-0's pending
    // event must see that work run first — the merge re-scans every pop.
    sim::EventEngine engine(2);
    std::vector<int> order;
    engine.shard(0).schedule_at(5.0, [&] { order.push_back(1); });
    engine.shard(1).schedule_at(1.0, [&] {
        order.push_back(2);
        engine.shard(1).schedule_at(2.0, [&] { order.push_back(3); });
    });
    engine.run_until(10.0);
    EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
}

TEST(EventEngine, CountsCrossShardTies) {
    // Equal head timestamps on two shards are the one place the shard
    // layout could steer a run; the merge counts every pop that won one.
    sim::EventEngine engine(3);
    engine.shard(0).schedule_at(1.0, [] {});
    engine.shard(1).schedule_at(1.0, [] {});  // tie with shard 0
    engine.shard(2).schedule_at(2.0, [] {});
    engine.shard(1).schedule_at(3.0, [] {});
    engine.shard(2).schedule_at(3.0, [] {});  // tie with shard 1
    engine.shard(0).schedule_at(20.0, [] {});
    engine.shard(1).schedule_at(20.0, [] {});  // past the horizon: not run
    engine.run_until(10.0);
    EXPECT_EQ(engine.events_processed(), 5u);
    EXPECT_EQ(engine.cross_shard_ties(), 2u);

    // Same-shard equal timestamps are ordered by the shard's own queue.
    sim::EventEngine single(1);
    single.shard(0).schedule_at(1.0, [] {});
    single.shard(0).schedule_at(1.0, [] {});
    single.run_until(10.0);
    EXPECT_EQ(single.cross_shard_ties(), 0u);
}

TEST(EventEngine, FullReportMatchesLegacyAtSmallScale) {
    // The whole paper-facing surface at scale 0.02 — every table and figure
    // the report renders, Table III's CBG pipeline included with the reduced
    // landmark set — must reproduce the recorded digests at 1, 2 and 8
    // threads.
    const auto cfg = golden::config_at(0.02);
    const auto opts = golden::reduced_table3_options();
    for (const std::size_t threads : {1u, 2u, 8u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        util::ThreadPool pool(threads);
        sim::Tracer tracer;
        const auto run = study::run_study(cfg, pool, &tracer);
        EXPECT_EQ(golden::digests_of(run, &tracer, pool), golden::kScale002);
        EXPECT_EQ(golden::digest_of(study::make_full_report(run, pool, opts).render()),
                  golden::kScale002ReportWithTable3);
    }
}

TEST(EventEngine, FullReportMatchesLegacyAtBenchScale) {
    // Same check at the bench suite's scale (0.15) — large enough that
    // server-load redirects, cache pulls and the EU2 capacity model all
    // engage. Table III is orthogonal to the driver and dominates wall time,
    // so the report here excludes it.
    util::ThreadPool pool(2);
    const auto run = study::run_study(golden::config_at(0.15), pool);
    EXPECT_EQ(golden::digests_of(run, nullptr, pool), golden::kScale015);
}

TEST(EventEngine, PerSessionFlowSequencesMatchAcrossSeedsAndShardCounts) {
    // Randomized property: for a spread of seeds and shard counts, the YTR1
    // trace — DNS answers, DC selections, redirect chains, retries, flow
    // starts — and every dataset byte reproduce the recorded digests, and
    // every session's event sequence is the same at each shard count (the
    // per-session view the paper's analyses consume).
    util::ThreadPool pool(2);
    for (std::size_t k = 0; k < std::size(golden::kSeeds0005); ++k) {
        auto cfg = golden::config_at(0.005, golden::kSeeds0005[k]);
        std::vector<sim::SessionTimeline> reference;
        for (const std::size_t shards : {1u, 2u, 5u}) {
            SCOPED_TRACE("seed=" + std::to_string(golden::kSeeds0005[k]) +
                         " shards=" + std::to_string(shards));
            cfg.engine_shards = shards;
            sim::Tracer tracer;
            const auto run = study::run_study(cfg, pool, &tracer);
            EXPECT_EQ(golden::digests_of(run, &tracer, pool), golden::kScale0005[k]);
            const auto timelines = sim::session_timelines(tracer.log());
            ASSERT_FALSE(timelines.empty());
            if (reference.empty()) {
                reference = timelines;
                continue;
            }
            ASSERT_EQ(reference.size(), timelines.size());
            for (std::size_t s = 0; s < reference.size(); ++s) {
                EXPECT_EQ(reference[s].vp, timelines[s].vp);
                EXPECT_EQ(reference[s].session, timelines[s].session);
                EXPECT_EQ(reference[s].events, timelines[s].events);
            }
        }
    }
}

}  // namespace
