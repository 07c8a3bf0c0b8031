/**
 * @file
 * Tests for the per-invocation span system: tree well-formedness and
 * conservation on standard and chaos runs, buffer caps and drop
 * accounting, causal failover chaining across cluster nodes, shard-
 * count-independent span dumps, and the JSONL round trip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "cluster/sharded_cluster.hh"
#include "core/ablations.hh"
#include "fault/fault_plan.hh"
#include "obs/export.hh"
#include "obs/observer.hh"
#include "obs/span.hh"
#include "platform/node.hh"
#include "stats/quantile_sketch.hh"
#include "trace/generator.hh"
#include "workload/catalog.hh"

namespace rc::obs {
namespace {

class SpanTest : public ::testing::Test
{
  protected:
    SpanTest() : catalog(workload::Catalog::standard20()) {}

    std::vector<trace::Arrival>
    workload(std::uint64_t seed = 7, std::size_t minutes = 45) const
    {
        trace::WorkloadTraceConfig config;
        config.minutes = minutes;
        config.targetInvocations = minutes * 12;
        config.seed = seed;
        return trace::expandArrivals(
            trace::generateAzureLike(catalog, config));
    }

    ObserverConfig
    spanConfig(std::size_t maxSpans = 0) const
    {
        ObserverConfig config;
        config.traceEnabled = false;
        config.profilingEnabled = false;
        config.spansEnabled = true;
        config.maxSpans = maxSpans;
        return config;
    }

    fault::FaultPlan
    chaosPlan() const
    {
        fault::FaultPlan plan;
        plan.bareInitFailProb = 0.08;
        plan.langInitFailProb = 0.08;
        plan.userInitFailProb = 0.08;
        plan.execCrashProb = 0.08;
        plan.wedgeProb = 0.03;
        return plan;
    }

    /** Run one node with spans on; returns via @p observer. */
    void
    runNode(Observer& observer, const fault::FaultPlan& plan = {},
            std::uint64_t seed = 7)
    {
        platform::NodeConfig config;
        config.observer = &observer;
        config.fault = plan;
        platform::Node node(catalog, core::makeRainbowCake(catalog),
                            config);
        node.run(workload(seed));
    }

    workload::Catalog catalog;
};

std::vector<Span>
rootsOf(const std::vector<Span>& spans)
{
    std::vector<Span> roots;
    for (const Span& span : spans) {
        if (span.stage == SpanStage::Invocation)
            roots.push_back(span);
    }
    return roots;
}

std::uint64_t
outcomeCount(const std::vector<Span>& spans, SpanOutcome outcome)
{
    std::uint64_t count = 0;
    for (const Span& span : rootsOf(spans)) {
        if (static_cast<SpanOutcome>(span.info) == outcome)
            ++count;
    }
    return count;
}

TEST_F(SpanTest, StageAndOutcomeNamesRoundTrip)
{
    for (std::size_t i = 0; i < kSpanStageCount; ++i) {
        const auto stage = static_cast<SpanStage>(i);
        SpanStage parsed;
        ASSERT_TRUE(spanStageFromString(toString(stage), &parsed));
        EXPECT_EQ(parsed, stage);
    }
    for (std::size_t i = 0; i < kSpanOutcomeCount; ++i) {
        const auto outcome = static_cast<SpanOutcome>(i);
        SpanOutcome parsed;
        ASSERT_TRUE(spanOutcomeFromString(toString(outcome), &parsed));
        EXPECT_EQ(parsed, outcome);
    }
    SpanStage stage;
    EXPECT_FALSE(spanStageFromString("nonsense", &stage));
}

TEST_F(SpanTest, StandardRunSpanTreeIsWellFormed)
{
    Observer observer(spanConfig());
    runNode(observer);
    ASSERT_FALSE(observer.spans().empty());
    EXPECT_EQ(observer.droppedSpans(), 0u);
    std::string error;
    EXPECT_TRUE(validateSpanTree(observer.spans(), &error)) << error;
}

TEST_F(SpanTest, CompletedRootsMatchRecordedInvocations)
{
    Observer observer(spanConfig());
    platform::NodeConfig config;
    config.observer = &observer;
    platform::Node node(catalog, core::makeRainbowCake(catalog),
                        config);
    node.run(workload());
    EXPECT_EQ(outcomeCount(observer.spans(), SpanOutcome::Completed),
              node.metrics().total());
}

TEST_F(SpanTest, ChaosRunConservesEveryStage)
{
    Observer observer(spanConfig());
    runNode(observer, chaosPlan());
    std::string error;
    ASSERT_TRUE(validateSpanTree(observer.spans(), &error)) << error;
    // Chaos must actually have exercised the fault paths: aborted
    // attempts and retry backoff waits show up as spans.
    bool sawAborted = false;
    bool sawBackoff = false;
    for (const Span& span : observer.spans()) {
        sawAborted |= (span.flags & kSpanAborted) != 0;
        sawBackoff |= span.stage == SpanStage::Backoff;
    }
    EXPECT_TRUE(sawAborted);
    EXPECT_TRUE(sawBackoff);
}

TEST_F(SpanTest, DisabledSpansRecordNothing)
{
    ObserverConfig config;
    config.traceEnabled = true;
    Observer observer(config);
    runNode(observer);
    EXPECT_TRUE(observer.spans().empty());
    EXPECT_EQ(observer.droppedSpans(), 0u);
}

TEST_F(SpanTest, SpanCapCountsDropsIntoTraceDropped)
{
    Observer capped(spanConfig(/*maxSpans=*/32));
    runNode(capped);
    EXPECT_EQ(capped.spans().size(), 32u);
    EXPECT_GT(capped.droppedSpans(), 0u);
    EXPECT_EQ(capped.counters().total(Counter::TraceDropped),
              capped.droppedSpans());
}

TEST_F(SpanTest, JsonlDumpRoundTrips)
{
    Observer observer(spanConfig());
    runNode(observer, chaosPlan());
    std::ostringstream out;
    writeJsonlSpans(out, observer);

    std::istringstream in(out.str());
    std::string error;
    std::uint64_t dropped = 1;
    const auto parsed = parseJsonlSpans(in, &error, &dropped);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(dropped, 0u);
    ASSERT_EQ(parsed.size(), observer.spans().size());

    std::vector<Span> expected(observer.spans().begin(),
                               observer.spans().end());
    std::sort(expected.begin(), expected.end(), spanBefore);
    for (std::size_t i = 0; i < parsed.size(); ++i) {
        EXPECT_EQ(parsed[i].id, expected[i].id);
        EXPECT_EQ(parsed[i].parent, expected[i].parent);
        EXPECT_EQ(parsed[i].invocation, expected[i].invocation);
        EXPECT_EQ(parsed[i].container, expected[i].container);
        EXPECT_EQ(parsed[i].start, expected[i].start);
        EXPECT_EQ(parsed[i].end, expected[i].end);
        EXPECT_EQ(parsed[i].function, expected[i].function);
        EXPECT_EQ(parsed[i].node, expected[i].node);
        EXPECT_EQ(parsed[i].stage, expected[i].stage);
        EXPECT_EQ(parsed[i].info, expected[i].info);
        EXPECT_EQ(parsed[i].attempt, expected[i].attempt);
        EXPECT_EQ(parsed[i].flags, expected[i].flags);
    }
}

TEST_F(SpanTest, ParseRejectsWrongSchema)
{
    std::istringstream in("{\"schema\": \"something-else\"}\n");
    std::string error;
    EXPECT_TRUE(parseJsonlSpans(in, &error).empty());
    EXPECT_FALSE(error.empty());
}

TEST_F(SpanTest, ValidateCatchesGapsAndOrphans)
{
    // A hand-built two-span tree with a gap between queue and exec.
    Span root;
    root.invocation = 1;
    root.id = (1ULL << 8) | 1;
    root.stage = SpanStage::Invocation;
    root.info = static_cast<std::uint8_t>(SpanOutcome::Completed);
    root.start = 0;
    root.end = 100;
    Span queue = root;
    queue.id = (1ULL << 8) | 2;
    queue.parent = root.id;
    queue.stage = SpanStage::Queue;
    queue.info = 0;
    queue.start = 0;
    queue.end = 40;
    Span exec = queue;
    exec.id = (1ULL << 8) | 3;
    exec.stage = SpanStage::Exec;
    exec.start = 50; // gap: 40 != 50
    exec.end = 100;
    std::string error;
    EXPECT_FALSE(validateSpanTree({root, queue, exec}, &error));
    EXPECT_NE(error.find("invocation"), std::string::npos);

    exec.start = 40; // tiling restored
    EXPECT_TRUE(validateSpanTree({root, queue, exec}, &error)) << error;

    Span orphan = queue;
    orphan.invocation = 2;
    orphan.id = (2ULL << 8) | 2;
    orphan.parent = (2ULL << 8) | 1;
    EXPECT_FALSE(validateSpanTree({root, queue, exec, orphan}, &error));
}

TEST_F(SpanTest, SketchTracksExactPercentilesOnTierOneWorkload)
{
    // The sketch-vs-exact policy OBSERVABILITY.md documents: on a real
    // tier-1 latency distribution, the sketch's p50/p99 stay within
    // its relative-error bound of the sample at floor-rank — the
    // convention the sketch targets (stats::Percentile interpolates
    // between ranks, so it is compared via the sorted sample, not
    // via Percentile::quantile).
    platform::Node node(catalog, core::makeRainbowCake(catalog), {});
    node.run(workload(29, 120));

    std::vector<double> exact;
    stats::QuantileSketch sketch;
    for (const auto& record : node.metrics().records()) {
        const double seconds = sim::toSeconds(record.endToEnd);
        exact.push_back(seconds);
        sketch.add(seconds);
    }
    ASSERT_GT(exact.size(), 300u);
    std::sort(exact.begin(), exact.end());
    for (const double q : {0.5, 0.9, 0.99}) {
        const auto rank = static_cast<std::size_t>(
            q * static_cast<double>(exact.size() - 1));
        const double sample = exact[rank];
        EXPECT_LE(std::abs(sketch.quantile(q) - sample),
                  sketch.relativeError() * sample + 1e-12)
            << "q=" << q;
    }
}

// ---- cluster failover chaining -----------------------------------------

class ClusterSpanTest : public SpanTest
{
  protected:
    cluster::ClusterConfig
    crashyConfig(Observer& observer) const
    {
        cluster::ClusterConfig config;
        config.nodes = 4;
        config.node.observer = &observer;
        config.node.fault.nodeMtbfSeconds = 240.0;
        config.node.fault.nodeDowntimeSeconds = 15.0;
        return config;
    }
};

TEST_F(ClusterSpanTest, FailoverChainsRerootedInvocations)
{
    Observer observer(spanConfig());
    cluster::ShardedCluster fleet(
        catalog, [this] { return core::makeRainbowCake(catalog); },
        crashyConfig(observer));
    const auto result = fleet.run(workload(11, 90));
    ASSERT_GT(result.nodeCrashes, 0u);
    ASSERT_GT(result.reroutedInvocations, 0u);

    std::string error;
    ASSERT_TRUE(validateSpanTree(observer.spans(), &error)) << error;
    EXPECT_EQ(outcomeCount(observer.spans(), SpanOutcome::Rerouted),
              result.reroutedInvocations);

    // Every re-issued invocation's root chains to a root that was
    // closed as rerouted — the cross-node retry is one causal tree.
    std::uint64_t chained = 0;
    for (const Span& root : rootsOf(observer.spans())) {
        if (root.parent == 0)
            continue;
        ++chained;
        bool found = false;
        for (const Span& origin : rootsOf(observer.spans())) {
            if (origin.id == root.parent) {
                EXPECT_EQ(static_cast<SpanOutcome>(origin.info),
                          SpanOutcome::Rerouted);
                found = true;
            }
        }
        EXPECT_TRUE(found);
    }
    EXPECT_EQ(chained, result.reroutedInvocations);
}

TEST_F(ClusterSpanTest, SketchPercentilesPopulateClusterResult)
{
    Observer observer(spanConfig());
    cluster::ShardedCluster fleet(
        catalog, [this] { return core::makeRainbowCake(catalog); },
        crashyConfig(observer));
    const auto result = fleet.run(workload(11, 60));
    ASSERT_GT(result.invocations, 0u);
    EXPECT_GT(result.e2eP50Seconds, 0.0);
    EXPECT_GE(result.e2eP99Seconds, result.e2eP50Seconds);
}

TEST_F(ClusterSpanTest, ShardedSpanDumpIsByteIdenticalAcrossShards)
{
    const auto arrivals = workload(11, 90);
    std::string dumps[2];
    cluster::ClusterResult results[2];
    const std::size_t shardCounts[2] = {1, 2};
    for (int i = 0; i < 2; ++i) {
        Observer observer(spanConfig());
        cluster::ShardedConfig sharded;
        sharded.shards = shardCounts[i];
        cluster::ShardedCluster fleet(
            catalog, [this] { return core::makeRainbowCake(catalog); },
            crashyConfig(observer), sharded);
        results[i] = fleet.run(arrivals);
        std::ostringstream out;
        writeJsonlSpans(out, observer);
        dumps[i] = out.str();

        std::string error;
        EXPECT_TRUE(validateSpanTree(observer.spans(), &error)) << error;
    }
    ASSERT_GT(results[0].nodeCrashes, 0u);
    EXPECT_EQ(dumps[0], dumps[1]);
}

} // namespace
} // namespace rc::obs
