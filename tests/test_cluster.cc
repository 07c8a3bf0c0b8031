/**
 * @file
 * Tests for the §8 extensions: the multi-node cluster with
 * locality/sharing/load scheduling (run here at one shard), and the
 * tiered (NVM) caching decorator.
 */

#include <gtest/gtest.h>

#include "cluster/sharded_cluster.hh"
#include "core/ablations.hh"
#include "core/tiered.hh"
#include "exp/experiment.hh"
#include "policy/openwhisk_fixed.hh"
#include "trace/generator.hh"
#include "workload/catalog.hh"

namespace rc::cluster {
namespace {

using rc::sim::kMinute;
using rc::sim::kSecond;

class ClusterTest : public ::testing::Test
{
  protected:
    ClusterTest() : catalog(workload::Catalog::standard20()) {}

    workload::FunctionId
    fid(const char* name) const
    {
        return *catalog.findByShortName(name);
    }

    PolicyFactory
    rainbowFactory() const
    {
        return [this] { return core::makeRainbowCake(catalog); };
    }

    /** Replay @p arrivals on a RainbowCake cluster at one shard. */
    ClusterResult
    runOn(const ClusterConfig& config,
          const std::vector<trace::Arrival>& arrivals) const
    {
        return ShardedCluster(catalog, rainbowFactory(), config)
            .run(arrivals);
    }

    std::vector<trace::Arrival>
    smallWorkload() const
    {
        trace::WorkloadTraceConfig config;
        config.minutes = 60;
        config.targetInvocations = 600;
        config.seed = 13;
        return trace::expandArrivals(
            trace::generateAzureLike(catalog, config));
    }

    workload::Catalog catalog;
};

TEST_F(ClusterTest, RejectsEmptyCluster)
{
    ClusterConfig config;
    config.nodes = 0;
    EXPECT_THROW(ShardedCluster(catalog, rainbowFactory(), config),
                 std::runtime_error);
}

TEST_F(ClusterTest, SchedulingNames)
{
    EXPECT_STREQ(toString(Scheduling::RoundRobin), "round-robin");
    EXPECT_STREQ(toString(Scheduling::LeastLoaded), "least-loaded");
    EXPECT_STREQ(toString(Scheduling::LocalityAware), "locality-aware");
}

TEST_F(ClusterTest, RoundRobinRotates)
{
    ClusterConfig config;
    config.nodes = 3;
    config.scheduling = Scheduling::RoundRobin;
    std::vector<trace::Arrival> arrivals;
    for (int i = 0; i < 9; ++i)
        arrivals.push_back({i * kMinute, fid("MD-Py")});
    const auto result = runOn(config, arrivals);
    EXPECT_EQ(result.invocations, 9u);
    ASSERT_EQ(result.perNodeInvocations.size(), 3u);
    for (const auto count : result.perNodeInvocations)
        EXPECT_EQ(count, 3u);
}

TEST_F(ClusterTest, LocalityRoutesToWarmNode)
{
    ClusterConfig config;
    config.nodes = 4;
    config.scheduling = Scheduling::LocalityAware;
    // Repeated invocations of one sparse function must converge onto
    // a single node (the one holding its warm container).
    std::vector<trace::Arrival> arrivals;
    for (int i = 0; i < 10; ++i)
        arrivals.push_back({i * kMinute, fid("DS-Java")});
    const auto result = runOn(config, arrivals);
    std::size_t active = 0;
    for (const auto count : result.perNodeInvocations)
        active += (count > 0) ? 1 : 0;
    EXPECT_EQ(active, 1u);
    // And everything after the first arrival is warm.
    EXPECT_EQ(result.coldStarts, 1u);
}

TEST_F(ClusterTest, RoundRobinWastesWarmthAcrossNodes)
{
    // The same workload under round-robin spreads one function over
    // all nodes and cold-starts far more often.
    std::vector<trace::Arrival> arrivals;
    for (int i = 0; i < 10; ++i)
        arrivals.push_back({i * kMinute, fid("DS-Java")});

    ClusterConfig locality;
    locality.nodes = 4;
    locality.scheduling = Scheduling::LocalityAware;
    const auto localityResult = runOn(locality, arrivals);

    ClusterConfig rr;
    rr.nodes = 4;
    rr.scheduling = Scheduling::RoundRobin;
    const auto rrResult = runOn(rr, arrivals);

    EXPECT_GT(rrResult.coldStarts, localityResult.coldStarts);
    EXPECT_GT(rrResult.totalStartupSeconds,
              localityResult.totalStartupSeconds);
}

TEST_F(ClusterTest, AllInvocationsServedUnderEveryScheduling)
{
    const auto arrivals = smallWorkload();
    for (const auto scheduling :
         {Scheduling::RoundRobin, Scheduling::LeastLoaded,
          Scheduling::LocalityAware}) {
        ClusterConfig config;
        config.nodes = 4;
        config.scheduling = scheduling;
        const auto result = runOn(config, arrivals);
        EXPECT_EQ(result.invocations, arrivals.size())
            << toString(scheduling);
        EXPECT_EQ(result.strandedInvocations, 0u) << toString(scheduling);
        EXPECT_GT(result.totalStartupSeconds, 0.0);
    }
}

TEST_F(ClusterTest, LeastLoadedBalancesBetterThanLocality)
{
    const auto arrivals = smallWorkload();
    auto imbalance = [](const ClusterResult& result) {
        std::uint64_t lo = result.perNodeInvocations[0];
        std::uint64_t hi = lo;
        for (const auto count : result.perNodeInvocations) {
            lo = std::min(lo, count);
            hi = std::max(hi, count);
        }
        return hi - lo;
    };
    ClusterConfig ll;
    ll.nodes = 4;
    ll.scheduling = Scheduling::LeastLoaded;
    ClusterConfig la;
    la.nodes = 4;
    la.scheduling = Scheduling::LocalityAware;
    const auto balanced = runOn(ll, arrivals);
    const auto local = runOn(la, arrivals);
    EXPECT_LE(imbalance(balanced), imbalance(local));
}

TEST_F(ClusterTest, LocalityBeatsBlindSchedulingOnStartup)
{
    const auto arrivals = smallWorkload();
    auto runWith = [&](Scheduling scheduling) {
        ClusterConfig config;
        config.nodes = 4;
        config.scheduling = scheduling;
        return runOn(config, arrivals);
    };
    const auto locality = runWith(Scheduling::LocalityAware);
    const auto rr = runWith(Scheduling::RoundRobin);
    EXPECT_LT(locality.totalStartupSeconds, rr.totalStartupSeconds);
}

TEST_F(ClusterTest, NodeCrashesFailOverWithoutLosingWork)
{
    const auto arrivals = smallWorkload();
    ClusterConfig config;
    config.nodes = 3;
    config.node.fault.nodeMtbfSeconds = 300.0; // crashes over the hour
    config.node.fault.nodeDowntimeSeconds = 20.0;
    config.node.fault.maxRetries = 8;
    const auto result = runOn(config, arrivals);
    EXPECT_GT(result.nodeCrashes, 0u);
    EXPECT_GT(result.reroutedInvocations, 0u);
    // Failover conservation: re-routing shifts work between nodes but
    // every arrival still reaches exactly one terminal state.
    EXPECT_EQ(result.invocations + result.failedInvocations +
                  result.strandedInvocations,
              arrivals.size());
}

TEST_F(ClusterTest, CrashScheduleIsIndependentOfScheduling)
{
    // Cluster crash times are pre-drawn per node from a dedicated Rng
    // stream, so changing the routing policy must not move them.
    const auto arrivals = smallWorkload();
    auto crashesWith = [&](Scheduling scheduling) {
        ClusterConfig config;
        config.nodes = 3;
        config.scheduling = scheduling;
        config.node.fault.nodeMtbfSeconds = 300.0;
        config.node.fault.nodeDowntimeSeconds = 20.0;
        return runOn(config, arrivals).nodeCrashes;
    };
    EXPECT_EQ(crashesWith(Scheduling::RoundRobin),
              crashesWith(Scheduling::LocalityAware));
}

} // namespace
} // namespace rc::cluster

namespace rc::core {
namespace {

using rc::sim::kMinute;

class TieredTest : public ::testing::Test
{
  protected:
    TieredTest() : catalog(workload::Catalog::standard20()) {}

    workload::FunctionId
    fid(const char* name) const
    {
        return *catalog.findByShortName(name);
    }

    workload::Catalog catalog;
};

TEST_F(TieredTest, ValidatesConfig)
{
    EXPECT_THROW(TieredCachePolicy(nullptr, {}), std::runtime_error);
    TieredConfig bad;
    bad.nvmCostFactor = 0.0;
    EXPECT_THROW(TieredCachePolicy(makeRainbowCake(catalog), bad),
                 std::runtime_error);
    bad.nvmCostFactor = 1.5;
    EXPECT_THROW(TieredCachePolicy(makeRainbowCake(catalog), bad),
                 std::runtime_error);
    TieredConfig negative;
    negative.nvmFetchLatency = -1;
    EXPECT_THROW(TieredCachePolicy(makeRainbowCake(catalog), negative),
                 std::runtime_error);
}

TEST_F(TieredTest, NameAdvertisesTier)
{
    TieredCachePolicy policy(makeRainbowCake(catalog));
    EXPECT_EQ(policy.name(), "RainbowCake + NVM tier");
}

TEST_F(TieredTest, PartialStartsPayFetchLatency)
{
    TieredConfig config;
    config.nvmFetchLatency = 100 * sim::kMillisecond;
    platform::Node plain(catalog, makeRainbowCake(catalog));
    platform::Node tiered(catalog,
                          std::make_unique<TieredCachePolicy>(
                              makeRainbowCake(catalog), config));
    // Force a Lang hit on both nodes: MD executes, downgrades, then a
    // same-language function arrives.
    for (auto* node : {&plain, &tiered}) {
        node->invokeNow(fid("MD-Py"));
        node->advanceTo(4 * kMinute);
        node->invokeNow(fid("GB-Py"));
        node->engine().run();
        node->finalize();
    }
    const auto& plainRec = plain.metrics().records()[1];
    const auto& tieredRec = tiered.metrics().records()[1];
    ASSERT_EQ(plainRec.type, platform::StartupType::Lang);
    ASSERT_EQ(tieredRec.type, platform::StartupType::Lang);
    EXPECT_EQ(tieredRec.startupLatency - plainRec.startupLatency,
              config.nvmFetchLatency);
}

TEST_F(TieredTest, RepricingDiscountsSharedLayers)
{
    stats::IntervalLog log;
    stats::IdleInterval user;
    user.begin = 0;
    user.end = sim::kSecond;
    user.memoryMb = 100.0;
    user.layer = workload::Layer::User;
    stats::IdleInterval lang = user;
    lang.layer = workload::Layer::Lang;
    log.record(user);
    log.record(lang);

    TieredConfig config;
    config.nvmCostFactor = 0.25;
    EXPECT_DOUBLE_EQ(pricedWasteMbSeconds(log, config),
                     100.0 + 100.0 * 0.25);
    // Factor 1.0 degenerates to the flat DRAM price.
    TieredConfig flat;
    flat.nvmCostFactor = 1.0;
    EXPECT_DOUBLE_EQ(pricedWasteMbSeconds(log, flat),
                     log.totalWasteMbSeconds());
}

} // namespace
} // namespace rc::core
