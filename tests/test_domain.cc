/**
 * @file
 * Correlated failure domains and the layer-aware recovery
 * orchestrator: plan parsing and validation, deterministic schedule
 * draws, and end-to-end cluster runs checked against the shared
 * conservation identities (cluster/conservation.hh).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/conservation.hh"
#include "core/ablations.hh"
#include "exp/cluster_run.hh"
#include "fault/domain_plan.hh"
#include "trace/generator.hh"
#include "trace/replay.hh"
#include "workload/catalog.hh"

namespace rc {
namespace {

std::vector<trace::Arrival>
standardArrivals(std::size_t minutes = 30, std::uint64_t seed = 4242)
{
    const auto catalog = workload::Catalog::standard20();
    trace::WorkloadTraceConfig config;
    config.minutes = minutes;
    config.targetInvocations = minutes * 40;
    config.seed = seed;
    return trace::expandArrivals(
        trace::generateAzureLike(catalog, config));
}

cluster::ClusterResult
runWithPlan(const fault::DomainPlan& plan,
            const std::vector<trace::Arrival>& arrivals,
            std::size_t shards = 2)
{
    const auto catalog = workload::Catalog::standard20();
    exp::ClusterRunConfig config;
    config.nodes = 8;
    config.shards = shards;
    config.node.pool.memoryBudgetMb = 8192.0;
    config.node.fault.domain = plan;
    return exp::runCluster(
        catalog,
        [&catalog] { return core::makeRainbowCake(catalog); },
        arrivals, config);
}

// ---- plan data -------------------------------------------------------

TEST(DomainPlan, DefaultIsInert)
{
    const fault::DomainPlan plan;
    EXPECT_FALSE(plan.active());
}

TEST(DomainPlan, AnyOutageSourceActivates)
{
    fault::DomainPlan rate;
    rate.outageRatePerHour = 0.5;
    EXPECT_TRUE(rate.active());

    fault::DomainPlan scripted;
    scripted.outages.push_back({600.0, 60.0, 0});
    EXPECT_TRUE(scripted.active());

    fault::DomainPlan upgrade;
    upgrade.upgradeRatePerHour = 1.0;
    EXPECT_TRUE(upgrade.active());

    // Recovery shaping alone arms nothing: with no outage source
    // there is nothing to recover from.
    fault::DomainPlan shaping;
    shaping.stagedRejoin = true;
    shaping.prewarmEnabled = true;
    shaping.retryFeedbackEnabled = true;
    EXPECT_FALSE(shaping.active());
}

TEST(DomainPlan, ParsesNestedJson)
{
    const std::string text = R"({
        "domain_count": 2,
        "outage_rate_per_hour": 1.5,
        "outage_duration_seconds": 90,
        "staged_rejoin": true,
        "rejoin_tokens_per_second": 0.5,
        "prewarm_enabled": true,
        "prewarm_max_layers": 32,
        "warmup_timeout_seconds": 12,
        "retry_feedback_enabled": true,
        "retry_backoff_seconds": 3,
        "retry_max_attempts": 4,
        "domains": [[0, 2, 4], [1, 3, 5]],
        "outages": [{"start_seconds": 600, "duration_seconds": 90,
                     "domain": 1}]
    })";
    fault::DomainPlan plan;
    std::string error;
    ASSERT_TRUE(fault::parseDomainPlan(text, plan, &error)) << error;
    EXPECT_EQ(plan.domainCount, 2u);
    EXPECT_DOUBLE_EQ(plan.outageRatePerHour, 1.5);
    EXPECT_DOUBLE_EQ(plan.outageDurationSeconds, 90.0);
    EXPECT_TRUE(plan.stagedRejoin);
    EXPECT_DOUBLE_EQ(plan.rejoinTokensPerSecond, 0.5);
    EXPECT_TRUE(plan.prewarmEnabled);
    EXPECT_EQ(plan.prewarmMaxLayers, 32u);
    EXPECT_DOUBLE_EQ(plan.warmupTimeoutSeconds, 12.0);
    EXPECT_TRUE(plan.retryFeedbackEnabled);
    EXPECT_EQ(plan.retryMaxAttempts, 4u);
    ASSERT_EQ(plan.domains.size(), 2u);
    EXPECT_EQ(plan.domains[0], (std::vector<std::uint32_t>{0, 2, 4}));
    ASSERT_EQ(plan.outages.size(), 1u);
    EXPECT_DOUBLE_EQ(plan.outages[0].startSeconds, 600.0);
    EXPECT_EQ(plan.outages[0].domain, 1u);
    EXPECT_TRUE(plan.active());
}

TEST(DomainPlan, EmptyObjectParsesInert)
{
    fault::DomainPlan plan;
    ASSERT_TRUE(fault::parseDomainPlan("{}", plan));
    EXPECT_FALSE(plan.active());
}

TEST(DomainPlan, RejectsUnknownKey)
{
    fault::DomainPlan plan;
    std::string error;
    EXPECT_FALSE(fault::parseDomainPlan(
        R"({"outage_rate_per_hr": 1.0})", plan, &error));
    EXPECT_FALSE(error.empty());
}

TEST(DomainPlan, RejectsMalformedJson)
{
    fault::DomainPlan plan;
    EXPECT_FALSE(fault::parseDomainPlan(
        R"({"domain_count": 2,)", plan));
    EXPECT_FALSE(fault::parseDomainPlan("", plan));
    EXPECT_FALSE(fault::parseDomainPlan("[1, 2]", plan));
}

TEST(DomainPlan, RejectsNegativeRates)
{
    fault::DomainPlan plan;
    std::string error;
    EXPECT_FALSE(fault::parseDomainPlan(
        R"({"outage_rate_per_hour": -1.0})", plan, &error));
    EXPECT_FALSE(fault::parseDomainPlan(
        R"({"rejoin_tokens_per_second": -0.5})", plan, &error));
    EXPECT_FALSE(fault::parseDomainPlan(
        R"({"outages": [{"start_seconds": -5, "duration_seconds": 10,
                         "domain": 0}]})",
        plan, &error));
}

TEST(DomainPlan, RejectsSecondsPastTheKnobBound)
{
    fault::DomainPlan plan;
    std::string error;
    EXPECT_FALSE(fault::parseDomainPlan(
        R"({"outages": [{"start_seconds": 1e300, "duration_seconds": 10,
                         "domain": 0}]})",
        plan, &error));
    EXPECT_NE(error.find("start_seconds"), std::string::npos);
    EXPECT_FALSE(fault::parseDomainPlan(
        R"({"outages": [{"start_seconds": 60, "duration_seconds": 2e9,
                         "domain": 0}]})",
        plan, &error));
    EXPECT_FALSE(fault::parseDomainPlan(
        R"({"retry_backoff_seconds": 1e12})", plan, &error));
    EXPECT_TRUE(fault::parseDomainPlan(
        R"({"outages": [{"start_seconds": 1e9, "duration_seconds": 1e9,
                         "domain": 0}]})",
        plan, &error))
        << error;
}

TEST(DomainPlan, RejectsNodeIdsPastUint32)
{
    // 2^32 + 1 used to wrap to node 1 and pass validation.
    fault::DomainPlan plan;
    std::string error;
    EXPECT_FALSE(fault::parseDomainPlan(
        R"({"domain_count": 2, "domains": [[0, 4294967297], [1]]})", plan,
        &error));
    EXPECT_NE(error.find("non-negative integers"), std::string::npos);
    EXPECT_FALSE(fault::parseDomainPlan(
        R"({"domain_count": 2, "domains": [[0, 1e300], [1]]})", plan,
        &error));
    // The largest id parses; validation against the fleet rejects it.
    ASSERT_TRUE(fault::parseDomainPlan(
        R"({"domain_count": 2, "domains": [[0, 4294967295], [1]]})", plan,
        &error))
        << error;
    EXPECT_EQ(plan.domains[0][1], 4294967295u);
    EXPECT_FALSE(fault::validateDomainPlan(plan, 4, &error));
}

TEST(DomainPlan, RejectsOverlappingScriptedWindows)
{
    // Two windows of the same domain overlapping is contradictory;
    // windows of different domains may overlap freely.
    fault::DomainPlan plan;
    std::string error;
    EXPECT_FALSE(fault::parseDomainPlan(
        R"({"outages": [
            {"start_seconds": 100, "duration_seconds": 60, "domain": 0},
            {"start_seconds": 130, "duration_seconds": 60, "domain": 0}
        ]})",
        plan, &error));
    EXPECT_TRUE(fault::parseDomainPlan(
        R"({"outages": [
            {"start_seconds": 100, "duration_seconds": 60, "domain": 0},
            {"start_seconds": 130, "duration_seconds": 60, "domain": 1}
        ]})",
        plan, &error))
        << error;
}

TEST(DomainPlan, ValidateChecksNodeIdsAndDomainCount)
{
    fault::DomainPlan plan;
    plan.domainCount = 2;
    plan.domains = {{0, 1}, {2, 9}};
    std::string error;
    EXPECT_FALSE(fault::validateDomainPlan(plan, 4, &error));
    EXPECT_FALSE(error.empty());

    plan.domains = {{0, 1}, {2, 3}};
    EXPECT_TRUE(fault::validateDomainPlan(plan, 4, &error)) << error;

    // A scripted outage naming a domain past domainCount is a typo.
    plan.outages.push_back({60.0, 30.0, 5});
    EXPECT_FALSE(fault::validateDomainPlan(plan, 4, &error));
    plan.outages.clear();

    fault::DomainPlan wide;
    wide.domainCount = 9;
    EXPECT_FALSE(fault::validateDomainPlan(wide, 4, &error));
}

TEST(DomainPlan, DomainMembersModuloAndExplicit)
{
    fault::DomainPlan plan;
    plan.domainCount = 3;
    EXPECT_EQ(fault::domainMembers(plan, 0, 8),
              (std::vector<std::uint32_t>{0, 3, 6}));
    EXPECT_EQ(fault::domainMembers(plan, 2, 8),
              (std::vector<std::uint32_t>{2, 5}));

    plan.domains = {{7, 1}, {0}, {2, 3}};
    // Explicit membership wins and comes back ascending.
    EXPECT_EQ(fault::domainMembers(plan, 0, 8),
              (std::vector<std::uint32_t>{1, 7}));
    EXPECT_EQ(fault::domainMembers(plan, 1, 8),
              (std::vector<std::uint32_t>{0}));
}

// ---- schedule draws --------------------------------------------------

TEST(DomainSchedule, OutageDrawsAreDeterministicAndDisjoint)
{
    fault::DomainPlan plan;
    plan.domainCount = 4;
    plan.outageRatePerHour = 6.0;
    plan.outageDurationSeconds = 45.0;
    const sim::Tick horizon = sim::fromSeconds(4 * 3600.0);
    const auto a = fault::drawOutageSchedule(plan, 99, 8, horizon);
    const auto b = fault::drawOutageSchedule(plan, 99, 8, horizon);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].at, b[i].at);
        EXPECT_EQ(a[i].downUntil, b[i].downUntil);
        EXPECT_EQ(a[i].nodes, b[i].nodes);
    }
    // Waves never overlap in time and struck sets are real domains.
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_LT(a[i].at, a[i].downUntil);
        if (i > 0) {
            EXPECT_GE(a[i].at, a[i - 1].downUntil);
        }
        EXPECT_FALSE(a[i].nodes.empty());
        for (const auto node : a[i].nodes)
            EXPECT_LT(node, 8u);
    }
}

TEST(DomainSchedule, ZeroRateDrawsNothing)
{
    const fault::DomainPlan plan;
    EXPECT_TRUE(fault::drawOutageSchedule(
                    plan, 99, 8, sim::fromSeconds(3600.0))
                    .empty());
    EXPECT_TRUE(fault::drawUpgradeSchedule(
                    plan, 99, 8, sim::fromSeconds(3600.0))
                    .empty());
}

TEST(DomainSchedule, ScriptedOutagesReplayVerbatim)
{
    fault::DomainPlan plan;
    plan.domainCount = 2;
    plan.outages.push_back({600.0, 90.0, 1});
    const auto waves = fault::drawOutageSchedule(
        plan, 7, 8, sim::fromSeconds(3600.0));
    ASSERT_EQ(waves.size(), 1u);
    EXPECT_EQ(waves[0].at, sim::fromSeconds(600.0));
    EXPECT_EQ(waves[0].downUntil, sim::fromSeconds(690.0));
    EXPECT_EQ(waves[0].nodes, (std::vector<std::uint32_t>{1, 3, 5, 7}));
}

TEST(DomainSchedule, UpgradeWavesStaggerInsideTheDomain)
{
    fault::DomainPlan plan;
    plan.domainCount = 2;
    plan.upgradeRatePerHour = 2.0;
    plan.upgradeStaggerSeconds = 10.0;
    const auto drains = fault::drawUpgradeSchedule(
        plan, 11, 8, sim::fromSeconds(4 * 3600.0));
    ASSERT_FALSE(drains.empty());
    // Each wave drains one domain (4 of 8 nodes) 10 s apart.
    ASSERT_EQ(drains.size() % 4, 0u);
    for (std::size_t w = 0; w + 4 <= drains.size(); w += 4) {
        for (std::size_t i = 1; i < 4; ++i) {
            EXPECT_EQ(drains[w + i].drainAt - drains[w + i - 1].drainAt,
                      sim::fromSeconds(10.0));
        }
    }
}

// ---- end-to-end recovery runs ----------------------------------------

TEST(DomainRecovery, ScriptedOutageRecoversAndConserves)
{
    fault::DomainPlan plan;
    plan.domainCount = 2;
    plan.outages.push_back({600.0, 120.0, 0});
    plan.stagedRejoin = true;
    plan.rejoinTokensPerSecond = 0.5;
    plan.prewarmEnabled = true;
    plan.retryFeedbackEnabled = true;
    plan.retryBackoffSeconds = 2.0;
    plan.retryMaxAttempts = 2;
    const auto arrivals = standardArrivals();
    const auto result = runWithPlan(plan, arrivals);

    EXPECT_EQ(result.domainOutages, 1u);
    EXPECT_EQ(result.outageNodeEpisodes, 4u);
    EXPECT_GT(result.nodeCrashes, 0u);
    EXPECT_TRUE(cluster::conservation::recoveryIdentity(
        result.recoveredNodes, result.outageNodeEpisodes,
        result.upgradeEpisodes, result.nodesDrained,
        result.nodesKilled));
    EXPECT_TRUE(cluster::conservation::prewarmIdentity(
        result.prewarmLayers, result.prewarmHit, result.prewarmEvicted,
        result.prewarmWasted));
    EXPECT_TRUE(cluster::conservation::admissionIdentity(
        result.admittedInvocations, arrivals.size(),
        result.reroutedInvocations, result.hedgesLaunched,
        result.retriesFeedback));
    EXPECT_TRUE(cluster::conservation::fleetConservation(
        result.invocations, result.failedInvocations,
        result.strandedInvocations, result.reroutedInvocations,
        result.rejectedInvocations, result.shedDeadline,
        result.shedPressure, result.cancelledInvocations,
        result.admittedInvocations));
}

TEST(DomainRecovery, StagedRejoinWaitsWhereNaiveDoesNot)
{
    fault::DomainPlan naive;
    naive.domainCount = 2;
    naive.outages.push_back({600.0, 120.0, 0});
    naive.stagedRejoin = false;
    naive.prewarmEnabled = false;

    fault::DomainPlan staged = naive;
    staged.stagedRejoin = true;
    staged.rejoinTokensPerSecond = 0.25;

    const auto arrivals = standardArrivals();
    const auto naiveResult = runWithPlan(naive, arrivals);
    const auto stagedResult = runWithPlan(staged, arrivals);

    // The herd pays no token wait; the staged arm's nodes queue for
    // tokens (4 nodes at 0.25/s: 0 + 4 + 8 + 12 s of wait).
    EXPECT_DOUBLE_EQ(naiveResult.rejoinWaitSeconds, 0.0);
    EXPECT_GT(stagedResult.rejoinWaitSeconds, 0.0);
    EXPECT_EQ(naiveResult.prewarmLayers, 0u);
    EXPECT_EQ(stagedResult.recoveredNodes, 4u);
}

TEST(DomainRecovery, PrewarmRebuildsLayersThatGetHit)
{
    fault::DomainPlan plan;
    plan.domainCount = 2;
    plan.outages.push_back({600.0, 120.0, 0});
    plan.stagedRejoin = true;
    plan.prewarmEnabled = true;
    plan.prewarmMaxLayers = 64;
    const auto arrivals = standardArrivals();
    const auto result = runWithPlan(plan, arrivals);

    EXPECT_GT(result.prewarmLayers, 0u);
    EXPECT_TRUE(cluster::conservation::prewarmIdentity(
        result.prewarmLayers, result.prewarmHit, result.prewarmEvicted,
        result.prewarmWasted));
}

TEST(DomainRecovery, RollingUpgradeDrainsEveryNodeOnce)
{
    fault::DomainPlan plan;
    plan.domainCount = 4;
    plan.upgradeRatePerHour = 4.0;
    plan.upgradeDurationSeconds = 20.0;
    plan.upgradeStaggerSeconds = 5.0;
    plan.drainTimeoutSeconds = 30.0;
    const auto arrivals = standardArrivals();
    const auto result = runWithPlan(plan, arrivals);

    EXPECT_GT(result.upgradeEpisodes, 0u);
    EXPECT_EQ(result.nodesDrained + result.nodesKilled,
              result.upgradeEpisodes);
    EXPECT_TRUE(cluster::conservation::recoveryIdentity(
        result.recoveredNodes, result.outageNodeEpisodes,
        result.upgradeEpisodes, result.nodesDrained,
        result.nodesKilled));
}

} // namespace
} // namespace rc
