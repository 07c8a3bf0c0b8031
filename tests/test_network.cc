/**
 * @file
 * Gray-failure network model + tail-tolerant scheduling: plan
 * parsing/validation, sampler determinism and tail shape, degraded /
 * partition schedule draws, the quarantine FSM, hedged dispatch
 * accounting identities, shard-count bit-identity under a gray plan,
 * and span-tree validity for hedged invocation trees.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/node_health.hh"
#include "core/ablations.hh"
#include "exp/cluster_run.hh"
#include "fault/fault_plan.hh"
#include "fault/network_plan.hh"
#include "obs/observer.hh"
#include "obs/span.hh"
#include "sim/rng.hh"
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

/** A gray plan that exercises every injection + mitigation knob. */
fault::NetworkPlan
grayPlan()
{
    fault::NetworkPlan net;
    net.linkDelayMeanMs = 5.0;
    net.linkHeavyTailProb = 0.05;
    net.linkHeavyTailFactor = 40.0;
    net.msgDropProb = 0.02;
    net.degradedRatePerHour = 20.0;
    net.degradedDurationSeconds = 120.0;
    net.degradedExecSlowdown = 10.0;
    net.degradedInitSlowdown = 10.0;
    net.partitionRatePerHour = 4.0;
    net.partitionDurationSeconds = 20.0;
    net.hedgeEnabled = true;
    net.hedgeLatencyFactor = 1.0;
    net.hedgeMinSamples = 20;
    net.hedgeMinBudgetMs = 100.0;
    net.quarantineEnabled = true;
    net.quarantineLatencyFactor = 3.0;
    net.quarantineMinSamples = 10;
    net.quarantineDrainSeconds = 30.0;
    net.quarantineProbeCount = 3;
    net.quarantineReadmitFactor = 1.5;
    return net;
}

std::string
fingerprint(const cluster::ClusterResult& result)
{
    std::ostringstream out;
    exp::writeClusterSummaryCsv(out, result);
    exp::writeClusterPerNodeCsv(out, result);
    return out.str();
}

cluster::ClusterResult
runGray(const std::vector<trace::Arrival>& arrivals,
        const fault::NetworkPlan& net, std::size_t shards,
        obs::Observer* observer = nullptr, std::size_t nodes = 8)
{
    const auto catalog = workload::Catalog::standard20();
    exp::ClusterRunConfig config;
    config.nodes = nodes;
    config.shards = shards;
    config.threads = shards;
    config.node.pool.memoryBudgetMb = 8192.0;
    config.node.fault.network = net;
    config.node.observer = observer;
    return exp::runCluster(
        catalog,
        [catalog] { return core::makeRainbowCake(catalog); }, arrivals,
        config);
}

// ---- plan parsing / validation -----------------------------------------

TEST(NetworkPlan, ZeroKnobPlanIsInactive)
{
    fault::NetworkPlan net;
    EXPECT_FALSE(net.activeInjection());
    EXPECT_FALSE(net.mitigationEnabled());
    EXPECT_FALSE(net.active());

    fault::NetworkPlan inject;
    inject.degradedRatePerHour = 1.0;
    EXPECT_TRUE(inject.activeInjection());
    EXPECT_TRUE(inject.active());

    fault::NetworkPlan mitigate;
    mitigate.hedgeEnabled = true;
    EXPECT_FALSE(mitigate.activeInjection());
    EXPECT_TRUE(mitigate.mitigationEnabled());
    EXPECT_TRUE(mitigate.active());
}

TEST(NetworkPlan, ParseRoundTripsGrayKnobs)
{
    fault::FaultPlan plan;
    std::string error;
    ASSERT_TRUE(fault::parseFaultPlan(
        R"({"net_link_delay_mean_ms": 5, "net_heavy_tail_prob": 0.1,)"
        R"( "net_msg_drop_prob": 0.02, "net_degraded_rate_per_hour": 6,)"
        R"( "net_partition_rate_per_hour": 2, "hedge_enabled": true,)"
        R"( "hedge_min_samples": 25, "quarantine_enabled": true,)"
        R"( "quarantine_drain_seconds": 45})",
        plan, &error))
        << error;
    EXPECT_DOUBLE_EQ(plan.network.linkDelayMeanMs, 5.0);
    EXPECT_DOUBLE_EQ(plan.network.linkHeavyTailProb, 0.1);
    EXPECT_DOUBLE_EQ(plan.network.msgDropProb, 0.02);
    EXPECT_DOUBLE_EQ(plan.network.degradedRatePerHour, 6.0);
    EXPECT_DOUBLE_EQ(plan.network.partitionRatePerHour, 2.0);
    EXPECT_TRUE(plan.network.hedgeEnabled);
    EXPECT_EQ(plan.network.hedgeMinSamples, 25u);
    EXPECT_TRUE(plan.network.quarantineEnabled);
    EXPECT_DOUBLE_EQ(plan.network.quarantineDrainSeconds, 45.0);
    EXPECT_TRUE(plan.network.active());
    // The network dimension does not arm the node-local injector.
    EXPECT_FALSE(plan.active());
}

TEST(NetworkPlan, ParseRejectsInvalidGrayKnobs)
{
    fault::FaultPlan plan;
    std::string error;
    EXPECT_FALSE(
        fault::parseFaultPlan(R"({"hedge_latency_factor": 0.5})", plan,
                              &error));
    EXPECT_NE(error.find("hedge_latency_factor"), std::string::npos);
    EXPECT_FALSE(fault::parseFaultPlan(
        R"({"net_degraded_exec_slowdown": 0.9})", plan, &error));
    EXPECT_FALSE(fault::parseFaultPlan(
        R"({"quarantine_enabled": true, "quarantine_probe_count": 0})",
        plan, &error));
    EXPECT_FALSE(fault::parseFaultPlan(
        R"({"net_msg_drop_prob": 1.5})", plan, &error));
}

// ---- delivery sampler ---------------------------------------------------

TEST(NetworkSampler, ZeroKnobPlanDrawsNothing)
{
    fault::NetworkSampler sampler(fault::NetworkPlan{},
                                  sim::Rng(1).stream("net"));
    for (int i = 0; i < 100; ++i) {
        const auto d = sampler.sample();
        EXPECT_EQ(d.delay, 0);
        EXPECT_EQ(d.drops, 0u);
    }
}

TEST(NetworkSampler, SequencesAreDeterministicPerSeed)
{
    fault::NetworkPlan net;
    net.linkDelayMeanMs = 10.0;
    net.linkHeavyTailProb = 0.1;
    net.msgDropProb = 0.1;
    fault::NetworkSampler a(net, sim::Rng(7).stream("net"));
    fault::NetworkSampler b(net, sim::Rng(7).stream("net"));
    fault::NetworkSampler c(net, sim::Rng(8).stream("net"));
    bool differs = false;
    for (int i = 0; i < 500; ++i) {
        const auto da = a.sample();
        const auto db = b.sample();
        const auto dc = c.sample();
        EXPECT_EQ(da.delay, db.delay);
        EXPECT_EQ(da.drops, db.drops);
        differs = differs || da.delay != dc.delay;
    }
    EXPECT_TRUE(differs);
}

TEST(NetworkSampler, HeavyTailMixtureInflatesTheTail)
{
    fault::NetworkPlan body;
    body.linkDelayMeanMs = 10.0;
    fault::NetworkPlan tail = body;
    tail.linkHeavyTailProb = 0.1;
    tail.linkHeavyTailFactor = 50.0;
    fault::NetworkSampler bodySampler(body, sim::Rng(3).stream("net"));
    fault::NetworkSampler tailSampler(tail, sim::Rng(3).stream("net"));
    sim::Tick bodyMax = 0;
    sim::Tick tailMax = 0;
    for (int i = 0; i < 2000; ++i) {
        bodyMax = std::max(bodyMax, bodySampler.sample().delay);
        tailMax = std::max(tailMax, tailSampler.sample().delay);
    }
    // The 50x mixture mode dominates the maximum by a wide margin.
    EXPECT_GT(tailMax, 5 * bodyMax);
}

TEST(NetworkSampler, RetransmitsAreCappedAndAlwaysDeliver)
{
    fault::NetworkPlan net;
    net.msgDropProb = 1.0; // pathological: every send drops
    net.msgRetransmitMs = 100.0;
    fault::NetworkSampler sampler(net, sim::Rng(5).stream("net"));
    const auto d = sampler.sample();
    EXPECT_EQ(d.drops, 8u); // kMaxRetransmits
    EXPECT_EQ(d.delay, sim::fromSeconds(0.8));
}

// ---- schedule draws -----------------------------------------------------

TEST(NetworkPlan, DegradedWindowsAreSortedDisjointAndSeedStable)
{
    fault::NetworkPlan net;
    net.degradedRatePerHour = 30.0;
    net.degradedDurationSeconds = 60.0;
    net.degradedExecSlowdown = 4.0;
    const sim::Tick horizon = sim::fromSeconds(3600.0);
    const auto a = fault::drawDegradedWindows(net, 42, 6, horizon);
    const auto b = fault::drawDegradedWindows(net, 42, 6, horizon);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    std::vector<sim::Tick> lastEnd(6, 0);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].start, b[i].start);
        EXPECT_EQ(a[i].node, b[i].node);
        EXPECT_LT(a[i].start, a[i].end);
        EXPECT_DOUBLE_EQ(a[i].execFactor, 4.0);
        if (i > 0) {
            EXPECT_TRUE(a[i - 1].start < a[i].start ||
                        (a[i - 1].start == a[i].start &&
                         a[i - 1].node < a[i].node));
        }
        // Per-node windows never overlap.
        EXPECT_GE(a[i].start, lastEnd[a[i].node]);
        lastEnd[a[i].node] = a[i].end;
    }
    // A zero-knob plan draws nothing at all.
    EXPECT_TRUE(fault::drawDegradedWindows(fault::NetworkPlan{}, 42, 6,
                                           horizon)
                    .empty());
}

TEST(NetworkPlan, PartitionScheduleNeverOverlapsAndSizesTheSeveredSet)
{
    fault::NetworkPlan net;
    net.partitionRatePerHour = 12.0;
    net.partitionDurationSeconds = 30.0;
    net.partitionFraction = 0.25;
    const sim::Tick horizon = sim::fromSeconds(3600.0);
    const auto events =
        fault::drawPartitionSchedule(net, 42, 8, horizon);
    ASSERT_FALSE(events.empty());
    sim::Tick lastEnd = 0;
    for (const auto& ev : events) {
        EXPECT_GE(ev.start, lastEnd);
        EXPECT_LT(ev.start, ev.end);
        lastEnd = ev.end;
        // ceil(0.25 * 8) = 2 distinct ascending nodes.
        ASSERT_EQ(ev.nodes.size(), 2u);
        EXPECT_LT(ev.nodes[0], ev.nodes[1]);
        EXPECT_LT(ev.nodes[1], 8u);
    }
    const auto again = fault::drawPartitionSchedule(net, 42, 8, horizon);
    ASSERT_EQ(again.size(), events.size());
    EXPECT_EQ(again.front().nodes, events.front().nodes);
}

// ---- quarantine FSM (unit) ---------------------------------------------

TEST(NodeHealth, QuarantineFsmFollowsLegalTransitions)
{
    fault::NetworkPlan net;
    net.quarantineEnabled = true;
    net.quarantineLatencyFactor = 3.0;
    net.quarantineMinSamples = 5;
    net.quarantineDrainSeconds = 10.0;
    net.quarantineProbeCount = 2;
    net.quarantineReadmitFactor = 1.5;
    cluster::NodeHealthTracker health(net, 3);

    // Nodes 1 and 2 are healthy at 0.1 s; node 0 crawls at 1 s.
    for (int i = 0; i < 6; ++i) {
        health.recordLatency(0, 1.0, sim::fromSeconds(1.0));
        health.recordLatency(1, 0.1, sim::fromSeconds(1.0));
        health.recordLatency(2, 0.1, sim::fromSeconds(1.0));
    }
    health.refresh(sim::fromSeconds(2.0));
    EXPECT_TRUE(health.quarantined(0));
    EXPECT_FALSE(health.quarantined(1));
    EXPECT_EQ(health.quarantines(), 1u);

    // Still quarantined inside the drain; probation after it.
    health.refresh(sim::fromSeconds(5.0));
    EXPECT_TRUE(health.quarantined(0));
    health.refresh(sim::fromSeconds(13.0));
    EXPECT_EQ(health.state(0),
              cluster::NodeHealthTracker::State::Probation);
    EXPECT_TRUE(health.wantsProbe(0));

    // One probe at a time; two healthy probes readmit.
    health.noteProbeSent(0);
    EXPECT_FALSE(health.wantsProbe(0));
    health.recordLatency(0, 0.1, sim::fromSeconds(14.0));
    EXPECT_TRUE(health.wantsProbe(0));
    health.noteProbeSent(0);
    health.recordLatency(0, 0.1, sim::fromSeconds(15.0));
    EXPECT_EQ(health.state(0),
              cluster::NodeHealthTracker::State::Healthy);
    EXPECT_EQ(health.readmits(), 1u);
    EXPECT_EQ(health.probes(), 2u);

    // Every logged transition is FSM-legal and stamps the old state.
    auto transitions = health.drainTransitions();
    ASSERT_EQ(transitions.size(), 3u);
    using State = cluster::NodeHealthTracker::State;
    EXPECT_EQ(transitions[0].from, State::Healthy);
    EXPECT_EQ(transitions[0].to, State::Quarantined);
    EXPECT_EQ(transitions[1].from, State::Quarantined);
    EXPECT_EQ(transitions[1].to, State::Probation);
    EXPECT_EQ(transitions[2].from, State::Probation);
    EXPECT_EQ(transitions[2].to, State::Healthy);
}

TEST(NodeHealth, ProbeBreachSendsTheNodeBackToQuarantine)
{
    fault::NetworkPlan net;
    net.quarantineEnabled = true;
    net.quarantineMinSamples = 3;
    net.quarantineDrainSeconds = 5.0;
    net.quarantineProbeCount = 3;
    cluster::NodeHealthTracker health(net, 3);
    for (int i = 0; i < 4; ++i) {
        health.recordLatency(0, 2.0, sim::fromSeconds(1.0));
        health.recordLatency(1, 0.1, sim::fromSeconds(1.0));
        health.recordLatency(2, 0.1, sim::fromSeconds(1.0));
    }
    health.refresh(sim::fromSeconds(2.0));
    ASSERT_TRUE(health.quarantined(0));
    health.refresh(sim::fromSeconds(8.0));
    ASSERT_TRUE(health.wantsProbe(0));
    health.noteProbeSent(0);
    // The probe lands slow: straight back to Quarantined.
    health.recordLatency(0, 5.0, sim::fromSeconds(9.0));
    EXPECT_TRUE(health.quarantined(0));
    EXPECT_EQ(health.quarantines(), 2u);
    EXPECT_EQ(health.readmits(), 0u);
}

// ---- cluster integration ------------------------------------------------

TEST(GrayCluster, ResultsAreBitIdenticalAtAnyShardCount)
{
    const auto arrivals = standardArrivals();
    const auto one = runGray(arrivals, grayPlan(), 1);
    const auto two = runGray(arrivals, grayPlan(), 2);
    const auto eight = runGray(arrivals, grayPlan(), 8);
    // The plan must actually exercise the gray machinery for the
    // comparison to mean anything.
    EXPECT_GT(one.msgsDelayed, 0u);
    EXPECT_GT(one.partitions, 0u);
    const std::string golden = fingerprint(one);
    EXPECT_EQ(fingerprint(two), golden);
    EXPECT_EQ(fingerprint(eight), golden);
}

TEST(GrayCluster, MitigationOnlyPlanCompletesEveryArrival)
{
    fault::NetworkPlan net;
    net.hedgeEnabled = true;
    net.quarantineEnabled = true;
    const auto arrivals = standardArrivals();
    const auto result = runGray(arrivals, net, 2);
    // No injection, no crashes: every request completes exactly once.
    EXPECT_EQ(result.invocations,
              arrivals.size() + result.duplicateCompletions);
    EXPECT_EQ(result.hedgesLaunched, result.hedgesWon +
                                         result.hedgesCancelled +
                                         result.hedgesLost);
    EXPECT_EQ(result.quarantineViolations, 0u);
    EXPECT_EQ(result.msgsDelayed, 0u);
    EXPECT_EQ(result.msgsDropped, 0u);
}

TEST(GrayCluster, DegradedWindowsRaiseTheLatencyTail)
{
    fault::NetworkPlan degraded;
    degraded.degradedRatePerHour = 30.0;
    degraded.degradedDurationSeconds = 120.0;
    degraded.degradedExecSlowdown = 10.0;
    degraded.degradedInitSlowdown = 10.0;
    const auto arrivals = standardArrivals();
    const auto slow = runGray(arrivals, degraded, 2);
    const auto clean = runGray(arrivals, fault::NetworkPlan{}, 2);
    EXPECT_EQ(slow.invocations, arrivals.size());
    EXPECT_GT(slow.e2eP99Seconds, clean.e2eP99Seconds);
}

TEST(GrayCluster, HedgeAccountingIdentityHolds)
{
    const auto arrivals = standardArrivals();
    const auto result = runGray(arrivals, grayPlan(), 4);
    EXPECT_GT(result.hedgesLaunched, 0u);
    EXPECT_EQ(result.hedgesLaunched, result.hedgesWon +
                                         result.hedgesCancelled +
                                         result.hedgesLost);
    // Every dispatch is delivered and admitted exactly once.
    EXPECT_EQ(result.admittedInvocations,
              arrivals.size() + result.reroutedInvocations +
                  result.hedgesLaunched);
    // Conservation: every admitted attempt terminates exactly one way.
    // Duplicate completions live inside `invocations` (both sides of a
    // late hedge count as node completions), so they do not appear as
    // their own term.
    EXPECT_EQ(result.invocations + result.failedInvocations +
                  result.strandedInvocations + result.rejectedInvocations +
                  result.shedDeadline + result.shedPressure +
                  result.cancelledInvocations + result.reroutedInvocations,
              result.admittedInvocations);
    EXPECT_GE(result.totalExecSeconds, result.wastedExecSeconds);
    EXPECT_EQ(result.quarantineViolations, 0u);
}

TEST(GrayCluster, QuarantineEngagesProbesAndNeverTakesPrimaries)
{
    fault::NetworkPlan net;
    net.degradedRatePerHour = 20.0;
    net.degradedDurationSeconds = 180.0;
    net.degradedExecSlowdown = 12.0;
    net.degradedInitSlowdown = 12.0;
    net.quarantineEnabled = true;
    net.quarantineMinSamples = 10;
    net.quarantineDrainSeconds = 30.0;
    net.quarantineProbeCount = 3;
    const auto arrivals = standardArrivals(40);
    const auto result = runGray(arrivals, net, 2);
    EXPECT_GT(result.quarantines, 0u);
    EXPECT_GT(result.probes, 0u);
    EXPECT_EQ(result.quarantineViolations, 0u);
}

TEST(GrayCluster, ProbeDisplacedByACrashLeavesItsNodeProbeable)
{
    // Quarantine under frequent crashes: some readmission probes are
    // lost to a crash of the probed node and fail over elsewhere. The
    // crashed node must get its probe slot back. A node whose slot
    // leaks stays in Probation with a probe outstanding, and is never
    // probed, readmitted or routed to again.
    fault::NetworkPlan net = grayPlan();
    net.partitionRatePerHour = 0.0;
    net.degradedRatePerHour = 24.0;
    const std::size_t minutes = 120;
    const auto catalog = workload::Catalog::standard20();
    exp::ClusterRunConfig config;
    config.nodes = 8;
    config.node.pool.memoryBudgetMb = 8192.0;
    config.node.fault.network = net;
    config.node.fault.nodeMtbfSeconds = 300.0;
    config.node.fault.nodeDowntimeSeconds = 20.0;
    obs::ObserverConfig obsConfig;
    obsConfig.traceEnabled = true;
    obs::Observer observer(obsConfig);
    config.node.observer = &observer;
    const auto result = exp::runCluster(
        catalog, [catalog] { return core::makeRainbowCake(catalog); },
        standardArrivals(minutes), config);
    ASSERT_GT(result.probes, 0u);

    // A node keeps emitting quarantine-FSM events while it is probed:
    // every probe ends in another probe, a readmission or a
    // re-quarantine. One whose last event is a probe long before the
    // end of the run is stranded.
    std::vector<const obs::TraceEvent*> last(config.nodes, nullptr);
    for (const auto& event : observer.events()) {
        if (event.type == obs::EventType::NodeQuarantined ||
            event.type == obs::EventType::NodeProbed ||
            event.type == obs::EventType::NodeReadmitted)
            last[event.a] = &event;
    }
    const sim::Tick end = sim::fromSeconds(minutes * 60.0);
    for (std::size_t node = 0; node < config.nodes; ++node) {
        if (last[node] == nullptr ||
            last[node]->type != obs::EventType::NodeProbed)
            continue;
        EXPECT_GE(last[node]->tick, end - sim::fromSeconds(600.0))
            << "node " << node << " last probed at "
            << sim::toSeconds(last[node]->tick) << " s";
    }
}

TEST(GrayCluster, HedgedRunEmitsTheFullEventTaxonomy)
{
    obs::ObserverConfig obsConfig;
    obsConfig.traceEnabled = true;
    obs::Observer observer(obsConfig);
    const auto arrivals = standardArrivals();
    const auto result = runGray(arrivals, grayPlan(), 2, &observer);

    std::uint64_t launched = 0;
    std::uint64_t terminal = 0;
    std::uint64_t partitionStarts = 0;
    std::uint64_t partitionEnds = 0;
    for (const auto& event : observer.events()) {
        switch (event.type) {
          case obs::EventType::HedgeLaunched: ++launched; break;
          case obs::EventType::HedgeWon:
          case obs::EventType::HedgeCancelled:
          case obs::EventType::HedgeLost: ++terminal; break;
          case obs::EventType::PartitionStart: ++partitionStarts; break;
          case obs::EventType::PartitionEnd: ++partitionEnds; break;
          default: break;
        }
    }
    EXPECT_EQ(launched, result.hedgesLaunched);
    EXPECT_EQ(terminal, result.hedgesWon + result.hedgesCancelled +
                            result.hedgesLost);
    EXPECT_EQ(partitionStarts, result.partitions);
    EXPECT_EQ(partitionEnds, partitionStarts);
    const auto& counters = observer.counters();
    EXPECT_EQ(counters.total(obs::Counter::HedgesLaunched),
              result.hedgesLaunched);
    EXPECT_EQ(counters.total(obs::Counter::MsgsDelayed),
              result.msgsDelayed);
    EXPECT_EQ(counters.total(obs::Counter::NodeQuarantines),
              result.quarantines);
}

TEST(GrayCluster, HedgedSpanTreesStayValid)
{
    obs::ObserverConfig obsConfig;
    obsConfig.spansEnabled = true;
    obsConfig.maxSpans = 1u << 20;
    obs::Observer observer(obsConfig);
    const auto arrivals = standardArrivals();
    const auto result = runGray(arrivals, grayPlan(), 2, &observer);
    ASSERT_GT(result.hedgesLaunched, 0u);

    std::string error;
    EXPECT_TRUE(obs::validateSpanTree(observer.spans(), &error))
        << error;
    // Cancelled losers close their root span with the Cancelled
    // outcome; hedge roots chain to their primary's root.
    std::uint64_t cancelledRoots = 0;
    std::uint64_t chainedRoots = 0;
    for (const auto& span : observer.spans()) {
        if (span.stage != obs::SpanStage::Invocation)
            continue;
        if (span.info ==
            static_cast<std::uint8_t>(obs::SpanOutcome::Cancelled))
            ++cancelledRoots;
        if (span.parent != 0)
            ++chainedRoots;
    }
    if (result.cancelledInvocations > 0) {
        EXPECT_GT(cancelledRoots, 0u);
    }
    EXPECT_GT(chainedRoots, 0u);
}

TEST(GrayCluster, NetworkPlanUpgradesTheLegacyShardSelection)
{
    // shards = 0 once selected a serial core with no ticketed
    // dispatch; through exp::runCluster a network-active plan at zero
    // shards must still run the sharded core as one shard.
    const auto arrivals = standardArrivals(10);
    const auto upgraded = runGray(arrivals, grayPlan(), 0);
    EXPECT_GT(upgraded.windows, 0u);
    const auto one = runGray(arrivals, grayPlan(), 1);
    EXPECT_EQ(fingerprint(upgraded), fingerprint(one));
}

} // namespace
} // namespace rc
