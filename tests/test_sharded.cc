/**
 * @file
 * Sharded parallel cluster core: determinism across shard and thread
 * counts, the barrier pitch, failover delivery timing, and
 * conservation of invocations under chaos.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "core/ablations.hh"
#include "exp/cluster_run.hh"
#include "exp/experiment.hh"
#include "fault/domain_plan.hh"
#include "obs/observer.hh"
#include "platform/node.hh"
#include "trace/arrival_source.hh"
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

fault::FaultPlan
chaosPlan()
{
    fault::FaultPlan plan;
    plan.nodeMtbfSeconds = 300.0;
    plan.nodeDowntimeSeconds = 20.0;
    plan.execCrashProb = 0.02;
    plan.maxRetries = 2;
    return plan;
}

/** Full-fidelity fingerprint of a ClusterResult: the summary CSV row
 *  plus the per-node load vector, byte for byte. */
std::string
fingerprint(const cluster::ClusterResult& result)
{
    std::ostringstream out;
    exp::writeClusterSummaryCsv(out, result);
    exp::writeClusterPerNodeCsv(out, result);
    return out.str();
}

cluster::ClusterResult
runSharded(const std::vector<trace::Arrival>& arrivals,
           std::size_t shards, std::size_t threads,
           cluster::Scheduling scheduling,
           const platform::NodeConfig& node = {})
{
    const auto catalog = workload::Catalog::standard20();
    exp::ClusterRunConfig config;
    config.nodes = 12;
    config.scheduling = scheduling;
    config.shards = shards;
    config.threads = threads;
    config.node = node;
    config.node.pool.memoryBudgetMb = 8192.0;
    return exp::runCluster(
        catalog,
        [catalog] { return core::makeRainbowCake(catalog); }, arrivals,
        config);
}

TEST(ShardedCluster, LookaheadIsTheMinimumCrossNodeHop)
{
    const auto catalog = workload::Catalog::standard20();
    cluster::ClusterConfig clusterConfig;
    clusterConfig.nodes = 4;
    cluster::ShardedConfig sharded;
    sharded.shards = 2;
    cluster::ShardedCluster cluster(
        catalog, [&catalog] { return core::makeRainbowCake(catalog); },
        clusterConfig, sharded);
    EXPECT_EQ(cluster.lookahead(), sim::fromMillis(5.0));
}

TEST(ShardedCluster, ShardCountIsClampedToNodes)
{
    const auto catalog = workload::Catalog::standard20();
    cluster::ClusterConfig clusterConfig;
    clusterConfig.nodes = 3;
    // Requested -> effective: above the node count clamps down, zero
    // runs as one shard.
    const std::pair<std::size_t, std::size_t> cases[] = {{16, 3}, {0, 1}};
    for (const auto& [requested, effective] : cases) {
        cluster::ShardedConfig sharded;
        sharded.shards = requested;
        cluster::ShardedCluster cluster(
            catalog, [&catalog] { return core::makeRainbowCake(catalog); },
            clusterConfig, sharded);
        EXPECT_EQ(cluster.shardCount(), effective) << requested;
        EXPECT_LE(cluster.threadCount(), effective) << requested;
    }
}

TEST(ShardedCluster, AlignToBarrierRoundsUpToTheGrid)
{
    // The window-end alignment helper behind every externally-timed
    // wakeup (partition ends, outage ends, rejoin grants). An exact
    // grid point must stay put; anything else rounds *up* — rounding
    // down would schedule a barrier in the past and the event's
    // window would be skipped entirely (the partition-end wakeup bug).
    EXPECT_EQ(cluster::alignToBarrier(0, 100), 0);
    EXPECT_EQ(cluster::alignToBarrier(100, 100), 100);
    EXPECT_EQ(cluster::alignToBarrier(1, 100), 100);
    EXPECT_EQ(cluster::alignToBarrier(99, 100), 100);
    EXPECT_EQ(cluster::alignToBarrier(101, 100), 200);
    EXPECT_EQ(cluster::alignToBarrier(250, 100), 300);
    // Pitch 1 is the identity: every tick is on the grid.
    EXPECT_EQ(cluster::alignToBarrier(12345, 1), 12345);
}

TEST(ShardedCluster, OffGridPartitionEndsStillWakeTheCluster)
{
    // Regression for the partition-end wakeup bug: a partition whose
    // end falls between barriers must still be lifted at the next
    // barrier — the severed nodes rejoin and finish the run — rather
    // than the end window being skipped and the nodes staying severed
    // forever.
    const auto catalog = workload::Catalog::standard20();
    cluster::ClusterConfig clusterConfig;
    clusterConfig.nodes = 8;
    clusterConfig.node.pool.memoryBudgetMb = 8192.0;
    fault::NetworkPlan& net = clusterConfig.node.fault.network;
    net.partitionRatePerHour = 12.0;
    // Deliberately off the 5 ms barrier grid.
    net.partitionDurationSeconds = 17.3021;
    cluster::ShardedConfig sharded;
    sharded.shards = 4;

    cluster::ShardedCluster cluster(
        catalog, [&catalog] { return core::makeRainbowCake(catalog); },
        clusterConfig, sharded);
    const auto arrivals = standardArrivals();
    const auto result = cluster.run(arrivals);

    ASSERT_GT(result.partitions, 0u);
    // Every arrival reaches a terminal outcome: nothing stays wedged
    // behind a partition that was never lifted.
    EXPECT_EQ(result.strandedInvocations, 0u);
    EXPECT_EQ(result.invocations + result.failedInvocations +
                  result.reroutedInvocations + result.rejectedInvocations +
                  result.shedDeadline + result.shedPressure +
                  result.cancelledInvocations,
              result.admittedInvocations);
}

TEST(ShardedCluster, FaultFreeRunCompletesEveryArrival)
{
    const auto arrivals = standardArrivals();
    const auto result = runSharded(
        arrivals, 2, 2, cluster::Scheduling::LocalityAware);
    EXPECT_EQ(result.invocations, arrivals.size());
    EXPECT_EQ(result.admittedInvocations, arrivals.size());
    EXPECT_EQ(result.strandedInvocations, 0u);
    EXPECT_GT(result.windows, 0u);
    EXPECT_GT(result.engineEvents, 0u);
}

TEST(ShardedCluster, ResultsAreBitIdenticalAtAnyShardCount)
{
    const auto arrivals = standardArrivals();
    platform::NodeConfig node;
    node.fault = chaosPlan();
    for (const auto scheduling : {cluster::Scheduling::RoundRobin,
                                  cluster::Scheduling::LeastLoaded,
                                  cluster::Scheduling::LocalityAware}) {
        const auto one =
            runSharded(arrivals, 1, 1, scheduling, node);
        const auto two =
            runSharded(arrivals, 2, 2, scheduling, node);
        const auto eight =
            runSharded(arrivals, 8, 4, scheduling, node);
        // The chaos plan must actually exercise the cross-shard
        // machinery for the comparison to mean anything.
        EXPECT_GT(one.nodeCrashes, 0u);
        const std::string golden = fingerprint(one);
        EXPECT_EQ(fingerprint(two), golden)
            << cluster::toString(scheduling) << " shards=2";
        EXPECT_EQ(fingerprint(eight), golden)
            << cluster::toString(scheduling) << " shards=8";
    }
}

TEST(ShardedCluster, ResultsAreBitIdenticalAtAnyThreadCount)
{
    const auto arrivals = standardArrivals();
    platform::NodeConfig node;
    node.fault = chaosPlan();
    const auto serial = runSharded(
        arrivals, 8, 1, cluster::Scheduling::LocalityAware, node);
    const auto parallel = runSharded(
        arrivals, 8, 8, cluster::Scheduling::LocalityAware, node);
    EXPECT_EQ(fingerprint(parallel), fingerprint(serial));
}

TEST(ShardedCluster, BreakerStateIsIdenticalAcrossShardCounts)
{
    const auto arrivals = standardArrivals();
    platform::NodeConfig node;
    node.fault.execCrashProb = 0.6;
    node.fault.maxRetries = 0;
    node.admission.breakerFailureThreshold = 0.3;
    node.admission.breakerWindowSeconds = 120.0;
    node.admission.breakerCooloffSeconds = 30.0;
    node.admission.breakerMinSamples = 5;
    const auto one = runSharded(
        arrivals, 1, 1, cluster::Scheduling::LeastLoaded, node);
    const auto eight = runSharded(
        arrivals, 8, 4, cluster::Scheduling::LeastLoaded, node);
    EXPECT_GT(one.breakerOpens, 0u);
    EXPECT_EQ(fingerprint(eight), fingerprint(one));
}

TEST(ShardedCluster, FailoverDeliveryWaitsAtLeastOneLookahead)
{
    // Work displaced by a crash must not reappear before the next
    // barrier: its delivery is one failover hop (>= the lookahead)
    // after the crash. The observer sees both sides of each hop.
    const auto catalog = workload::Catalog::standard20();
    obs::ObserverConfig obsConfig;
    obsConfig.traceEnabled = true;
    obs::Observer observer(obsConfig);

    cluster::ClusterConfig clusterConfig;
    clusterConfig.nodes = 6;
    clusterConfig.node.pool.memoryBudgetMb = 8192.0;
    clusterConfig.node.fault = chaosPlan();
    clusterConfig.node.observer = &observer;
    cluster::ShardedConfig sharded;
    sharded.shards = 3;
    cluster::ShardedCluster cluster(
        catalog, [&catalog] { return core::makeRainbowCake(catalog); },
        clusterConfig, sharded);
    const auto arrivals = standardArrivals();
    const auto result = cluster.run(arrivals);
    ASSERT_GT(result.nodeCrashes, 0u);

    const sim::Tick lookahead = cluster.lookahead();
    std::size_t failovers = 0;
    for (const auto& event : observer.events()) {
        if (event.type != obs::EventType::FailoverRouted)
            continue;
        ++failovers;
        // Some crash of the source node precedes the delivery by at
        // least the lookahead.
        bool matched = false;
        for (const auto& crash : observer.events()) {
            if (crash.type == obs::EventType::NodeCrashed &&
                crash.a == event.b &&
                crash.tick + lookahead <= event.tick) {
                matched = true;
                break;
            }
        }
        EXPECT_TRUE(matched) << "failover at " << event.tick;
    }
    EXPECT_EQ(failovers, result.reroutedInvocations);
}

TEST(ShardedCluster, ChaosRunConservesEveryInvocation)
{
    const auto catalog = workload::Catalog::standard20();
    cluster::ClusterConfig clusterConfig;
    clusterConfig.nodes = 9;
    clusterConfig.node.pool.memoryBudgetMb = 8192.0;
    clusterConfig.node.fault = chaosPlan();
    clusterConfig.node.admission.maxQueueDepth = 64;
    clusterConfig.node.admission.queueDeadlineSeconds = 120.0;
    cluster::ShardedConfig sharded;
    sharded.shards = 4;
    cluster::ShardedCluster cluster(
        catalog, [&catalog] { return core::makeRainbowCake(catalog); },
        clusterConfig, sharded);
    const auto arrivals = standardArrivals();
    const auto result = cluster.run(arrivals);

    std::uint64_t admitted = 0;
    std::uint64_t extracted = 0;
    for (const auto& node : cluster.nodes()) {
        admitted += node->invoker().admittedInvocations();
        extracted += node->invoker().extractedInvocations();
    }
    EXPECT_EQ(admitted, result.admittedInvocations);
    EXPECT_EQ(extracted, result.reroutedInvocations);
    EXPECT_EQ(admitted, arrivals.size() + result.reroutedInvocations);
    EXPECT_EQ(result.invocations + result.failedInvocations +
                  result.strandedInvocations + extracted +
                  result.rejectedInvocations + result.shedDeadline +
                  result.shedPressure,
              admitted);
}

// ---- streaming arrivals + delta summaries (coordinator scaling) --------

trace::TraceSet
standardTraceSet(std::size_t minutes = 30, std::uint64_t seed = 4242)
{
    const auto catalog = workload::Catalog::standard20();
    trace::WorkloadTraceConfig config;
    config.minutes = minutes;
    config.targetInvocations = minutes * 40;
    config.seed = seed;
    return trace::generateAzureLike(catalog, config);
}

/** A small gray plan: ticketed dispatch, hedges, quarantine, delays. */
fault::NetworkPlan
streamGrayPlan()
{
    fault::NetworkPlan net;
    net.linkDelayMeanMs = 5.0;
    net.linkHeavyTailProb = 0.05;
    net.linkHeavyTailFactor = 40.0;
    net.msgDropProb = 0.02;
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
    return net;
}

TEST(ArrivalSource, StreamsTheExactExpandArrivalsSequence)
{
    const auto traceSet = standardTraceSet();
    const auto expected = trace::expandArrivals(traceSet);
    ASSERT_FALSE(expected.empty());
    sim::Tick horizon = 0;
    for (const auto& arrival : expected)
        horizon = std::max(horizon, arrival.time);

    trace::TraceSetArrivalSource source(traceSet);
    EXPECT_EQ(source.total(), expected.size());
    EXPECT_EQ(source.horizon(), horizon);
    std::size_t i = 0;
    while (!source.done()) {
        ASSERT_LT(i, expected.size());
        EXPECT_EQ(source.peek().time, expected[i].time) << "at " << i;
        EXPECT_EQ(source.peek().function, expected[i].function)
            << "at " << i;
        source.pop();
        ++i;
    }
    EXPECT_EQ(i, expected.size());

    // reset() rewinds to an identical replay.
    source.reset();
    ASSERT_FALSE(source.done());
    EXPECT_EQ(source.peek().time, expected.front().time);
    EXPECT_EQ(source.peek().function, expected.front().function);
}

TEST(ArrivalSource, VectorAdapterMatchesItsBackingVector)
{
    const auto expected = standardArrivals();
    trace::VectorArrivalSource source(expected);
    EXPECT_EQ(source.total(), expected.size());
    std::size_t i = 0;
    while (!source.done()) {
        EXPECT_EQ(source.peek().time, expected[i].time);
        source.pop();
        ++i;
    }
    EXPECT_EQ(i, expected.size());
}

TEST(ShardedCluster, StreamingRunIsByteIdenticalToMaterialized)
{
    // The pull-based source must reproduce the vector contract's
    // results byte for byte — under chaos (crashes + failover) and
    // under a gray network plan (ticketed dispatch, hedges,
    // partitions), at more than one shard count.
    const auto catalog = workload::Catalog::standard20();
    const auto traceSet = standardTraceSet();
    const auto arrivals = trace::expandArrivals(traceSet);

    platform::NodeConfig chaos;
    chaos.fault = chaosPlan();
    platform::NodeConfig gray;
    gray.fault.network = streamGrayPlan();

    for (const platform::NodeConfig& node : {chaos, gray}) {
        for (const std::size_t shards : {1u, 4u}) {
            const auto materialized = runSharded(
                arrivals, shards, 1, cluster::Scheduling::LocalityAware,
                node);
            exp::ClusterRunConfig config;
            config.nodes = 12;
            config.shards = shards;
            config.threads = 1;
            config.node = node;
            config.node.pool.memoryBudgetMb = 8192.0;
            trace::TraceSetArrivalSource source(traceSet);
            const auto streamed = exp::runCluster(
                catalog,
                [catalog] { return core::makeRainbowCake(catalog); },
                source, config);
            EXPECT_EQ(fingerprint(streamed), fingerprint(materialized))
                << shards << " shards";
        }
    }
}

/**
 * Run @p arrivals at 1 and at 4 shards, each once with delta summary
 * capture and once with a full re-walk every window (the old
 * behaviour): the two must give the same bytes.
 */
void
expectDeltaCaptureMatchesFull(const workload::Catalog& catalog,
                              const cluster::PolicyFactory& factory,
                              const cluster::ClusterConfig& clusterConfig,
                              const std::vector<trace::Arrival>& arrivals,
                              const std::string& label)
{
    for (const std::size_t shards : {1u, 4u}) {
        std::string prints[2];
        for (int full = 0; full < 2; ++full) {
            cluster::ShardedConfig sharded;
            sharded.shards = shards;
            sharded.fullSummaryCapture = full == 1;
            cluster::ShardedCluster cluster(catalog, factory, clusterConfig,
                                            sharded);
            prints[full] = fingerprint(cluster.run(arrivals));
        }
        EXPECT_EQ(prints[0], prints[1]) << label << ", " << shards
                                        << " shards";
    }
}

TEST(ShardedCluster, DeltaSummaryCaptureMatchesFullCapture)
{
    // The dirty-bit delta capture must be invisible under chaos at
    // any shard count.
    const auto catalog = workload::Catalog::standard20();
    cluster::ClusterConfig clusterConfig;
    clusterConfig.nodes = 12;
    clusterConfig.node.pool.memoryBudgetMb = 8192.0;
    clusterConfig.node.fault = chaosPlan();
    expectDeltaCaptureMatchesFull(
        catalog, [&catalog] { return core::makeRainbowCake(catalog); },
        clusterConfig, standardArrivals(), "rainbowcake");
}

TEST(ShardedCluster, DeltaCaptureMatchesFullCaptureForEveryPolicy)
{
    // The drain finalizes every node from the last barrier. A policy
    // that never expires idle containers (FaaSCache) is charged idle
    // waste up to that instant, and an idle node's own clock stopped
    // at its last visit.
    const auto catalog = workload::Catalog::standard20();
    cluster::ClusterConfig clusterConfig;
    clusterConfig.nodes = 12;
    clusterConfig.node.pool.memoryBudgetMb = 8192.0;
    clusterConfig.node.fault = chaosPlan();
    const auto arrivals = standardArrivals();
    for (const exp::NamedPolicy& policy : exp::standardBaselines(catalog)) {
        expectDeltaCaptureMatchesFull(catalog, policy.make, clusterConfig,
                                      arrivals, policy.label);
    }
}

TEST(ShardedCluster, DeltaCaptureMatchesFullCaptureAfterAWarmupTimeout)
{
    // CI's domain plan with a warm-up short enough to end by timeout
    // on nodes with nothing left to report: the recovery hold must
    // follow the orchestrator's state, not the node's next report.
    fault::DomainPlan plan;
    std::string error;
    ASSERT_TRUE(fault::parseDomainPlan(
        R"({"domain_count": 2,
            "outages": [{"start_seconds": 300, "duration_seconds": 120,
                         "domain": 0}],
            "upgrade_rate_per_hour": 2.0,
            "upgrade_duration_seconds": 20,
            "upgrade_stagger_seconds": 10,
            "drain_timeout_seconds": 30,
            "staged_rejoin": true, "rejoin_tokens_per_second": 0.5,
            "prewarm_enabled": true, "prewarm_max_layers": 32,
            "warmup_timeout_seconds": 2,
            "retry_feedback_enabled": true,
            "retry_backoff_seconds": 5, "retry_max_attempts": 3})",
        plan, &error))
        << error;
    const auto catalog = workload::Catalog::standard20();
    trace::WorkloadTraceConfig traceConfig;
    traceConfig.minutes = 30;
    traceConfig.targetInvocations = 30 * 600;
    traceConfig.seed = 4242;
    const auto arrivals = trace::expandArrivals(
        trace::generateAzureLike(catalog, traceConfig));
    cluster::ClusterConfig clusterConfig;
    clusterConfig.nodes = 8;
    clusterConfig.node.pool.memoryBudgetMb = 8192.0;
    clusterConfig.node.fault.domain = plan;
    for (const auto scheduling : {cluster::Scheduling::RoundRobin,
                                  cluster::Scheduling::LeastLoaded}) {
        clusterConfig.scheduling = scheduling;
        expectDeltaCaptureMatchesFull(
            catalog, [&catalog] { return core::makeRainbowCake(catalog); },
            clusterConfig, arrivals, cluster::toString(scheduling));
    }
}

/**
 * Forwards a vector source and, at every pop (a coordinator phase,
 * every node at rest at the last barrier), records how far apart the
 * nodes' engine clocks stand.
 */
class ClockSpreadProbe : public trace::ArrivalSource
{
  public:
    ClockSpreadProbe(const std::vector<trace::Arrival>& arrivals,
                     const cluster::ShardedCluster& cluster)
        : _inner(arrivals), _cluster(cluster)
    {
    }

    sim::Tick horizon() const override { return _inner.horizon(); }
    std::uint64_t total() const override { return _inner.total(); }
    bool done() const override { return _inner.done(); }
    const trace::Arrival& peek() const override { return _inner.peek(); }

    void
    pop() override
    {
        sim::Tick lo = std::numeric_limits<sim::Tick>::max();
        sim::Tick hi = 0;
        for (const auto& node : _cluster.nodes()) {
            lo = std::min(lo, node->engine().now());
            hi = std::max(hi, node->engine().now());
        }
        _maxSpread = std::max(_maxSpread, hi - lo);
        _inner.pop();
    }

    sim::Tick maxSpread() const { return _maxSpread; }

  private:
    trace::VectorArrivalSource _inner;
    const cluster::ShardedCluster& _cluster;
    sim::Tick _maxSpread = 0;
};

TEST(ShardedCluster, FullSummaryCaptureVisitsEveryNodeEveryWindow)
{
    // A visit drains the node to the barrier, so when every node is
    // visited every window all clocks agree whenever the coordinator
    // routes. Without the knob a window visits only nodes with inputs
    // or due events, and idle nodes' clocks lag behind.
    const auto catalog = workload::Catalog::standard20();
    const auto arrivals = standardArrivals();
    sim::Tick spread[2] = {0, 0};
    std::string prints[2];
    for (int full = 0; full < 2; ++full) {
        cluster::ClusterConfig clusterConfig;
        clusterConfig.nodes = 12;
        clusterConfig.node.pool.memoryBudgetMb = 8192.0;
        cluster::ShardedConfig sharded;
        sharded.shards = 3;
        sharded.fullSummaryCapture = full == 1;
        cluster::ShardedCluster cluster(
            catalog, [&catalog] { return core::makeRainbowCake(catalog); },
            clusterConfig, sharded);
        ClockSpreadProbe probe(arrivals, cluster);
        prints[full] = fingerprint(cluster.run(probe));
        spread[full] = probe.maxSpread();
    }
    EXPECT_EQ(spread[1], 0);
    EXPECT_GT(spread[0], 0);
    EXPECT_EQ(prints[0], prints[1]);
}

TEST(ShardedCluster, NodeEventSeveralBarriersAheadFiresOnTime)
{
    // Ticketed dispatch wakes the coordinator at the earliest node
    // event, read off the shards' wake indices. One cold request
    // completes many barriers after its node's last input, while a
    // steady stream keeps other entries of the index moving. The
    // barrier schedule (the windows column) and every record must
    // match the full-capture run, which visits every node every
    // window.
    const auto catalog = workload::Catalog::standard20();
    std::vector<trace::Arrival> arrivals{{0, 0}};
    for (int k = 1; k <= 150; ++k)
        arrivals.push_back({sim::fromMillis(20.0 * k), 1});
    platform::NodeConfig node;
    node.pool.memoryBudgetMb = 8192.0;
    node.fault.network.linkDelayMeanMs = 1.0;

    std::string prints[2];
    std::vector<platform::InvocationRecord> records[2];
    sim::Tick lookahead = 0;
    for (int full = 0; full < 2; ++full) {
        cluster::ClusterConfig clusterConfig;
        clusterConfig.nodes = 4;
        clusterConfig.node = node;
        cluster::ShardedConfig sharded;
        sharded.shards = 2;
        sharded.fullSummaryCapture = full == 1;
        cluster::ShardedCluster cluster(
            catalog, [&catalog] { return core::makeRainbowCake(catalog); },
            clusterConfig, sharded);
        lookahead = cluster.lookahead();
        prints[full] = fingerprint(cluster.run(arrivals));
        for (const auto& n : cluster.nodes()) {
            const auto& own = n->metrics().records();
            records[full].insert(records[full].end(), own.begin(),
                                 own.end());
        }
    }
    EXPECT_EQ(prints[0], prints[1]);
    ASSERT_EQ(records[0].size(), arrivals.size());
    ASSERT_EQ(records[1].size(), arrivals.size());
    for (std::size_t i = 0; i < records[0].size(); ++i) {
        EXPECT_EQ(records[0][i].arrival, records[1][i].arrival) << i;
        EXPECT_EQ(records[0][i].endToEnd, records[1][i].endToEnd) << i;
    }
    const auto first = std::find_if(
        records[0].begin(), records[0].end(),
        [](const platform::InvocationRecord& r) { return r.function == 0; });
    ASSERT_NE(first, records[0].end());
    EXPECT_GT(first->endToEnd, 4 * lookahead);
}

#ifdef __linux__
/** Pins the calling thread to one CPU; restores its mask on exit. */
class OneCpuScope
{
  public:
    OneCpuScope()
    {
        _ok = sched_getaffinity(0, sizeof(_saved), &_saved) == 0;
        int cpu = 0;
        while (_ok && !CPU_ISSET(cpu, &_saved))
            ++cpu;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        _ok = _ok && sched_setaffinity(0, sizeof(one), &one) == 0;
    }
    ~OneCpuScope() { sched_setaffinity(0, sizeof(_saved), &_saved); }
    OneCpuScope(const OneCpuScope&) = delete;
    OneCpuScope& operator=(const OneCpuScope&) = delete;

    bool ok() const { return _ok; }
    std::size_t savedCpus() const
    {
        return static_cast<std::size_t>(CPU_COUNT(&_saved));
    }

  private:
    cpu_set_t _saved;
    bool _ok = false;
};

TEST(ShardedCluster, CrewIsClampedToTheUsableCpus)
{
    // A spinning crew larger than its CPUs collapses, so the crew
    // never outnumbers the affinity mask, and the bytes never depend
    // on the crew.
    const auto catalog = workload::Catalog::standard20();
    const auto arrivals = standardArrivals();
    const auto build = [&catalog] {
        cluster::ClusterConfig clusterConfig;
        clusterConfig.nodes = 12;
        clusterConfig.node.pool.memoryBudgetMb = 8192.0;
        clusterConfig.node.fault = chaosPlan();
        cluster::ShardedConfig sharded;
        sharded.shards = 4;
        sharded.threads = 4;
        return std::make_unique<cluster::ShardedCluster>(
            catalog, [&catalog] { return core::makeRainbowCake(catalog); },
            clusterConfig, sharded);
    };
    std::size_t pinnedCrew = 0;
    std::string pinnedPrint;
    std::size_t cpus = 0;
    {
        OneCpuScope pin;
        ASSERT_TRUE(pin.ok());
        cpus = pin.savedCpus();
        const auto pinned = build();
        pinnedCrew = pinned->threadCount();
        pinnedPrint = fingerprint(pinned->run(arrivals));
    }
    EXPECT_EQ(pinnedCrew, 1u);
    const auto free = build();
    EXPECT_EQ(free->threadCount(), std::min<std::size_t>(4, cpus));
    EXPECT_EQ(fingerprint(free->run(arrivals)), pinnedPrint);
}
#endif

TEST(Node, SummaryStampMovesOnlyWithObservableWork)
{
    const auto catalog = workload::Catalog::standard20();
    platform::NodeConfig config;
    config.pool.memoryBudgetMb = 8192.0;
    platform::Node node(catalog, core::makeRainbowCake(catalog),
                        config);

    // Idle time advance executes nothing: the stamp must hold, so an
    // idle node is never re-captured at a barrier.
    const std::uint64_t fresh = node.summaryStamp();
    node.advanceTo(sim::fromSeconds(10.0));
    EXPECT_EQ(node.summaryStamp(), fresh);

    // A coordinator-facing mutation moves it immediately...
    node.invokeNow(0);
    const std::uint64_t afterInvoke = node.summaryStamp();
    EXPECT_GT(afterInvoke, fresh);

    // ...and so does executing the events that invocation scheduled.
    node.engine().run();
    EXPECT_GT(node.summaryStamp(), afterInvoke);

    // Quiescent again: another idle advance keeps it fixed.
    const std::uint64_t drained = node.summaryStamp();
    node.advanceTo(node.engine().now() + sim::fromSeconds(60.0));
    EXPECT_EQ(node.summaryStamp(), drained);
}

TEST(ShardedCluster, PhaseTimingsPopulateOnlyWhenEnabled)
{
    const auto catalog = workload::Catalog::standard20();
    const auto arrivals = standardArrivals();
    exp::ClusterRunConfig config;
    config.nodes = 12;
    config.shards = 4;
    config.threads = 1;
    config.node.pool.memoryBudgetMb = 8192.0;
    const auto factory = [catalog] {
        return core::makeRainbowCake(catalog);
    };

    config.phaseTimings = true;
    const auto timed = exp::runCluster(catalog, factory, arrivals,
                                       config);
    EXPECT_GT(timed.coordinatorDrainNs, 0u);
    EXPECT_GT(timed.parallelNs, 0u);
    EXPECT_GE(timed.coordinatorDrainNs,
              timed.routeNs + timed.summaryCaptureNs);
    EXPECT_GT(timed.serialFraction, 0.0);
    EXPECT_LT(timed.serialFraction, 1.0);

    config.phaseTimings = false;
    const auto untimed = exp::runCluster(catalog, factory, arrivals,
                                         config);
    EXPECT_EQ(untimed.coordinatorDrainNs, 0u);
    EXPECT_EQ(untimed.parallelNs, 0u);
    EXPECT_EQ(untimed.serialFraction, 0.0);

    // The clock reads never leak into the pinned bytes.
    EXPECT_EQ(fingerprint(timed), fingerprint(untimed));
}

} // namespace
} // namespace rc
