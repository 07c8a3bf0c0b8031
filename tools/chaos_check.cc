/**
 * @file
 * chaos_check — randomized fault-plan replay against platform
 * invariants. CI runs it under ASan/UBSan with a handful of fixed
 * seeds:
 *
 *   chaos_check --seed 1 [--runs 4] [--minutes 20]
 *
 * Each run draws a randomized FaultPlan (init failures, exec crashes,
 * wedges, node crashes, overload windows) and a randomized
 * AdmissionPlan (rate limits, bounded queue, deadline shedding,
 * breakers, pressure control), picks one of the six baselines and one
 * of the three routers, replays a generated trace on a single node
 * and on a small cluster with failover (at --shards N shards, again
 * at 1, and again at N capturing every node's summary every window),
 * and asserts:
 *
 *  * conservation — every admitted invocation either completed,
 *    exhausted its retries, was rejected or shed by admission
 *    control, or is accountably stranded; nothing is lost and
 *    nothing completes twice;
 *  * overload invariants — the admission queue never exceeds its
 *    configured bound, and every circuit-breaker transition history
 *    follows the legal closed -> open -> half-open FSM;
 *  * quiescence — no in-flight work or live containers survive the
 *    end-of-run flush, and pool memory accounting returns to zero
 *    after crash-restart cycles;
 *  * determinism — an identical (seed, plan, policy) twin run
 *    reproduces the exact same outcome counts and latency totals, and
 *    the cluster's report fingerprint is bit-identical at N shards, at
 *    1 shard and under full summary capture (the delta capture's
 *    reference; not in --gray mode, where the two may differ by
 *    design, DESIGN.md §15).
 *
 * --overload replays a 5x-denser trace against a quarter of the
 * memory (the CI chaos job's overload-heavy configuration), forcing
 * sustained queueing, shedding, and breaker activity.
 *
 * --domains draws a randomized DomainPlan (correlated outages,
 * rolling upgrades, staged rejoin, recovery prewarms, client retry
 * feedback) on top of the fault/admission plans and replays it on the
 * cluster at 1 and N shards, asserting the recovery and prewarm
 * conservation identities from cluster/conservation.hh plus the
 * byte-identical-fingerprint contract.
 *
 * --shards N (default 4) sets the shard count the default and
 * --domains modes compare against 1 shard (--gray always uses 4). CI
 * also runs the checks under ThreadSanitizer so the
 * worker/coordinator handshake is exercised with real fault churn.
 *
 * Exit status 0 when every invariant holds for every run.
 */

#include <algorithm>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "admission/admission_plan.hh"
#include "admission/circuit_breaker.hh"
#include "cluster/conservation.hh"
#include "cluster/sharded_cluster.hh"
#include "exp/cluster_run.hh"
#include "exp/experiment.hh"
#include "fault/domain_plan.hh"
#include "fault/fault_plan.hh"
#include "platform/node.hh"
#include "sim/rng.hh"
#include "trace/generator.hh"
#include "trace/replay.hh"
#include "workload/catalog.hh"

namespace {

using namespace rc;

int gFailures = 0;

void
fail(const std::string& what)
{
    std::cerr << "chaos_check: FAIL: " << what << "\n";
    ++gFailures;
}

void
expect(bool ok, const std::string& what)
{
    if (!ok)
        fail(what);
}

/** Randomize every fault class; ranges keep runs short but eventful. */
fault::FaultPlan
randomPlan(sim::Rng& rng)
{
    fault::FaultPlan plan;
    plan.bareInitFailProb = 0.01 * rng.uniform();
    plan.langInitFailProb = 0.02 * rng.uniform();
    plan.userInitFailProb = 0.05 * rng.uniform();
    plan.execCrashProb = 0.03 * rng.uniform();
    plan.wedgeProb = 0.01 * rng.uniform();
    plan.execTimeout = sim::fromSeconds(20.0 + 40.0 * rng.uniform());
    plan.nodeMtbfSeconds =
        rng.bernoulli(0.7) ? 300.0 + 900.0 * rng.uniform() : 0.0;
    plan.nodeDowntimeSeconds = 10.0 + 50.0 * rng.uniform();
    plan.overloadRatePerHour =
        rng.bernoulli(0.5) ? 1.0 + 3.0 * rng.uniform() : 0.0;
    plan.overloadDurationSeconds = 20.0 + 60.0 * rng.uniform();
    plan.overloadSlowdown = 1.5 + rng.uniform();
    plan.maxRetries = 1 + static_cast<std::uint32_t>(3.0 * rng.uniform());
    plan.retryJitterFrac = 0.2 * rng.uniform();
    return plan;
}

/** Randomize the gray-failure network plan the same way. */
fault::NetworkPlan
randomNetworkPlan(sim::Rng& rng)
{
    fault::NetworkPlan net;
    // Always keep the link jittery so the plan is active and every
    // dispatch goes through the ticket protocol.
    net.linkDelayMeanMs = 1.0 + 9.0 * rng.uniform();
    net.linkDelayCv = 0.3 + 0.7 * rng.uniform();
    if (rng.bernoulli(0.7)) {
        net.linkHeavyTailProb = 0.02 + 0.08 * rng.uniform();
        net.linkHeavyTailFactor = 10.0 + 40.0 * rng.uniform();
    }
    if (rng.bernoulli(0.5)) {
        net.msgDropProb = 0.03 * rng.uniform();
        net.msgRetransmitMs = 50.0 + 250.0 * rng.uniform();
    }
    if (rng.bernoulli(0.7)) {
        net.degradedRatePerHour = 6.0 + 18.0 * rng.uniform();
        net.degradedDurationSeconds = 60.0 + 120.0 * rng.uniform();
        net.degradedExecSlowdown = 4.0 + 8.0 * rng.uniform();
        net.degradedInitSlowdown = 4.0 + 8.0 * rng.uniform();
    }
    if (rng.bernoulli(0.5)) {
        net.partitionRatePerHour = 2.0 + 4.0 * rng.uniform();
        net.partitionDurationSeconds = 10.0 + 30.0 * rng.uniform();
        net.partitionFraction = 0.125 + 0.25 * rng.uniform();
    }
    if (rng.bernoulli(0.8)) {
        net.hedgeEnabled = true;
        net.hedgeLatencyFactor = 1.0 + rng.uniform();
        net.hedgeMinSamples =
            10 + static_cast<std::uint32_t>(30.0 * rng.uniform());
        net.hedgeMinBudgetMs = 50.0 + 150.0 * rng.uniform();
    }
    if (rng.bernoulli(0.8)) {
        net.quarantineEnabled = true;
        net.quarantineLatencyFactor = 2.0 + 2.0 * rng.uniform();
        net.quarantineMinSamples =
            5 + static_cast<std::uint32_t>(25.0 * rng.uniform());
        net.quarantineDrainSeconds = 10.0 + 40.0 * rng.uniform();
        net.quarantineProbeCount =
            1 + static_cast<std::uint32_t>(4.0 * rng.uniform());
        net.quarantineReadmitFactor = 1.2 + 0.6 * rng.uniform();
    }
    return net;
}

/** Randomize the correlated-domain + recovery machinery the same way. */
fault::DomainPlan
randomDomainPlan(sim::Rng& rng)
{
    fault::DomainPlan plan;
    plan.domainCount =
        2 + static_cast<std::uint32_t>(2.0 * rng.uniform());
    // Always keep at least one outage source armed so every run
    // exercises the orchestrator FSM end to end.
    plan.outageRatePerHour = 2.0 + 6.0 * rng.uniform();
    plan.outageDurationSeconds = 30.0 + 90.0 * rng.uniform();
    if (rng.bernoulli(0.5)) {
        fault::ScriptedOutage scripted;
        scripted.startSeconds = 120.0 + 240.0 * rng.uniform();
        scripted.durationSeconds = 45.0 + 60.0 * rng.uniform();
        scripted.domain = 0;
        plan.outages.push_back(scripted);
    }
    if (rng.bernoulli(0.6)) {
        plan.upgradeRatePerHour = 1.0 + 3.0 * rng.uniform();
        plan.upgradeDurationSeconds = 15.0 + 30.0 * rng.uniform();
        plan.upgradeStaggerSeconds = 5.0 + 15.0 * rng.uniform();
        plan.drainTimeoutSeconds = 10.0 + 30.0 * rng.uniform();
    }
    plan.stagedRejoin = rng.bernoulli(0.7);
    plan.rejoinTokensPerSecond = 0.25 + 1.75 * rng.uniform();
    plan.prewarmEnabled = rng.bernoulli(0.8);
    plan.prewarmMaxLayers =
        1 + static_cast<std::uint32_t>(7.0 * rng.uniform());
    plan.warmupTimeoutSeconds = 5.0 + 20.0 * rng.uniform();
    if (rng.bernoulli(0.6)) {
        plan.retryFeedbackEnabled = true;
        plan.retryBackoffSeconds = 0.5 + 2.0 * rng.uniform();
        plan.retryMaxAttempts =
            1 + static_cast<std::uint32_t>(2.0 * rng.uniform());
    }
    return plan;
}

/** Randomize the overload-control machinery the same way. */
admission::AdmissionPlan
randomAdmissionPlan(sim::Rng& rng)
{
    admission::AdmissionPlan plan;
    if (rng.bernoulli(0.4)) {
        plan.functionRatePerSecond = 0.5 + 2.0 * rng.uniform();
        plan.tokenBucketBurst = 2.0 + 8.0 * rng.uniform();
    }
    if (rng.bernoulli(0.3)) {
        plan.functionConcurrencyCap =
            2 + static_cast<std::uint32_t>(6.0 * rng.uniform());
    }
    if (rng.bernoulli(0.7)) {
        plan.maxQueueDepth =
            8 + static_cast<std::uint32_t>(56.0 * rng.uniform());
    }
    if (rng.bernoulli(0.7))
        plan.queueDeadlineSeconds = 10.0 + 50.0 * rng.uniform();
    if (rng.bernoulli(0.5)) {
        plan.breakerFailureThreshold = 0.3 + 0.4 * rng.uniform();
        plan.breakerWindowSeconds = 30.0 + 60.0 * rng.uniform();
        plan.breakerCooloffSeconds = 10.0 + 40.0 * rng.uniform();
        plan.breakerMinSamples =
            5 + static_cast<std::uint32_t>(15.0 * rng.uniform());
    }
    if (rng.bernoulli(0.7)) {
        plan.pressureControlEnabled = true;
        plan.controllerIntervalSeconds = 5.0 + 10.0 * rng.uniform();
        plan.pressureSmoothing = 0.3 + 0.6 * rng.uniform();
        plan.pressureWarn = 0.25 + 0.1 * rng.uniform();
        plan.pressureHigh = plan.pressureWarn + 0.15 + 0.1 * rng.uniform();
        plan.pressureCritical =
            plan.pressureHigh + 0.15 + 0.1 * rng.uniform();
        plan.ttlShrinkFactor = 0.3 + 0.5 * rng.uniform();
        plan.overloadPressureBias = 0.3 + 0.5 * rng.uniform();
    }
    return plan;
}

/** Every recorded breaker transition must be an edge of the FSM. */
void
checkBreakerTransitions(const admission::CircuitBreaker& breaker,
                        const std::string& label)
{
    using State = admission::CircuitBreaker::State;
    State current = State::Closed;
    sim::Tick last = 0;
    for (const auto& tr : breaker.transitions()) {
        expect(tr.from == current,
               label + ": breaker history is not contiguous");
        expect(tr.at >= last, label + ": breaker history out of order");
        const bool legal =
            (tr.from == State::Closed && tr.to == State::Open) ||
            (tr.from == State::Open && tr.to == State::HalfOpen) ||
            (tr.from == State::HalfOpen && tr.to == State::Open) ||
            (tr.from == State::HalfOpen && tr.to == State::Closed);
        expect(legal, label + ": illegal breaker transition " +
                          std::string(toString(tr.from)) + " -> " +
                          toString(tr.to));
        current = tr.to;
        last = tr.at;
    }
}

/** Outcome snapshot used by the determinism twin comparison. */
struct Outcome
{
    std::uint64_t admitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t retries = 0;
    std::size_t stranded = 0;
    std::uint64_t rejected = 0;
    std::uint64_t shedDeadline = 0;
    std::uint64_t shedPressure = 0;
    std::uint64_t degradedKeepalives = 0;
    std::size_t peakQueueDepth = 0;
    double totalStartupSeconds = 0.0;
    double meanE2eSeconds = 0.0;

    bool operator==(const Outcome& other) const
    {
        return admitted == other.admitted &&
               completed == other.completed && failed == other.failed &&
               retries == other.retries && stranded == other.stranded &&
               rejected == other.rejected &&
               shedDeadline == other.shedDeadline &&
               shedPressure == other.shedPressure &&
               degradedKeepalives == other.degradedKeepalives &&
               peakQueueDepth == other.peakQueueDepth &&
               totalStartupSeconds == other.totalStartupSeconds &&
               meanE2eSeconds == other.meanE2eSeconds;
    }
};

Outcome
runNode(const workload::Catalog& catalog, const exp::NamedPolicy& policy,
        const std::vector<trace::Arrival>& arrivals,
        const platform::NodeConfig& config, const std::string& label)
{
    platform::Node node(catalog, policy.make(), config);
    node.run(arrivals);

    Outcome outcome;
    outcome.admitted = node.invoker().admittedInvocations();
    outcome.completed = node.metrics().total();
    outcome.failed = node.invoker().failedInvocations();
    outcome.retries = node.invoker().retriesScheduled();
    outcome.stranded = node.strandedInvocations();
    outcome.rejected = node.invoker().rejectedInvocations();
    outcome.shedDeadline = node.invoker().shedDeadlineCount();
    outcome.shedPressure = node.invoker().shedPressureCount();
    outcome.degradedKeepalives = node.invoker().degradedKeepalives();
    outcome.peakQueueDepth = node.invoker().peakQueueDepth();
    outcome.totalStartupSeconds = node.metrics().totalStartupSeconds();
    outcome.meanE2eSeconds = node.metrics().meanEndToEndSeconds();

    // Conservation: one terminal state per admitted invocation. A
    // lost invocation shows up as admitted > accounted; a
    // double-execution as admitted < accounted.
    expect(cluster::conservation::admissionIdentity(
               outcome.admitted, arrivals.size(), 0, 0, 0),
           label + ": admitted != arrivals");
    expect(cluster::conservation::nodeConservation(
               outcome.completed, outcome.failed, outcome.stranded,
               outcome.rejected, outcome.shedDeadline,
               outcome.shedPressure, outcome.admitted),
           label +
               ": completed + failed + stranded + rejected + shed "
               "!= admitted");

    // Overload invariant: the pending queue never grows past its
    // configured bound.
    if (config.admission.maxQueueDepth > 0) {
        expect(outcome.peakQueueDepth <= config.admission.maxQueueDepth,
               label + ": queue depth exceeded its bound");
    }

    // Quiescence: nothing in flight, nothing alive, memory balanced
    // even across crash-restart cycles.
    expect(node.invoker().inFlightInvocations() == 0,
           label + ": in-flight work survived the run");
    expect(node.pool().liveCount() == 0,
           label + ": live containers survived finalize");
    expect(node.pool().usedMemoryMb() < 1e-6,
           label + ": pool memory accounting did not return to zero");
    return outcome;
}

/** Invoker totals the cluster checks read, summed over the nodes. */
struct FleetTotals
{
    std::uint64_t admitted = 0;
    std::uint64_t extracted = 0;
    std::size_t inFlight = 0;
    std::size_t peakQueue = 0;
};

/**
 * Replay the run on a @p nodes-node cluster routed by @p scheduling
 * at 1 shard and again at @p shards, and with @p fullCapture a third
 * time at @p shards capturing every summary every window. Each pass
 * must quiesce, keep every breaker history on the FSM, and pass the
 * mode's own @p check; then every pass's report fingerprint must be
 * byte-identical — the cluster's shard-count contract, and delta
 * summary capture's match with its full-capture reference.
 */
template <typename Check>
void
replayCluster(const workload::Catalog& catalog,
              const exp::NamedPolicy& policy,
              const std::vector<trace::Arrival>& arrivals,
              const platform::NodeConfig& config, std::size_t nodes,
              std::size_t shards, cluster::Scheduling scheduling,
              bool fullCapture, const std::string& label,
              const Check& check)
{
    cluster::ClusterConfig clusterConfig;
    clusterConfig.nodes = nodes;
    clusterConfig.node = config;
    clusterConfig.scheduling = scheduling;

    std::string fingerprints[3];
    const std::size_t counts[3] = {1, shards, shards};
    for (std::size_t pass = 0; pass < (fullCapture ? 3 : 2); ++pass) {
        cluster::ShardedConfig sharded;
        sharded.shards = counts[pass];
        sharded.fullSummaryCapture = pass == 2;
        cluster::ShardedCluster cluster(catalog, policy.make,
                                        clusterConfig, sharded);
        const auto result = cluster.run(arrivals);
        const std::string passLabel =
            label + " shards=" + std::to_string(counts[pass]) +
            (pass == 2 ? " full-capture" : "");

        FleetTotals fleet;
        for (const auto& node : cluster.nodes()) {
            fleet.admitted += node->invoker().admittedInvocations();
            fleet.extracted += node->invoker().extractedInvocations();
            fleet.inFlight += node->invoker().inFlightInvocations();
            fleet.peakQueue =
                std::max(fleet.peakQueue, node->invoker().peakQueueDepth());
        }
        expect(fleet.inFlight == 0, passLabel + ": in-flight work survived");
        for (std::size_t n = 0; n < cluster.breakers().size(); ++n) {
            checkBreakerTransitions(cluster.breakers()[n],
                                    passLabel + " node " +
                                        std::to_string(n));
        }
        check(result, fleet, passLabel);

        std::ostringstream out;
        exp::writeClusterSummaryCsv(out, result);
        exp::writeClusterPerNodeCsv(out, result);
        fingerprints[pass] = out.str();
    }
    expect(fingerprints[0] == fingerprints[1],
           label + ": report diverges from the 1-shard run");
    expect(!fullCapture || fingerprints[2] == fingerprints[1],
           label + ": delta summary capture diverges from full capture");
}

/**
 * Default mode: failover conservation — every extracted invocation was
 * re-routed (admissions exceed arrivals by exactly the re-routed
 * count), and each arrival still reaches exactly one terminal state —
 * plus the admission queue bound.
 */
void
runShardedClusterCheck(const workload::Catalog& catalog,
                       const exp::NamedPolicy& policy,
                       const std::vector<trace::Arrival>& arrivals,
                       const platform::NodeConfig& config,
                       std::size_t shards, cluster::Scheduling scheduling,
                       const std::string& label)
{
    // Enough nodes that the requested shard count survives clamping.
    replayCluster(
        catalog, policy, arrivals, config, std::max<std::size_t>(4, shards),
        shards, scheduling, true, label,
        [&](const cluster::ClusterResult& result, const FleetTotals& fleet,
            const std::string& passLabel) {
            expect(fleet.extracted == result.reroutedInvocations,
                   passLabel + ": extracted != rerouted");
            expect(cluster::conservation::admissionIdentity(
                       fleet.admitted, arrivals.size(),
                       result.reroutedInvocations, 0, 0),
                   passLabel + ": admissions != arrivals + rerouted");
            expect(cluster::conservation::fleetConservation(
                       result.invocations, result.failedInvocations,
                       result.strandedInvocations, fleet.extracted,
                       result.rejectedInvocations, result.shedDeadline,
                       result.shedPressure, 0, fleet.admitted),
                   passLabel + ": conservation broken");
            if (config.admission.maxQueueDepth > 0) {
                expect(fleet.peakQueue <= config.admission.maxQueueDepth,
                       passLabel + ": queue depth exceeded its bound");
            }
        });
}

/**
 * Gray-failure mode: a randomized NetworkPlan (injection + hedging +
 * quarantine). Beyond conservation, the ticket protocol promises
 * exact hedge-pair accounting — no attempt is lost or double-counted
 * even when partitions, degraded windows, and crashes interleave.
 */
void
runGrayClusterCheck(const workload::Catalog& catalog,
                    const exp::NamedPolicy& policy,
                    const std::vector<trace::Arrival>& arrivals,
                    const platform::NodeConfig& config,
                    cluster::Scheduling scheduling, const std::string& label)
{
    replayCluster(
        catalog, policy, arrivals, config, 8, 4, scheduling, false, label,
        [&](const cluster::ClusterResult& result, const FleetTotals& fleet,
            const std::string& passLabel) {
            // Every dispatch — primary, failover re-issue, or hedge — is
            // delivered and admitted exactly once; messages delay, they
            // never vanish.
            expect(cluster::conservation::admissionIdentity(
                       fleet.admitted, arrivals.size(),
                       result.reroutedInvocations, result.hedgesLaunched,
                       result.retriesFeedback),
                   passLabel + ": admissions != arrivals + rerouted + "
                               "hedges");
            // Conservation under partitions: every admitted attempt
            // terminates exactly one way. Duplicate completions of a
            // hedge pair both count as completions, so they need no
            // term.
            expect(cluster::conservation::fleetConservation(
                       result.invocations, result.failedInvocations,
                       result.strandedInvocations, fleet.extracted,
                       result.rejectedInvocations, result.shedDeadline,
                       result.shedPressure, result.cancelledInvocations,
                       fleet.admitted),
                   passLabel + ": gray conservation broken");
            // Hedge pairs settle exactly once: won, cancelled, or lost.
            expect(cluster::conservation::hedgeIdentity(
                       result.hedgesLaunched, result.hedgesWon,
                       result.hedgesCancelled, result.hedgesLost),
                   passLabel + ": hedge pair double-counted or lost");
            expect(result.duplicateCompletions <= result.hedgesLaunched,
                   passLabel + ": more duplicates than hedges");
            expect(result.wastedExecSeconds <=
                       result.totalExecSeconds + 1e-9,
                   passLabel + ": wasted work exceeds total work");
            // A quarantined node may only receive probes (or serve as
            // the route of last resort when no healthy node remains).
            expect(result.quarantineViolations == 0,
                   passLabel + ": quarantined node took a primary "
                               "dispatch");
        });
}

/**
 * Correlated-domain mode: a randomized DomainPlan (outage waves,
 * rolling upgrades, staged rejoin, recovery prewarms, retry feedback).
 * Beyond fleet conservation, the recovery orchestrator promises exact
 * episode accounting — every outaged or drained node rejoins exactly
 * once, every drain terminates, every prewarm settles — even though
 * recovery decisions are made at barriers.
 */
void
runDomainClusterCheck(const workload::Catalog& catalog,
                      const exp::NamedPolicy& policy,
                      const std::vector<trace::Arrival>& arrivals,
                      const platform::NodeConfig& config,
                      std::size_t shards, cluster::Scheduling scheduling,
                      const std::string& label)
{
    replayCluster(
        catalog, policy, arrivals, config, 8,
        std::max<std::size_t>(2, shards), scheduling, true, label,
        [&](const cluster::ClusterResult& result, const FleetTotals& fleet,
            const std::string& passLabel) {
            // Every admission has exactly one source: an arrival, a
            // crash re-route, or a client feedback retry (no hedging
            // without a network plan).
            expect(cluster::conservation::admissionIdentity(
                       fleet.admitted, arrivals.size(),
                       result.reroutedInvocations, result.hedgesLaunched,
                       result.retriesFeedback),
                   passLabel + ": admissions != arrivals + rerouted + "
                               "retries");
            expect(cluster::conservation::fleetConservation(
                       result.invocations, result.failedInvocations,
                       result.strandedInvocations, fleet.extracted,
                       result.rejectedInvocations, result.shedDeadline,
                       result.shedPressure, result.cancelledInvocations,
                       fleet.admitted),
                   passLabel + ": domain conservation broken");
            // Recovery accounting: every episode the orchestrator
            // started finished exactly once, and every planned drain
            // terminated gracefully or by the timeout kill.
            expect(cluster::conservation::recoveryIdentity(
                       result.recoveredNodes, result.outageNodeEpisodes,
                       result.upgradeEpisodes, result.nodesDrained,
                       result.nodesKilled),
                   passLabel + ": recovery identity broken");
            expect(cluster::conservation::prewarmIdentity(
                       result.prewarmLayers, result.prewarmHit,
                       result.prewarmEvicted, result.prewarmWasted),
                   passLabel + ": prewarm identity broken");
            expect(result.rejoinWaitSeconds >= 0.0,
                   passLabel + ": negative rejoin wait");
        });
}

[[noreturn]] void
usage(int code)
{
    std::cout << "chaos_check [--seed S] [--runs N] [--minutes M] "
                 "[--overload] [--gray] [--domains] [--shards N]\n";
    std::exit(code);
}

} // namespace

int
main(int argc, char** argv)
{
    std::uint64_t seed = 1;
    std::size_t runs = 4;
    std::size_t minutes = 20;
    std::size_t shards = 4;
    bool overload = false;
    bool gray = false;
    bool domains = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            usage(0);
        if (arg == "--overload") {
            overload = true;
            continue;
        }
        if (arg == "--gray") {
            gray = true;
            continue;
        }
        if (arg == "--domains") {
            domains = true;
            continue;
        }
        if (i + 1 >= argc) {
            std::cerr << "missing value for " << arg << "\n";
            usage(2);
        }
        const std::string value = argv[++i];
        if (arg == "--seed") {
            seed = std::stoull(value);
        } else if (arg == "--runs") {
            runs = std::stoul(value);
        } else if (arg == "--minutes") {
            minutes = std::stoul(value);
        } else if (arg == "--shards") {
            shards = std::stoul(value);
            if (shards == 0) {
                std::cerr << "--shards must be at least 1\n";
                usage(2);
            }
        } else {
            std::cerr << "unknown option " << arg << "\n";
            usage(2);
        }
    }

    const workload::Catalog catalog = workload::Catalog::standard20();
    const auto baselines = exp::standardBaselines(catalog);

    for (std::size_t r = 0; r < runs; ++r) {
        const std::uint64_t runSeed = seed + r * 7919;
        sim::Rng rng(runSeed);
        const fault::FaultPlan plan = randomPlan(rng);
        admission::AdmissionPlan admissionPlan =
            randomAdmissionPlan(rng);
        const auto& policy = baselines[static_cast<std::size_t>(
            rng.uniform() * static_cast<double>(baselines.size()))];

        trace::WorkloadTraceConfig traceConfig;
        traceConfig.minutes = minutes;
        traceConfig.targetInvocations =
            minutes * (overload ? 600 : 120);
        traceConfig.seed = runSeed;
        const auto arrivals = trace::expandArrivals(
            trace::generateAzureLike(catalog, traceConfig));

        platform::NodeConfig config;
        config.seed = runSeed;
        // A tight budget exercises queueing, shedding, and eviction
        // alongside the injected faults. The overload-heavy mode
        // quarters it and guarantees a bounded queue plus periodic
        // overload windows so the shedding paths always fire.
        config.pool.memoryBudgetMb =
            overload ? 2.0 * 1024.0 : 8.0 * 1024.0;
        // Cross-validate the pool's intrusive lookup indices against
        // a brute-force scan of the container map every few mutations
        // (auditIndices panics on any divergence); chaos runs churn
        // every FSM transition, which is exactly where a stale index
        // entry would hide.
        config.pool.auditEveryMutations = 64;
        config.fault = plan;
        if (overload) {
            if (admissionPlan.maxQueueDepth == 0)
                admissionPlan.maxQueueDepth = 32;
            if (admissionPlan.queueDeadlineSeconds <= 0.0)
                admissionPlan.queueDeadlineSeconds = 30.0;
            config.fault.overloadRatePerHour =
                std::max(config.fault.overloadRatePerHour, 6.0);
            config.fault.overloadSlowdown =
                std::max(config.fault.overloadSlowdown, 3.0);
        }
        config.admission = admissionPlan;
        if (gray)
            config.fault.network = randomNetworkPlan(rng);
        if (domains)
            config.fault.domain = randomDomainPlan(rng);
        // Drawn after every other draw, so a seed's plans, policy and
        // trace do not depend on the router.
        const cluster::Scheduling routers[] = {
            cluster::Scheduling::RoundRobin, cluster::Scheduling::LeastLoaded,
            cluster::Scheduling::LocalityAware};
        const cluster::Scheduling scheduling =
            routers[static_cast<std::size_t>(rng.uniform() * 3.0)];

        const std::string label = "seed " + std::to_string(runSeed) +
                                  " policy " + policy.label + " router " +
                                  cluster::toString(scheduling);
        std::cout << "chaos_check: " << label << " ("
                  << arrivals.size() << " arrivals)\n";

        if (domains) {
            // Domain mode exercises the recovery orchestrator, which
            // lives in the cluster coordinator.
            runDomainClusterCheck(catalog, policy, arrivals, config,
                                  shards, scheduling, label + " domains");
            continue;
        }

        if (gray) {
            // Gray mode exercises the network plan on the cluster
            // only — a lone node does not speak the ticket protocol.
            runGrayClusterCheck(catalog, policy, arrivals, config,
                                scheduling, label + " gray");
            continue;
        }

        const Outcome first =
            runNode(catalog, policy, arrivals, config, label);
        const Outcome twin =
            runNode(catalog, policy, arrivals, config, label + " twin");
        expect(first == twin,
               label + ": twin run diverged (non-deterministic faults)");
        std::cout << "chaos_check:   completed " << first.completed
                  << ", failed " << first.failed << ", retries "
                  << first.retries << ", stranded " << first.stranded
                  << ", rejected " << first.rejected << ", shed "
                  << first.shedDeadline + first.shedPressure
                  << ", peak queue " << first.peakQueueDepth << "\n";

        runShardedClusterCheck(catalog, policy, arrivals, config, shards,
                               scheduling, label + " cluster");
    }

    if (gFailures == 0) {
        std::cout << "chaos_check: all invariants held over " << runs
                  << " runs\n";
        return 0;
    }
    std::cerr << "chaos_check: " << gFailures << " invariant failures\n";
    return 1;
}
