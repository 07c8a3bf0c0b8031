/**
 * @file
 * Recovery-storm study: what a correlated outage costs when the
 * rejoining nodes come back cold, and what the layer-aware recovery
 * orchestrator claws back.
 *
 * A two-domain eight-node cluster replays an Azure-like trace with a
 * scripted outage that takes all of domain 0 (half the fleet) down at
 * t = 600 s, with client retry feedback enabled — failed and shed
 * requests come back after a backoff, the amplification loop that
 * turns a restart into a goodput collapse. Three recovery arms:
 *
 *   naive              thundering-herd rejoin, no prewarm: every node
 *                      readmits the instant its downtime ends and
 *                      takes traffic with empty layer pools
 *   staggered          token-gated staged rejoin, still cold
 *   staggered_prewarm  staged rejoin plus layer-census warm-up: each
 *                      node rebuilds its pre-failure Bare/Lang pools
 *                      before the scheduler routes to it
 *
 * Reported per arm: time-to-goodput (seconds from the outage until
 * the fleet durably completes >= 90% of the load clients offer),
 * whole-run p99/p99.9, the storm-window p99/p99.9 (completions from
 * the strike onward — the tail the rejoin policy actually controls),
 * cold starts, feedback retries, and the prewarm economics (layers
 * issued / hit / wasted, wasted MB). Two claims are asserted and fail
 * the binary when violated:
 *
 *   1. staggered_prewarm regains goodput strictly faster than naive,
 *      and
 *   2. its storm-window p99.9 is strictly below naive's.
 *
 * Every measurement is appended to `BENCH_recovery.json` with the
 * schema `{bench, metric, value, unit, threads}` so the recovery
 * trajectory is tracked PR-over-PR.
 *
 * Flags:
 *   --quick     shorter trace (CI smoke; claims still asserted)
 *   --load N    arrivals per minute (calibration sweeps; default
 *               sits between half-fleet and full-fleet capacity)
 *   --out PATH  JSON output path (default BENCH_recovery.json)
 */

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_record.hh"
#include "core/ablations.hh"
#include "exp/cluster_run.hh"
#include "fault/domain_plan.hh"
#include "stats/table.hh"
#include "trace/generator.hh"
#include "trace/replay.hh"
#include "workload/catalog.hh"

namespace {

using namespace rc;
using namespace rc::bench;

struct Arm
{
    const char* label;
    bool staged;
    bool prewarm;
};

/** The shared storm: domain 0 (half the fleet) out at t = 600 s. */
fault::DomainPlan
armPlan(const Arm& arm)
{
    fault::DomainPlan plan;
    plan.domainCount = 2;
    fault::ScriptedOutage outage;
    outage.startSeconds = 600.0;
    outage.durationSeconds = 240.0;
    outage.domain = 0;
    plan.outages.push_back(outage);
    // One node per second: staging should cost little — the win has
    // to come from landing warm, not from slow-rolling capacity.
    plan.stagedRejoin = arm.staged;
    plan.rejoinTokensPerSecond = 1.0;
    plan.prewarmEnabled = arm.prewarm;
    plan.prewarmMaxLayers = 64;
    plan.warmupTimeoutSeconds = 10.0;
    // The amplification loop: failed/shed requests re-submit on a
    // patient client schedule, so the backlog built during the outage
    // survives to land on the rejoining fleet — the dump that makes a
    // cold herd a storm rather than a blip.
    plan.retryFeedbackEnabled = true;
    plan.retryBackoffSeconds = 10.0;
    plan.retryMaxAttempts = 8;
    return plan;
}

} // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    std::size_t perMinute = 0;
    std::string outPath = "BENCH_recovery.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--load") == 0 && i + 1 < argc)
            perMinute = static_cast<std::size_t>(
                std::stoul(argv[++i]));
        else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            outPath = argv[++i];
    }
    // Default loads pin each trace length just below its metastable
    // cliff (the storm's critical point depends on the realization,
    // and the 30-minute quick trace is not a prefix of the full one):
    // hot enough that the surviving half-fleet runs past its edge,
    // cool enough that the fleet can actually re-stabilize.
    if (perMinute == 0)
        perMinute = quick ? 20000 : 16000;

    const auto catalog = workload::Catalog::standard20();
    const std::size_t minutes = quick ? 30 : 60;
    trace::WorkloadTraceConfig traceConfig;
    traceConfig.minutes = minutes;
    // Hot enough that the surviving half-fleet runs past its edge
    // while domain 0 is down, with headroom at full strength. The
    // Azure-like generator realizes roughly 2.9 arrivals/s per 1000
    // targetInvocations/min (only the Zipf head absorbs the rate
    // share), so the target is set well above the realized goal.
    traceConfig.targetInvocations = minutes * perMinute;
    traceConfig.seed = 20240607;
    const auto arrivals = trace::expandArrivals(
        trace::generateAzureLike(catalog, traceConfig));
    std::cout << "recovery storm: " << arrivals.size()
              << " arrivals over " << minutes
              << " min, 8 nodes / 2 domains, domain 0 out at 600 s\n";

    const Arm arms[] = {
        {"naive", false, false},
        {"staggered", true, false},
        {"staggered_prewarm", true, true},
    };

    std::vector<BenchRecord> records;
    stats::Table table("Recovery storm (domain 0 down 600-780 s)");
    table.setHeader({"Arm", "TTGoodput(s)", "p99(s)", "Storm p99.9(s)",
                     "Cold", "Retries", "PrewarmMB wasted"});
    double naiveTtg = 0.0;
    double naiveP999 = 0.0;
    double prewarmTtg = 0.0;
    double prewarmP999 = 0.0;
    for (const Arm& arm : arms) {
        exp::ClusterRunConfig config;
        config.nodes = 8;
        config.shards = 4;
        config.node.pool.memoryBudgetMb = 8.0 * 1024.0;
        config.node.fault.domain = armPlan(arm);
        // Bounded queues, no deadline: depth overflow sheds feed the
        // client retry loop, while queue waits stay latency-visible.
        // A shedding deadline would clip every arm's tail at
        // deadline-plus-exec and erase exactly the cold-herd queueing
        // the arms differ on.
        config.node.admission.maxQueueDepth = 32;
        const auto result = exp::runCluster(
            catalog,
            [&catalog] { return core::makeRainbowCake(catalog); },
            arrivals, config);

        const std::string label =
            std::string("recovery_") + arm.label;
        report(records, {label, "time_to_goodput_s",
                         result.timeToGoodputSeconds, "s",
                         config.shards});
        report(records, {label, "e2e_p99_s", result.e2eP99Seconds,
                         "s", config.shards});
        report(records, {label, "e2e_p999_s", result.e2eP999Seconds,
                         "s", config.shards});
        report(records, {label, "recovery_p99_s",
                         result.recoveryP99Seconds, "s",
                         config.shards});
        report(records, {label, "recovery_p999_s",
                         result.recoveryP999Seconds, "s",
                         config.shards});
        report(records, {label, "cold_starts",
                         static_cast<double>(result.coldStarts),
                         "count", config.shards});
        report(records, {label, "retries_feedback",
                         static_cast<double>(result.retriesFeedback),
                         "count", config.shards});
        report(records, {label, "rejoin_wait_s",
                         result.rejoinWaitSeconds, "s",
                         config.shards});
        report(records, {label, "prewarm_layers",
                         static_cast<double>(result.prewarmLayers),
                         "count", config.shards});
        report(records, {label, "prewarm_hit",
                         static_cast<double>(result.prewarmHit),
                         "count", config.shards});
        report(records, {label, "prewarm_wasted",
                         static_cast<double>(result.prewarmWasted),
                         "count", config.shards});
        report(records, {label, "prewarm_wasted_mb",
                         result.prewarmWastedMb, "mb",
                         config.shards});
        table.row()
            .text(arm.label)
            .num(result.timeToGoodputSeconds, 1)
            .num(result.e2eP99Seconds, 3)
            .num(result.recoveryP999Seconds, 3)
            .integer(static_cast<long long>(result.coldStarts))
            .integer(static_cast<long long>(result.retriesFeedback))
            .num(result.prewarmWastedMb, 1);

        // The asserted tail is the *storm-window* p99.9 (completions
        // from the strike onward): whole-run quantiles are dominated
        // by outage-phase queueing every arm pays identically and
        // cannot separate rejoin policies.
        if (std::strcmp(arm.label, "naive") == 0) {
            naiveTtg = result.timeToGoodputSeconds;
            naiveP999 = result.recoveryP999Seconds;
        }
        if (std::strcmp(arm.label, "staggered_prewarm") == 0) {
            prewarmTtg = result.timeToGoodputSeconds;
            prewarmP999 = result.recoveryP999Seconds;
        }
    }
    table.print(std::cout);

    const bool goodputClaim = prewarmTtg < naiveTtg;
    const bool tailClaim = prewarmP999 < naiveP999;
    report(records, {"recovery_storm", "goodput_beats_naive",
                     goodputClaim ? 1.0 : 0.0, "bool", 1});
    report(records, {"recovery_storm", "p999_beats_naive",
                     tailClaim ? 1.0 : 0.0, "bool", 1});
    writeJson(outPath, records);
    std::cout << "wrote " << records.size() << " records to " << outPath
              << "\n";
    if (!goodputClaim) {
        std::cerr << "FAIL: staggered+prewarm time-to-goodput "
                  << prewarmTtg << " s is not below naive " << naiveTtg
                  << " s\n";
        return 1;
    }
    if (!tailClaim) {
        std::cerr << "FAIL: staggered+prewarm storm-window p99.9 "
                  << prewarmP999 << " s is not below naive " << naiveP999
                  << " s\n";
        return 1;
    }
    std::cout << "\nExpected shape: the naive herd readmits half the "
                 "fleet cold into retry-amplified load and pays for it "
                 "in cold starts and a long goodput gap; staging plus "
                 "census warm-up spreads readmission and lands nodes "
                 "warm, at a bounded prewarm-memory cost.\n";
    return 0;
}
