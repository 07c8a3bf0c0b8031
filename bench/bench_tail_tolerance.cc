/**
 * @file
 * Tail-tolerance study under gray failure: how much of the latency
 * tail the mitigation ladder claws back, and what it costs in
 * duplicated work.
 *
 * A gray grid (moderate and severe injection mixes of jittery links,
 * heavy-tail delays, message drops, degraded-node windows, and
 * partial partitions) is replayed on the sharded cluster core under
 * four arms:
 *
 *   none              injection only, no mitigation
 *   breaker-only      circuit breakers (the binary-fault tool — it
 *                     barely moves a *gray* tail, which is the point)
 *   hedge             hedged dispatch past the function's observed p99
 *   hedge+quarantine  hedging plus latency-keyed node quarantine
 *
 * Reported per (severity, arm): request-level p50/p99/p99.9, wasted
 * exec share (duplicate + cancelled work over total), and the hedge /
 * quarantine activity counters. Two claims are asserted and fail the
 * binary when violated:
 *
 *   1. hedge+quarantine holds a strictly lower p99.9 than
 *      no-mitigation on every severity, and
 *   2. its wasted work stays under 10% of total exec time.
 *
 * Every measurement is appended to `BENCH_tail.json` with the schema
 * `{bench, metric, value, unit, threads}` so the tail-tolerance
 * trajectory is tracked PR-over-PR.
 *
 * Flags:
 *   --quick     moderate severity only, shorter trace (CI smoke)
 *   --out PATH  JSON output path (default BENCH_tail.json)
 */

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_record.hh"
#include "core/ablations.hh"
#include "exp/cluster_run.hh"
#include "fault/network_plan.hh"
#include "stats/table.hh"
#include "trace/generator.hh"
#include "trace/replay.hh"
#include "workload/catalog.hh"

namespace {

using namespace rc;
using namespace rc::bench;

/** Injection-only half of the plan, scaled by severity. */
fault::NetworkPlan
grayInjection(bool severe)
{
    fault::NetworkPlan net;
    net.linkDelayMeanMs = severe ? 8.0 : 4.0;
    net.linkHeavyTailProb = severe ? 0.08 : 0.04;
    net.linkHeavyTailFactor = severe ? 50.0 : 25.0;
    net.msgDropProb = severe ? 0.03 : 0.01;
    // Gray failure is a p99.9 phenomenon: degraded windows are rare
    // but brutal. Dialing the rate up instead pushes stragglers into
    // the p99 bulk, where no dispatch-time mitigation can win.
    net.degradedRatePerHour = severe ? 6.0 : 3.0;
    net.degradedDurationSeconds = 120.0;
    net.degradedExecSlowdown = severe ? 12.0 : 8.0;
    net.degradedInitSlowdown = severe ? 12.0 : 8.0;
    net.partitionRatePerHour = severe ? 6.0 : 3.0;
    net.partitionDurationSeconds = 20.0;
    return net;
}

/** Layer the arm's mitigation knobs onto the injection mix. */
fault::NetworkPlan
armPlan(bool severe, bool hedge, bool quarantine)
{
    fault::NetworkPlan net = grayInjection(severe);
    if (hedge) {
        net.hedgeEnabled = true;
        // Past 1.2x the observed p99 a request is a straggler, not
        // load: hedging earlier duplicates too much long-exec work
        // (the wasted-work claim), later forfeits the tail win.
        net.hedgeLatencyFactor = 1.2;
        net.hedgeMinSamples = 20;
        net.hedgeMinBudgetMs = 1000.0;
    }
    if (quarantine) {
        net.quarantineEnabled = true;
        net.quarantineLatencyFactor = 3.0;
        net.quarantineMinSamples = 10;
        net.quarantineDrainSeconds = 30.0;
        net.quarantineProbeCount = 3;
        net.quarantineReadmitFactor = 1.5;
    }
    return net;
}

struct Arm
{
    const char* label;
    bool breaker;
    bool hedge;
    bool quarantine;
};

} // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    std::string outPath = "BENCH_tail.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            outPath = argv[++i];
    }

    const auto catalog = workload::Catalog::standard20();
    const std::size_t minutes = quick ? 30 : 120;
    trace::WorkloadTraceConfig traceConfig;
    traceConfig.minutes = minutes;
    traceConfig.targetInvocations = minutes * 60;
    traceConfig.seed = 4242;
    const auto arrivals = trace::expandArrivals(
        trace::generateAzureLike(catalog, traceConfig));
    std::cout << "tail tolerance: " << arrivals.size()
              << " arrivals over " << minutes << " min, 8 nodes\n";

    const Arm arms[] = {
        {"none", false, false, false},
        {"breaker_only", true, false, false},
        {"hedge", false, true, false},
        {"hedge_quarantine", false, true, true},
    };
    std::vector<const char*> severities = {"moderate", "severe"};
    if (quick)
        severities = {"moderate"};

    std::vector<BenchRecord> records;
    bool tailClaim = true;
    bool wasteClaim = true;
    for (const char* severity : severities) {
        const bool severe = std::strcmp(severity, "severe") == 0;
        stats::Table table(std::string("Gray severity: ") + severity);
        table.setHeader({"Arm", "p50(s)", "p99(s)", "p99.9(s)",
                         "WastedFrac", "Hedges", "Quarantines"});
        double noneP999 = 0.0;
        for (const Arm& arm : arms) {
            exp::ClusterRunConfig config;
            config.nodes = 8;
            config.shards = 4;
            config.node.pool.memoryBudgetMb = 8.0 * 1024.0;
            config.node.fault.network =
                armPlan(severe, arm.hedge, arm.quarantine);
            if (arm.breaker) {
                config.node.admission.breakerFailureThreshold = 0.5;
                config.node.admission.breakerWindowSeconds = 60.0;
                config.node.admission.breakerCooloffSeconds = 30.0;
                config.node.admission.breakerMinSamples = 10;
            }
            const auto result = exp::runCluster(
                catalog,
                [&catalog] { return core::makeRainbowCake(catalog); },
                arrivals, config);

            const double wastedFrac = result.totalExecSeconds > 0.0
                ? result.wastedExecSeconds / result.totalExecSeconds
                : 0.0;
            const std::string label =
                std::string("tail_") + severity + "_" + arm.label;
            report(records, {label, "e2e_p50_s", result.e2eP50Seconds,
                             "s", config.shards});
            report(records, {label, "e2e_p99_s", result.e2eP99Seconds,
                             "s", config.shards});
            report(records, {label, "e2e_p999_s",
                             result.e2eP999Seconds, "s",
                             config.shards});
            report(records, {label, "wasted_exec_frac", wastedFrac,
                             "frac", config.shards});
            report(records,
                   {label, "hedges_launched",
                    static_cast<double>(result.hedgesLaunched), "count",
                    config.shards});
            report(records,
                   {label, "quarantines",
                    static_cast<double>(result.quarantines), "count",
                    config.shards});
            table.row()
                .text(arm.label)
                .num(result.e2eP50Seconds, 3)
                .num(result.e2eP99Seconds, 3)
                .num(result.e2eP999Seconds, 3)
                .num(wastedFrac, 4)
                .integer(static_cast<long long>(result.hedgesLaunched))
                .integer(static_cast<long long>(result.quarantines));

            if (std::strcmp(arm.label, "none") == 0)
                noneP999 = result.e2eP999Seconds;
            if (std::strcmp(arm.label, "hedge_quarantine") == 0) {
                tailClaim =
                    tailClaim && result.e2eP999Seconds < noneP999;
                wasteClaim = wasteClaim && wastedFrac < 0.10;
            }
        }
        table.print(std::cout);
    }

    report(records, {"tail_tolerance", "p999_improves",
                     tailClaim ? 1.0 : 0.0, "bool", 1});
    report(records, {"tail_tolerance", "wasted_under_10pct",
                     wasteClaim ? 1.0 : 0.0, "bool", 1});
    writeJson(outPath, records);
    std::cout << "wrote " << records.size() << " records to " << outPath
              << "\n";
    if (!tailClaim) {
        std::cerr << "FAIL: hedge+quarantine did not beat the "
                     "no-mitigation p99.9\n";
        return 1;
    }
    if (!wasteClaim) {
        std::cerr << "FAIL: wasted work reached 10% of total exec "
                     "time\n";
        return 1;
    }
    std::cout << "\nExpected shape: breakers barely move a gray tail; "
                 "hedging collapses p99.9 and quarantine keeps "
                 "primaries off stragglers, for under 10% duplicated "
                 "work.\n";
    return 0;
}
