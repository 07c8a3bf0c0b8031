/**
 * @file
 * Scalability study beyond the paper's 20-function workload, in two
 * tiers.
 *
 * Tier 1 (fleet): 20-500 synthetic functions (calibrated Fig. 2
 * ranges) on one node, comparing RainbowCake with the fixed
 * keep-alive baseline. Two claims are checked: (a) the cold-start
 * problem gets *worse* for fixed windows as the fleet grows while
 * layer sharing keeps absorbing it; (b) the policy machinery stays
 * cheap (§3.1): wall-clock per simulated invocation per fleet size.
 *
 * Tier 2 (cluster): one cluster-scale run (1k nodes, 10M
 * invocations; --quick shrinks both) replayed on the sharded
 * parallel core at shards = 1, 2, 8. Reports events/sec and the
 * speedup over 1 shard, verifies the report fingerprint is
 * bit-identical at every shard count, and checks invocation
 * conservation. Speedup needs cores: on an N-core host the 8-shard
 * run uses min(8, N) threads.
 *
 * Tier 3 (mega, streaming): 5k nodes / 100M invocations (--quick
 * shrinks both) pulled straight from the minute-bucketed TraceSet —
 * the arrival vector is never materialized, and an RSS gate pins
 * that: building the streaming source must cost a small constant,
 * not the O(trace) a 100M-arrival expansion would (~1.6 GB). Runs
 * with coordinator phase timings on and reports the measured serial
 * fraction per shard count.
 *
 * Every measurement is appended to `BENCH_fleet.json` with the
 * schema `{bench, metric, value, unit, threads}` so the performance
 * trajectory is tracked PR-over-PR.
 *
 * Flags:
 *   --quick     small cluster/mega tiers + skip the 200/500 fleets
 *               (CI)
 *   --out PATH  JSON output path (default BENCH_fleet.json)
 */

#include <sys/resource.h>

#include <cctype>
#include <chrono>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_record.hh"
#include "core/ablations.hh"
#include "exp/cluster_run.hh"
#include "exp/experiment.hh"
#include "exp/parallel_runner.hh"
#include "policy/openwhisk_fixed.hh"
#include "sim/shard_executor.hh"
#include "stats/table.hh"
#include "trace/arrival_source.hh"
#include "trace/generator.hh"
#include "trace/replay.hh"
#include "workload/catalog.hh"

namespace {

using namespace rc;
using namespace rc::bench;
using Clock = std::chrono::steady_clock;

/** The determinism/conservation fingerprint of one cluster run. */
std::string
fingerprint(const cluster::ClusterResult& result)
{
    std::ostringstream out;
    exp::writeClusterSummaryCsv(out, result);
    exp::writeClusterPerNodeCsv(out, result);
    return out.str();
}

/** Process peak RSS in KB (Linux ru_maxrss unit). Monotone. */
std::uint64_t
peakRssKb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<std::uint64_t>(usage.ru_maxrss);
}

/** Terminal-state conservation over one ClusterResult. */
bool
conservationHolds(const cluster::ClusterResult& result)
{
    return result.invocations + result.failedInvocations +
            result.strandedInvocations + result.reroutedInvocations +
            result.rejectedInvocations + result.shedDeadline +
            result.shedPressure ==
        result.admittedInvocations;
}

/**
 * Generate a TraceSet that actually carries >= @p invocations. The
 * generator's sparse-tail archetypes arrive at fixed IATs, so the
 * realized count undershoots large targets (only the head scales
 * with the target); rescale until the bucketed count — no arrival
 * expansion needed to know it — reaches the advertised volume.
 */
trace::TraceSet
makeScaledTrace(const workload::Catalog& catalog, std::size_t minutes,
                std::uint64_t invocations)
{
    const auto make = [&](std::uint64_t target) {
        trace::WorkloadTraceConfig traceConfig;
        traceConfig.minutes = minutes;
        traceConfig.targetInvocations = target;
        traceConfig.seed = 99;
        return trace::generateAzureLike(catalog, traceConfig);
    };
    std::uint64_t target = invocations;
    auto traceSet = make(target);
    for (int pass = 0;
         pass < 3 && traceSet.totalInvocations() < invocations; ++pass) {
        // 2% overshoot so rounding in the head rates cannot leave the
        // realized count just under the advertised floor.
        target = static_cast<std::uint64_t>(
                     static_cast<double>(target) * 1.02 *
                     (static_cast<double>(invocations) /
                      static_cast<double>(traceSet.totalInvocations()))) +
            1;
        traceSet = make(target);
    }
    return traceSet;
}

/** Tier 2: the sharded-core cluster-scale benchmark. */
void
runClusterTier(bool quick, std::vector<BenchRecord>& records)
{
    const std::size_t nodes = quick ? 64 : 1000;
    const std::size_t functions = quick ? 100 : 400;
    const std::size_t minutes = quick ? 20 : 120;
    const std::uint64_t invocations = quick ? 60'000 : 10'000'000;

    std::cout << "\ncluster tier: " << nodes << " nodes, "
              << invocations << " invocations, " << functions
              << " functions\n";
    const auto catalog =
        workload::Catalog::syntheticFleet(functions, 7);
    const auto arrivals = trace::expandArrivals(
        makeScaledTrace(catalog, minutes, invocations));
    std::cout << "trace: " << arrivals.size() << " arrivals\n";

    double baseSeconds = 0.0;
    std::string golden;
    bool deterministic = true;
    bool conserved = true;
    for (const std::size_t shards : {1u, 2u, 8u}) {
        exp::ClusterRunConfig config;
        config.nodes = nodes;
        config.shards = shards;
        config.node.pool.memoryBudgetMb = 8.0 * 1024.0;
        config.node.fault.nodeMtbfSeconds = 3600.0;
        config.node.fault.nodeDowntimeSeconds = 30.0;
        config.node.fault.maxRetries = 2;

        const auto start = Clock::now();
        const auto result = exp::runCluster(
            catalog,
            [&catalog] { return core::makeRainbowCake(catalog); },
            arrivals, config);
        const double seconds =
            std::chrono::duration<double>(Clock::now() - start)
                .count();
        const std::size_t threads =
            std::min(shards, sim::usableCpus());

        const std::string label =
            "fleet_cluster_" + std::to_string(shards) + "shard";
        report(records,
               {label, "events_per_sec",
                static_cast<double>(result.engineEvents) / seconds,
                "events/s", threads});
        report(records,
               {label, "invocations_per_sec",
                static_cast<double>(result.invocations) / seconds,
                "inv/s", threads});
        report(records, {label, "wall_seconds", seconds, "s", threads});
        if (shards == 1) {
            baseSeconds = seconds;
            golden = fingerprint(result);
        } else {
            report(records,
                   {label, "speedup_vs_1shard", baseSeconds / seconds,
                    "x", threads});
            deterministic =
                deterministic && fingerprint(result) == golden;
        }
        conserved = conserved && conservationHolds(result);
    }
    report(records, {"fleet_cluster", "deterministic_across_shards",
                     deterministic ? 1.0 : 0.0, "bool", 1});
    report(records, {"fleet_cluster", "conservation_holds",
                     conserved ? 1.0 : 0.0, "bool", 1});
    if (!deterministic || !conserved) {
        std::cerr << "FAIL: cluster tier determinism/conservation "
                     "violated\n";
        std::exit(1);
    }
}

/** Tier 3: the 5k-node / 100M-invocation streaming tier. */
void
runMegaTier(bool quick, std::vector<BenchRecord>& records)
{
    const std::size_t nodes = quick ? 256 : 5000;
    const std::size_t functions = quick ? 120 : 600;
    const std::size_t minutes = quick ? 20 : 120;
    const std::uint64_t invocations = quick ? 300'000 : 100'000'000;

    std::cout << "\nmega tier (streaming): " << nodes << " nodes, "
              << invocations << " invocations, " << functions
              << " functions\n";
    const auto catalog =
        workload::Catalog::syntheticFleet(functions, 11);

    // RSS gate: bucketed generation plus the streaming source must
    // cost a small constant — materializing the expansion instead
    // would show up here as sizeof(Arrival) * invocations (~1.6 GB at
    // the full tier). ru_maxrss is a process-lifetime peak, so the
    // gate measures the delta across exactly this phase.
    const std::uint64_t rssBeforeKb = peakRssKb();
    const auto traceSet = makeScaledTrace(catalog, minutes, invocations);
    const std::uint64_t total = traceSet.totalInvocations();
    {
        const trace::TraceSetArrivalSource probe(traceSet);
        if (probe.total() != total) {
            std::cerr << "FAIL: streaming source disagrees with the "
                         "bucketed invocation count\n";
            std::exit(1);
        }
    }
    const double sourceRssMb =
        static_cast<double>(peakRssKb() - rssBeforeKb) / 1024.0;
    const double materializedMb = static_cast<double>(total) *
        static_cast<double>(sizeof(trace::Arrival)) / (1024.0 * 1024.0);
    std::cout << "trace: " << total << " invocations (bucketed), "
              << "source peak-RSS delta " << sourceRssMb
              << " MB vs materialized ~" << materializedMb << " MB\n";
    report(records, {"mega_cluster", "source_rss_delta_mb", sourceRssMb,
                     "MB", 1});
    if (!quick && sourceRssMb > 512.0) {
        std::cerr << "FAIL: streaming source RSS delta " << sourceRssMb
                  << " MB — the trace is being materialized\n";
        std::exit(1);
    }

    double baseSeconds = 0.0;
    std::string golden;
    bool deterministic = true;
    bool conserved = true;
    for (const std::size_t shards : {1u, 2u, 8u}) {
        exp::ClusterRunConfig config;
        config.nodes = nodes;
        config.shards = shards;
        config.phaseTimings = true;
        config.node.pool.memoryBudgetMb = 4.0 * 1024.0;
        config.node.fault.nodeMtbfSeconds = 7200.0;
        config.node.fault.nodeDowntimeSeconds = 30.0;
        config.node.fault.maxRetries = 2;

        // A fresh source per run replays the identical stream; the
        // TraceSet copy is the per-minute buckets, not the expansion.
        trace::TraceSetArrivalSource source(traceSet);
        const auto start = Clock::now();
        const auto result = exp::runCluster(
            catalog,
            [&catalog] { return core::makeRainbowCake(catalog); },
            source, config);
        const double seconds =
            std::chrono::duration<double>(Clock::now() - start)
                .count();
        const std::size_t threads =
            std::min(shards, sim::usableCpus());

        const std::string label =
            "mega_cluster_" + std::to_string(shards) + "shard";
        report(records,
               {label, "events_per_sec",
                static_cast<double>(result.engineEvents) / seconds,
                "events/s", threads});
        report(records, {label, "wall_seconds", seconds, "s", threads});
        report(records, {label, "serial_fraction",
                         result.serialFraction, "ratio", threads});
        report(records,
               {label, "coordinator_drain_seconds",
                static_cast<double>(result.coordinatorDrainNs) / 1e9,
                "s", threads});
        report(records,
               {label, "route_seconds",
                static_cast<double>(result.routeNs) / 1e9, "s",
                threads});
        report(records,
               {label, "summary_capture_seconds",
                static_cast<double>(result.summaryCaptureNs) / 1e9, "s",
                threads});
        report(records,
               {label, "barrier_wait_seconds",
                static_cast<double>(result.barrierWaitNs) / 1e9, "s",
                threads});
        if (shards == 1) {
            baseSeconds = seconds;
            golden = fingerprint(result);
        } else {
            report(records,
                   {label, "speedup_vs_1shard", baseSeconds / seconds,
                    "x", threads});
            deterministic =
                deterministic && fingerprint(result) == golden;
        }
        conserved = conserved && conservationHolds(result);
    }
    report(records, {"mega_cluster", "peak_rss_mb",
                     static_cast<double>(peakRssKb()) / 1024.0, "MB",
                     1});
    report(records, {"mega_cluster", "deterministic_across_shards",
                     deterministic ? 1.0 : 0.0, "bool", 1});
    report(records, {"mega_cluster", "conservation_holds",
                     conserved ? 1.0 : 0.0, "bool", 1});
    if (!deterministic || !conserved) {
        std::cerr << "FAIL: mega tier determinism/conservation "
                     "violated\n";
        std::exit(1);
    }
}

} // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    std::string outPath = "BENCH_fleet.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            outPath = argv[++i];
    }
    std::vector<BenchRecord> records;

    stats::Table table("Fleet scalability: 2-hour workload, 64 GB node");
    table.setHeader({"Functions", "Invocations", "Policy", "Cold",
                     "MeanStartup(s)", "Waste(GBxs)", "HostUs/Invocation"});

    // Per-fleet inputs are built up front (jobs hold pointers into
    // them), then every (fleet x policy) run fans out across cores.
    // Each job times itself so the host-cost column survives the
    // parallel execution.
    struct FleetInputs
    {
        std::size_t fleet;
        workload::Catalog catalog;
        std::vector<trace::Arrival> arrivals;
        platform::NodeConfig nodeConfig;
    };
    std::vector<std::size_t> fleets = {20, 50, 100, 200, 500};
    if (quick)
        fleets = {20, 100};
    std::vector<FleetInputs> inputs;
    inputs.reserve(fleets.size());
    for (const std::size_t fleet : fleets) {
        FleetInputs in;
        in.fleet = fleet;
        in.catalog = workload::Catalog::syntheticFleet(fleet, 7);
        trace::WorkloadTraceConfig config;
        config.minutes = 120;
        config.targetInvocations = fleet * 60; // sparse per function
        config.seed = 99;
        in.arrivals = trace::expandArrivals(
            trace::generateAzureLike(in.catalog, config));
        in.nodeConfig.pool.memoryBudgetMb = 64.0 * 1024.0;
        inputs.push_back(std::move(in));
    }

    struct Job
    {
        const FleetInputs* in;
        const char* label;
        exp::PolicyFactory make;
        exp::RunResult result;
        long long elapsedUs = 0;
    };
    std::vector<Job> jobs;
    for (const FleetInputs& in : inputs) {
        jobs.push_back({&in, "OpenWhisk",
                        [] {
                            return std::make_unique<
                                policy::OpenWhiskFixedPolicy>();
                        },
                        {}, 0});
        const workload::Catalog* catalog = &in.catalog;
        const std::size_t fleet = in.fleet;
        jobs.push_back({&in, "RainbowCake",
                        [catalog, fleet] {
                            core::RainbowCakeConfig rcConfig;
                            // The shared-pool cap is a per-node
                            // concurrency knob: scale it with the
                            // fleet so the Lang pool can cover
                            // proportionally more concurrent misses.
                            rcConfig.maxIdleSharedPerGroup =
                                std::max<std::size_t>(2, fleet / 25);
                            return core::makeRainbowCake(*catalog,
                                                         rcConfig);
                        },
                        {}, 0});
    }

    exp::ParallelRunner().forEach(jobs.size(), [&jobs](std::size_t i) {
        Job& job = jobs[i];
        const auto start = Clock::now();
        job.result = exp::runExperiment(job.in->catalog, job.make,
                                        job.in->arrivals,
                                        job.in->nodeConfig);
        job.elapsedUs =
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - start)
                .count();
    });

    for (const Job& job : jobs) {
        const auto& result = job.result;
        const double usPerInvocation =
            static_cast<double>(job.elapsedUs) /
            static_cast<double>(result.metrics.total());
        std::string slug = job.label;
        for (auto& c : slug)
            c = static_cast<char>(std::tolower(c));
        records.push_back({"fleet_" + std::to_string(job.in->fleet) +
                               "fn_" + slug,
                           "host_us_per_invocation", usPerInvocation,
                           "us/inv", 1});
        table.row()
            .integer(static_cast<long long>(job.in->fleet))
            .integer(static_cast<long long>(result.metrics.total()))
            .text(job.label)
            .integer(static_cast<long long>(result.metrics.countOf(
                platform::StartupType::Cold)))
            .num(result.metrics.meanStartupSeconds(), 3)
            .num(result.wasteGbSeconds(), 0)
            .num(static_cast<double>(job.elapsedUs) /
                     static_cast<double>(result.metrics.total()),
                 1);
    }
    table.print(std::cout);

    std::cout << "\nExpected shape: the fixed window's cold-start share "
                 "and waste grow with fleet size while RainbowCake's "
                 "shared layers keep absorbing the sparse tail; host "
                 "cost per simulated invocation stays in the "
                 "microseconds.\n";

    runClusterTier(quick, records);
    runMegaTier(quick, records);

    writeJson(outPath, records);
    std::cout << "wrote " << records.size() << " records to " << outPath
              << "\n";
    return 0;
}
