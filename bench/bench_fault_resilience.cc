/**
 * @file
 * Fault-resilience sweep — the six baselines replay an Azure-like
 * trace while rc::fault injects container failures (init faults,
 * exec crashes, wedges) at increasing rates and whole-node crashes at
 * decreasing MTBFs. Reported per cell: mean startup latency, p99
 * end-to-end latency, and goodput (completed / (completed + retry-
 * exhausted)). Layer-aware caching should degrade gracefully: losing
 * a container costs RainbowCake only the layers above the fault,
 * while flat-cache baselines pay a full cold start per loss.
 *
 * Flags:
 *   --minutes M    trace length in minutes (default 60)
 *   --out PATH     also write the long-format table as CSV
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "exp/experiment.hh"
#include "exp/parallel_runner.hh"
#include "fault/fault_plan.hh"
#include "stats/table.hh"
#include "trace/generator.hh"
#include "trace/replay.hh"
#include "workload/catalog.hh"

namespace {

using namespace rc;

/**
 * One container-fault intensity. The headline @p rate is the user
 * init-fail probability; the other classes scale with it so a single
 * axis sweeps every container fault class at once.
 */
fault::FaultPlan
planFor(double rate, double mtbfSeconds)
{
    fault::FaultPlan plan;
    plan.userInitFailProb = rate;
    plan.langInitFailProb = rate / 2.0;
    plan.bareInitFailProb = rate / 4.0;
    plan.execCrashProb = rate / 2.0;
    plan.wedgeProb = rate / 10.0;
    plan.execTimeout = 30 * sim::kSecond;
    plan.nodeMtbfSeconds = mtbfSeconds;
    plan.nodeDowntimeSeconds = 30.0;
    plan.maxRetries = 3;
    return plan;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace rc;

    std::size_t minutes = 60;
    std::string outPath;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--minutes") == 0 && i + 1 < argc) {
            minutes = std::stoul(argv[++i]);
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            outPath = argv[++i];
        } else {
            std::cerr << "usage: bench_fault_resilience [--minutes M] "
                         "[--out PATH]\n";
            return 2;
        }
    }

    const auto catalog = workload::Catalog::standard20();
    trace::WorkloadTraceConfig traceConfig;
    traceConfig.minutes = minutes;
    traceConfig.targetInvocations = minutes * 120;
    traceConfig.seed = 20240;
    const auto arrivals = trace::expandArrivals(
        trace::generateAzureLike(catalog, traceConfig));

    // Axis 1: container-fault intensity (user init-fail probability;
    // the other classes scale with it, see planFor). Axis 2: node
    // MTBF; 0 disables whole-node crashes.
    const double failRates[] = {0.0, 0.01, 0.05, 0.10};
    const double mtbfs[] = {0.0, 1800.0, 600.0};

    const auto baselines = exp::standardBaselines(catalog);
    std::vector<exp::RunSpec> specs;
    for (const double mtbf : mtbfs) {
        for (const double rate : failRates) {
            for (const auto& policy : baselines) {
                platform::NodeConfig config;
                config.fault = planFor(rate, mtbf);
                specs.push_back({&catalog, policy.make, &arrivals, config, {}});
            }
        }
    }
    const auto results = exp::ParallelRunner().run(specs);

    stats::Table table("Fault resilience: baselines under container and "
                       "node failures (" + std::to_string(minutes) +
                       " min trace)");
    table.setHeader({"Policy", "FailRate", "MTBF(s)", "MeanStartup(s)",
                     "P99E2E(s)", "Goodput", "Failed", "Retries",
                     "Stranded"});

    std::ofstream csv;
    if (!outPath.empty()) {
        csv.open(outPath);
        if (!csv) {
            std::cerr << "cannot open " << outPath << "\n";
            return 2;
        }
        csv << "policy,fail_rate,mtbf_seconds,mean_startup_seconds,"
               "p99_e2e_seconds,goodput,failed,retries\n";
    }

    std::size_t i = 0;
    for (const double mtbf : mtbfs) {
        for (const double rate : failRates) {
            for (const auto& policy : baselines) {
                const auto& result = results[i++];
                const auto& m = result.metrics;
                const double completed =
                    static_cast<double>(m.total());
                const double failed =
                    static_cast<double>(result.failedInvocations);
                const double goodput =
                    completed + failed > 0.0
                        ? completed / (completed + failed)
                        : 1.0;
                table.row()
                    .text(policy.label)
                    .num(rate, 2)
                    .num(mtbf, 0)
                    .num(m.meanStartupSeconds(), 3)
                    .num(m.p99EndToEndSeconds(), 3)
                    .num(goodput, 4)
                    .integer(static_cast<long long>(
                        result.failedInvocations))
                    .integer(static_cast<long long>(
                        result.retriesScheduled))
                    .integer(static_cast<long long>(
                        result.strandedInvocations));
                if (csv.is_open()) {
                    csv << policy.label << ',' << rate << ',' << mtbf
                        << ',' << m.meanStartupSeconds() << ','
                        << m.p99EndToEndSeconds() << ',' << goodput
                        << ',' << result.failedInvocations << ','
                        << result.retriesScheduled << '\n';
                }
            }
        }
    }
    table.print(std::cout);
    if (csv.is_open())
        std::cout << "\nCSV written to " << outPath << "\n";

    std::cout << "\nReading: goodput stays near 1.0 while retries absorb "
                 "container faults; layer-aware pools rebuild lost "
                 "containers from surviving layers, so RainbowCake's "
                 "startup latency should rise slowest with the failure "
                 "rate.\n";
    return 0;
}
