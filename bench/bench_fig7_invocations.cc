/**
 * @file
 * Figure 7 — End-to-end latency of each invocation for the six
 * baselines: average and 99th-percentile lines, plus a coarse
 * distribution of per-invocation latencies (the scatter panels).
 */

#include <iostream>

#include "exp/experiment.hh"
#include "exp/parallel_runner.hh"
#include "exp/report.hh"
#include "exp/standard_traces.hh"
#include "stats/percentile.hh"
#include "stats/table.hh"
#include "trace/replay.hh"
#include "workload/catalog.hh"

int
main()
{
    using namespace rc;

    const auto catalog = workload::Catalog::standard20();
    const auto arrivals =
        trace::expandArrivals(exp::eightHourTrace(catalog));

    stats::Table table(
        "Fig. 7: per-invocation end-to-end latency, avg (solid) and "
        "P99 (dash) per baseline (s)");
    table.setHeader({"Policy", "Invocations", "Mean", "P50", "P90",
                     "P99", "Max"});

    const auto results = exp::ParallelRunner().run(exp::specsForPolicies(
        catalog, exp::standardBaselines(catalog), arrivals));
    for (const auto& r : results) {
        stats::Percentile p;
        for (const auto& rec : r.metrics.records())
            p.add(sim::toSeconds(rec.endToEnd));
        table.row()
            .text(r.policyName)
            .integer(static_cast<long long>(r.metrics.total()))
            .num(r.metrics.meanEndToEndSeconds(), 3)
            .num(p.quantile(0.5), 3)
            .num(p.quantile(0.9), 3)
            .num(p.p99(), 3)
            .num(p.quantile(1.0), 3);
    }
    table.print(std::cout);

    std::cout << "\nRainbowCake relative to baselines (avg / P99):\n";
    const auto& ours = results.back();
    stats::Percentile oursP;
    for (const auto& rec : ours.metrics.records())
        oursP.add(sim::toSeconds(rec.endToEnd));
    for (std::size_t i = 0; i + 1 < results.size(); ++i) {
        stats::Percentile p;
        for (const auto& rec : results[i].metrics.records())
            p.add(sim::toSeconds(rec.endToEnd));
        std::cout << "  vs " << results[i].policyName << ": "
                  << exp::percentChange(
                         results[i].metrics.meanEndToEndSeconds(),
                         ours.metrics.meanEndToEndSeconds())
                  << " / " << exp::percentChange(p.p99(), oursP.p99())
                  << '\n';
    }
    return 0;
}
