/**
 * @file
 * Figure 12(d) — Total startup latency under constrained memory
 * budgets: the container-pool budget sweeps 40..280 GB while the six
 * baselines replay the 8-hour trace. Policies that hoard memory
 * (FaaSCache, Pagurus) must degrade fastest as the budget shrinks;
 * RainbowCake's layered pool should stay flat the longest.
 */

#include <iostream>

#include "exp/experiment.hh"
#include "exp/parallel_runner.hh"
#include "exp/standard_traces.hh"
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
    // Scale note: the paper sweeps 40-280 GB on a worker whose
    // working set is proportionally larger; our 20-function load
    // peaks around 10 GB of resident containers, so we sweep the
    // same *ratios* of budget to working set (1-14 GB here maps to
    // the paper's 40-280 GB axis).
    const double budgetsGb[] = {1, 2, 3, 4, 6, 10, 14};

    stats::Table table(
        "Fig. 12(d): total startup latency vs memory budget (s)");
    std::vector<std::string> header{"Policy"};
    for (const double gb : budgetsGb)
        header.push_back(stats::formatNumber(gb, 0) + "GB");
    table.setHeader(header);

    // One job per (policy, budget), fanned out across cores.
    const auto baselines = exp::standardBaselines(catalog);
    std::vector<exp::RunSpec> specs;
    for (const auto& policy : baselines) {
        for (const double gb : budgetsGb) {
            platform::NodeConfig config;
            config.pool.memoryBudgetMb = gb * 1024.0;
            specs.push_back({&catalog, policy.make, &arrivals, config, {}});
        }
    }
    const auto results = exp::ParallelRunner().run(specs);

    const std::size_t budgets = std::size(budgetsGb);
    for (std::size_t p = 0; p < baselines.size(); ++p) {
        stats::Table::RowBuilder row(table);
        row.text(baselines[p].label);
        for (std::size_t b = 0; b < budgets; ++b)
            row.num(results[p * budgets + b].totalStartupSeconds, 0);
    }
    table.print(std::cout);

    std::cout << "\nPaper reference: RainbowCake shows significantly "
                 "less total startup latency when the budget is "
                 "limited.\n";
    return 0;
}
