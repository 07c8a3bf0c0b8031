/**
 * @file
 * Example: running RainbowCake across a multi-node cluster with the
 * §8 locality/sharing/load scheduler.
 */

#include <iostream>

#include "cluster/sharded_cluster.hh"
#include "core/ablations.hh"
#include "stats/table.hh"
#include "trace/generator.hh"
#include "trace/replay.hh"
#include "workload/catalog.hh"

int
main()
{
    using namespace rc;

    const auto catalog = workload::Catalog::standard20();

    trace::WorkloadTraceConfig traceConfig;
    traceConfig.minutes = 120;
    traceConfig.targetInvocations = 2000;
    traceConfig.seed = 19;
    const auto arrivals = trace::expandArrivals(
        trace::generateAzureLike(catalog, traceConfig));
    std::cout << "Routing " << arrivals.size()
              << " invocations across a 4-node cluster...\n\n";

    stats::Table table("Cluster scheduling comparison (2h workload)");
    table.setHeader({"Scheduling", "ColdStarts", "MeanStartup(s)",
                     "Waste(GBxs)", "PerNodeInvocations"});
    for (const auto scheduling :
         {cluster::Scheduling::RoundRobin,
          cluster::Scheduling::LeastLoaded,
          cluster::Scheduling::LocalityAware}) {
        cluster::ClusterConfig config;
        config.nodes = 4;
        config.node.pool.memoryBudgetMb = 32.0 * 1024.0;
        config.scheduling = scheduling;
        cluster::ShardedCluster cluster(
            catalog,
            [&catalog] { return core::makeRainbowCake(catalog); },
            config);
        const auto result = cluster.run(arrivals);

        std::string spread;
        for (const auto count : result.perNodeInvocations) {
            if (!spread.empty())
                spread += "/";
            spread += std::to_string(count);
        }
        table.row()
            .text(result.schedulingName)
            .integer(static_cast<long long>(result.coldStarts))
            .num(result.meanStartupSeconds, 3)
            .num(result.totalWasteMbSeconds / 1024.0, 0)
            .text(spread);
    }
    table.print(std::cout);

    std::cout << "\nLocality-aware routing keeps each function's warm "
                 "containers on one node and sends sharing-eligible "
                 "misses where idle Lang/Bare layers already sit.\n";
    return 0;
}
