/**
 * @file
 * §8 extension — RainbowCake on distributed clusters.
 *
 * The paper sketches an inter-node scheduler weighing locality (warm
 * User containers), sharing (Lang/Bare opportunity), and load. This
 * bench compares that locality-aware scheduler against round-robin
 * and least-loaded routing on a four-node cluster replaying the
 * standard 8-hour trace, with every node running RainbowCake.
 */

#include <iostream>

#include "cluster/sharded_cluster.hh"
#include "core/ablations.hh"
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

    stats::Table table(
        "Sec. 8: inter-node scheduling on a 4-node RainbowCake "
        "cluster (8-hour trace)");
    table.setHeader({"Scheduling", "ColdStarts", "TotalStartup(s)",
                     "MeanStartup(s)", "Waste(GBxs)", "LoadSpread"});

    for (const auto scheduling :
         {cluster::Scheduling::RoundRobin,
          cluster::Scheduling::LeastLoaded,
          cluster::Scheduling::LocalityAware}) {
        cluster::ClusterConfig config;
        config.nodes = 4;
        config.node.pool.memoryBudgetMb = 60.0 * 1024.0; // 240 GB total
        config.scheduling = scheduling;
        cluster::ShardedCluster cluster(
            catalog, [&catalog] { return core::makeRainbowCake(catalog); },
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
            .num(result.totalStartupSeconds, 0)
            .num(result.meanStartupSeconds, 3)
            .num(result.totalWasteMbSeconds / 1024.0, 0)
            .text(spread);
    }
    table.print(std::cout);

    std::cout << "\nExpected shape: locality-aware routing converts the "
                 "cold starts that blind routing scatters across nodes "
                 "into warm and shared-layer hits, at some cost in load "
                 "spread.\n";
    return 0;
}
