#include "exp/cluster_run.hh"

#include <ostream>

namespace rc::exp {

cluster::ClusterResult
runCluster(const workload::Catalog& catalog, const PolicyFactory& factory,
           const std::vector<trace::Arrival>& arrivals,
           const ClusterRunConfig& config)
{
    trace::VectorArrivalSource source(arrivals);
    return runCluster(catalog, factory, source, config);
}

cluster::ClusterResult
runCluster(const workload::Catalog& catalog, const PolicyFactory& factory,
           trace::ArrivalSource& source, const ClusterRunConfig& config)
{
    cluster::ClusterConfig clusterConfig;
    clusterConfig.nodes = config.nodes;
    clusterConfig.node = config.node;
    clusterConfig.scheduling = config.scheduling;
    cluster::ShardedConfig sharded;
    sharded.shards = config.shards;
    sharded.threads = config.threads;
    sharded.phaseTimings = config.phaseTimings;
    cluster::ShardedCluster cluster(catalog, factory, clusterConfig,
                                    sharded);
    return cluster.run(source);
}

std::vector<SummaryColumn>
clusterSummaryColumns(const cluster::ClusterResult& r)
{
    const auto count = [](std::uint64_t n) { return n; };
    return {
        {"scheduling", r.schedulingName},
        {"nodes", count(r.perNodeInvocations.size())},
        {"windows", r.windows},
        {"invocations", r.invocations},
        {"cold", r.coldStarts},
        {"mean_startup_s", r.meanStartupSeconds},
        {"total_startup_s", r.totalStartupSeconds},
        {"waste_gbs", r.totalWasteMbSeconds / 1024.0},
        {"stranded", count(r.strandedInvocations)},
        {"crashes", r.nodeCrashes},
        {"rerouted", r.reroutedInvocations},
        {"failed", r.failedInvocations},
        {"rejected", r.rejectedInvocations},
        {"shed_deadline", r.shedDeadline},
        {"shed_pressure", r.shedPressure},
        {"breaker_opens", r.breakerOpens},
        {"admitted", r.admittedInvocations},
        {"engine_events", r.engineEvents},
        {"cancelled", r.cancelledInvocations},
        {"hedges_launched", r.hedgesLaunched},
        {"hedges_won", r.hedgesWon},
        {"hedges_cancelled", r.hedgesCancelled},
        {"hedges_lost", r.hedgesLost},
        {"duplicates", r.duplicateCompletions},
        {"wasted_exec_s", r.wastedExecSeconds},
        {"quarantines", r.quarantines},
        {"probes", r.probes},
        {"partitions", r.partitions},
        {"msgs_delayed", r.msgsDelayed},
        {"msgs_dropped", r.msgsDropped},
        {"domain_outages", r.domainOutages},
        {"outage_episodes", r.outageNodeEpisodes},
        {"upgrade_episodes", r.upgradeEpisodes},
        {"nodes_drained", r.nodesDrained},
        {"nodes_killed", r.nodesKilled},
        {"recovered_nodes", r.recoveredNodes},
        {"rejoin_wait_s", r.rejoinWaitSeconds},
        {"prewarm_layers", r.prewarmLayers},
        {"prewarm_hit", r.prewarmHit},
        {"prewarm_evicted", r.prewarmEvicted},
        {"prewarm_wasted", r.prewarmWasted},
        {"prewarm_wasted_mb", r.prewarmWastedMb},
        {"retries_feedback", r.retriesFeedback},
        {"time_to_goodput_s", r.timeToGoodputSeconds},
        {"recovery_p99_s", r.recoveryP99Seconds},
        {"recovery_p999_s", r.recoveryP999Seconds},
    };
}

void
writeClusterSummaryCsv(std::ostream& out,
                       const cluster::ClusterResult& result)
{
    const std::vector<SummaryColumn> columns =
        clusterSummaryColumns(result);
    for (std::size_t i = 0; i < columns.size(); ++i)
        out << (i == 0 ? "" : ",") << columns[i].name;
    out << '\n';
    for (std::size_t i = 0; i < columns.size(); ++i) {
        if (i > 0)
            out << ',';
        std::visit([&out](const auto& value) { out << value; },
                   columns[i].value);
    }
    out << '\n';
}

void
writeClusterPerNodeCsv(std::ostream& out,
                       const cluster::ClusterResult& result)
{
    out << "node,invocations\n";
    for (std::size_t i = 0; i < result.perNodeInvocations.size(); ++i)
        out << i << ',' << result.perNodeInvocations[i] << '\n';
}

} // namespace rc::exp
