/**
 * @file
 * Cluster-mode experiment harness: the library entry point for a
 * multi-node run, plus the CSV writers the determinism suite diffs
 * byte-for-byte.
 */

#ifndef RC_EXP_CLUSTER_RUN_HH_
#define RC_EXP_CLUSTER_RUN_HH_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

#include "cluster/sharded_cluster.hh"
#include "exp/experiment.hh"

namespace rc::exp {

/** Cluster-run knobs on top of the shared node configuration. */
struct ClusterRunConfig
{
    /** Number of worker nodes. */
    std::size_t nodes = 4;
    /** Routing policy. */
    cluster::Scheduling scheduling = cluster::Scheduling::LocalityAware;
    /**
     * Node partitions stepped in parallel; clamped to [1, nodes].
     * Results are bit-identical at any shard count — only wall clock
     * changes.
     */
    std::size_t shards = 1;
    /** Crew stepping the shards (ShardedConfig::threads); 0 picks
     *  one per shard, clamped to the usable CPUs. */
    std::size_t threads = 0;
    /** Per-node configuration. */
    platform::NodeConfig node;
    /**
     * Measure the coordinator-phase wall-clock breakdown (see
     * ClusterResult::coordinatorDrainNs). Off by default: the numbers
     * are host-dependent and benchmarks are the only consumer.
     */
    bool phaseTimings = false;
};

/**
 * Run @p factory's policy over @p arrivals on a cluster. A shim over
 * the streaming overload (wraps the vector in a
 * trace::VectorArrivalSource).
 */
cluster::ClusterResult
runCluster(const workload::Catalog& catalog, const PolicyFactory& factory,
           const std::vector<trace::Arrival>& arrivals,
           const ClusterRunConfig& config);

/**
 * Pull arrivals from @p source instead of a materialized vector, so
 * resident memory stays O(window) regardless of trace length.
 */
cluster::ClusterResult
runCluster(const workload::Catalog& catalog, const PolicyFactory& factory,
           trace::ArrivalSource& source, const ClusterRunConfig& config);

/** One cluster_summary.csv cell: a label, an event count, or a real. */
using SummaryValue = std::variant<std::string, std::uint64_t, double>;

/** One named cluster_summary.csv column. */
struct SummaryColumn
{
    const char* name;
    SummaryValue value;
};

/**
 * The cluster_summary.csv columns of @p result, in file order. This
 * table is the single source of the CSV header, its row, and
 * obs_check --fleet's parser, which reads every std::uint64_t column
 * as an event count.
 */
std::vector<SummaryColumn>
clusterSummaryColumns(const cluster::ClusterResult& result);

/**
 * One header + one row, every clusterSummaryColumns() entry. All sums
 * are accumulated in node order regardless of shard count, so the
 * bytes written here are the determinism pin.
 */
void writeClusterSummaryCsv(std::ostream& out,
                            const cluster::ClusterResult& result);

/** One row per node: node,invocations (load-balance view). */
void writeClusterPerNodeCsv(std::ostream& out,
                            const cluster::ClusterResult& result);

} // namespace rc::exp

#endif // RC_EXP_CLUSTER_RUN_HH_
