/**
 * @file
 * Barrier-time scheduling for the sharded cluster core.
 *
 * Routing against live node objects would force the whole cluster
 * onto one timeline (every node advanced to the arrival instant
 * before each pick). The sharded core instead routes against
 * *summaries*: per-node PODs captured by each shard at the last
 * barrier. Decisions therefore see state that is up to one lookahead
 * window stale — exactly the information a real inter-node scheduler
 * would have, since placement messages take a network hop anyway.
 *
 * Every rule here is a pure function of the summary table plus the
 * scheduler's own deterministic state (rotation cursor, affinity
 * map), so routing is bit-identical for any shard or thread count.
 * Locality is approximated by *affinity*: a function is routed back
 * to the node that served it last, which is where its warm User
 * container lives unless the pool evicted it. Within a routing
 * window the scheduler also models its own placements (in-flight
 * bump, idle-capacity decrement) so a burst does not dogpile one
 * node just because summaries refresh only at barriers.
 */

#ifndef RC_CLUSTER_SHARD_SCHEDULER_HH_
#define RC_CLUSTER_SHARD_SCHEDULER_HH_

#include <cstdint>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster/summary_table.hh"
#include "workload/catalog.hh"
#include "workload/types.hh"

namespace rc::cluster {

/** Deterministic summary-based router for every Scheduling mode. */
class ShardScheduler
{
  public:
    /**
     * Affinity saturation spill: LocalityAware stops honoring the
     * affinity hint once the pinned node's in-flight-plus-queued
     * backlog reaches this depth and falls through to the sharing and
     * least-loaded rules instead. A warm container behind a backlog
     * this deep is a mirage (the queue ahead will claim it), and
     * after a correlated outage every affinity points at a survivor,
     * so unbounded pinning would starve rejoined nodes forever. The
     * threshold is far above steady-state depths (a node runs a
     * handful of requests at a time), so it only bites under genuine
     * overload.
     */
    static constexpr std::uint32_t kAffinitySpillDepth = 16;

    /** pick()'s @p avoid when every node may take the work. */
    static constexpr std::size_t kNoAvoid = ~std::size_t{0};

    ShardScheduler(Scheduling scheduling, const workload::Catalog& catalog);

    /**
     * Pick the node to serve @p function given the barrier rows of
     * @p table. Records the placement in the table's in-window model
     * and in the affinity map. Deterministic. Node @p avoid counts as
     * unavailable (a hedge must land off its primary) but stays in
     * the all-unavailable fallbacks, so it may be returned when no
     * other node is routable — the caller skips the hedge then.
     */
    std::size_t pick(SummaryTable& table, workload::FunctionId function,
                     std::size_t avoid = kNoAvoid);

  private:
    static bool
    routable(const SummaryTable& table, std::size_t i, std::size_t avoid)
    {
        return i != avoid && table.available(i, SummaryTable::kAllHolds);
    }

    std::size_t leastLoaded(const SummaryTable& table,
                            std::size_t avoid) const;

    /** Record a placement in the in-window model. */
    void place(SummaryTable& table, workload::FunctionId function,
               std::size_t index);

    Scheduling _scheduling;
    const workload::Catalog& _catalog;
    std::size_t _cursor = 0;
    /** function -> node + 1 that served it last (0 = never placed). */
    std::vector<std::uint32_t> _affinity;
};

} // namespace rc::cluster

#endif // RC_CLUSTER_SHARD_SCHEDULER_HH_
