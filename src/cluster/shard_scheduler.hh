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
 * Every rule here is a pure function of the summary array plus the
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

#include <array>
#include <cstdint>
#include <vector>

#include "cluster/cluster.hh"
#include "workload/catalog.hh"
#include "workload/types.hh"

namespace rc::cluster {

/**
 * Barrier-time snapshot of one node, written by the owning shard at
 * the end of each window and read by the coordinator. POD on purpose:
 * shards fill disjoint slots of one flat vector, no locks needed.
 */
struct NodeSummary
{
    /** Node is crashed (no new work). */
    std::uint8_t down = 0;
    /** Circuit breaker open (set by the coordinator, not the shard). */
    std::uint8_t tripped = 0;
    /** Latency-quarantined straggler (coordinator; primaries avoid). */
    std::uint8_t quarantined = 0;
    /** Inside a scheduled network partition (coordinator). */
    std::uint8_t severed = 0;
    /**
     * Draining before a planned upgrade, waiting for a staged-rejoin
     * token, or warming its census layers back up (coordinator). The
     * scheduler routes around it until the recovery orchestrator
     * clears the flag.
     */
    std::uint8_t recovering = 0;
    /** In-flight plus queued invocations (load signal). */
    std::uint32_t inFlightPlusQueued = 0;
    /** Pool resident memory (tie-break for least-loaded). */
    double usedMemoryMb = 0.0;
    /** Idle Bare containers available for sharing. */
    std::uint32_t idleBare = 0;
    /** Idle Lang containers per language. */
    std::array<std::uint32_t, workload::kLanguageCount> idleLang{};
    /** Idle User containers, all functions (recovery census-met feed). */
    std::uint32_t idleUser = 0;
    /** Cumulative invoker failures (circuit-breaker feed). */
    std::uint64_t failures = 0;
    /** Cumulative completed invocations (circuit-breaker feed). */
    std::uint64_t successes = 0;
};

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

    ShardScheduler(Scheduling scheduling, const workload::Catalog& catalog);

    /**
     * Pick the node to serve @p function given barrier summaries
     * @p nodes. Mutates the chosen summary (in-window placement
     * model) and the affinity map. Deterministic.
     */
    std::size_t pick(std::vector<NodeSummary>& nodes,
                     workload::FunctionId function);

    /**
     * pick() with node @p avoid off the table (hedged dispatch must
     * land on a different node than the primary). Implemented by
     * temporarily marking @p avoid down, so every mode's avoidance
     * logic applies unchanged. May still return @p avoid when it is
     * the only candidate — the caller skips the hedge in that case.
     */
    std::size_t pickAvoiding(std::vector<NodeSummary>& nodes,
                             workload::FunctionId function,
                             std::size_t avoid);

  private:
    static bool
    unavailable(const NodeSummary& s)
    {
        return s.down != 0 || s.tripped != 0 || s.quarantined != 0 ||
               s.severed != 0 || s.recovering != 0;
    }

    std::size_t leastLoaded(const std::vector<NodeSummary>& nodes) const;

    /** Record a placement in the in-window model. */
    void place(NodeSummary& node, workload::FunctionId function,
               std::size_t index);

    Scheduling _scheduling;
    const workload::Catalog& _catalog;
    std::size_t _cursor = 0;
    /** function -> node + 1 that served it last (0 = never placed). */
    std::vector<std::uint32_t> _affinity;
};

} // namespace rc::cluster

#endif // RC_CLUSTER_SHARD_SCHEDULER_HH_
