/**
 * @file
 * What a cluster run takes and returns: the routing modes, the fleet
 * configuration, the aggregated result, the pre-drawn crash schedule,
 * and the inputs the coordinator routes to nodes. Shared by the sharded core (cluster/sharded_cluster.hh),
 * its router (cluster/shard_scheduler.hh), request tracker, gray
 * network and recovery orchestrator.
 */

#ifndef RC_CLUSTER_CLUSTER_HH_
#define RC_CLUSTER_CLUSTER_HH_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "platform/node.hh"
#include "policy/policy.hh"

namespace rc::cluster {

/** "No such tick": an exhausted stream, or nothing left to do. */
inline constexpr sim::Tick kNever = std::numeric_limits<sim::Tick>::max();

/**
 * Round @p tick up to the barrier grid: the smallest multiple of
 * @p pitch that is >= @p tick. Window-end alignment must use this:
 * a raw (unaligned) end tick proposed as the next barrier floors back
 * into a window that can never act on it, and the run stalls.
 */
inline sim::Tick
alignToBarrier(sim::Tick tick, sim::Tick pitch)
{
    return (tick + pitch - 1) / pitch * pitch;
}

/**
 * Inter-node routing policies (§8, "RainbowCake on distributed
 * clusters"). The paper sketches a scheduler built on three factors —
 * locality (a warm User container), then layer sharing (an idle Lang
 * of the function's language, then an idle Bare), then load — and the
 * two classic baselines make the benefit of warmth-aware routing
 * measurable. ShardScheduler implements all three.
 */
enum class Scheduling : std::uint8_t
{
    RoundRobin,    //!< ignore state; rotate
    LeastLoaded,   //!< fewest in-flight invocations, then least memory
    LocalityAware, //!< §8: locality, then sharing, then load
};

/** Human-readable name. */
const char* toString(Scheduling scheduling);

/** Creates one policy instance per node, in node order. */
using PolicyFactory = std::function<std::unique_ptr<policy::Policy>()>;

/** Cluster configuration. */
struct ClusterConfig
{
    /** Number of worker nodes. */
    std::size_t nodes = 4;
    /** Per-node configuration (budget divides a cluster total). */
    platform::NodeConfig node;
    /** Routing policy. */
    Scheduling scheduling = Scheduling::LocalityAware;
};

/** Aggregated outcome of a cluster run. */
struct ClusterResult
{
    std::string schedulingName;
    std::uint64_t invocations = 0;
    std::uint64_t coldStarts = 0;
    double totalStartupSeconds = 0.0;
    double meanStartupSeconds = 0.0;
    double totalWasteMbSeconds = 0.0;
    std::size_t strandedInvocations = 0;
    /** Per-node invocation counts (load balance view). */
    std::vector<std::uint64_t> perNodeInvocations;
    /** Node crashes the cluster injected and failed over. */
    std::uint64_t nodeCrashes = 0;
    /** Invocations re-routed off a crashed node (queued + in-flight). */
    std::uint64_t reroutedInvocations = 0;
    /** Invocations that exhausted their retries on some node. */
    std::uint64_t failedInvocations = 0;
    /** Arrivals some node turned away (rc::admission). */
    std::uint64_t rejectedInvocations = 0;
    /** Queued work dropped at its deadline (rc::admission). */
    std::uint64_t shedDeadline = 0;
    /** Work shed at critical pressure (rc::admission). */
    std::uint64_t shedPressure = 0;
    /** Circuit-breaker open transitions across all nodes. */
    std::uint64_t breakerOpens = 0;
    /** Arrivals admitted across all nodes (incl. re-routed work). */
    std::uint64_t admittedInvocations = 0;
    /** Discrete events executed across all node engines. */
    std::uint64_t engineEvents = 0;
    /**
     * Barrier windows the run processed. Shard-count independent, so
     * it doubles as a determinism pin in report CSVs.
     */
    std::uint64_t windows = 0;
    /**
     * Fleet end-to-end latency p50/p99 in seconds, from per-node
     * stats::QuantileSketch instances merged in node order (1%
     * relative error; merge-order independent by construction). Not
     * part of the pinned CSV columns — exact percentiles stay where
     * goldens pin them.
     */
    double e2eP50Seconds = 0.0;
    double e2eP99Seconds = 0.0;

    // ---- gray-failure / tail-tolerance ---------------------------------

    /** Invocations cancelled as losing hedge attempts. */
    std::uint64_t cancelledInvocations = 0;
    /** Hedge attempts launched / won / cancelled / lost. The identity
     *  launched == won + cancelled + lost always holds. */
    std::uint64_t hedgesLaunched = 0;
    std::uint64_t hedgesWon = 0;
    std::uint64_t hedgesCancelled = 0;
    std::uint64_t hedgesLost = 0;
    /** Both sides of a hedge pair completed (cancel raced the win). */
    std::uint64_t duplicateCompletions = 0;
    /** Execution seconds burnt by cancelled / duplicate attempts. */
    double wastedExecSeconds = 0.0;
    /** Execution seconds of all completed invocations (waste base). */
    double totalExecSeconds = 0.0;
    /** Latency-quarantine FSM activity. */
    std::uint64_t quarantines = 0;
    std::uint64_t probes = 0;
    std::uint64_t readmits = 0;
    /** Scheduled partitions that started. */
    std::uint64_t partitions = 0;
    /** Messages the gray network delayed / dropped-and-retransmitted. */
    std::uint64_t msgsDelayed = 0;
    std::uint64_t msgsDropped = 0;
    /** Request-level end-to-end p99.9 (hedges merge into requests). */
    double e2eP999Seconds = 0.0;
    /** Primary dispatches routed to a quarantined node (must be 0). */
    std::uint64_t quarantineViolations = 0;

    // ---- correlated domains / recovery (fault::DomainPlan) -------------

    /** Correlated outage waves that struck (whole domains at once). */
    std::uint64_t domainOutages = 0;
    /** Per-node outage episodes (one per node per struck wave). */
    std::uint64_t outageNodeEpisodes = 0;
    /** Planned per-node upgrade drains that started. */
    std::uint64_t upgradeEpisodes = 0;
    /** Drains that emptied gracefully / hit the timeout kill. The
     *  identity drained + killed == upgradeEpisodes always holds. */
    std::uint64_t nodesDrained = 0;
    std::uint64_t nodesKilled = 0;
    /** Episodes brought back to Up (== outage + upgrade episodes). */
    std::uint64_t recoveredNodes = 0;
    /** Total seconds nodes waited for a staged-rejoin token. */
    double rejoinWaitSeconds = 0.0;
    /** Census prewarm layers issued / reused / evicted / wasted. The
     *  identity issued == hit + evicted + wasted always holds. */
    std::uint64_t prewarmLayers = 0;
    std::uint64_t prewarmHit = 0;
    std::uint64_t prewarmEvicted = 0;
    std::uint64_t prewarmWasted = 0;
    /** Memory the wasted prewarms held when they died. */
    double prewarmWastedMb = 0.0;
    /** Client retry-feedback re-submissions dispatched. */
    std::uint64_t retriesFeedback = 0;
    /** Request-level p99 / p99.9 over the recovery window only —
     *  completions at or after the first correlated strike. 0 when no
     *  outage struck. Whole-run quantiles blur every arm into the
     *  common outage-phase pain; these isolate the tail the rejoin
     *  policy actually controls. */
    double recoveryP99Seconds = 0.0;
    double recoveryP999Seconds = 0.0;
    /** Seconds from the first outage until the fleet durably
     *  completes >= 90% of the load clients offer it (trailing
     *  completions/offered ratio over 10 s buckets; every later
     *  bucket holds the floor). 0 when there was no outage or the
     *  ratio never dipped; a run that ends still collapsed reports
     *  the whole remaining window. */
    double timeToGoodputSeconds = 0.0;

    // ---- coordinator phase timing (wall clock) --------------------------
    // Populated only when ShardedConfig::phaseTimings is on. These are
    // host wall-clock measurements — nondeterministic by nature — so,
    // like the e2e percentile fields above, they are never part of the
    // pinned CSV columns.

    /** Total ns spent in the single-threaded coordinator: barrier
     *  scans, routing, pre-binning, and merge phases. */
    std::uint64_t coordinatorDrainNs = 0;
    /** Subset of the above: the merged crash/failover/delivery/
     *  arrival routing drain plus the per-shard bin distribution. */
    std::uint64_t routeNs = 0;
    /** Subset of the above: merging the workers' summary deltas into
     *  the coordinator's summary table. */
    std::uint64_t summaryCaptureNs = 0;
    /** Total ns spent inside parallel shard rounds. */
    std::uint64_t parallelNs = 0;
    /** Subset of parallelNs: the coordinator thread waiting for the
     *  crew after finishing its own share of each round. */
    std::uint64_t barrierWaitNs = 0;
    /** coordinatorDrainNs / (coordinatorDrainNs + parallelNs -
     *  barrierWaitNs): the share of the coordinator thread's working
     *  time that is serial. 0 when timing was off or the run had no
     *  windows. */
    double serialFraction = 0.0;
};

/** One pre-drawn node crash (cluster-managed fault injection). */
struct CrashEvent
{
    sim::Tick at = 0;
    std::size_t node = 0;
    sim::Tick downUntil = 0;

    /** Crash streams run in (at, node) order. */
    friend bool operator<(const CrashEvent& a, const CrashEvent& b)
    {
        return std::tie(a.at, a.node) < std::tie(b.at, b.node);
    }
};

/**
 * Pre-draw the per-node crash schedule for @p nodes nodes up to
 * @p horizon: one dedicated Rng stream per node derived from @p seed,
 * crashes sorted by (time, node). Pre-drawing keeps the schedule
 * independent of routing noise and of the shard partitioning.
 */
std::vector<CrashEvent> drawCrashSchedule(const fault::FaultPlan& plan,
                                          std::uint64_t seed,
                                          std::size_t nodes,
                                          sim::Tick horizon);

/**
 * One cross-shard message: an invocation delivered to a node, or a
 * pre-drawn crash instant. Inboxes are drained in shardInputBefore
 * order, which is independent of the shard partitioning.
 */
struct ShardInput
{
    sim::Tick tick = 0;
    /** Coordinator-assigned global sequence (deterministic). */
    std::uint64_t seq = 0;
    workload::FunctionId function = workload::kInvalidFunction;
    /** Crash: restart instant. Recovery prewarm: the Layer to
     *  install, cast — the field is otherwise unused by that kind. */
    sim::Tick downUntil = 0;
    /** 0 = crash, 1 = invocation, 2 = hedge cancel, 3 = recovery
     *  prewarm; ascending order at equal ticks (crashes first,
     *  prewarms last). */
    std::uint8_t kind = 1;
    /**
     * Invoke only: root span this delivery chains to (failover
     * re-issue or hedge primary), 0 for fresh arrivals. Span ids
     * embed (node, local seq), so the value is independent of the
     * shard partitioning.
     */
    std::uint64_t originSpan = 0;
    /**
     * Invoke: coordinator watch ticket (0 = untracked). Cancel: the
     * ticket to cancel.
     */
    std::uint64_t ticket = 0;

    static constexpr std::uint8_t kCrash = 0;
    static constexpr std::uint8_t kInvoke = 1;
    static constexpr std::uint8_t kCancel = 2;
    static constexpr std::uint8_t kPrewarm = 3;
};

/**
 * The inbox drain order: (tick, kind, seq). A crash due at an
 * arrival instant is processed before the arrival itself. The seq
 * tie-break is assigned globally by the coordinator, so the order
 * never depends on the partitioning.
 */
inline bool
shardInputBefore(const ShardInput& a, const ShardInput& b)
{
    return std::tie(a.tick, a.kind, a.seq) < std::tie(b.tick, b.kind, b.seq);
}

/** One input routed to @p node: queued for the coming window, or in
 *  flight on the gray network. */
struct RoutedInput
{
    ShardInput input;
    std::uint32_t node = 0;
};

} // namespace rc::cluster

#endif // RC_CLUSTER_CLUSTER_HH_
