/**
 * @file
 * Sharded conservative-synchronization cluster core: one cluster run
 * on all cores, bit-identical at any shard and thread count.
 *
 * The cluster partitions its nodes into shards (node i -> shard
 * i % shards), each stepping its nodes' engines on a worker thread,
 * and synchronizes them on a barrier grid whose pitch is the
 * *lookahead* L — the minimum cross-node hop latency from the cost
 * model. Because no effect can cross nodes faster than L, a shard may
 * run a whole window [W, W + L) without observing the others.
 *
 * All cross-shard interaction is mediated by the single-threaded
 * coordinator at barriers:
 *
 *  - arrivals in the window are routed against barrier-time node
 *    summaries (ShardScheduler) and appended to per-node inboxes;
 *  - pre-drawn node crashes are appended to the owning node's inbox;
 *  - work lost to a crash surfaces in the shard's outbox and is
 *    re-routed at the next barrier, delivered one failover hop after
 *    the crash (never earlier than the next window);
 *  - each shard's crash log and outbox are merged sort-once in a
 *    partition-independent order, and inboxes are drained in
 *    (tick, kind, sequence) order, where the sequence is assigned by
 *    the coordinator.
 *
 * Determinism argument (DESIGN.md §11): every coordinator decision is
 * a pure function of the trace, the pre-drawn crash schedule, and
 * node summaries; every node's event sequence is a pure function of
 * its inbox, drained in an order fixed by (tick, kind, seq); and all
 * merge orders are keyed by (tick, node) rather than by shard. None
 * of these depend on how nodes are grouped into shards or on how
 * many threads step them, so report CSVs are byte-identical at any
 * --shards / thread count. The seed-regression suite pins this at
 * shards = 1, 2, 8.
 */

#ifndef RC_CLUSTER_SHARDED_CLUSTER_HH_
#define RC_CLUSTER_SHARDED_CLUSTER_HH_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "admission/circuit_breaker.hh"
#include "cluster/cluster.hh"
#include "cluster/node_health.hh"
#include "cluster/recovery_orchestrator.hh"
#include "cluster/shard_scheduler.hh"
#include "core/cost_model.hh"
#include "fault/network_plan.hh"
#include "sim/shard_executor.hh"
#include "stats/quantile_sketch.hh"
#include "trace/arrival_source.hh"

namespace rc::cluster {

/** Sharded-execution knobs (on top of a ClusterConfig). */
struct ShardedConfig
{
    /** Number of node partitions; clamped to [1, nodes]. */
    std::size_t shards = 1;
    /**
     * Worker threads stepping the shards; 0 picks
     * min(shards, hardware concurrency). Never affects results.
     */
    std::size_t threads = 0;
    /**
     * Barrier-grid pitch in ticks; 0 derives the conservative
     * lookahead from the cost model's cross-node hop latencies.
     */
    sim::Tick lookahead = 0;
    /**
     * Summaries are refreshed at least this often while input
     * remains, even across windows with no arrivals (rounded up to a
     * whole number of lookahead windows). Bounds routing staleness on
     * sparse traces.
     */
    sim::Tick maxSummaryStaleness = sim::kSecond;
    /** Source of the hop latencies when lookahead is derived. */
    core::CostConfig cost;
    /**
     * Collect coordinator/parallel phase wall-clock timings into the
     * ClusterResult (and the coordinator_drain_ns / route_ns /
     * summary_capture_ns gauges when an observer is attached). Off by
     * default: the per-window clock reads cost ~1% on short windows
     * and the numbers are nondeterministic, so only bench and
     * instrumented runs turn this on. Never affects results.
     */
    bool phaseTimings = false;
    /**
     * Test knob: capture every node's summary at every barrier the
     * shard runs instead of only nodes whose summaryStamp changed.
     * The delta-identity test pins full == delta byte-for-byte; it
     * also forces every shard to run every window (the active-shard
     * skip would otherwise starve the full capture). Never changes
     * results by design — only wall clock.
     */
    bool fullSummaryCapture = false;
};

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
 * Round @p tick up to the barrier grid: the smallest multiple of
 * @p pitch that is >= @p tick. Window-end alignment must use this —
 * feeding a raw (unaligned) end tick into the nextTick scan would
 * propose a barrier off the grid, and the window containing it would
 * then be skipped entirely (the PR 8 partition-end wakeup bug).
 */
inline sim::Tick
alignToBarrier(sim::Tick tick, sim::Tick pitch)
{
    return (tick + pitch - 1) / pitch * pitch;
}

/**
 * The inbox drain order: (tick, kind, seq). A crash due at an
 * arrival instant is processed before the arrival itself. The seq
 * tie-break is assigned globally by the coordinator, so the order
 * never depends on the partitioning.
 */
inline bool
shardInputBefore(const ShardInput& a, const ShardInput& b)
{
    if (a.tick != b.tick)
        return a.tick < b.tick;
    if (a.kind != b.kind)
        return a.kind < b.kind;
    return a.seq < b.seq;
}

/** A fleet of worker nodes stepped by shards between barriers. */
class ShardedCluster
{
  public:
    using PolicyFactory = cluster::PolicyFactory;

    ShardedCluster(const workload::Catalog& catalog,
                   const PolicyFactory& factory, ClusterConfig config,
                   ShardedConfig sharded = {});

    /** Route and replay @p arrivals to completion on all nodes.
     *  Compatibility shim over the streaming overload (wraps the
     *  vector in a trace::VectorArrivalSource). */
    ClusterResult run(const std::vector<trace::Arrival>& arrivals);

    /**
     * Route and replay @p source to completion on all nodes, pulling
     * one arrival at a time: the cluster holds only the current
     * window's arrivals, so RSS is O(window) regardless of trace
     * length. Yields byte-identical results to the vector overload
     * for the same arrival sequence (pinned by the streaming
     * equivalence golden).
     */
    ClusterResult run(trace::ArrivalSource& source);

    /** Effective barrier-grid pitch in ticks. */
    sim::Tick lookahead() const { return _lookahead; }

    /** Effective shard count after clamping. */
    std::size_t shardCount() const { return _shards.size(); }

    /** Worker threads the run will use. */
    std::size_t threadCount() const { return _threads; }

    /** Nodes (for inspection in tests). */
    const std::vector<std::unique_ptr<platform::Node>>& nodes() const
    {
        return _nodes;
    }

    /** Per-node circuit breakers (empty unless the plan arms them). */
    const std::vector<admission::CircuitBreaker>& breakers() const
    {
        return _breakers;
    }

  private:
    /** "No such tick": an exhausted stream, or nothing left to do. */
    static constexpr sim::Tick kNever = std::numeric_limits<sim::Tick>::max();

    /** Work a crash displaced, awaiting re-route at the next barrier. */
    struct FailoverItem
    {
        sim::Tick deliverAt = 0;
        sim::Tick crashAt = 0;
        std::uint32_t fromNode = 0;
        /** Position within the crash's lost list (merge tie-break). */
        std::uint32_t index = 0;
        workload::FunctionId function = workload::kInvalidFunction;
        /** Root span the crash closed (rerouted); chains the retry. */
        std::uint64_t originSpan = 0;
        /** Cluster watch ticket the invocation carried; 0 = none. */
        std::uint64_t ticket = 0;
    };

    /** Crash observed inside a shard window (merged sort-once). */
    struct CrashRecord
    {
        sim::Tick at = 0;
        std::uint32_t node = 0;
        sim::Tick downUntil = 0;
        std::uint32_t lost = 0;
    };

    /** One routed input awaiting distribution into its shard's bin. */
    struct RoutedInput
    {
        ShardInput input;
        std::uint32_t node = 0;
    };

    /** Per-shard state; every field is touched only by its shard's
     *  worker during a window and only by the coordinator between
     *  windows (the executor's barrier orders the two). */
    struct Shard
    {
        std::vector<std::size_t> nodes;
        std::vector<CrashRecord> crashLog;
        std::vector<FailoverItem> outbox;
        /** Inputs pre-binned for the coming window: the coordinator
         *  fills it in one batch pass between rounds, the worker
         *  drains and clears it during the round (capacity persists
         *  across windows). */
        std::vector<RoutedInput> bin;
        /** Bin high-water mark; reserved ahead of each distribution
         *  so steady-state windows never reallocate. */
        std::size_t binHighWater = 0;
        /** (node, summary) pairs captured this window — only nodes
         *  whose summaryStamp moved (delta capture). The coordinator
         *  merges them into _summaries after the round. */
        std::vector<std::pair<std::uint32_t, NodeSummary>> summaryScratch;
        /** Min engine nextEventAt across the shard's nodes as of the
         *  last round it ran; the coordinator skips the shard while
         *  this stays at/past the barrier and its bin is empty. */
        sim::Tick nextEventAt = std::numeric_limits<sim::Tick>::max();
    };

    /**
     * A scheduler->node message in flight through the gray network:
     * routing picked the node at send time; delivery lands after the
     * sampled link delay. Processed in (deliverAt, sendSeq) order.
     */
    struct Delivery
    {
        sim::Tick deliverAt = 0;
        std::uint64_t sendSeq = 0; //!< coordinator send order
        std::uint32_t node = 0;
        workload::FunctionId function = workload::kInvalidFunction;
        std::uint64_t originSpan = 0;
        std::uint64_t ticket = 0;
    };

    /**
     * Coordinator-side state of one ticketed request: the primary
     * attempt, the optional hedge attempt, and the first-winner-
     * commits resolution. Keyed by the primary ticket in an ordered
     * map, so the per-barrier hedge-deadline scan iterates in ticket
     * (= issue) order regardless of hash layouts.
     */
    struct Watch
    {
        workload::FunctionId function = workload::kInvalidFunction;
        sim::Tick arrival = 0;   //!< trace arrival (request e2e base)
        sim::Tick sentAt = 0;    //!< primary send instant
        std::uint64_t primaryTicket = 0;
        std::uint64_t hedgeTicket = 0; //!< 0 until a hedge launches
        std::uint32_t primaryNode = 0;
        std::uint32_t hedgeNode = 0;
        std::uint64_t primaryRoot = 0; //!< root span id (spans on)
        bool primaryDone = false;
        bool hedgeDone = false;
        /** kAdmitted seen for the side — the loser cancel can only be
         *  delivered to a node that has the ticket live. A loser still
         *  in flight gets its cancel deferred to its admission. */
        bool primaryAdmitted = false;
        bool hedgeAdmitted = false;
        bool resolved = false;    //!< a winner committed
        bool cancelIssued = false;
        bool isProbe = false;     //!< quarantine probe (never hedged)
        bool failover = false;    //!< re-routed off a crash (no e2e base)
        double e2eSeconds = -1.0; //!< winner request-level latency
        /** Client retry-feedback generation (0 = original request). */
        std::uint32_t feedbackAttempt = 0;
    };

    /** One ticket outcome and the node that reported it. */
    struct TaggedOutcome
    {
        platform::TicketOutcome outcome;
        std::uint32_t node = 0;
    };

    /** One client retry-feedback re-submission awaiting dispatch. */
    struct FeedbackRetry
    {
        sim::Tick at = 0;        //!< backoff expiry
        std::uint64_t seq = 0;   //!< enqueue order (tie-break)
        workload::FunctionId function = workload::kInvalidFunction;
        std::uint32_t attempt = 0;
    };

    /**
     * Everything one run() call threads through its phases: the
     * arrival source, the result under construction, the pre-drawn
     * crash stream, the failover queue, the global input sequence,
     * the current window, and the phase wall-clock accumulators.
     */
    struct RunState
    {
        RunState(trace::ArrivalSource& arrivals, bool timed)
            : source(arrivals), timing(timed)
        {
        }

        /** Steady-clock ns when timing is on, else 0 (no clock read). */
        std::uint64_t clock() const;

        trace::ArrivalSource& source;
        ClusterResult result;
        sim::Tick horizon = 0;
        /** Summary-staleness cap, rounded up to whole windows. */
        sim::Tick maxStride = 0;
        /** Pre-drawn crashes in (at, node) order; crashIdx is next. */
        std::vector<CrashEvent> crashes;
        std::size_t crashIdx = 0;
        /** Displaced work awaiting re-route; failIdx is next due. */
        std::vector<FailoverItem> pendingFailover;
        std::size_t failIdx = 0;
        /** Crash-log merge scratch, reused per window. */
        std::vector<CrashRecord> crashed;
        /** Coordinator-assigned global input sequence. */
        std::uint64_t seq = 0;
        sim::Tick lastBarrier = 0;
        /** The window being processed: [windowStart, windowEnd). */
        sim::Tick windowStart = 0;
        sim::Tick windowEnd = 0;

        /** ShardedConfig::phaseTimings; the four sums feed the
         *  coordinatorDrainNs / routeNs / summaryCaptureNs /
         *  parallelNs result fields. */
        const bool timing;
        std::uint64_t coordNs = 0;
        std::uint64_t routedNs = 0;
        std::uint64_t summaryNs = 0;
        std::uint64_t parallelNs = 0;
    };

    // ---- run() phases, in the order one window runs them ---------------

    /** Arm node-local fault chains, pre-draw the crash, outage,
     *  degraded-window and partition schedules, and take the first
     *  summaries. */
    void arm(RunState& run);

    /** The next tick the coordinator has to act at; kNever once no
     *  input, watch, partition or recovery deadline remains. */
    sim::Tick nextWakeUp(const RunState& run) const;

    /** Breakers, partitions, node health, recovery, hedges and retry
     *  feedback: everything this window's routing must already see. */
    void preRoute(RunState& run);

    /** Route crashes, failover re-issues, parked deliveries and fresh
     *  arrivals due before the window end, in merged tick order. */
    void route(RunState& run);
    void routeFailover(RunState& run, const FailoverItem& item);
    void routeArrival(RunState& run, const trace::Arrival& arrival);

    /** Distribute the routed inputs into per-shard bins and select
     *  the shards that must run a round before @p windowEnd. */
    void binInputs(sim::Tick windowEnd);

    /** Patch the workers' summary deltas into _summaries. */
    void mergeSummaries();

    /** Merge the round's crash logs and failover outboxes, then
     *  settle the ticket outcomes the nodes reported. */
    void mergeOutcomes(RunState& run);

    /** Settle the tickets the drain finished and close recovery. */
    void settleAfterDrain(RunState& run);

    /** Fold node counters, sketches, spans and phase timings into
     *  run.result. */
    void assemble(RunState& run);

    NodeSummary captureSummary(platform::Node& node) const;
    void runShardWindow(Shard& shard, sim::Tick windowEnd);
    void refreshBreakers(sim::Tick now);

    /**
     * Queue one cross-shard input for the next parallel round. The
     * input lands in _routeScratch (one flat append, no per-node
     * vector churn) and is distributed into its shard's bin in one
     * batch pass right before the round. The caller stamps seq at
     * creation, exactly as the per-inbox pushes used to.
     */
    void queueInput(std::size_t node, const ShardInput& input)
    {
        _routeScratch.push_back(
            {input, static_cast<std::uint32_t>(node)});
        ++_pendingInputs[node];
    }

    // ---- gray network / tail tolerance (coordinator only) --------------

    /** True when ticketed dispatch is on: the network plan or the
     *  domain plan is active (both track requests end-to-end). */
    bool ticketing() const { return _ticketed; }

    /**
     * Route one invoke to @p node through the gray network: samples
     * the link delay, emits delay/drop events, and either delivers
     * into the node's inbox (deliverAt < @p windowEnd) or parks the
     * message in _pendingDeliveries for a later window.
     */
    void sendInvoke(std::size_t node, workload::FunctionId function,
                    std::uint64_t originSpan, std::uint64_t ticket,
                    sim::Tick sendAt, sim::Tick windowEnd,
                    std::uint64_t& seq);

    /** Apply partition ends due by @p windowStart and starts due
     *  before @p windowEnd to the per-node severed flags. */
    void applyPartitions(sim::Tick windowStart, sim::Tick windowEnd,
                         ClusterResult& result);

    /** Emit NodeDegraded events for windows starting before @p end. */
    void emitDegradedEvents(sim::Tick end);

    /**
     * Process ticket outcomes drained from every node at a barrier:
     * first-winner-commits hedge resolution, loser cancellation,
     * latency feeds (function sketches, node health), and the
     * counter/event bookkeeping. Dispatches each outcome, in global
     * (at, ticket, kind) order, to one of the handlers below.
     */
    void processOutcomes(sim::Tick barrier, std::uint64_t& seq,
                         ClusterResult& result);

    /** An attempt reached its node: record it, and deliver the cancel
     *  deferred while a committed request's loser was in flight. */
    void onAdmitted(const TaggedOutcome& tagged, sim::Tick barrier,
                    std::uint64_t& seq);

    /** An attempt completed: the first completion commits its request
     *  and cancels the other side; a second one is a duplicate. */
    void onCompleted(const TaggedOutcome& tagged, sim::Tick barrier,
                     std::uint64_t& seq, ClusterResult& result);

    /** A loser's cancel landed. */
    void onCancelled(const platform::TicketOutcome& o,
                     ClusterResult& result);

    /** An attempt failed or was shed; a request with no live attempt
     *  left goes to client retry feedback. */
    void onAttemptDied(const platform::TicketOutcome& o,
                       ClusterResult& result);

    /** The watch @p ticket (primary or hedge) belongs to, or null. */
    Watch* watchOf(std::uint64_t ticket);

    /** Queue a cancel of @p ticket on @p node for the next window; the
     *  loser may live on any shard, so it routes like any input. */
    void issueCancel(std::uint32_t node, std::uint64_t ticket,
                     sim::Tick barrier, std::uint64_t& seq);

    /** A probe ticket died before completing: let the node re-probe. */
    void abortProbe(std::uint64_t ticket);

    /** Tick at which @p watch's primary should be hedged; kNever when
     *  the watch cannot hedge (settled, already hedged, a probe, or
     *  its function has too few samples for a latency budget). */
    sim::Tick hedgeDeadline(const Watch& watch) const;

    /** Register @p watch under a fresh primary ticket; returns it. */
    std::uint64_t openWatch(Watch watch);

    /** Launch hedges for watches past their latency budget. */
    void launchHedges(sim::Tick now, sim::Tick windowEnd,
                      std::uint64_t& seq, ClusterResult& result);

    /** One attempt of @p watch turned terminal without completing. */
    void noteSideDone(Watch& watch, bool hedgeSide, ClusterResult& result,
                      sim::Tick at);

    /** Emit quarantine FSM transitions accumulated in the tracker. */
    void emitHealthTransitions();

    /** Drop a fully-terminal watch and its ticket mappings. */
    void eraseWatchIfComplete(std::uint64_t primaryTicket);

    // ---- recovery orchestration (coordinator only) ----------------------

    /**
     * Coordinator-phase recovery step: run the orchestrator FSM,
     * convert its actions into shard inputs (drain-end crashes,
     * census prewarms), and propagate the admission pressure floor to
     * every node when it changes.
     */
    void applyRecovery(sim::Tick windowStart, sim::Tick windowEnd,
                       std::uint64_t& seq);

    /** Live layer census of node @p index (coordinator phase only:
     *  single-threaded, node advanced to the last barrier). */
    LayerCensus censusOf(std::size_t index) const;

    /** A ticketed request failed terminally: enqueue the client's
     *  re-submission after the retry backoff (no-op unless the plan
     *  arms retry feedback or the attempt budget is spent). */
    void scheduleFeedbackRetry(const Watch& watch, sim::Tick at);

    /** Dispatch feedback retries whose backoff expired before
     *  @p windowEnd, exactly like fresh arrivals. */
    void drainFeedbackRetries(sim::Tick windowEnd, std::uint64_t& seq);

    const workload::Catalog& _catalog;
    ClusterConfig _config;
    ShardedConfig _sharded;
    sim::Tick _lookahead = 0;
    std::size_t _threads = 1;
    ShardScheduler _scheduler;
    std::vector<std::unique_ptr<platform::Node>> _nodes;
    std::vector<admission::CircuitBreaker> _breakers;
    obs::Observer* _obs = nullptr;
    /**
     * Span-only per-node observers: each node buffers its own spans
     * during the parallel phase — no shared state — and run() merges
     * them into _obs sort-once on partition-independent keys after
     * the drain.
     */
    std::vector<std::unique_ptr<obs::Observer>> _nodeObservers;

    std::vector<Shard> _shards;
    std::vector<NodeSummary> _summaries;
    /** Inputs queued since the last round, awaiting pre-binning. */
    std::vector<RoutedInput> _routeScratch;
    /** Per-node count of queued-not-yet-binned inputs. The barrier
     *  scans only test zero/nonzero — this replaces the per-node
     *  inbox emptiness peeks of the old design. */
    std::vector<std::uint32_t> _pendingInputs;
    /** Shards selected for the current round (skip-idle subset). */
    std::vector<std::size_t> _activeShards;
    /** Last captured Node::summaryStamp per node. Written only by the
     *  owning shard's worker during a round (disjoint per shard). */
    std::vector<std::uint64_t> _summaryStamps;
    /** processOutcomes batch scratch (capacity reused per barrier). */
    std::vector<TaggedOutcome> _outcomeScratch;

    // Circuit-breaker feeds (coordinator-only).
    std::vector<std::uint64_t> _seenFailures;
    std::vector<std::uint64_t> _seenSuccesses;
    std::vector<std::size_t> _seenTransitions;

    // ---- gray network / tail tolerance (coordinator-only) --------------

    /** Non-null only when the fault plan's network dimension is
     *  active; every path below is dead code otherwise. */
    const fault::NetworkPlan* _net = nullptr;
    std::unique_ptr<fault::NetworkSampler> _netSampler;
    std::unique_ptr<NodeHealthTracker> _health;
    std::vector<fault::DegradedWindow> _degradedSchedule;
    std::size_t _degradedEmitted = 0;
    std::vector<fault::PartitionEvent> _partitions;
    std::size_t _partitionIdx = 0;     //!< next partition to start
    std::vector<std::size_t> _activePartitions; //!< started, not ended
    std::vector<Delivery> _pendingDeliveries; //!< (deliverAt, sendSeq)
    std::size_t _deliveryIdx = 0;
    std::uint64_t _nextTicket = 1;
    std::map<std::uint64_t, Watch> _watches; //!< by primary ticket
    std::unordered_map<std::uint64_t, std::uint64_t> _ticketToPrimary;
    /** Per-function completed-latency sketches (hedge budgets). */
    std::vector<stats::QuantileSketch> _functionSketches;
    /** Request-level end-to-end latencies (winner per request). */
    stats::QuantileSketch _requestSketch;
    /** Same feed, restricted to completions at or after the first
     *  correlated outage — the storm-window tail the recovery arms
     *  actually differ on (whole-run quantiles are dominated by
     *  outage-phase pain common to every recovery policy). 0.1%
     *  relative error: recovery policies move this tail by fractions
     *  of a percent, inside the default 1% grid's bucket width. */
    stats::QuantileSketch _recoverySketch{0.001};
    /** First correlated strike; completions from here feed
     *  _recoverySketch (never when no outage is scheduled). */
    sim::Tick _recoveryFrom = std::numeric_limits<sim::Tick>::max();
    /** Probe tickets in flight, by node (probe-abort bookkeeping). */
    std::unordered_map<std::uint64_t, std::uint32_t> _probeTickets;
    std::uint64_t _msgsDelayed = 0;
    std::uint64_t _msgsDropped = 0;
    std::uint64_t _quarantineViolations = 0;

    // ---- recovery orchestration (coordinator-only) ----------------------

    /** Ticketed dispatch armed (network or domain plan active). */
    bool _ticketed = false;
    /** Non-null only when the domain plan is active. */
    std::unique_ptr<RecoveryOrchestrator> _recovery;
    /** Admission pressure floor currently applied to the fleet. */
    int _recoveryFloor = 0;
    /** Feedback retries in (at, seq) order; _feedbackIdx = next due. */
    std::vector<FeedbackRetry> _feedbackQueue;
    std::size_t _feedbackIdx = 0;
    std::uint64_t _feedbackSeq = 0;
    std::uint64_t _retriesFeedback = 0;
    /** Requests dispatched so far (fresh arrivals + feedback retries;
     *  failovers and hedges re-issue a counted request). The recovery
     *  orchestrator's goodput-ratio denominator. */
    std::uint64_t _offeredLoad = 0;
};

} // namespace rc::cluster

#endif // RC_CLUSTER_SHARDED_CLUSTER_HH_
