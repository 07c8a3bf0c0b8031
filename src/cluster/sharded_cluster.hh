/**
 * @file
 * Sharded conservative-synchronization cluster core: one cluster run
 * on all cores, bit-identical at any shard and thread count.
 *
 * The cluster partitions its nodes into shards (node i -> shard
 * i % shards), each stepping its nodes' engines on a worker thread,
 * and synchronizes them on a barrier grid whose pitch is the
 * *lookahead* L (ShardedCluster::kBarrierPitch). No effect crosses
 * nodes inside a window — the coordinator delivers every cross-node
 * input at a barrier or later — so a shard may run a whole window
 * [W, W + L) without observing the others.
 *
 * All cross-shard interaction is mediated by the single-threaded
 * coordinator at barriers:
 *
 *  - arrivals in the window are routed against barrier-time node
 *    summaries (ShardScheduler over the SummaryTable) and appended
 *    to per-node inboxes;
 *  - pre-drawn node crashes are appended to the owning node's inbox;
 *  - work lost to a crash surfaces in the shard's outbox and is
 *    re-routed at the next barrier, delivered one failover hop after
 *    the crash (never earlier than the next window);
 *  - each shard's crash log and outbox are merged sort-once in a
 *    partition-independent order, and inboxes are drained in
 *    (tick, kind, sequence) order, where the sequence is assigned by
 *    the coordinator.
 *
 * Under a network or domain plan the coordinator also tracks every
 * request end to end: RequestTracker keeps the watches, hedges,
 * readmission probes and client retry feedback, and GrayNetwork the
 * link delays, parked deliveries, degraded windows and partitions.
 * Both return what the coordinator must route and send; neither
 * touches a node.
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

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "admission/circuit_breaker.hh"
#include "cluster/cluster.hh"
#include "cluster/gray_network.hh"
#include "cluster/node_health.hh"
#include "cluster/recovery_orchestrator.hh"
#include "cluster/request_tracker.hh"
#include "cluster/shard_scheduler.hh"
#include "cluster/summary_table.hh"
#include "trace/arrival_source.hh"

namespace rc::cluster {

/** Sharded-execution knobs (on top of a ClusterConfig). */
struct ShardedConfig
{
    /** Number of node partitions; clamped to [1, nodes]. */
    std::size_t shards = 1;
    /**
     * Crew size stepping the shards, the calling thread included (a
     * crew of T spawns T - 1 workers); 0 asks for one per shard. The
     * crew is clamped to min(threads, shards, CPUs in the process's
     * affinity mask): the crew spins between rounds, and spinners
     * beyond the CPUs preempt the member holding the work (DESIGN.md
     * §12). Never affects results.
     */
    std::size_t threads = 0;
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
     * Test knob: visit and capture every node at every barrier, and
     * run every shard every window, instead of only nodes whose
     * summaryStamp moved. Without a network plan the results equal
     * delta capture's byte for byte; DESIGN.md §15 says why a network
     * plan may differ.
     */
    bool fullSummaryCapture = false;
};

/** A fleet of worker nodes stepped by shards between barriers. */
class ShardedCluster
{
  public:
    using PolicyFactory = cluster::PolicyFactory;

    /** Barrier-grid pitch, the lookahead L: every window, and so
     *  every result, follows this grid. */
    static constexpr sim::Tick kBarrierPitch = 5 * sim::kMillisecond;
    /** Delay from a crash to the re-route of the work it displaced. */
    static constexpr sim::Tick kFailoverHop = 50 * sim::kMillisecond;
    static_assert(kFailoverHop >= kBarrierPitch,
                  "displaced work must land past its crash's window");

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

    /** Barrier-grid pitch in ticks (kBarrierPitch). */
    sim::Tick lookahead() const { return kBarrierPitch; }

    /** Effective shard count after clamping. */
    std::size_t shardCount() const { return _shards.size(); }

    /** Crew size the run will use, the calling thread included. */
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

        /** Re-routes leave in (deliverAt, crashAt, fromNode, index)
         *  order, which is partition-independent. */
        friend bool operator>(const FailoverItem& a, const FailoverItem& b)
        {
            return std::tie(a.deliverAt, a.crashAt, a.fromNode, a.index) >
                   std::tie(b.deliverAt, b.crashAt, b.fromNode, b.index);
        }
    };

    /** Crash observed inside a shard window (merged sort-once in
     *  (at, node) order). */
    struct CrashRecord : CrashEvent
    {
        std::uint32_t lost = 0; //!< invocations it displaced
    };

    /**
     * Indexed min-heap over one shard's nodes, keyed by each node's
     * engine().nextEventAt() as of its last visit: one entry per node,
     * never a stale one. The keys stay exact because between rounds
     * the coordinator schedules and cancels nothing on a node's
     * engine; only a shard visit (runShardWindow) touches it, and the
     * visit re-keys the node.
     */
    class WakeIndex
    {
      public:
        /** @p nodes entries, all keyed kNever. */
        void reset(std::size_t nodes);
        /** Re-key entry @p local (the shard's local-th node). */
        void update(std::uint32_t local, sim::Tick tick);
        /** Earliest key; kNever for an empty shard. */
        sim::Tick top() const
        {
            return _heap.empty() ? kNever : _heap.front().first;
        }
        /** Entry holding the earliest key. */
        std::uint32_t topEntry() const { return _heap.front().second; }

      private:
        void place(std::size_t slot, std::pair<sim::Tick, std::uint32_t> e);

        /** (key, entry), heap-ordered. */
        std::vector<std::pair<sim::Tick, std::uint32_t>> _heap;
        /** Entry -> its slot in _heap. */
        std::vector<std::uint32_t> _slot;
    };

    /** Per-shard state; every field is touched only by the crew
     *  member that claimed the shard during a window and only by the
     *  coordinator between windows (the executor's round handshake
     *  orders the two). */
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
        /** (node, summary) pairs captured this window — only nodes
         *  whose summaryStamp moved (delta capture). The coordinator
         *  reports them to _summaries after the round. */
        std::vector<std::pair<std::uint32_t, NodeSummary>> summaryScratch;
        /** Node wake ticks; entry k is nodes[k]. The coordinator
         *  skips the shard while the top stays at/past the barrier and
         *  its bin is empty. */
        WakeIndex wake;
    };

    /**
     * Everything one run() call threads through its phases: the
     * arrival source, the result under construction (phase wall-clock
     * sums included), the pre-drawn crash stream, the failover queue,
     * the global input sequence, and the current window.
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
        /** Pre-drawn crashes in (at, node) order; crashIdx is next. */
        std::vector<CrashEvent> crashes;
        std::size_t crashIdx = 0;
        /** Displaced work awaiting re-route. */
        std::priority_queue<FailoverItem, std::vector<FailoverItem>,
                            std::greater<>>
            failover;
        /** Crash-log merge scratch, reused per window. */
        std::vector<CrashRecord> crashed;
        /** Coordinator-assigned global input sequence. */
        std::uint64_t seq = 0;
        /** Observer events recorded before this run (left unsorted). */
        std::size_t firstEvent = 0;
        sim::Tick lastBarrier = 0;
        /** The window being processed: [windowStart, windowEnd). */
        sim::Tick windowStart = 0;
        sim::Tick windowEnd = 0;

        /** ShardedConfig::phaseTimings: the phases add their wall
         *  time to result's coordinatorDrainNs / routeNs /
         *  summaryCaptureNs / parallelNs (all 0 when off). */
        const bool timing;
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
    /** Due ticks of the streams route() drains, in its tie-break
     *  order: crashes, failover re-issues, parked deliveries, fresh
     *  arrivals (kNever for an exhausted stream). */
    std::array<sim::Tick, 4> inputsDue(const RunState& run) const;
    void routeFailover(RunState& run, const FailoverItem& item);
    void routeArrival(RunState& run, const trace::Arrival& arrival);

    /** Distribute the routed inputs into per-shard bins and select
     *  the shards that must run a round before @p windowEnd. */
    void binInputs(sim::Tick windowEnd);

    /** Report the workers' summary deltas to _summaries. */
    void mergeSummaries();

    /** Merge the round's crash logs and failover outboxes, then
     *  settle the ticket outcomes the nodes reported. */
    void mergeOutcomes(RunState& run);

    /** Settle the tickets the drain finished and close recovery. */
    void settleAfterDrain(RunState& run);

    /** Fold node counters, sketches, spans and phase timings into
     *  run.result. */
    void assemble(RunState& run);

    /** Step one shard to the barrier: visit every node with binned
     *  inputs or an event before @p windowEnd, and no other. */
    void runShardWindow(Shard& shard, sim::Tick windowEnd);
    /** Apply @p inputs to node @p index, drain it strictly before
     *  @p windowEnd, capture its summary if it moved, and re-key it. */
    void visitNode(Shard& shard, std::size_t index,
                   std::span<const RoutedInput> inputs,
                   sim::Tick windowEnd);
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
    }

    // ---- ticketed dispatch (coordinator only) ---------------------------

    /** True when ticketed dispatch is on: the network plan or the
     *  domain plan is active (both track requests end-to-end). */
    bool ticketing() const { return _requests != nullptr; }

    /** Open a watch for a request routed to @p node and send it. */
    void dispatchTicketed(RunState& run, std::size_t node,
                          workload::FunctionId function, sim::Tick at,
                          bool probe, std::uint32_t feedbackAttempt);

    /** Put one invoke on the gray network: queue it for this window
     *  or leave it parked for a later one. */
    void send(RunState& run, std::size_t node,
              workload::FunctionId function, std::uint64_t originSpan,
              std::uint64_t ticket, sim::Tick at);

    /** Route and send the hedges of requests past their budget. */
    void launchHedges(RunState& run);

    /** Drain every node's ticket outcomes into the tracker and queue
     *  the loser cancels it returns for delivery at @p barrier. */
    void settleOutcomes(RunState& run, sim::Tick barrier);

    /** Emit the quarantine FSM transitions the health tracker
     *  logged, and mirror them into the quarantine holds. */
    void emitHealthTransitions();

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

    /** Dispatch feedback retries whose backoff expired before the
     *  window end, like fresh arrivals. */
    void drainFeedbackRetries(RunState& run);

    const workload::Catalog& _catalog;
    ClusterConfig _config;
    ShardedConfig _sharded;
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
    SummaryTable _summaries;
    /** Inputs queued since the last round, awaiting pre-binning. */
    std::vector<RoutedInput> _routeScratch;
    /** Shards selected for the current round (skip-idle subset). */
    std::vector<std::size_t> _activeShards;
    /** Last captured Node::summaryStamp per node. Written only by the
     *  owning shard's worker during a round (disjoint per shard). */
    std::vector<std::uint64_t> _summaryStamps;
    /** settleOutcomes batch scratch (capacity reused per barrier). */
    std::vector<RequestTracker::TaggedOutcome> _outcomeScratch;

    // Circuit-breaker feeds (coordinator-only).
    std::vector<std::uint64_t> _seenFailures;
    std::vector<std::uint64_t> _seenSuccesses;
    std::vector<std::size_t> _seenTransitions;

    // ---- ticketed dispatch (coordinator-only) ---------------------------
    // All null unless ticketing is armed; the gray network is built by
    // arm(), once the horizon is known.

    std::unique_ptr<NodeHealthTracker> _health;
    std::unique_ptr<RequestTracker> _requests;
    std::unique_ptr<GrayNetwork> _gray;

    // ---- recovery orchestration (coordinator-only) ----------------------

    /** Non-null only when the domain plan is active. */
    std::unique_ptr<RecoveryOrchestrator> _recovery;
    /** Admission pressure floor currently applied to the fleet. */
    int _pressureFloor = 0;
    /** Requests dispatched so far (fresh arrivals + feedback retries;
     *  failovers and hedges re-issue a counted request). The recovery
     *  orchestrator's goodput-ratio denominator. */
    std::uint64_t _offeredLoad = 0;
};

} // namespace rc::cluster

#endif // RC_CLUSTER_SHARDED_CLUSTER_HH_
