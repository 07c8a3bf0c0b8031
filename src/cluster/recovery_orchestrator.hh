/**
 * @file
 * Layer-aware recovery orchestration for correlated failure domains.
 *
 * A correlated outage (fault::DomainPlan) takes a whole failure
 * domain down at once and erases every in-memory layer cache the
 * struck nodes held. Letting the domain rejoin all at once produces a
 * restart storm: a wall of stone-cold nodes absorbs its traffic share
 * at 100% cold-start rate, latency spikes, client retries pile on,
 * and goodput collapses — the metastable failure mode this
 * orchestrator exists to defeat.
 *
 * The orchestrator runs a per-node FSM entirely inside the sharded
 * cluster's single-threaded coordinator phase, so recovery decisions
 * are bit-identical at any --shards:
 *
 *   Up ──(planned drain)──▶ Draining ──(empty | timeout kill)──▶
 *   Down ──(downtime over)──▶ WaitingRejoin ──(rejoin token)──▶
 *   Warming ──(census rebuilt | warmup timeout)──▶ Up
 *
 * Correlated outages skip Draining (the crash is injected through the
 * cluster's crash schedule). Three mechanisms shape the rejoin:
 *
 *  - *Staged rejoin*: a token bucket (rejoinTokensPerSecond) readmits
 *    nodes one at a time instead of all at once, so the fleet absorbs
 *    each cold node's warm-up individually.
 *  - *Layer-census warm-up*: the orchestrator snapshots each node's
 *    live layer census at the instant the episode begins — idle
 *    Bare/Lang pools plus the per-function User working set, busy or
 *    idle — and re-issues those layers as recovery prewarms on
 *    rejoin, most specialized first. The scheduler keeps routing
 *    around the node (SummaryTable::kRecovering) until the census is
 *    rebuilt, so the first real request lands on a warm node.
 *  - *Recovery backpressure*: while a fraction of the fleet is
 *    unavailable the orchestrator raises an admission pressure floor
 *    on the survivors, shrinking TTLs and suppressing speculative
 *    prewarms exactly when memory is scarcest.
 *
 * The orchestrator never touches node objects: it reads barrier
 * summaries and emits RecoveryActions (crash-on-drain-end, census
 * prewarms) that the cluster converts into shard inputs. Conservation
 * identities (src/cluster/conservation.hh):
 *
 *   recoveredNodes == outageNodeEpisodes + upgradeEpisodes
 *   nodesDrained + nodesKilled == upgradeEpisodes
 *   prewarmLayers == prewarmHit + prewarmEvicted + prewarmWasted
 */

#ifndef RC_CLUSTER_RECOVERY_ORCHESTRATOR_HH_
#define RC_CLUSTER_RECOVERY_ORCHESTRATOR_HH_

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster/summary_table.hh"
#include "fault/domain_plan.hh"
#include "obs/observer.hh"
#include "sim/time.hh"
#include "workload/catalog.hh"
#include "workload/types.hh"

namespace rc::cluster {

/**
 * Live layer census of one node: the warm capital it holds right now,
 * idle or busy. Snapshotted by the cluster in the single-threaded
 * coordinator phase the moment an episode begins, so it is the
 * *pre-failure* working set — exactly what the node should grow back
 * before taking traffic again. User layers are per owning function
 * (that is the layer a warm start actually needs); Bare/Lang are
 * fungible and counted in bulk.
 */
struct LayerCensus
{
    std::uint32_t bare = 0;
    std::array<std::uint32_t, workload::kLanguageCount> lang{};
    /** Live User containers per owning function, ascending id. */
    std::vector<std::pair<workload::FunctionId, std::uint32_t>> user;
};

/** Coordinator-phase census read for one node (see LayerCensus). */
using CensusSource = std::function<LayerCensus(std::size_t)>;

/** One recovery decision for the cluster to inject as a shard input. */
struct RecoveryAction
{
    enum Kind : std::uint8_t
    {
        /** Restart the node (drain finished or timed out). */
        kCrashNode = 0,
        /** Issue one census prewarm layer on the node. */
        kPrewarm = 1,
    };

    Kind kind = kCrashNode;
    sim::Tick at = 0;
    std::uint32_t node = 0;
    /** kCrashNode: node is down until this tick. */
    sim::Tick downUntil = 0;
    /** kPrewarm: representative function + layer to install. */
    workload::FunctionId function = 0;
    workload::Layer layer = workload::Layer::Bare;
};

/** Coordinator-side recovery FSM for one cluster run. */
class RecoveryOrchestrator
{
  public:
    /**
     * Pre-draws the outage and upgrade schedules for @p nodes nodes
     * up to @p horizon on the plan's dedicated Rng streams. Episodes
     * of one node are made non-overlapping at expansion: a wave that
     * strikes a node still draining, down, or warming from an earlier
     * episode merges into that ongoing episode (its crash is not
     * injected again), so every episode rejoins exactly once.
     */
    RecoveryOrchestrator(const fault::DomainPlan& plan,
                         const workload::Catalog& catalog,
                         std::uint64_t seed, std::size_t nodes,
                         sim::Tick horizon, obs::Observer* obs);

    /** Per-node crash events expanded from the outage schedule, for
     *  merging into the cluster's crash stream (sorted by at, node). */
    const std::vector<CrashEvent>& outageCrashes() const
    {
        return _outageCrashes;
    }

    /** Earliest tick the FSM needs a barrier at (kNever when fully
     *  idle). */
    sim::Tick nextActionAt() const;

    /** True while some node is Draining or Warming: the run loop must
     *  keep stepping on node events so the FSM observes progress. */
    bool needsNodeProgress() const;

    /**
     * Run every node's FSM at a barrier. @p windowStart is the
     * barrier instant ([windowStart, windowEnd) is the upcoming
     * window); @p table holds the last-barrier node summaries, and
     * every node's kRecovering hold is set or cleared here from its
     * FSM state; a node whose drain ends is marked down. @p offered
     * is the cumulative offered load as of windowStart (fresh
     * arrivals plus feedback retries) — the denominator of the
     * goodput ratio. @p census reads a node's live layer census (in
     * the window an episode begins). Crash/prewarm decisions are
     * appended to @p actions. Returns the admission pressure floor
     * the fleet should run at (0-2, from the unavailable fraction).
     */
    int onBarrier(sim::Tick windowStart, sim::Tick windowEnd,
                  SummaryTable& table, std::uint64_t offered,
                  const CensusSource& census,
                  std::vector<RecoveryAction>& actions);

    /**
     * End-of-run sweep: finish every in-flight episode (drains count
     * as graceful, pending rejoins are granted with their accrued
     * wait) so the recovery conservation identities close. No
     * prewarms are issued — the nodes are about to finalize.
     */
    void finishPending(sim::Tick now);

    /** Copy the FSM counters into @p result (prewarm pool provenance
     *  and retry feedback are aggregated by the cluster itself). */
    void report(ClusterResult& result) const;

  private:
    enum class NodeState : std::uint8_t
    {
        Up = 0,
        Draining = 1,
        Down = 2,
        WaitingRejoin = 3,
        Warming = 4,
    };

    /** One planned or correlated down-and-rejoin episode. */
    struct Episode
    {
        sim::Tick beginAt = 0; //!< crash instant / drain start
        sim::Tick downFor = 0; //!< downtime once actually down
        bool planned = false;  //!< rolling-upgrade drain
    };

    struct NodeRec
    {
        std::vector<Episode> queue;
        std::size_t next = 0; //!< index of the active/upcoming episode
        NodeState state = NodeState::Up;
        sim::Tick downUntil = 0;
        sim::Tick drainDeadline = 0;
        sim::Tick readyAt = 0;
        sim::Tick warmupDeadline = 0;
        /** Live layer census snapshotted when the episode began. */
        LayerCensus census;
        /** Prewarm layers actually planned at rejoin (census, capped). */
        std::uint32_t plannedBare = 0;
        std::array<std::uint32_t, workload::kLanguageCount> plannedLang{};
        std::uint32_t plannedUser = 0;
        std::uint32_t plannedTotal = 0;
    };

    /** One correlated wave, kept for the DomainOutage event. */
    struct Wave
    {
        sim::Tick at = 0;
        sim::Tick downFor = 0;
        std::uint32_t nodesStruck = 0;
        bool emitted = false;
    };

    void beginDown(std::size_t node, sim::Tick at, sim::Tick downFor);
    /** Token grant: plan prewarms and enter Warming (or complete). */
    void grantRejoin(std::size_t node, sim::Tick grantAt,
                     std::vector<RecoveryAction>& actions);
    /** Book a staged-rejoin grant: the wait since readyAt and the
     *  NodeRejoinGranted event. */
    void noteRejoin(std::size_t node, sim::Tick grantAt);
    void complete(std::size_t node, sim::Tick at);
    bool censusMet(const NodeRec& rec, const NodeSummary& summary) const;

    const fault::DomainPlan& _plan;
    obs::Observer* _obs = nullptr;
    std::size_t _nodes = 0;
    std::vector<NodeRec> _recs;
    std::vector<Wave> _waves;
    std::vector<CrashEvent> _outageCrashes;
    /** Nodes waiting for a rejoin token, ordered (readyAt, node). */
    std::vector<std::uint32_t> _rejoinQueue;
    sim::Tick _nextTokenAt = 0;
    sim::Tick _tokenInterval = 0;
    /** Representative function per census layer: first catalog
     *  function (Bare) / first function of each language (Lang). */
    workload::FunctionId _repBare = 0;
    std::array<std::int64_t, workload::kLanguageCount> _repLang{};

    // ---- goodput tracking (10 s buckets) --------------------------------
    // Completions and offered load per bucket; time-to-goodput is the
    // ratio of the two over a trailing window, so bursty arrival
    // processes do not read as goodput collapses.
    std::vector<std::uint64_t> _goodputBuckets;
    std::vector<std::uint64_t> _offeredBuckets;
    std::uint64_t _lastCompleted = 0;
    std::uint64_t _lastOffered = 0;
    sim::Tick _firstOutageAt = 0; //!< 0 = no outage struck
    sim::Tick _lastSampleAt = 0;

    // ---- counters -------------------------------------------------------
    std::uint64_t _domainOutages = 0;
    std::uint64_t _outageNodeEpisodes = 0;
    std::uint64_t _upgradeEpisodes = 0;
    std::uint64_t _nodesDrained = 0;
    std::uint64_t _nodesKilled = 0;
    std::uint64_t _recoveredNodes = 0;
    double _rejoinWaitSeconds = 0.0;
};

} // namespace rc::cluster

#endif // RC_CLUSTER_RECOVERY_ORCHESTRATOR_HH_
