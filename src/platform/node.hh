/**
 * @file
 * Worker-node facade: the library's main entry point.
 *
 * A Node wires together the simulation engine, container pool,
 * invoker, metrics, and one policy, then replays an arrival stream to
 * completion. It corresponds to the paper's single worker server
 * (§6.2 focuses on server-level policy; multi-node scheduling is
 * explicitly out of scope).
 *
 * Typical use:
 * @code
 *   auto catalog = workload::Catalog::standard20();
 *   auto source = trace::makeAzureLikeSource(catalog, {});
 *   platform::Node node(catalog,
 *                       std::make_unique<core::RainbowCakePolicy>(catalog),
 *                       {});
 *   node.run(source);
 *   std::cout << node.metrics().meanStartupSeconds();
 * @endcode
 */

#ifndef RC_PLATFORM_NODE_HH_
#define RC_PLATFORM_NODE_HH_

#include <memory>
#include <utility>
#include <vector>

#include "admission/admission_controller.hh"
#include "admission/admission_plan.hh"
#include "fault/fault_plan.hh"
#include "platform/invoker.hh"
#include "platform/metrics.hh"
#include "platform/pool.hh"
#include "policy/policy.hh"
#include "sim/engine.hh"
#include "sim/rng.hh"
#include "trace/arrival_source.hh"
#include "trace/replay.hh"
#include "workload/catalog.hh"

namespace rc::platform {

/** Node-level configuration. */
struct NodeConfig
{
    PoolConfig pool;
    /** Seed for execution-time sampling. */
    std::uint64_t seed = 1;
    /**
     * Optional observability sink shared by the node's pool, invoker,
     * and policy (non-owning; must outlive the node). nullptr — the
     * default — runs the node fully uninstrumented.
     */
    obs::Observer* observer = nullptr;
    /**
     * Fault-injection plan. The default (all knobs zero) builds no
     * injector at all, so fault-free runs are bit-identical to a
     * build without rc::fault. Faults draw from a dedicated Rng
     * stream derived from @ref seed, never from the execution
     * sampler's stream.
     */
    fault::FaultPlan fault;
    /**
     * Overload-control plan (rc::admission). The default (all knobs
     * zero) builds no controller at all, so uncontrolled runs are
     * bit-identical to a build without rc::admission. The controller
     * uses no randomness: admission-controlled runs are themselves
     * bit-deterministic.
     */
    admission::AdmissionPlan admission;
};

/** One simulated worker node running one policy. */
class Node
{
  public:
    Node(const workload::Catalog& catalog,
         std::unique_ptr<policy::Policy> policy, NodeConfig config = {});

    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;

    /**
     * Replay @p arrivals to completion, pulling one arrival at a time.
     * Before each arrival tick the engine fires every event strictly
     * before it; then every arrival of that tick goes to the invoker,
     * in stream order, ahead of the runtime events (executions,
     * keep-alive chains, pre-warms, fault and controller ticks) due at
     * the same tick. After the last arrival the engine drains, and
     * surviving idle containers are terminated so their waste is
     * fully accounted. The engine thus holds runtime events only.
     */
    void run(trace::ArrivalSource& arrivals);

    /**
     * Replay a materialized vector, in any order: arrivals fire in
     * (time, vector position) order. A time-sorted vector streams in
     * place; an unsorted one is stable-sorted by time into a copy.
     */
    void run(const std::vector<trace::Arrival>& arrivals);

    /**
     * Inject a single invocation at the current simulated time.
     * @p originSpan chains the invocation's root span to a root lost
     * in a crash (cluster failover) or to a hedge's primary; 0 =
     * fresh arrival. @p ticket is the cluster watch ticket (0 =
     * untracked).
     */
    void invokeNow(workload::FunctionId function,
                   std::uint64_t originSpan = 0,
                   std::uint64_t ticket = 0);

    // ---- cluster tail-tolerance (ticketed dispatch) --------------------

    /**
     * Cancel the live invocation carrying @p ticket wherever it waits
     * or runs on this node; see Invoker::cancelTicket.
     */
    void cancelTicket(std::uint64_t ticket)
    {
        ++_externalOps;
        _invoker.cancelTicket(ticket);
    }

    /** Move out ticket outcomes accumulated since the last drain. */
    std::vector<TicketOutcome> drainTicketOutcomes()
    {
        return _invoker.drainTicketOutcomes();
    }

    /** Install this node's gray windows; see Invoker. */
    void setDegradedWindows(std::vector<DegradedSpan> windows)
    {
        _invoker.setDegradedWindows(std::move(windows));
    }

    /** Invocations cancelled via cancelTicket. */
    std::uint64_t cancelledInvocations() const
    {
        return _invoker.cancelledInvocations();
    }

    /** Advance simulated time, draining due events. */
    void advanceTo(sim::Tick when);

    /** Terminate all surviving idle containers (end-of-run flush). */
    void finalize();

    const Metrics& metrics() const { return _metrics; }
    /** Move the run's metrics out, leaving the node an empty Metrics. */
    Metrics takeMetrics() { return std::exchange(_metrics, Metrics{}); }
    const ContainerPool& pool() const { return _pool; }
    ContainerPool& pool() { return _pool; }
    sim::Engine& engine() { return _engine; }
    Invoker& invoker() { return _invoker; }
    policy::Policy& policy() { return *_policy; }
    const workload::Catalog& catalog() const { return _catalog; }

    /** Observability sink the node was built with (may be nullptr). */
    obs::Observer* observer() { return _obs; }

    /**
     * Monotone change stamp over everything a cluster NodeSummary
     * reads: moves on every executed engine event and on every
     * coordinator-facing mutation (invokeNow, crashNow, cancelTicket,
     * recoveryPrewarm). Two reads returning the same value guarantee
     * the summary did not change in between — the dirty bit the
     * sharded core's delta capture keys on (DESIGN.md §15).
     */
    std::uint64_t summaryStamp() const
    {
        return _engine.executedEvents() + _externalOps;
    }

    /** Invocations still queued when the run ended (should be 0). */
    std::size_t strandedInvocations() const
    {
        return _invoker.queuedInvocations();
    }

    // ---- fault injection (rc::fault) -----------------------------------

    /** Installed injector, or nullptr when the plan is all-zero. */
    fault::FaultInjector* faultInjector() { return _injector.get(); }

    /** True while the node is down after an injected crash. */
    bool isDown() const { return _invoker.isDown(); }

    /**
     * Arm time-driven faults up to @p horizon (the last arrival
     * instant). @p manageNodeCrashes is false when a cluster drives
     * crashes itself; run() arms with true automatically.
     */
    void armFaults(sim::Tick horizon, bool manageNodeCrashes)
    {
        _invoker.armFaults(horizon, manageNodeCrashes);
    }

    /** Cluster-driven crash; see Invoker::crashNow. */
    std::vector<FailoverTicket> crashNow(sim::Tick downUntil)
    {
        ++_externalOps;
        return _invoker.crashNow(downUntil);
    }

    // ---- recovery orchestration (fault::DomainPlan) --------------------

    /** Census warm-up of one layer; see Invoker::recoveryPrewarm. */
    void recoveryPrewarm(workload::FunctionId function,
                         workload::Layer layer)
    {
        ++_externalOps;
        _invoker.recoveryPrewarm(function, layer);
    }

    /** Recovery backpressure floor; see Invoker. */
    void setRecoveryPressureFloor(int level)
    {
        _invoker.setRecoveryPressureFloor(level);
    }

    /** Census prewarms issued on this node (incl. vetoed ones). */
    std::uint64_t recoveryPrewarmsIssued() const
    {
        return _invoker.recoveryPrewarmsIssued();
    }

    // ---- overload control (rc::admission) ------------------------------

    /** Installed controller, or nullptr when the plan is all-zero. */
    admission::AdmissionController* admissionController()
    {
        return _admission.get();
    }

    /** Arm the pressure-controller tick chain; see Invoker. */
    void armAdmission(sim::Tick horizon)
    {
        _invoker.armAdmission(horizon);
    }

  private:
    const workload::Catalog& _catalog;
    std::unique_ptr<policy::Policy> _policy;
    obs::Observer* _obs = nullptr;
    sim::Engine _engine;
    sim::Rng _rng;
    ContainerPool _pool;
    Metrics _metrics;
    Invoker _invoker;
    std::unique_ptr<fault::FaultInjector> _injector;
    std::unique_ptr<admission::AdmissionController> _admission;
    /** Coordinator-facing mutations since construction (summaryStamp). */
    std::uint64_t _externalOps = 0;
};

} // namespace rc::platform

#endif // RC_PLATFORM_NODE_HH_
