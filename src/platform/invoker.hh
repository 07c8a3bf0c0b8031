/**
 * @file
 * The invoker: event-driven orchestration of invocations.
 *
 * The invoker is the platform's control loop (OpenWhisk's container
 * pool actor in §6.1): it receives arrivals, resolves each one to a
 * startup type via the lookup ladder below, drives container
 * initialization / execution / keep-alive events on the simulation
 * engine, maintains the admission queue under memory pressure, and
 * records metrics. It also implements the PlatformView services that
 * policies use (pre-warm scheduling, warm-availability checks).
 *
 * Lookup ladder for an arrival of function f (first match wins):
 *   1. idle User container of f            -> User (complete warm)
 *   2. unclaimed in-flight init toward f   -> Load (wait remaining)
 *   3. idle foreign User container allowed
 *      by the policy (Pagurus zygote)      -> User (+ specialize cost)
 *   4. idle Lang container of f's language -> Lang (partial warm)
 *      [policy must enable layer sharing]
 *   5. idle Bare container                 -> Bare (partial warm)
 *   6. none                                -> Cold (new container)
 * Cold starts that do not fit in memory first evict policy-ranked
 * idle victims and otherwise wait in a FIFO admission queue.
 *
 * Every live invocation has exactly one home on the node:
 *   - the admission queue, while it waits for memory;
 *   - the in-flight table, while the container bound to it initializes
 *     or executes. The table holds every initializing or executing
 *     container, keyed by container id, with the engine event that
 *     ends its stage and the invocation bound to it, if any; unbound
 *     pre-warm inits are rows too, because a crash must cancel their
 *     events;
 *   - the backoff table, while it waits out a retry backoff.
 * A ticket is live exactly while its invocation sits in one of them,
 * so a cancel, a crash or a completion walks one home. The invocation
 * carries its own span cursor (span_cursor.hh), every terminal path
 * ends in one finish step (last stage span, root span, ticket
 * outcome), and every engine callback captures `this` and at most one
 * key (a container id, a backoff key, a deadline tag, a function id),
 * so each one fits the engine's inline callback buffer.
 */

#ifndef RC_PLATFORM_INVOKER_HH_
#define RC_PLATFORM_INVOKER_HH_

#include <deque>
#include <unordered_map>
#include <vector>

#include "admission/admission_controller.hh"
#include "fault/fault_injector.hh"
#include "obs/observer.hh"
#include "platform/metrics.hh"
#include "platform/pool.hh"
#include "platform/span_cursor.hh"
#include "policy/policy.hh"
#include "sim/engine.hh"
#include "sim/rng.hh"
#include "workload/catalog.hh"

namespace rc::platform {

/**
 * An invocation extracted by a cluster crash for re-routing, with the
 * span identity of the lost invocation so the re-issued one's root
 * can chain back to it (0 when span tracing is off).
 */
struct FailoverTicket
{
    workload::FunctionId function = workload::kInvalidFunction;
    std::uint64_t originSpan = 0;
    /** Cluster watch ticket the invocation carries; 0 = untracked. */
    std::uint64_t ticket = 0;
};

/**
 * One terminal (or admission) fact about a ticketed invocation,
 * reported back to the cluster coordinator. The coordinator drains
 * these at every barrier in node-index order, so the stream is a pure
 * function of simulated state — never of the shard partitioning.
 */
struct TicketOutcome
{
    static constexpr std::uint8_t kAdmitted = 0;  //!< dispatched here
    static constexpr std::uint8_t kCompleted = 1; //!< finished cleanly
    static constexpr std::uint8_t kFailed = 2;    //!< retries exhausted
    static constexpr std::uint8_t kShed = 3;      //!< rejected / shed /
                                                  //!< stranded
    static constexpr std::uint8_t kCancelled = 4; //!< hedge cancel

    std::uint64_t ticket = 0;
    sim::Tick at = 0;             //!< node-local event time
    std::uint64_t rootSpan = 0;   //!< root span id (kAdmitted only)
    double latencySeconds = 0.0;  //!< node e2e (kCompleted only)
    double execSeconds = 0.0;     //!< exec run time; for kCancelled the
                                  //!< wasted partial execution
    std::uint8_t kind = kAdmitted;
};

/**
 * One degraded ("gray") window on this node: execution and init run
 * slower by the given factors while now is inside [start, end).
 */
struct DegradedSpan
{
    sim::Tick start = 0;
    sim::Tick end = 0;
    double execFactor = 1.0;
    double initFactor = 1.0;
};

/** Event-driven invocation orchestrator; one per worker node. */
class Invoker : public policy::PlatformView
{
  public:
    /**
     * @param observer  Optional trace/counter/profiler sink, shared
     *                  with the pool and forwarded to the policy;
     *                  nullptr disables instrumentation.
     */
    Invoker(sim::Engine& engine, const workload::Catalog& catalog,
            ContainerPool& pool, policy::Policy& policy, Metrics& metrics,
            sim::Rng& rng, obs::Observer* observer = nullptr);

    Invoker(const Invoker&) = delete;
    Invoker& operator=(const Invoker&) = delete;

    /**
     * Handle an invocation arriving now. @p originSpan links the new
     * invocation's root span to the root of an invocation lost in a
     * node crash (cluster failover re-routes) or to the primary of a
     * hedge pair; 0 = fresh arrival. @p ticket is the cluster watch
     * ticket (0 = untracked; every nonzero ticket reports admission
     * and its terminal outcome through drainTicketOutcomes()).
     */
    void onArrival(workload::FunctionId function,
                   std::uint64_t originSpan = 0,
                   std::uint64_t ticket = 0);

    // ---- cluster tail-tolerance (ticketed dispatch) --------------------

    /**
     * Deterministically cancel the live invocation carrying
     * @p ticket, wherever its one home is: remove it from the
     * admission queue; release the pre-warm it latched onto; kill the
     * container installing or executing for it alone (KillCause::
     * HedgeCancel); or, while it waits out a retry backoff, mark it so
     * it resolves when that backoff fires. Its root span closes with
     * outcome Cancelled. A ticket that is not live here (already
     * terminal, or never admitted) is a no-op: the coordinator counts
     * the duplicate completion instead.
     */
    void cancelTicket(std::uint64_t ticket);

    /** Move out the outcome log accumulated since the last drain. */
    std::vector<TicketOutcome> drainTicketOutcomes()
    {
        return std::move(_ticketLog);
    }

    /**
     * Install this node's pre-drawn gray windows (sorted by start,
     * non-overlapping). Execution and init sampled inside a window are
     * stretched by its factors — the node is slow, not down.
     */
    void setDegradedWindows(std::vector<DegradedSpan> windows)
    {
        _degraded = std::move(windows);
        _degradedCursor = 0;
    }

    /** Invocations cancelled via cancelTicket. */
    std::uint64_t cancelledInvocations() const { return _cancelled; }

    /** Invocations currently waiting for memory. */
    std::size_t queuedInvocations() const { return _queue.size(); }

    /** Retry queued invocations (used by end-of-run finalization). */
    void retryQueued() { drainQueue(); }

    /** Invocations dispatched but not yet completed. */
    std::size_t inFlightInvocations() const { return _executing; }

    // ---- fault injection and recovery (rc::fault) ----------------------

    /**
     * Install a fault injector (non-owning; nullptr = perfect
     * machine, the default). Without an injector every fault path
     * below is dead code behind one pointer check, so fault-free runs
     * stay bit-identical to builds that predate rc::fault.
     */
    void installFaults(fault::FaultInjector* injector)
    {
        _fault = injector;
    }

    /**
     * Arm time-driven faults (node crashes, overload windows) up to
     * @p horizon — the last arrival instant, so the chain of
     * crash/restart events cannot keep the engine alive forever.
     * @p manageNodeCrashes is false when a cluster drives node
     * crashes itself (it must extract and re-route the lost work).
     */
    void armFaults(sim::Tick horizon, bool manageNodeCrashes);

    /** True while the node is down after a crash. */
    bool isDown() const
    {
        return _fault != nullptr && _downUntil > _engine.now();
    }

    // ---- overload control (rc::admission) ------------------------------

    /**
     * Install an admission controller (non-owning; nullptr = every
     * arrival admitted, the default). Mirrors installFaults: without a
     * controller every admission path below is dead code behind one
     * pointer check, so uncontrolled runs stay bit-identical to
     * builds that predate rc::admission.
     */
    void installAdmission(admission::AdmissionController* controller)
    {
        _admission = controller;
    }

    /**
     * Arm the closed-loop pressure controller up to @p horizon (the
     * last arrival instant, bounding the self-re-arming tick chain).
     * No-op without a controller or when pressure control is off.
     */
    void armAdmission(sim::Tick horizon);

    /**
     * Cluster-driven node crash: kill the whole pool, cancel the event
     * of every in-flight container, and hand back the invocations that
     * were bound to one (in container id order), then the queue (in
     * FIFO order) — the cluster re-routes them to healthy nodes. The
     * node stays down until @p downUntil.
     */
    std::vector<FailoverTicket> crashNow(sim::Tick downUntil);

    /**
     * Finish the invocations still queued when the run ends (outcome
     * Stranded: spans and ticket outcomes). Called once after the
     * finalize drain; they stay counted as queued.
     */
    void closeStrandedSpans();

    // ---- recovery orchestration (fault::DomainPlan) --------------------

    /**
     * Rebuild one idle container at @p layer from a rejoining node's
     * pre-failure layer census; @p function supplies the profile
     * whose stage costs and language drive the install (and owns the
     * container when @p layer is User).
     * Best-effort like a policy pre-warm — a down node, a policy
     * veto, or a memory veto counts the layer straight into the
     * wasted bucket of the prewarm conservation identity instead of
     * evicting or queueing.
     */
    void recoveryPrewarm(workload::FunctionId function,
                         workload::Layer layer);

    /**
     * Recovery backpressure: pin the admission ladder at least at
     * @p level (see AdmissionController::setRecoveryFloor). No-op
     * without an admission controller.
     */
    void setRecoveryPressureFloor(int level);

    /** Census prewarms issued on this node (incl. vetoed ones). */
    std::uint64_t recoveryPrewarmsIssued() const
    {
        return _recoveryPrewarmsIssued;
    }

    /**
     * End-of-run flush is starting: clear any down state so the queue
     * can drain, and classify every invocation that binds from here
     * on as finalize-drained (it only ran because the flush freed
     * memory, not in-band).
     */
    void beginFinalize();

    // ---- accounting (chaos invariants, reports) ------------------------

    /** Invocations admitted via onArrival (retries not re-counted). */
    std::uint64_t admittedInvocations() const { return _admitted; }
    /** Invocations extracted by a cluster crash for re-routing. */
    std::uint64_t extractedInvocations() const { return _extracted; }
    /** Invocations that exhausted their retries. */
    std::uint64_t failedInvocations() const { return _failed; }
    /** Retries scheduled after injected faults. */
    std::uint64_t retriesScheduled() const { return _retries; }
    /** Invocations force-drained by end-of-run finalization. */
    std::uint64_t finalizeDrained() const { return _finalizeDrained; }
    /** Arrivals turned away (rate limit or full queue). */
    std::uint64_t rejectedInvocations() const { return _rejected; }
    /** Queued work dropped because its deadline expired. */
    std::uint64_t shedDeadlineCount() const { return _shedDeadline; }
    /** Work shed instead of queued at critical pressure. */
    std::uint64_t shedPressureCount() const { return _shedPressure; }
    /** Keep-alive TTLs shrunk by the degradation ladder. */
    std::uint64_t degradedKeepalives() const { return _degradedKeepalives; }
    /** Deepest the admission queue ever got. */
    std::size_t peakQueueDepth() const { return _peakQueueDepth; }
    /** Current degradation-ladder level (0 without a controller). */
    int pressureLevel() const
    {
        return _admission != nullptr ? _admission->pressureLevel() : 0;
    }

    // ---- PlatformView --------------------------------------------------

    sim::Tick now() const override { return _engine.now(); }
    const workload::Catalog& catalog() const override { return _catalog; }
    bool
    userContainerAvailable(workload::FunctionId function) const override
    {
        return _pool.userAvailable(function);
    }
    void schedulePrewarm(workload::FunctionId function,
                         sim::Tick delay) override;
    std::vector<const container::Container*> idleContainers() const override
    {
        return _pool.idleContainers();
    }
    std::size_t
    idleCountAtLayer(workload::Layer layer,
                     std::optional<workload::Language> language)
        const override
    {
        return _pool.idleCountAtLayer(layer, language);
    }

  private:
    /** One live invocation: its dispatch state and its span cursor. */
    struct Invocation
    {
        workload::FunctionId function = workload::kInvalidFunction;
        sim::Tick arrival = 0;
        sim::Tick queueWait = 0; //!< admission-queue wait before binding
        std::uint32_t attempt = 0; //!< fault retries consumed so far
        std::uint64_t seq = 0; //!< deadline-shedding tag; 0 = untagged
        std::uint64_t ticket = 0; //!< cluster watch ticket; 0 = none
        SpanCursor span;
    };

    /** An initializing or executing container: one in-flight row. */
    struct InFlight
    {
        sim::EventId event = sim::kNoEvent; //!< ends the init / the run
        bool bound = false;     //!< inv waits on (or runs in) it
        bool executing = false; //!< past init: running inv
        StartupType type = StartupType::Cold; //!< rung inv took
        workload::Layer failedStage = workload::Layer::None; //!< drawn
        fault::ExecFault fault = fault::ExecFault::None;     //!< drawn
        sim::Tick started = 0; //!< bind time, for wasted-work accounting
        sim::Tick startupLatency = 0;
        sim::Tick execution = 0;
        Invocation inv;
    };

    /** An invocation waiting out a retry backoff. */
    struct Backoff
    {
        Invocation inv;
        bool cancelled = false; //!< resolve as Cancelled when it fires
    };

    /** Try to bind @p inv to a container; false -> caller queues it. */
    bool tryDispatch(Invocation& inv);

    /** Paths of the lookup ladder. */
    bool tryDispatchPartial(Invocation& inv, container::Container& c,
                            StartupType type);
    bool tryDispatchCold(Invocation& inv);

    /**
     * Bind @p inv to container @p cid through rung @p type: close its
     * queue stage, trace the hit, and file it in the in-flight row.
     */
    InFlight& bind(Invocation& inv, container::ContainerId cid,
                   StartupType type, obs::Counter counter);

    /** Execution start once a container is ready at the User layer. */
    void startExecution(InFlight& row, container::Container& c);

    /**
     * Event bodies that end an in-flight stage: the install completes
     * or fails as drawn, the run completes or faults (a crash, or the
     * wedge watchdog firing). A fault kills the container and retries
     * the bound invocation.
     */
    void onInitEnd(container::ContainerId cid);
    void onExecEnd(container::ContainerId cid);

    /** Turn an arrival away at the door (rate limit / full queue). */
    void rejectArrival(Invocation& inv, std::uint8_t reason);

    /** Drop admitted work (cause 0 = deadline, 1 = pressure). */
    void shedInvocation(Invocation& inv, std::uint8_t cause);

    /**
     * Park @p inv in the admission queue, or drop it when the
     * controller forbids queueing: a @p fresh arrival is rejected at a
     * full queue, other work shed.
     */
    void queueOrShed(Invocation& inv, bool fresh);

    /** Deadline event body: shed the queued item tagged @p seq. */
    void onQueueDeadline(std::uint64_t seq);

    /** Arm the next pressure recomputation after @p from. */
    void scheduleAdmissionTick(sim::Tick from);

    /** Pressure-recomputation event body. */
    void onAdmissionTick();

    /**
     * File @p cid in the in-flight table and arm the event that ends
     * its install after @p install; with an injector installed, draw
     * whether it fails over the stages the install covers.
     */
    void scheduleInit(container::ContainerId cid, sim::Tick install,
                      bool bare, bool lang, bool user);

    /** Retry @p inv after capped exponential backoff, or fail it. */
    void scheduleRetry(Invocation inv);

    /** Backoff event body: re-dispatch, or resolve a cancel. */
    void onBackoffFired(std::uint64_t key);

    /** Node-crash event body (internally managed crashes). */
    void onNodeCrash();

    /**
     * Shared crash mechanics: cancel every in-flight event, kill the
     * pool, go down until @p downUntil, schedule the restart drain.
     * Returns the invocations bound to in-flight containers, in
     * container id order, with their aborted stage closed.
     */
    std::vector<Invocation> crashImpl(sim::Tick downUntil);

    /** Arm the next internally-managed node crash after @p from. */
    void armNodeCrash(sim::Tick from);

    /** Arm the next transient overload window after @p from. */
    void armOverload(sim::Tick from);

    /** Overload-window start event body. */
    void onOverloadStart();

    /** Shed idle never-executed pre-warms until @p mb fits. */
    void shedPrewarms(double mb);

    /** Keep-alive: schedule / handle idle timeouts. */
    void scheduleKeepAlive(container::Container& c);
    void onIdleTimeout(container::ContainerId cid);

    /** @p ttl shrunk by the degradation ladder's first stage, if on. */
    sim::Tick shrinkTtl(sim::Tick ttl);

    /** Pre-warm event body (Algorithm 1's async task). */
    void firePrewarm(workload::FunctionId function);

    /** Evict policy-ranked idle victims until @p mb fits. */
    bool evictToFit(double mb);

    /** Retry queued invocations after capacity may have freed. */
    void drainQueue();

    /**
     * The one terminal step: close @p inv's @p last stage up to now
     * (skipped when zero-length), emit its root span with @p outcome,
     * and report its ticket outcome (none for Rerouted: the ticket
     * leaves with the work). @p execSeconds is the run time, or the
     * run a cancel wasted. Returns the root span id (0: spans off).
     */
    std::uint64_t finish(Invocation& inv, obs::SpanOutcome outcome,
                         const StageLabel& last = {}, double execSeconds = 0.0);

    /** Close @p inv's stage up to @p end and emit it (spans on). */
    void emitStage(Invocation& inv, sim::Tick end, const StageLabel& label);

    /** Profiler of the attached observer, or nullptr. */
    obs::Profiler*
    profiler()
    {
        return _obs != nullptr ? _obs->profiler() : nullptr;
    }

    sim::Engine& _engine;
    const workload::Catalog& _catalog;
    ContainerPool& _pool;
    policy::Policy& _policy;
    Metrics& _metrics;
    sim::Rng& _rng;
    obs::Observer* _obs = nullptr;

    // ---- the three homes of a live invocation (see file comment) -------

    std::deque<Invocation> _queue;
    std::unordered_map<container::ContainerId, InFlight> _inFlight;
    std::unordered_map<std::uint64_t, Backoff> _backoffs;
    std::uint64_t _nextBackoff = 0;

    std::size_t _executing = 0;
    bool _draining = false;

    // Reusable scratch for the dispatch/eviction hot paths: cleared
    // and refilled on each use so steady-state lookups allocate
    // nothing once the buffers reach their high-water capacity.
    std::vector<container::Container*> _foreignScratch;
    std::vector<const container::Container*> _idleScratch;
    std::vector<container::ContainerId> _victimScratch;

    // ---- fault state (all dormant while _fault is nullptr) -------------

    fault::FaultInjector* _fault = nullptr;
    sim::Tick _faultHorizon = 0;
    sim::Tick _downUntil = -1;
    sim::Tick _overloadUntil = -1;
    bool _finalizing = false;
    std::uint64_t _admitted = 0;
    std::uint64_t _extracted = 0;
    std::uint64_t _failed = 0;
    std::uint64_t _retries = 0;
    std::uint64_t _finalizeDrained = 0;
    std::uint64_t _recoveryPrewarmsIssued = 0;

    // ---- cluster tail-tolerance state ----------------------------------

    /** @p t stretched by @p factor (exec or init) of the gray window
     *  covering now; unchanged outside every window. */
    sim::Tick grayStretch(sim::Tick t, double DegradedSpan::*factor);

    std::vector<TicketOutcome> _ticketLog;
    std::uint64_t _cancelled = 0;
    std::vector<DegradedSpan> _degraded;
    std::size_t _degradedCursor = 0;

    // ---- admission state (all dormant while _admission is nullptr) -----

    admission::AdmissionController* _admission = nullptr;
    sim::Tick _admissionHorizon = 0;
    std::uint64_t _nextSeq = 1; //!< deadline tags (0 means untagged)
    std::uint64_t _rejected = 0;
    std::uint64_t _shedDeadline = 0;
    std::uint64_t _shedPressure = 0;
    std::uint64_t _degradedKeepalives = 0;
    std::size_t _peakQueueDepth = 0;

    /** Next local invocation sequence for span ids. */
    std::uint64_t _nextInvocationId = 1;
};

} // namespace rc::platform

#endif // RC_PLATFORM_INVOKER_HH_
