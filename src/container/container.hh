/**
 * @file
 * Container lifecycle state machine (paper Fig. 5).
 *
 * A container is always in one of four states: Initializing (stage
 * installs in progress toward a target layer), Idle (a Bare/Lang/User
 * container in its keep-alive period), Busy (executing an
 * invocation), or Dead. Layer upgrades happen while Initializing;
 * downgrades happen on keep-alive expiry ("peeling off" a layer,
 * §3.3) and are instantaneous apart from the Clean request cost
 * absorbed into transition overheads.
 *
 * The container records its own idle intervals (begin, end, resident
 * memory) so the pool can retroactively classify them as
 * eventually-hit or never-hit for the Fig. 8 waste split.
 *
 * Timing lives outside: the platform schedules events and calls the
 * guarded mutators below; illegal transitions panic, which the FSM
 * tests rely on.
 */

#ifndef RC_CONTAINER_CONTAINER_HH_
#define RC_CONTAINER_CONTAINER_HH_

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/engine.hh"
#include "sim/time.hh"
#include "stats/interval_log.hh"
#include "workload/function_profile.hh"
#include "workload/types.hh"

namespace rc::platform {
class ContainerPool;
} // namespace rc::platform

namespace rc::container {

/** Stable identifier of a container instance. */
using ContainerId = std::uint64_t;

/** Lifecycle states. */
enum class State : std::uint8_t
{
    Initializing,
    Idle,
    Busy,
    Dead,
};

/** Human-readable state name. */
const char* toString(State state);

/** One container instance and its layer bookkeeping. */
class Container
{
  public:
    /**
     * Create a container that will initialize from nothing toward
     * @p target for function @p profile, starting at time @p now.
     */
    Container(ContainerId id, const workload::FunctionProfile& profile,
              workload::Layer target, sim::Tick now);

    ContainerId id() const { return _id; }
    State state() const { return _state; }
    workload::Layer layer() const { return _layer; }
    workload::Layer targetLayer() const { return _target; }

    /** Language of the installed runtime; nullopt below Lang. */
    std::optional<workload::Language> language() const { return _language; }

    /** Owning function of the User layer; kInvalidFunction below User. */
    workload::FunctionId function() const { return _function; }

    /** Function whose profile drives the in-flight initialization. */
    workload::FunctionId initFunction() const { return _initFunction; }

    /** Current resident memory in MB (target memory while initializing). */
    double memoryMb() const;

    /** Time the container entered its current idle period. */
    sim::Tick idleSince() const { return _idleSince; }

    /** Time the container was created. */
    sim::Tick createdAt() const { return _createdAt; }

    /** True if the container ever executed an invocation. */
    bool everExecuted() const { return _executions > 0; }

    /** Number of invocations this container has executed. */
    std::uint64_t executions() const { return _executions; }

    /** Pending keep-alive timeout event, if any. */
    sim::EventId timeoutEvent() const { return _timeoutEvent; }
    void setTimeoutEvent(sim::EventId id) { _timeoutEvent = id; }

    /**
     * Functions packed into this container beyond its owner (used by
     * the Pagurus baseline's zygote containers); empty otherwise.
     */
    const std::vector<workload::FunctionId>& packedFunctions() const
    {
        return _packed;
    }
    void setPackedFunctions(std::vector<workload::FunctionId> packed,
                            double packedMemoryMb);

    /**
     * Convert an idle User container into an ownerless zygote: the
     * owner's user code is wiped (Pagurus cleans the image when
     * re-packing), so every future claimant — the former owner
     * included — goes through the foreign-user specialization path.
     */
    void demoteToZygote();

    /** Extra memory charged for packed libraries (zygotes). */
    double packedMemoryMb() const { return _packedMemoryMb; }

    /** Stored cumulative footprint of the installed bare layer. */
    double bareLayerMb() const { return _bareMemoryMb; }
    /** Stored cumulative footprint up to the lang layer. */
    double langLayerMb() const { return _langMemoryMb; }
    /** Stored cumulative footprint up to the user layer. */
    double userLayerMb() const { return _userMemoryMb; }

    /** Extra resident memory charged on top of layers (checkpoints…). */
    double auxiliaryMemoryMb() const { return _auxMemoryMb; }
    void setAuxiliaryMemoryMb(double mb);

    // ---- Guarded transitions (panic on illegal use) -------------------

    /**
     * Initialization finished: container reaches its target layer and
     * becomes Idle at @p now.
     */
    void finishInit(sim::Tick now);

    /**
     * Begin upgrading an Idle container toward @p target on behalf of
     * @p profile (e.g. a Lang container installing a new function's
     * User layer). Closes the current idle interval as a hit.
     */
    void beginUpgrade(const workload::FunctionProfile& profile,
                      workload::Layer target, sim::Tick now);

    /**
     * Repurpose an idle User container of another function (same
     * language) to serve @p profile: the Pagurus-style sharing path.
     * The container re-enters Initializing toward its User layer
     * while the (cheap) specialization runs.
     */
    void beginRepurpose(const workload::FunctionProfile& profile,
                        sim::Tick now);

    /**
     * Record that this idle container served a request *without*
     * being consumed (a zygote template that was forked): the idle
     * interval so far is closed as a hit and a fresh one opens.
     */
    void markSharedHit(sim::Tick now);

    /** Begin executing: Idle User container becomes Busy. */
    void beginExecution(sim::Tick now);

    /** Execution done: Busy container becomes Idle again at @p now. */
    void finishExecution(sim::Tick now);

    /**
     * Peel the top layer off an Idle container (User->Lang or
     * Lang->Bare). Closes the current idle interval (classification
     * deferred) and opens a new one at the smaller footprint.
     */
    void downgrade(sim::Tick now);

    /**
     * Terminate the container; closes any open idle interval. Killing
     * a Busy container is only legal with @p force — the fault paths
     * (execution crash, wedge-timeout watchdog, node crash) use it to
     * model abrupt termination; orderly paths never do.
     */
    void kill(sim::Tick now, bool force = false);

    /**
     * Drain idle intervals closed since the last drain, marking them
     * all @p eventuallyHit. Called by the pool when the container is
     * reused (hit) or killed (never hit).
     */
    std::vector<stats::IdleInterval> drainIdleIntervals(bool eventuallyHit);

    /**
     * Provenance tag for recovery warm-ups: containers created from a
     * rejoining node's pre-failure layer census carry this flag until
     * first use, so the pool can classify every census prewarm as
     * eventually hit, evicted, or wasted (the prewarm conservation
     * identity).
     */
    bool recoveryPrewarmed() const { return _recoveryPrewarmed; }
    void markRecoveryPrewarmed() { _recoveryPrewarmed = true; }
    void clearRecoveryPrewarmed() { _recoveryPrewarmed = false; }

  private:
    void closeIdleInterval(sim::Tick now);
    void openIdleInterval(sim::Tick now);

    /**
     * Intrusive links for the owning pool's lookup indices (idle
     * lists, unclaimed-init lists; see platform/pool.hh). Maintained
     * exclusively by ContainerPool on state transitions; the
     * container itself never touches them. Living here keeps index
     * maintenance allocation-free: joining or leaving an index is a
     * handful of pointer writes, never a node allocation.
     */
    struct PoolHooks
    {
        Container* bucketPrev = nullptr; //!< per-key bucket list
        Container* bucketNext = nullptr;
        Container* idlePrev = nullptr;   //!< global idle list
        Container* idleNext = nullptr;
        Container* userPrev = nullptr;   //!< global idle-User list
        Container* userNext = nullptr;
        std::uint8_t bucket = 0;    //!< pool-private membership tag
        bool claimed = false;       //!< in-flight init an invocation awaits
        std::uint32_t bucketKey = 0; //!< key the bucket was filed under
    };
    friend class rc::platform::ContainerPool;
    PoolHooks _poolHooks;

    ContainerId _id;
    State _state = State::Initializing;
    workload::Layer _layer = workload::Layer::None;
    workload::Layer _target = workload::Layer::None;
    std::optional<workload::Language> _language;
    workload::FunctionId _function = workload::kInvalidFunction;
    workload::FunctionId _initFunction = workload::kInvalidFunction;

    /** Cumulative footprints captured from the installing profile. */
    double _bareMemoryMb = 0.0;
    double _langMemoryMb = 0.0;
    double _userMemoryMb = 0.0;
    double _auxMemoryMb = 0.0;
    double _packedMemoryMb = 0.0;

    std::vector<workload::FunctionId> _packed;

    sim::Tick _createdAt = 0;
    sim::Tick _idleSince = 0;
    bool _idleOpen = false;
    bool _recoveryPrewarmed = false;
    std::uint64_t _executions = 0;
    sim::EventId _timeoutEvent = sim::kNoEvent;

    std::vector<stats::IdleInterval> _pendingIntervals;
};

} // namespace rc::container

#endif // RC_CONTAINER_CONTAINER_HH_
