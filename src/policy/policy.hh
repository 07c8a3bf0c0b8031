/**
 * @file
 * The policy plug-in interface of the platform.
 *
 * A Policy owns exactly the decisions the paper's design space is
 * about (§2.2): when to pre-warm containers, how long to keep idle
 * containers alive, what happens when a keep-alive window expires
 * (terminate vs. peel a layer), whether idle containers may be shared
 * across functions, and which idle containers to evict first under
 * memory pressure. Everything else — stage installs, queueing, memory
 * accounting, metrics — is platform mechanics shared by all policies,
 * so baseline comparisons measure policy differences only.
 *
 * Policies act through a PlatformView, a narrow service interface the
 * invoker implements: scheduling pre-warm events, querying warm
 * availability (the Available() check of Algorithm 1), and reading
 * the clock.
 */

#ifndef RC_POLICY_POLICY_HH_
#define RC_POLICY_POLICY_HH_

#include <string>
#include <vector>

#include "container/container.hh"
#include "obs/observer.hh"
#include "platform/startup_type.hh"
#include "sim/time.hh"
#include "workload/catalog.hh"
#include "workload/types.hh"

namespace rc::policy {

/** What to do with an idle container whose keep-alive TTL expired. */
struct IdleDecision
{
    enum class Action : std::uint8_t
    {
        Kill,      //!< terminate the container
        Downgrade, //!< peel the top layer, keep alive for nextTtl
        Renew,     //!< keep the current layer alive for nextTtl more
        Repack,    //!< convert into a shared zygote (Pagurus)
    };

    Action action = Action::Kill;
    sim::Tick nextTtl = 0;

    /**
     * Kill only: why the policy chose to terminate rather than keep
     * the container — recorded in the trace so eviction breakdowns
     * (Fig. 8 analysis) can distinguish TTL expiry from saturation.
     */
    obs::KillCause killCause = obs::KillCause::TtlExpired;

    /** Repack only: functions the zygote will additionally serve. */
    std::vector<workload::FunctionId> packedFunctions;
    /** Repack only: extra memory of the packed libraries (MB). */
    double packedMemoryMb = 0.0;

    static IdleDecision
    kill(obs::KillCause cause = obs::KillCause::TtlExpired)
    {
        IdleDecision d;
        d.killCause = cause;
        return d;
    }
    static IdleDecision
    downgrade(sim::Tick ttl)
    {
        IdleDecision d;
        d.action = Action::Downgrade;
        d.nextTtl = ttl;
        return d;
    }
    static IdleDecision
    renew(sim::Tick ttl)
    {
        IdleDecision d;
        d.action = Action::Renew;
        d.nextTtl = ttl;
        return d;
    }
    static IdleDecision
    repack(sim::Tick ttl, std::vector<workload::FunctionId> packed,
           double packedMb)
    {
        IdleDecision d;
        d.action = Action::Repack;
        d.nextTtl = ttl;
        d.packedFunctions = std::move(packed);
        d.packedMemoryMb = packedMb;
        return d;
    }
};

/** Services the platform exposes to policies. */
class PlatformView
{
  public:
    virtual ~PlatformView() = default;

    /** Current simulated time. */
    virtual sim::Tick now() const = 0;

    /** The deployed function catalog. */
    virtual const workload::Catalog& catalog() const = 0;

    /**
     * Algorithm 1's Available(): true if an idle or in-flight User
     * container for @p function exists.
     */
    virtual bool
    userContainerAvailable(workload::FunctionId function) const = 0;

    /**
     * Schedule a pre-warm of a User container for @p function after
     * @p delay. The platform performs the Available() check again at
     * fire time and skips the pre-warm if warm capacity exists.
     */
    virtual void schedulePrewarm(workload::FunctionId function,
                                 sim::Tick delay) = 0;

    /** Idle containers currently in the pool (for custom eviction). */
    virtual std::vector<const container::Container*>
    idleContainers() const = 0;

    /**
     * Number of idle containers at @p layer, optionally narrowed to
     * @p language (meaningful for Lang). The platform answers this
     * from its pool indices in O(1); the default derives it from
     * idleContainers() for views that don't override it.
     */
    virtual std::size_t
    idleCountAtLayer(workload::Layer layer,
                     std::optional<workload::Language> language) const
    {
        std::size_t n = 0;
        for (const auto* c : idleContainers()) {
            if (c->layer() != layer)
                continue;
            if (language &&
                (!c->language() || *c->language() != *language))
                continue;
            ++n;
        }
        return n;
    }
};

/** Outcome of one resolved invocation, passed to observation hooks. */
struct StartupObservation
{
    workload::FunctionId function = workload::kInvalidFunction;
    platform::StartupType type = platform::StartupType::Cold;
    sim::Tick startupLatency = 0; //!< arrival to execution start
};

/**
 * Abstract pre-warm & keep-alive policy.
 *
 * Lifetime: attach() is called once before any other hook; hooks are
 * then invoked from platform events in simulated-time order.
 */
class Policy
{
  public:
    virtual ~Policy() = default;

    /** Display name used in reports. */
    virtual std::string name() const = 0;

    /** Called once when the policy is installed on a platform. */
    virtual void attach(PlatformView& view) { _view = &view; }

    /**
     * Install the observability sink (may be nullptr). The platform
     * calls this alongside attach(); policies emit PolicyDecision
     * audit events through it when set. Virtual so a decorator
     * (PolicyDecorator) can pass it on to the policy it wraps.
     */
    virtual void setObserver(obs::Observer* obs) { _obs = obs; }

    /** An invocation for @p function arrived (before any lookup). */
    virtual void onArrival(workload::FunctionId function)
    {
        (void)function;
    }

    /** An invocation resolved to a startup type. */
    virtual void onStartupResolved(const StartupObservation& obs)
    {
        (void)obs;
    }

    /**
     * A container was destroyed by an injected fault (init failure,
     * execution crash, wedge timeout) rather than by a keep-alive or
     * eviction decision. Called before the kill, so @p c is intact.
     * Policies that learn from container lifetimes use this to keep
     * failure kills out of their idle-timeout evidence; the default
     * ignores it, which is correct for all stateless baselines.
     */
    virtual void onContainerFailed(const container::Container& c)
    {
        (void)c;
    }

    /**
     * The node crashed and lost its whole pool; it restarts after
     * @p downtime. Called once per crash, before the containers die.
     */
    virtual void onNodeDown(sim::Tick downtime) { (void)downtime; }

    /**
     * rc::admission degradation-ladder level (0 = nominal; see
     * admission::AdmissionController). The platform pushes the level
     * here on every pressure recomputation; pressure-aware policies
     * read it to trade retention for headroom (RainbowCake caches
     * decayed L2/L1 layers instead of full-window L3 containers at
     * level >= 2). Always 0 when no controller is installed.
     * Virtual for the same reason as setObserver().
     */
    virtual void setPressureLevel(int level) { _pressureLevel = level; }
    int pressureLevel() const { return _pressureLevel; }

    /**
     * Keep-alive TTL for a container that just became idle (after
     * execution or after a pre-warm completes). Return a negative
     * value for "no timeout" (FaaSCache keeps containers until
     * evicted).
     */
    virtual sim::Tick keepAliveTtl(const container::Container& c) = 0;

    /** Decision when an idle container's TTL expires. */
    virtual IdleDecision onIdleExpired(const container::Container& c) = 0;

    /**
     * Whether layer-wise sharing lookups (idle Lang/Bare containers)
     * should be attempted for arrivals. Full-container policies
     * return false (their pools never hold partial containers, but
     * the flag also guards against cross-function reuse).
     */
    virtual bool layerSharingEnabled() const { return false; }

    /**
     * Whether a recovery-orchestrated census warm-up may rebuild an
     * idle container at @p layer on this node after a rejoin. Partial
     * (Bare/Lang) prewarms are only useful to policies that dispatch
     * through layer sharing, so the default follows that flag; full-
     * container policies would never claim them and the memory would
     * be pure waste.
     */
    virtual bool acceptsRecoveryPrewarm(workload::Layer layer) const
    {
        (void)layer;
        return layerSharingEnabled();
    }

    /**
     * Whether @p c may serve @p function through a policy-specific
     * sharing path even though its User layer belongs to another
     * function (Pagurus zygotes). Default: no.
     */
    virtual bool
    allowForeignUserContainer(const container::Container& c,
                              workload::FunctionId function) const
    {
        (void)c;
        (void)function;
        return false;
    }

    /**
     * Rank idle containers for eviction under memory pressure; the
     * platform kills them front-to-back until the new container
     * fits. The default orders by longest-idle-first.
     */
    virtual std::vector<container::ContainerId>
    rankEvictionVictims(
        const std::vector<const container::Container*>& idle);

    /**
     * Multiplier applied to remaining init latency when starting
     * from a cached layer (SEUSS-style snapshot restore penalty) and
     * additive restore cost. Default: no penalty.
     */
    virtual double partialStartLatencyFactor() const { return 1.0; }
    virtual sim::Tick partialStartLatencyBias() const { return 0; }

    /**
     * Extra startup latency of serving @p function from a shared
     * foreign User container (zygote specialization cost). Only
     * consulted when allowForeignUserContainer() returned true.
     */
    virtual sim::Tick
    foreignUserStartupLatency(const container::Container& c,
                              workload::FunctionId function) const
    {
        (void)c;
        (void)function;
        return 0;
    }

    /**
     * Whether shared Lang/Bare containers serve partial starts by
     * *forking* (the §8 zygote-template scheme: the template stays
     * resident and each hit clones it copy-on-write) instead of by
     * being consumed and upgraded in place. Forking absorbs
     * concurrent same-language bursts with one template; the clone
     * pays forkLatency and the template keeps its footprint.
     */
    virtual bool forkSharedLayers() const { return false; }

    /** Fork cost when forkSharedLayers() is enabled. */
    virtual sim::Tick forkLatency() const { return 0; }

    /**
     * Multiplier on full cold-start latency; checkpoint-enabled
     * variants (§7.8) restore from snapshots instead of initializing
     * from scratch. Default: 1 (no checkpointing).
     */
    virtual double coldStartFactor() const { return 1.0; }

    /**
     * Auxiliary memory charged per container (checkpoint images held
     * in memory). Default: none.
     */
    virtual double
    auxiliaryMemoryMb(const workload::FunctionProfile& profile) const
    {
        (void)profile;
        return 0.0;
    }

  protected:
    PlatformView* _view = nullptr;
    obs::Observer* _obs = nullptr; //!< optional trace sink, may be null
    int _pressureLevel = 0; //!< rc::admission ladder level (0 = nominal)
};

} // namespace rc::policy

#endif // RC_POLICY_POLICY_HH_
