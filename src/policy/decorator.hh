/**
 * @file
 * The one way to wrap a policy.
 *
 * The paper composes RainbowCake with orthogonal techniques (§7.8
 * checkpoint/restore, §8 DRAM/NVM tiering). Each is a decorator: it
 * changes a few hooks of whatever policy it wraps and must leave
 * every other decision to that policy. PolicyDecorator owns the
 * wrapped (base) policy and forwards all of Policy's virtual hooks
 * to it, plus the two settings the platform pushes (the observer and
 * the admission pressure level), so the base behaves exactly as it
 * would unwrapped. A subclass overrides only what it changes, and
 * decorators stack.
 */

#ifndef RC_POLICY_DECORATOR_HH_
#define RC_POLICY_DECORATOR_HH_

#include <memory>

#include "policy/policy.hh"
#include "sim/logging.hh"

namespace rc::policy {

/** A policy that forwards everything to the policy it wraps. */
class PolicyDecorator : public Policy
{
  public:
    explicit PolicyDecorator(std::unique_ptr<Policy> base)
        : _base(std::move(base))
    {
        if (!_base)
            sim::fatal("PolicyDecorator: base policy must not be null");
    }

    std::string name() const override { return _base->name(); }

    void
    attach(PlatformView& view) override
    {
        Policy::attach(view);
        _base->attach(view);
    }

    void
    setObserver(obs::Observer* obs) override
    {
        Policy::setObserver(obs);
        _base->setObserver(obs);
    }

    void
    setPressureLevel(int level) override
    {
        Policy::setPressureLevel(level);
        _base->setPressureLevel(level);
    }

    void onArrival(workload::FunctionId f) override { _base->onArrival(f); }
    void
    onStartupResolved(const StartupObservation& o) override
    {
        _base->onStartupResolved(o);
    }
    void
    onContainerFailed(const container::Container& c) override
    {
        _base->onContainerFailed(c);
    }
    void
    onNodeDown(sim::Tick downtime) override
    {
        _base->onNodeDown(downtime);
    }
    sim::Tick
    keepAliveTtl(const container::Container& c) override
    {
        return _base->keepAliveTtl(c);
    }
    IdleDecision
    onIdleExpired(const container::Container& c) override
    {
        return _base->onIdleExpired(c);
    }
    bool
    layerSharingEnabled() const override
    {
        return _base->layerSharingEnabled();
    }
    bool
    acceptsRecoveryPrewarm(workload::Layer layer) const override
    {
        return _base->acceptsRecoveryPrewarm(layer);
    }
    bool
    allowForeignUserContainer(const container::Container& c,
                              workload::FunctionId f) const override
    {
        return _base->allowForeignUserContainer(c, f);
    }
    std::vector<container::ContainerId>
    rankEvictionVictims(
        const std::vector<const container::Container*>& idle) override
    {
        return _base->rankEvictionVictims(idle);
    }
    double
    partialStartLatencyFactor() const override
    {
        return _base->partialStartLatencyFactor();
    }
    sim::Tick
    partialStartLatencyBias() const override
    {
        return _base->partialStartLatencyBias();
    }
    sim::Tick
    foreignUserStartupLatency(const container::Container& c,
                              workload::FunctionId f) const override
    {
        return _base->foreignUserStartupLatency(c, f);
    }
    bool
    forkSharedLayers() const override
    {
        return _base->forkSharedLayers();
    }
    sim::Tick forkLatency() const override { return _base->forkLatency(); }
    double
    coldStartFactor() const override
    {
        return _base->coldStartFactor();
    }
    double
    auxiliaryMemoryMb(const workload::FunctionProfile& p) const override
    {
        return _base->auxiliaryMemoryMb(p);
    }

  protected:
    /** The wrapped policy, for the hooks a subclass changes. */
    const Policy& base() const { return *_base; }

  private:
    std::unique_ptr<Policy> _base;
};

} // namespace rc::policy

#endif // RC_POLICY_DECORATOR_HH_
