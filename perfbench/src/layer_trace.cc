#include "layer_trace.hh"

namespace perfbench {

namespace policy = rc::policy;
namespace workload = rc::workload;
namespace container = rc::container;
namespace sim = rc::sim;

CallStat
PolicyTrace::hookTotal() const
{
    CallStat total;
    for (const CallStat& hook : hooks)
        total += hook;
    return total;
}

PolicyTrace&
PolicyTrace::operator+=(const PolicyTrace& other)
{
    for (std::size_t i = 0; i < kHookCount; ++i)
        hooks[i] += other.hooks[i];
    view += other.view;
    return *this;
}

// ---- TracingView ----------------------------------------------------------

sim::Tick
TracingView::now() const
{
    ++_stat.calls;
    return _inner->now();
}

const workload::Catalog&
TracingView::catalog() const
{
    ++_stat.calls;
    return _inner->catalog();
}

bool
TracingView::userContainerAvailable(workload::FunctionId function) const
{
    const ScopedCall timer(_stat);
    return _inner->userContainerAvailable(function);
}

void
TracingView::schedulePrewarm(workload::FunctionId function, sim::Tick delay)
{
    const ScopedCall timer(_stat);
    _inner->schedulePrewarm(function, delay);
}

std::vector<const container::Container*>
TracingView::idleContainers() const
{
    const ScopedCall timer(_stat);
    return _inner->idleContainers();
}

std::size_t
TracingView::idleCountAtLayer(
    workload::Layer layer, std::optional<workload::Language> language) const
{
    const ScopedCall timer(_stat);
    return _inner->idleCountAtLayer(layer, language);
}

// ---- TracingPolicy --------------------------------------------------------

TracingPolicy::TracingPolicy(std::unique_ptr<policy::Policy> inner,
                             PolicyTrace& trace)
    : _inner(std::move(inner)), _trace(trace), _tracingView(trace.view)
{
}

void
TracingPolicy::sync() const
{
    if (_inner->pressureLevel() != pressureLevel())
        _inner->setPressureLevel(pressureLevel());
    if (_pushedObserver != _obs) {
        _inner->setObserver(_obs);
        _pushedObserver = _obs;
    }
}

std::string
TracingPolicy::name() const
{
    return query(Hook::Name, [&] { return _inner->name(); });
}

void
TracingPolicy::attach(policy::PlatformView& view)
{
    Policy::attach(view);
    _tracingView.wrap(view);
    forward(Hook::Attach, [&] { _inner->attach(_tracingView); });
}

void
TracingPolicy::onArrival(workload::FunctionId function)
{
    forward(Hook::OnArrival, [&] { _inner->onArrival(function); });
}

void
TracingPolicy::onStartupResolved(const policy::StartupObservation& observation)
{
    forward(Hook::OnStartupResolved,
            [&] { _inner->onStartupResolved(observation); });
}

void
TracingPolicy::onContainerFailed(const container::Container& c)
{
    forward(Hook::OnContainerFailed, [&] { _inner->onContainerFailed(c); });
}

void
TracingPolicy::onNodeDown(sim::Tick downtime)
{
    forward(Hook::OnNodeDown, [&] { _inner->onNodeDown(downtime); });
}

sim::Tick
TracingPolicy::keepAliveTtl(const container::Container& c)
{
    return forward(Hook::KeepAliveTtl,
                   [&] { return _inner->keepAliveTtl(c); });
}

policy::IdleDecision
TracingPolicy::onIdleExpired(const container::Container& c)
{
    return forward(Hook::OnIdleExpired,
                   [&] { return _inner->onIdleExpired(c); });
}

bool
TracingPolicy::layerSharingEnabled() const
{
    return query(Hook::LayerSharingEnabled,
                 [&] { return _inner->layerSharingEnabled(); });
}

bool
TracingPolicy::acceptsRecoveryPrewarm(workload::Layer layer) const
{
    return query(Hook::AcceptsRecoveryPrewarm,
                 [&] { return _inner->acceptsRecoveryPrewarm(layer); });
}

bool
TracingPolicy::allowForeignUserContainer(const container::Container& c,
                                         workload::FunctionId function) const
{
    return query(Hook::AllowForeignUserContainer, [&] {
        return _inner->allowForeignUserContainer(c, function);
    });
}

std::vector<container::ContainerId>
TracingPolicy::rankEvictionVictims(
    const std::vector<const container::Container*>& idle)
{
    return forward(Hook::RankEvictionVictims,
                   [&] { return _inner->rankEvictionVictims(idle); });
}

double
TracingPolicy::partialStartLatencyFactor() const
{
    return query(Hook::PartialStartLatencyFactor,
                 [&] { return _inner->partialStartLatencyFactor(); });
}

sim::Tick
TracingPolicy::partialStartLatencyBias() const
{
    return query(Hook::PartialStartLatencyBias,
                 [&] { return _inner->partialStartLatencyBias(); });
}

sim::Tick
TracingPolicy::foreignUserStartupLatency(const container::Container& c,
                                         workload::FunctionId function) const
{
    return query(Hook::ForeignUserStartupLatency, [&] {
        return _inner->foreignUserStartupLatency(c, function);
    });
}

bool
TracingPolicy::forkSharedLayers() const
{
    return query(Hook::ForkSharedLayers,
                 [&] { return _inner->forkSharedLayers(); });
}

sim::Tick
TracingPolicy::forkLatency() const
{
    return query(Hook::ForkLatency, [&] { return _inner->forkLatency(); });
}

double
TracingPolicy::coldStartFactor() const
{
    return query(Hook::ColdStartFactor,
                 [&] { return _inner->coldStartFactor(); });
}

double
TracingPolicy::auxiliaryMemoryMb(const workload::FunctionProfile& profile) const
{
    return query(Hook::AuxiliaryMemoryMb,
                 [&] { return _inner->auxiliaryMemoryMb(profile); });
}

// ---- SpanLog --------------------------------------------------------------

int
SpanLog::open(std::string name, int parent)
{
    Span span;
    span.name = std::move(name);
    span.parent = parent;
    span.startNs = nowNs();
    _spans.push_back(std::move(span));
    return static_cast<int>(_spans.size()) - 1;
}

void
SpanLog::close(int index)
{
    _spans[static_cast<std::size_t>(index)].endNs = nowNs();
}

double
SpanLog::seconds(const std::string& name) const
{
    double total = 0.0;
    for (const Span& span : _spans) {
        if (span.name == name)
            total += span.seconds();
    }
    return total;
}

} // namespace perfbench
