#include "platform/node.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace rc::platform {

namespace {

/** Validate the policy before any member dereferences it. */
std::unique_ptr<policy::Policy>
requirePolicy(std::unique_ptr<policy::Policy> policy)
{
    if (!policy)
        sim::fatal("Node: policy must not be null");
    return policy;
}

} // namespace

Node::Node(const workload::Catalog& catalog,
           std::unique_ptr<policy::Policy> policy, NodeConfig config)
    : _catalog(catalog), _policy(requirePolicy(std::move(policy))),
      _obs(config.observer), _rng(config.seed),
      _pool(_engine, config.pool, config.observer),
      _invoker(_engine, _catalog, _pool, *_policy, _metrics, _rng,
               config.observer)
{
    if (config.fault.active()) {
        _injector = std::make_unique<fault::FaultInjector>(
            config.fault, _rng.stream("fault"));
        _invoker.installFaults(_injector.get());
    }
    if (config.admission.active()) {
        _admission = std::make_unique<admission::AdmissionController>(
            config.admission);
        _invoker.installAdmission(_admission.get());
    }
}

void
Node::run(trace::ArrivalSource& arrivals)
{
    // Time-driven fault chains (crashes, overload windows) and the
    // pressure-controller tick chain stop re-arming past the last
    // arrival so the engine can drain.
    const sim::Tick horizon = arrivals.horizon();
    _invoker.armFaults(horizon, /*manageNodeCrashes=*/true);
    _invoker.armAdmission(horizon);
    // Each arrival completes at most once: sizing the record store up
    // front spares its doubling copies (node_replay's peak RSS falls
    // from 88 to 77 MB).
    _metrics.reserve(arrivals.total());
    {
        const obs::ScopedTimer timer(
            _obs != nullptr ? _obs->profiler() : nullptr,
            obs::Scope::EngineRun);
        while (!arrivals.done()) {
            // An arrival runs before every runtime event of its tick,
            // the order of a queue that held all arrivals from t = 0.
            const sim::Tick at = arrivals.peek().time;
            _engine.runBefore(at);
            do {
                _invoker.onArrival(arrivals.peek().function);
                arrivals.pop();
            } while (!arrivals.done() && arrivals.peek().time == at);
        }
        _engine.run();
    }
    finalize();
    if (_obs != nullptr) {
        _obs->recordEngineStats(_engine.now(), _engine.executedEvents(),
                                _engine.scheduledEvents(),
                                _engine.cancelledEvents());
    }
    RC_LOG(Info, "run complete: " << _metrics.total()
                 << " invocations, " << _engine.executedEvents()
                 << " events over " << sim::toSeconds(_engine.now())
                 << " s simulated");
}

void
Node::run(const std::vector<trace::Arrival>& arrivals)
{
    const auto byTime = [](const trace::Arrival& a, const trace::Arrival& b) {
        return a.time < b.time;
    };
    if (std::is_sorted(arrivals.begin(), arrivals.end(), byTime)) {
        trace::VectorArrivalSource source(arrivals);
        run(source);
        return;
    }
    std::vector<trace::Arrival> sorted = arrivals;
    std::stable_sort(sorted.begin(), sorted.end(), byTime);
    run(sorted);
}

void
Node::invokeNow(workload::FunctionId function, std::uint64_t originSpan,
                std::uint64_t ticket)
{
    ++_externalOps;
    _invoker.onArrival(function, originSpan, ticket);
}

void
Node::advanceTo(sim::Tick when)
{
    _engine.runUntil(when);
}

void
Node::finalize()
{
    const obs::ScopedTimer timer(
        _obs != nullptr ? _obs->profiler() : nullptr,
        obs::Scope::Finalize);
    // Invocations that only bind from here on are finalize-drained:
    // they ran off the flush's freed memory, not in-band capacity.
    _invoker.beginFinalize();
    // Kill every surviving idle container so its open idle interval
    // lands in the waste log (classified never-hit unless the
    // container was reused earlier). Policies like FaaSCache keep
    // containers without timeouts, so this flush is what bounds
    // their accounted waste at the end of the run.
    // Collect the victims first (killing invalidates any live idle
    // view), then kill each one that is still idle. One pass over the
    // idle index replaces the old kill-one-then-rescan loop that was
    // quadratic in the surviving pool size.
    std::vector<container::ContainerId> victims;
    const auto collectVictims = [this, &victims] {
        victims.clear();
        _pool.forEachIdle([&victims](const container::Container& c) {
            victims.push_back(c.id());
        });
    };
    const auto killVictims = [this, &victims] {
        bool killed = false;
        for (const auto id : victims) {
            container::Container* victim = _pool.byId(id);
            if (victim && victim->state() == container::State::Idle) {
                _pool.kill(*victim, obs::KillCause::Finalize);
                killed = true;
            }
        }
        return killed;
    };
    collectVictims();
    killVictims();
    // Retry anything stranded in the admission queue now that memory
    // freed, and run the events that dispatch may have produced. A
    // retried invocation can leave fresh idle containers behind, so
    // loop until the pool is empty or no progress is possible.
    std::size_t before = _invoker.queuedInvocations();
    while (true) {
        _invoker.retryQueued();
        _engine.run();
        collectVictims();
        const bool killed = killVictims();
        const std::size_t after = _invoker.queuedInvocations();
        if (!killed && after == before)
            break;
        if (after == 0 && _pool.liveCount() == 0)
            break;
        before = after;
    }
    // Whatever is still queued will never bind: close its spans as
    // stranded so the dump's conservation invariant covers it too.
    _invoker.closeStrandedSpans();
}

} // namespace rc::platform
