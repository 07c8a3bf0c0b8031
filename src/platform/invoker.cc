#include "platform/invoker.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace rc::platform {

using container::Container;
using container::State;
using workload::Layer;

Invoker::Invoker(sim::Engine& engine, const workload::Catalog& catalog,
                 ContainerPool& pool, policy::Policy& policy,
                 Metrics& metrics, sim::Rng& rng, obs::Observer* observer)
    : _engine(engine), _catalog(catalog), _pool(pool), _policy(policy),
      _metrics(metrics), _rng(rng), _obs(observer)
{
    _policy.attach(*this);
    _policy.setObserver(observer);
}

Invoker::InFlight&
Invoker::bind(Invocation& inv, container::ContainerId cid, StartupType type,
              obs::Counter counter)
{
    if (_obs != nullptr) {
        // Any time between the last stage and this binding was spent
        // waiting in the queue (zero-length waits are skipped).
        emitStage(inv, _engine.now(), {});
        _obs->counters().bump(counter, _engine.now());
        _obs->emit(_engine.now(), obs::EventType::InvocationDispatched, cid,
                   inv.function, static_cast<std::uint8_t>(type), 0,
                   sim::toSeconds(inv.queueWait));
    }
    InFlight& row = _inFlight[cid];
    row.bound = true;
    row.type = type;
    row.inv = inv;
    return row;
}

// ---- span tracing --------------------------------------------------------

namespace {

/** Span stage for an init aborted at @p layer. */
obs::SpanStage
initStageForLayer(workload::Layer layer)
{
    switch (layer) {
      case Layer::Bare: return obs::SpanStage::InitBare;
      case Layer::Lang: return obs::SpanStage::InitLang;
      default: return obs::SpanStage::InitUser;
    }
}

/**
 * Span stage an install cut short (crash or cancel) is charged to:
 * the wait stage for an invocation latched onto a pre-warm, the first
 * layer being built otherwise (attribution folds aborted spans into
 * "retry").
 */
obs::SpanStage
abortedInstallStage(StartupType type)
{
    switch (type) {
      case StartupType::Load: return obs::SpanStage::InitWait;
      case StartupType::Cold: return obs::SpanStage::InitBare;
      case StartupType::Bare: return obs::SpanStage::InitLang;
      default: return obs::SpanStage::InitUser;
    }
}

/** Install from nothing up to @p top, scaled by the policy's
 *  cold-start factor (cold starts and pre-warms of any depth). */
sim::Tick
scratchInstall(const policy::Policy& policy,
               const workload::FunctionProfile& profile, Layer top)
{
    return static_cast<sim::Tick>(
        static_cast<double>(profile.installLatency(Layer::None, top)) *
        policy.coldStartFactor());
}

/** The ticket outcome a root-span outcome reports; Rerouted reports
 *  none (the coordinator re-points the ticket). */
std::uint8_t
ticketKind(obs::SpanOutcome outcome)
{
    switch (outcome) {
      case obs::SpanOutcome::Completed: return TicketOutcome::kCompleted;
      case obs::SpanOutcome::Failed: return TicketOutcome::kFailed;
      case obs::SpanOutcome::Cancelled: return TicketOutcome::kCancelled;
      default: return TicketOutcome::kShed;
    }
}

} // namespace

void
Invoker::emitStage(Invocation& inv, sim::Tick end, const StageLabel& label)
{
    if (inv.span.invocation == 0)
        return;
    obs::Span span;
    span.container = label.container;
    span.function = inv.function;
    span.node = _obs->spanNode();
    span.stage = label.stage;
    span.info = label.info;
    span.attempt = spanAttempt(inv.attempt);
    span.flags = label.aborted ? obs::kSpanAborted : 0;
    if (inv.span.closeStage(end, span))
        _obs->emitSpan(span);
}

std::uint64_t
Invoker::finish(Invocation& inv, obs::SpanOutcome outcome,
                const StageLabel& last, double execSeconds)
{
    const sim::Tick now = _engine.now();
    if (inv.ticket != 0 && outcome != obs::SpanOutcome::Rerouted) {
        const bool completed = outcome == obs::SpanOutcome::Completed;
        _ticketLog.push_back(
            {.ticket = inv.ticket, .at = now,
             .latencySeconds = completed ? sim::toSeconds(now - inv.arrival)
                                         : 0.0,
             .execSeconds = execSeconds, .kind = ticketKind(outcome)});
    }
    if (inv.span.invocation == 0)
        return 0;
    emitStage(inv, now, last);
    obs::Span root;
    root.function = inv.function;
    root.node = _obs->spanNode();
    root.attempt = spanAttempt(inv.attempt);
    inv.span.closeRoot(inv.arrival, now, outcome, root);
    _obs->emitSpan(root);
    return root.id;
}

void
Invoker::closeStrandedSpans()
{
    for (auto& inv : _queue)
        finish(inv, obs::SpanOutcome::Stranded);
}

void
Invoker::onArrival(workload::FunctionId function, std::uint64_t originSpan,
                   std::uint64_t ticket)
{
    ++_admitted;
    if (_obs != nullptr) {
        _obs->emit(_engine.now(), obs::EventType::InvocationArrived, 0,
                   function);
    }
    // History feeds before any admission decision: a degraded run must
    // leave the policy's recorder identical to an uncontrolled one.
    _policy.onArrival(function);
    Invocation inv;
    inv.function = function;
    inv.arrival = _engine.now();
    inv.ticket = ticket;
    if (_obs != nullptr && _obs->spansEnabled()) {
        inv.span.invocation =
            (static_cast<std::uint64_t>(_obs->spanNode()) << 40) |
            _nextInvocationId++;
        inv.span.origin = originSpan;
        inv.span.lastEnd = inv.arrival;
    }
    if (ticket != 0) {
        _ticketLog.push_back({.ticket = ticket, .at = inv.arrival,
                              .rootSpan = inv.span.rootId()});
    }
    if (_admission != nullptr &&
        !_admission->tryAdmit(function, _engine.now())) {
        rejectArrival(inv, 0); // per-function rate limit
        return;
    }
    if (isDown() || !tryDispatch(inv))
        queueOrShed(inv, /*fresh=*/true);
}

void
Invoker::rejectArrival(Invocation& inv, std::uint8_t reason)
{
    ++_rejected;
    finish(inv, obs::SpanOutcome::Rejected);
    _admission->noteShedForPressure();
    RC_LOG(Debug, "rejecting invocation of f" << inv.function
                  << " (reason " << static_cast<int>(reason) << ")");
    if (_obs != nullptr) {
        _obs->counters().bump(obs::Counter::AdmissionRejected,
                              _engine.now());
        _obs->emit(_engine.now(), obs::EventType::AdmissionRejected, 0,
                   inv.function, reason);
    }
}

void
Invoker::shedInvocation(Invocation& inv, std::uint8_t cause)
{
    finish(inv, cause == 0 ? obs::SpanOutcome::ShedDeadline
                           : obs::SpanOutcome::ShedPressure);
    _admission->noteShedForPressure();
    if (cause == 0)
        ++_shedDeadline;
    else
        ++_shedPressure;
    RC_LOG(Debug, "shedding invocation of f" << inv.function
                  << (cause == 0 ? " (deadline)" : " (pressure)"));
    if (_obs != nullptr) {
        _obs->counters().bump(cause == 0 ? obs::Counter::ShedDeadline
                                         : obs::Counter::ShedPressure,
                              _engine.now());
        _obs->emit(_engine.now(), obs::EventType::InvocationShed, 0,
                   inv.function, cause, 0,
                   sim::toSeconds(_engine.now() - inv.arrival));
    }
}

void
Invoker::queueOrShed(Invocation& inv, bool fresh)
{
    if (_admission != nullptr) {
        const std::uint32_t bound = _admission->plan().maxQueueDepth;
        if (_admission->shedInsteadOfQueue()) {
            shedInvocation(inv, 1); // critical pressure: no queueing
            return;
        }
        if (bound > 0 && _queue.size() >= bound) {
            // A full queue turns a fresh arrival away at the door.
            // Already-admitted work (retries) cannot be "rejected";
            // dropping it is a pressure shed either way.
            if (fresh)
                rejectArrival(inv, 1);
            else
                shedInvocation(inv, 1);
            return;
        }
    }
    _queue.push_back(inv);
    if (_queue.size() > _peakQueueDepth)
        _peakQueueDepth = _queue.size();
    if (_admission != nullptr &&
        _admission->plan().queueDeadlineSeconds > 0.0) {
        // Tag the parked item and arm its shedding deadline; binding
        // before expiry simply leaves a stale event behind.
        Invocation& parked = _queue.back();
        parked.seq = _nextSeq++;
        const std::uint64_t seq = parked.seq;
        _engine.scheduleAfter(
            sim::fromSeconds(_admission->plan().queueDeadlineSeconds),
            [this, seq] { onQueueDeadline(seq); });
    }
    RC_LOG(Debug, "queueing invocation of f" << inv.function
                  << " (queue depth " << _queue.size() << ")");
    if (_obs != nullptr) {
        _obs->counters().bump(obs::Counter::Queued, _engine.now());
        _obs->counters().gaugeMax(obs::Gauge::QueueDepth,
                                  static_cast<double>(_queue.size()));
        _obs->emit(_engine.now(), obs::EventType::InvocationQueued, 0,
                   inv.function, 0, 0,
                   static_cast<double>(_queue.size()));
    }
}

void
Invoker::onQueueDeadline(std::uint64_t seq)
{
    for (auto it = _queue.begin(); it != _queue.end(); ++it) {
        if (it->seq != seq)
            continue;
        Invocation inv = *it;
        _queue.erase(it);
        shedInvocation(inv, 0);
        drainQueue(); // the head may have been the expired item
        return;
    }
    // Stale deadline: the item bound in time (or a crash extracted it).
}

bool
Invoker::tryDispatch(Invocation& inv)
{
    if (isDown())
        return false; // crashed node: everything waits for the restart
    if (_admission != nullptr && !_admission->mayDispatch(inv.function))
        return false; // concurrency cap reached: wait in the queue
    const obs::ScopedTimer scanTimer(profiler(), obs::Scope::PoolScan);
    if (_obs != nullptr)
        _obs->counters().bump(obs::Counter::DispatchLookups, _engine.now());
    const auto& profile = _catalog.at(inv.function);

    // 1. Idle User container of this function: complete warm start.
    // Containers that already executed are kept-alive reuses ("Load"
    // in the Fig. 10 taxonomy); never-executed ones are consumed
    // pre-warms ("User").
    if (Container* c = _pool.findIdleUser(inv.function)) {
        const StartupType type = c->everExecuted() ? StartupType::Load
                                                   : StartupType::User;
        InFlight& row = bind(inv, c->id(), type, obs::Counter::HitUser);
        _pool.beginExecution(*c);
        startExecution(row, *c);
        return true;
    }

    // 2. In-flight initialization toward this function: latch on. The
    // pre-warm's in-flight row keeps its event; the latch binds to it.
    if (Container* c = _pool.findUnclaimedInit(inv.function)) {
        _pool.claim(*c);
        bind(inv, c->id(), StartupType::Load, obs::Counter::HitLoad);
        return true;
    }

    // 3. Policy-approved foreign User container (zygote sharing).
    // The scratch buffer stays valid across beginRepurpose below: the
    // loop returns right after consuming a candidate, so it never
    // reads the (now stale) buffer again.
    _pool.idleForeignUsers(inv.function, _foreignScratch);
    for (Container* c : _foreignScratch) {
        if (!_policy.allowForeignUserContainer(*c, inv.function))
            continue;
        const sim::Tick specialize =
            _policy.foreignUserStartupLatency(*c, inv.function);
        if (!_pool.beginRepurpose(*c, profile))
            continue;
        _pool.claim(*c);
        bind(inv, c->id(), StartupType::User,
             obs::Counter::HitForeignUser);
        scheduleInit(c->id(), specialize, false, false, true);
        return true;
    }

    // 4./5. Layer-wise sharing: idle Lang, then idle Bare container.
    if (_policy.layerSharingEnabled()) {
        if (Container* c = _pool.findIdleLang(profile.language())) {
            if (tryDispatchPartial(inv, *c, StartupType::Lang))
                return true;
        }
        if (Container* c = _pool.findIdleBare()) {
            if (tryDispatchPartial(inv, *c, StartupType::Bare))
                return true;
        }
    }

    // 6. Cold start.
    return tryDispatchCold(inv);
}

bool
Invoker::tryDispatchPartial(Invocation& inv, Container& c, StartupType type)
{
    const auto& profile = _catalog.at(inv.function);
    if (c.layer() != Layer::Lang && c.layer() != Layer::Bare)
        sim::panic("Invoker::tryDispatchPartial: unexpected layer");
    // The install covers the stages above the cached layer.
    const Layer cached = c.layer();
    sim::Tick install =
        static_cast<sim::Tick>(
            static_cast<double>(profile.installLatency(cached, Layer::User)) *
            _policy.partialStartLatencyFactor()) +
        _policy.partialStartLatencyBias();

    container::Container* target = nullptr;
    if (_policy.forkSharedLayers()) {
        // Zygote-template mode (§8): clone the shared container and
        // leave the template resident for further hits.
        target = _pool.forkFrom(c, profile);
        if (!target)
            return false;
        install += _policy.forkLatency();
    } else {
        if (!_pool.beginUpgrade(c, profile, Layer::User))
            return false;
        _pool.claim(c);
        target = &c;
    }
    bind(inv, target->id(), type,
         type == StartupType::Lang ? obs::Counter::HitLang
                                   : obs::Counter::HitBare);
    scheduleInit(target->id(), install, /*bare=*/false,
                 /*lang=*/cached == Layer::Bare, /*user=*/true);
    return true;
}

bool
Invoker::tryDispatchCold(Invocation& inv)
{
    const auto& profile = _catalog.at(inv.function);
    const double auxMb = _policy.auxiliaryMemoryMb(profile);
    const double needed = profile.memoryAtLayer(Layer::User) + auxMb;

    if (!_pool.canFit(needed) && !evictToFit(needed))
        return false;

    Container* c = _pool.create(profile, Layer::User, /*claimed=*/true);
    if (!c)
        return false;
    if (auxMb > 0.0)
        _pool.setAuxiliaryMemory(*c, auxMb);

    bind(inv, c->id(), StartupType::Cold, obs::Counter::ColdStart);
    scheduleInit(c->id(), scratchInstall(_policy, profile, Layer::User), true,
                 true, true);
    return true;
}

void
Invoker::onInitEnd(container::ContainerId cid)
{
    const auto it = _inFlight.find(cid);
    Container* c = _pool.byId(cid);
    if (it == _inFlight.end() || !c || c->state() != State::Initializing)
        sim::panic("Invoker::onInitEnd: container vanished mid-init");

    InFlight& row = it->second;
    if (row.failedStage != Layer::None) {
        // Injected init failure: kill the container, retry its
        // invocation.
        const Layer stage = row.failedStage;
        if (_obs != nullptr) {
            _obs->counters().bump(obs::Counter::FaultInjected,
                                  _engine.now());
            _obs->emit(_engine.now(), obs::EventType::FaultInjected, cid,
                       c->initFunction(), 0,
                       static_cast<std::uint8_t>(stage));
        }
        RC_LOG(Debug, "init of container " << cid << " failed at stage "
                      << static_cast<int>(stage));
        if (row.bound) {
            emitStage(row.inv, _engine.now(),
                      {row.type == StartupType::Load
                           ? obs::SpanStage::InitWait
                           : initStageForLayer(stage),
                       cid, /*aborted=*/true,
                       static_cast<std::uint8_t>(stage)});
        }
        _policy.onContainerFailed(*c);
        _pool.kill(*c, obs::KillCause::InitFault);
        if (row.bound)
            scheduleRetry(row.inv);
        _inFlight.erase(it);
        drainQueue();
        return;
    }

    _pool.finishInit(*c);
    if (!row.bound) {
        // Unclaimed pre-warm finished: enter keep-alive and see if a
        // queued invocation can use the new capacity.
        _inFlight.erase(it);
        scheduleKeepAlive(*c);
        drainQueue();
        return;
    }
    if (row.inv.span.invocation != 0) {
        std::array<InitStage, 3> stages;
        const std::size_t n =
            initStages(row.type, _catalog.at(row.inv.function),
                       row.inv.span.lastEnd, _engine.now(), stages);
        for (std::size_t i = 0; i < n; ++i)
            emitStage(row.inv, stages[i].end, {stages[i].stage, cid});
    }
    _pool.beginExecution(*c);
    startExecution(row, *c);
}

void
Invoker::startExecution(InFlight& row, Container& c)
{
    const Invocation& inv = row.inv;
    const auto& profile = _catalog.at(inv.function);
    // The User-to-Run dispatch is charged here, alike for every
    // startup type.
    const sim::Tick dispatchOverhead = profile.costs().userToRun;
    sim::Tick execution = grayStretch(profile.sampleExecution(_rng),
                                      &DegradedSpan::execFactor);
    const sim::Tick bindTime = _engine.now();
    const sim::Tick startupLatency =
        (bindTime - inv.arrival) + dispatchOverhead;

    if (_finalizing) {
        // This invocation only bound because the end-of-run flush
        // freed capacity; account it separately so throughput numbers
        // can exclude work the live system never admitted in-band.
        ++_finalizeDrained;
        if (_obs != nullptr)
            _obs->counters().bump(obs::Counter::FinalizeDrained, bindTime);
    }

    policy::StartupObservation observation;
    observation.function = inv.function;
    observation.type = row.type;
    observation.startupLatency = startupLatency;
    _policy.onStartupResolved(observation);

    ++_executing;
    if (_admission != nullptr)
        _admission->onExecStart(inv.function);
    row.executing = true;
    row.started = bindTime;
    row.startupLatency = startupLatency;

    if (_fault != nullptr) {
        if (_overloadUntil > bindTime) {
            // Transient overload: everything started inside the
            // window runs slower by the configured factor.
            execution = static_cast<sim::Tick>(
                static_cast<double>(execution) *
                _fault->plan().overloadSlowdown);
        }
        row.fault = _fault->sampleExecFault();
    }
    sim::Tick runFor = execution;
    if (row.fault == fault::ExecFault::Crash) {
        // Dies partway through; the completion never fires.
        runFor = std::max<sim::Tick>(
            1, static_cast<sim::Tick>(static_cast<double>(execution) *
                                      _fault->crashFraction()));
    } else if (row.fault == fault::ExecFault::Wedge) {
        // Hangs forever; the execution-timeout watchdog kills it.
        runFor = _fault->plan().execTimeout;
    }
    row.execution = execution;
    const container::ContainerId cid = c.id();
    row.event = _engine.scheduleAfter(dispatchOverhead + runFor,
                                      [this, cid] { onExecEnd(cid); });
}

void
Invoker::onExecEnd(container::ContainerId cid)
{
    const auto it = _inFlight.find(cid);
    Container* c = _pool.byId(cid);
    if (it == _inFlight.end() || !c || c->state() != State::Busy)
        sim::panic("Invoker::onExecEnd: executing container vanished");
    InFlight row = std::move(_inFlight.extract(it).mapped());
    --_executing;
    if (_admission != nullptr)
        _admission->onExecFinish(row.inv.function);

    if (row.fault != fault::ExecFault::None) {
        // Injected execution fault (a crash, or the wedge watchdog
        // firing): kill the container, retry the invocation.
        const bool wedged = row.fault == fault::ExecFault::Wedge;
        if (_obs != nullptr) {
            _obs->counters().bump(obs::Counter::FaultInjected,
                                  _engine.now());
            _obs->emit(_engine.now(), obs::EventType::FaultInjected, cid,
                       row.inv.function,
                       static_cast<std::uint8_t>(wedged ? 2 : 1), 0);
            if (wedged) {
                _obs->emit(_engine.now(), obs::EventType::ExecTimeoutKill,
                           cid, row.inv.function);
            }
        }
        emitStage(row.inv, _engine.now(),
                  {obs::SpanStage::Exec, cid, /*aborted=*/true,
                   static_cast<std::uint8_t>(wedged ? 2 : 1)});
        _policy.onContainerFailed(*c);
        _pool.forceKill(*c, wedged ? obs::KillCause::WedgeTimeout
                                   : obs::KillCause::ExecFault);
        scheduleRetry(row.inv);
        drainQueue();
        return;
    }

    _pool.finishExecution(*c);
    const InvocationRecord record{
        .function = row.inv.function, .arrival = row.inv.arrival,
        .type = row.type, .queueWait = row.inv.queueWait,
        .startupLatency = row.startupLatency, .execution = row.execution,
        .endToEnd = _engine.now() - row.inv.arrival};
    _metrics.record(record);

    if (_obs != nullptr) {
        _obs->emit(_engine.now(), obs::EventType::InvocationCompleted, cid,
                   record.function, static_cast<std::uint8_t>(row.type), 0,
                   sim::toSeconds(record.startupLatency),
                   sim::toSeconds(record.endToEnd));
    }
    // The execution interval is the trailing part of the event;
    // whatever preceded it since the last stage (= bind time) is
    // dispatch overhead.
    emitStage(row.inv, _engine.now() - row.execution,
              {obs::SpanStage::Dispatch, cid});
    finish(row.inv, obs::SpanOutcome::Completed,
           {obs::SpanStage::Exec, cid}, sim::toSeconds(row.execution));

    scheduleKeepAlive(*c);
    drainQueue();
}

void
Invoker::scheduleKeepAlive(Container& c)
{
    sim::Tick ttl = 0;
    {
        const obs::ScopedTimer timer(profiler(),
                                     obs::Scope::PolicyKeepAlive);
        ttl = _policy.keepAliveTtl(c);
    }
    ttl = shrinkTtl(ttl);
    if (_obs != nullptr) {
        _obs->emit(_engine.now(), obs::EventType::KeepAliveSet, c.id(),
                   c.function(), static_cast<std::uint8_t>(c.layer()), 0,
                   ttl < 0 ? -1.0 : sim::toSeconds(ttl));
    }
    if (ttl < 0)
        return; // policy keeps the container until evicted
    const container::ContainerId cid = c.id();
    c.setTimeoutEvent(
        _engine.scheduleAfter(ttl, [this, cid] { onIdleTimeout(cid); }));
}

void
Invoker::onIdleTimeout(container::ContainerId cid)
{
    Container* c = _pool.byId(cid);
    if (!c || c->state() != State::Idle)
        return; // stale event; reuse should have cancelled it
    c->setTimeoutEvent(sim::kNoEvent);

    policy::IdleDecision decision;
    {
        const obs::ScopedTimer timer(profiler(), obs::Scope::PolicyIdle);
        decision = _policy.onIdleExpired(*c);
    }
    if (_obs != nullptr) {
        _obs->emit(_engine.now(), obs::EventType::IdleExpired, c->id(),
                   c->function(),
                   static_cast<std::uint8_t>(decision.action),
                   static_cast<std::uint8_t>(c->layer()),
                   sim::toSeconds(decision.nextTtl));
    }
    switch (decision.action) {
      case policy::IdleDecision::Action::Kill:
        _pool.kill(*c, decision.killCause);
        drainQueue();
        return;

      case policy::IdleDecision::Action::Downgrade:
        if (c->layer() == Layer::Bare) {
            // Nothing left to peel: Bare timeout terminates (Fig. 5).
            _pool.kill(*c, obs::KillCause::BareExpired);
            drainQueue();
            return;
        }
        _pool.downgrade(*c);
        break;

      case policy::IdleDecision::Action::Renew:
        break;

      case policy::IdleDecision::Action::Repack:
        if (c->layer() == Layer::User &&
            _pool.setPacked(*c, std::move(decision.packedFunctions),
                            decision.packedMemoryMb)) {
            // The zygote's image is wiped of the owner's code: every
            // claimant (owner included) pays the specialize cost. The
            // pool mediates so its per-function indices re-file the
            // container under the ownerless key.
            _pool.demoteToZygote(*c);
            break;
        }
        // Packing impossible (wrong layer or no memory): recycling
        // failed, so the container terminates as it would have
        // without the sharing scheme. Renewing instead would leave an
        // immortal container under memory pressure.
        _pool.kill(*c, obs::KillCause::RepackFailed);
        drainQueue();
        return;
    }

    if (decision.nextTtl < 0)
        return;
    c->setTimeoutEvent(_engine.scheduleAfter(
        shrinkTtl(decision.nextTtl), [this, cid] { onIdleTimeout(cid); }));
    drainQueue();
}

sim::Tick
Invoker::shrinkTtl(sim::Tick ttl)
{
    if (_admission == nullptr || !_admission->shrinkTtls() || ttl <= 0)
        return ttl;
    // Ladder stage 1: idle layers decay sooner so memory drains.
    ++_degradedKeepalives;
    if (_obs != nullptr) {
        _obs->counters().bump(obs::Counter::DegradedKeepalives,
                              _engine.now());
    }
    return _admission->degradeTtl(ttl);
}

void
Invoker::schedulePrewarm(workload::FunctionId function, sim::Tick delay)
{
    if (_obs != nullptr) {
        _obs->counters().bump(obs::Counter::PrewarmScheduled,
                              _engine.now());
        _obs->emit(_engine.now(), obs::EventType::PrewarmScheduled, 0,
                   function, 0, 0, sim::toSeconds(delay));
    }
    _engine.scheduleAfter(delay,
                          [this, function] { firePrewarm(function); });
}

void
Invoker::firePrewarm(workload::FunctionId function)
{
    // a-slot encoding of the PrewarmSkipped reasons below.
    const auto skip = [this, function](std::uint8_t reason) {
        if (_obs != nullptr) {
            _obs->counters().bump(obs::Counter::PrewarmSkipped,
                                  _engine.now());
            _obs->emit(_engine.now(), obs::EventType::PrewarmSkipped, 0,
                       function, reason);
        }
    };

    if (isDown()) {
        skip(2); // node is down; pre-warms are best-effort, drop it
        return;
    }

    if (_admission != nullptr && _admission->prewarmsSuppressed()) {
        skip(3); // ladder stage 2: no speculation under high pressure
        return;
    }

    // Algorithm 1: skip when warm capacity for the function exists.
    if (_pool.userAvailable(function)) {
        skip(0); // warm capacity already available
        return;
    }

    const auto& profile = _catalog.at(function);
    const double auxMb = _policy.auxiliaryMemoryMb(profile);
    const double needed = profile.memoryAtLayer(Layer::User) + auxMb;
    if (!_pool.canFit(needed)) {
        skip(1); // memory veto: pre-warms never evict or queue
        return;
    }

    Container* c = _pool.create(profile, Layer::User, /*claimed=*/false);
    if (!c) {
        skip(1);
        return;
    }
    if (_obs != nullptr) {
        _obs->counters().bump(obs::Counter::PrewarmFired, _engine.now());
        _obs->emit(_engine.now(), obs::EventType::PrewarmFired, c->id(),
                   function);
    }
    if (auxMb > 0.0)
        _pool.setAuxiliaryMemory(*c, auxMb);

    scheduleInit(c->id(), scratchInstall(_policy, profile, Layer::User), true,
                 true, true);
}

void
Invoker::recoveryPrewarm(workload::FunctionId function, Layer layer)
{
    ++_recoveryPrewarmsIssued;
    if (_obs != nullptr) {
        _obs->counters().bump(obs::Counter::RecoveryPrewarms,
                              _engine.now());
    }
    if (layer == Layer::None)
        sim::panic("Invoker::recoveryPrewarm: layer None");
    // Best-effort: a vetoed prewarm is wasted, never deferred. Note
    // that the ladder's prewarmsSuppressed() stage deliberately does
    // NOT veto here — the whole point of the census warm-up is to
    // rebuild layers while the fleet is still under recovery
    // pressure; suppressing it would recreate the cold-cache storm
    // the orchestrator exists to avoid.
    const auto& profile = _catalog.at(function);
    if (isDown() || !_policy.acceptsRecoveryPrewarm(layer) ||
        !_pool.canFit(profile.memoryAtLayer(layer))) {
        _pool.noteRecoveryPrewarmWasted();
        return;
    }
    Container* c = _pool.create(profile, layer, /*claimed=*/false);
    if (!c) {
        _pool.noteRecoveryPrewarmWasted();
        return;
    }
    _pool.markRecoveryPrewarmed(*c);
    if (_obs != nullptr) {
        _obs->emit(_engine.now(), obs::EventType::PrewarmFired, c->id(),
                   function, static_cast<std::uint8_t>(layer), 1);
    }
    scheduleInit(c->id(), scratchInstall(_policy, profile, layer), true,
                 layer != Layer::Bare, layer == Layer::User);
}

void
Invoker::setRecoveryPressureFloor(int level)
{
    if (_admission == nullptr)
        return;
    _admission->setRecoveryFloor(level);
    _policy.setPressureLevel(_admission->pressureLevel());
}

bool
Invoker::evictToFit(double mb)
{
    if (_pool.canFit(mb))
        return true;
    if ((_fault != nullptr && _fault->plan().shedPrewarmsUnderPressure) ||
        (_admission != nullptr && _admission->prewarmsSuppressed())) {
        // Graceful degradation: speculative pre-warms are the first
        // to go before queued user work evicts policy-ranked victims.
        shedPrewarms(mb);
        if (_pool.canFit(mb))
            return true;
    }
    std::vector<container::ContainerId> victims;
    {
        const obs::ScopedTimer timer(profiler(),
                                     obs::Scope::PolicyEvictRank);
        _pool.collectIdle(_idleScratch);
        victims = _policy.rankEvictionVictims(_idleScratch);
    }
    for (const auto id : victims) {
        Container* victim = _pool.byId(id);
        if (!victim || victim->state() != State::Idle)
            continue;
        const double freedMb = victim->memoryMb();
        const auto function = victim->function();
        RC_LOG(Debug, "evicting container " << id << " (" << freedMb
                      << " MB) to fit " << mb << " MB");
        _pool.kill(*victim, obs::KillCause::MemoryPressure);
        if (_obs != nullptr) {
            _obs->emit(_engine.now(), obs::EventType::EvictionForMemory,
                       id, function, 0, 0, freedMb);
        }
        if (_pool.canFit(mb))
            return true;
    }
    return _pool.canFit(mb);
}

// ---- fault injection and recovery (rc::fault) --------------------------

void
Invoker::scheduleInit(container::ContainerId cid, sim::Tick install,
                      bool bare, bool lang, bool user)
{
    InFlight& row = _inFlight[cid];
    // The injector samples only over the stages this install covers,
    // so cached layers (already proven good) cannot fail again.
    if (_fault != nullptr) {
        if (const auto stage = _fault->sampleInitFault(bare, lang, user))
            row.failedStage = *stage;
    }
    row.event = _engine.scheduleAfter(
        grayStretch(install, &DegradedSpan::initFactor),
        [this, cid] { onInitEnd(cid); });
}

void
Invoker::scheduleRetry(Invocation inv)
{
    ++inv.attempt;
    if (inv.attempt > _fault->plan().maxRetries) {
        ++_failed;
        finish(inv, obs::SpanOutcome::Failed);
        if (_obs != nullptr) {
            _obs->counters().bump(obs::Counter::RetryExhausted,
                                  _engine.now());
            _obs->emit(_engine.now(), obs::EventType::InvocationFailed,
                       0, inv.function,
                       static_cast<std::uint8_t>(inv.attempt - 1));
        }
        RC_LOG(Debug, "invocation of f" << inv.function
                      << " failed after " << (inv.attempt - 1)
                      << " retries");
        return;
    }
    ++_retries;
    const sim::Tick backoff = _fault->retryBackoff(inv.attempt);
    if (_obs != nullptr) {
        _obs->counters().bump(obs::Counter::RetryScheduled,
                              _engine.now());
        _obs->emit(_engine.now(), obs::EventType::RetryScheduled, 0,
                   inv.function, static_cast<std::uint8_t>(inv.attempt),
                   0, sim::toSeconds(backoff));
    }
    const std::uint64_t key = _nextBackoff++;
    _backoffs.emplace(key, Backoff{inv});
    _engine.scheduleAfter(backoff, [this, key] { onBackoffFired(key); });
}

void
Invoker::onBackoffFired(std::uint64_t key)
{
    Backoff backoff = _backoffs.extract(key).mapped();
    if (backoff.cancelled) {
        // A hedge cancel arrived while this attempt was waiting out
        // its backoff: it dies here instead of re-dispatching.
        ++_cancelled;
        finish(backoff.inv, obs::SpanOutcome::Cancelled,
               {obs::SpanStage::Backoff});
        return;
    }
    // A retry landing during downtime simply queues: the restart
    // drain picks it up. Never lost, never double-executed — unless
    // the admission controller forbids queueing, in which case it is
    // shed like any other overflow.
    emitStage(backoff.inv, _engine.now(), {obs::SpanStage::Backoff});
    if (isDown() || !tryDispatch(backoff.inv))
        queueOrShed(backoff.inv, /*fresh=*/false);
}

void
Invoker::armFaults(sim::Tick horizon, bool manageNodeCrashes)
{
    _faultHorizon = horizon;
    if (_fault == nullptr)
        return;
    const auto& plan = _fault->plan();
    if (manageNodeCrashes && plan.nodeMtbfSeconds > 0.0)
        armNodeCrash(_engine.now());
    if (plan.overloadRatePerHour > 0.0)
        armOverload(_engine.now());
}

void
Invoker::armNodeCrash(sim::Tick from)
{
    // Bound the crash chain by the last arrival so the self-arming
    // event sequence cannot keep the engine alive forever.
    const sim::Tick at = from + _fault->nextNodeCrashDelay();
    if (at > _faultHorizon)
        return;
    _engine.schedule(at, [this] { onNodeCrash(); });
}

void
Invoker::onNodeCrash()
{
    const sim::Tick downUntil =
        _engine.now() +
        sim::fromSeconds(_fault->plan().nodeDowntimeSeconds);
    for (auto& inv : crashImpl(downUntil))
        scheduleRetry(inv);
    // The next crash can only strike after the node is back up.
    armNodeCrash(downUntil);
}

std::vector<Invoker::Invocation>
Invoker::crashImpl(sim::Tick downUntil)
{
    const sim::Tick now = _engine.now();

    // Cancel every in-flight event first (once the pool dies, a stale
    // one would fire into a vanished container) and collect the
    // invocations that lose their container, in container id order so
    // the retry sequence is independent of hash layout.
    std::vector<std::pair<container::ContainerId, InFlight>> bound;
    for (auto& [cid, row] : _inFlight) {
        _engine.cancel(row.event);
        if (row.bound)
            bound.emplace_back(cid, row);
    }
    _inFlight.clear();
    std::sort(bound.begin(), bound.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<Invocation> lost;
    for (auto& [cid, row] : bound) {
        emitStage(row.inv, now,
                  {row.executing ? obs::SpanStage::Exec
                                 : abortedInstallStage(row.type),
                   cid, /*aborted=*/true});
        lost.push_back(row.inv);
    }
    _executing = 0;
    if (_admission != nullptr)
        _admission->resetInFlight();

    _policy.onNodeDown(downUntil - now);
    for (const auto id : _pool.allContainerIds()) {
        Container* c = _pool.byId(id);
        if (c != nullptr)
            _pool.forceKill(*c, obs::KillCause::NodeCrash);
    }

    _downUntil = downUntil;
    if (_obs != nullptr) {
        _obs->counters().bump(obs::Counter::NodeCrashes, now);
        _obs->emit(now, obs::EventType::NodeCrashed, 0, 0, 0, 0,
                   sim::toSeconds(downUntil - now),
                   static_cast<double>(lost.size()));
    }
    RC_LOG(Debug, "node crashed; " << lost.size()
                  << " invocations lost their container, down for "
                  << sim::toSeconds(downUntil - now) << " s");

    _engine.schedule(downUntil, [this] {
        if (_obs != nullptr)
            _obs->emit(_engine.now(), obs::EventType::NodeRestarted, 0, 0);
        drainQueue();
    });
    return lost;
}

std::vector<FailoverTicket>
Invoker::crashNow(sim::Tick downUntil)
{
    // Cluster failover also re-admits the queue, after the invocations
    // that lost their container: queued work would otherwise sit out
    // the whole downtime on a dead node. The watch ticket leaves with
    // the work; the coordinator re-points it at whichever node the
    // failover lands on.
    std::vector<Invocation> lost = crashImpl(downUntil);
    lost.insert(lost.end(), _queue.begin(), _queue.end());
    _queue.clear();
    std::vector<FailoverTicket> tickets;
    tickets.reserve(lost.size());
    for (auto& inv : lost) {
        tickets.push_back(FailoverTicket{
            inv.function, finish(inv, obs::SpanOutcome::Rerouted),
            inv.ticket});
    }
    _extracted += tickets.size();
    return tickets;
}

void
Invoker::armOverload(sim::Tick from)
{
    const sim::Tick at = from + _fault->nextOverloadDelay();
    if (at > _faultHorizon)
        return;
    _engine.schedule(at, [this] { onOverloadStart(); });
}

void
Invoker::onOverloadStart()
{
    const auto& plan = _fault->plan();
    _overloadUntil =
        _engine.now() + sim::fromSeconds(plan.overloadDurationSeconds);
    if (_obs != nullptr) {
        _obs->counters().bump(obs::Counter::FaultInjected, _engine.now());
        _obs->emit(_engine.now(), obs::EventType::FaultInjected, 0, 0, 3,
                   0, plan.overloadDurationSeconds, plan.overloadSlowdown);
    }
    armOverload(_overloadUntil);
}

// ---- overload control (rc::admission) -----------------------------------

void
Invoker::armAdmission(sim::Tick horizon)
{
    _admissionHorizon = horizon;
    if (_admission == nullptr ||
        !_admission->plan().pressureControlEnabled)
        return;
    scheduleAdmissionTick(_engine.now());
}

void
Invoker::scheduleAdmissionTick(sim::Tick from)
{
    // Bound the self-re-arming tick chain by the last arrival so it
    // cannot keep the engine alive forever (same rule as armFaults).
    const sim::Tick at =
        from + sim::fromSeconds(
                   _admission->plan().controllerIntervalSeconds);
    if (at > _admissionHorizon)
        return;
    _engine.schedule(at, [this] { onAdmissionTick(); });
}

void
Invoker::onAdmissionTick()
{
    const sim::Tick now = _engine.now();
    admission::PressureSample sample;
    const double budget = _pool.memoryBudgetMb();
    sample.memoryOccupancy =
        budget > 0.0 ? _pool.usedMemoryMb() / budget : 0.0;
    const std::uint32_t bound = _admission->plan().maxQueueDepth;
    const double depth = static_cast<double>(_queue.size());
    sample.queueFill =
        bound > 0
            ? depth / static_cast<double>(bound)
            : std::min(1.0, depth / _admission->plan().queueDepthScale);
    sample.overloadWindowOpen = _overloadUntil > now;

    const int before = _admission->pressureLevel();
    const int level = _admission->updatePressure(sample, now);
    _policy.setPressureLevel(level);
    if (_obs != nullptr) {
        _obs->counters().gaugeMax(obs::Gauge::PressureLevel,
                                  static_cast<double>(level));
        if (level != before) {
            // Decision audit: why the ladder moved, and to where.
            _obs->emit(now, obs::EventType::PressureLevel, 0,
                       0xffffffffU, static_cast<std::uint8_t>(level),
                       static_cast<std::uint8_t>(before),
                       _admission->smoothedPressure(),
                       _admission->lastRawPressure());
        }
    }
    drainQueue(); // degradation may have freed memory since last bind
    scheduleAdmissionTick(now);
}

void
Invoker::shedPrewarms(double mb)
{
    // Idle, never-executed User containers are speculative capacity;
    // id order keeps the shedding sequence deterministic.
    _victimScratch.clear();
    _pool.forEachIdle([this](const Container& c) {
        if (!c.everExecuted() && c.layer() == Layer::User)
            _victimScratch.push_back(c.id());
    });
    std::sort(_victimScratch.begin(), _victimScratch.end());
    for (const auto id : _victimScratch) {
        if (_pool.canFit(mb))
            return;
        Container* victim = _pool.byId(id);
        if (!victim || victim->state() != State::Idle)
            continue;
        _pool.kill(*victim, obs::KillCause::MemoryPressure);
        if (_obs != nullptr) {
            _obs->counters().bump(obs::Counter::PrewarmShed,
                                  _engine.now());
        }
    }
}

void
Invoker::beginFinalize()
{
    _finalizing = true;
    _downUntil = -1;
}

// ---- cluster tail-tolerance (ticketed dispatch) --------------------------

void
Invoker::cancelTicket(std::uint64_t ticket)
{
    if (ticket == 0)
        return;

    // 1. Parked in the admission queue: pure bookkeeping.
    for (auto it = _queue.begin(); it != _queue.end(); ++it) {
        if (it->ticket != ticket)
            continue;
        Invocation inv = *it;
        _queue.erase(it);
        ++_cancelled;
        finish(inv, obs::SpanOutcome::Cancelled);
        return;
    }

    // 2. Bound to an in-flight container. The match is unique (one
    // live attempt per ticket), so hash iteration order is immaterial.
    for (auto it = _inFlight.begin(); it != _inFlight.end(); ++it) {
        InFlight& row = it->second;
        if (!row.bound || row.inv.ticket != ticket)
            continue;
        const container::ContainerId cid = it->first;
        Container* c = _pool.byId(cid);
        if (c == nullptr)
            sim::panic("Invoker::cancelTicket: in-flight container vanished");
        Invocation inv = row.inv;
        const StageLabel last{row.executing ? obs::SpanStage::Exec
                                            : abortedInstallStage(row.type),
                              cid, /*aborted=*/true};
        double wasted = 0.0;
        if (!row.executing && row.type == StartupType::Load) {
            // The install belongs to a pre-warm this attempt merely
            // latched onto: release the claim and let it finish as an
            // unclaimed pre-warm for the next arrival. Its row and its
            // init event stay on purpose.
            row.bound = false;
            _pool.unclaim(*c);
        } else {
            // The install or the run served this attempt alone: cancel
            // its event and kill the container, booking the machine
            // time a run burnt so far as wasted work.
            _engine.cancel(row.event);
            if (row.executing) {
                wasted = sim::toSeconds(_engine.now() - row.started);
                --_executing;
                if (_admission != nullptr)
                    _admission->onExecFinish(inv.function);
            }
            _inFlight.erase(it);
            _pool.forceKill(*c, obs::KillCause::HedgeCancel);
        }
        ++_cancelled;
        finish(inv, obs::SpanOutcome::Cancelled, last, wasted);
        drainQueue();
        return;
    }

    // 3. Waiting out a retry backoff: it resolves when that fires.
    for (auto& [key, backoff] : _backoffs) {
        if (backoff.inv.ticket == ticket) {
            backoff.cancelled = true;
            return;
        }
    }
    // Not live here: already terminal (the race is benign — the
    // coordinator sees the completed outcome and books the duplicate)
    // or never admitted here. Either way there is nothing to unwind.
}

sim::Tick
Invoker::grayStretch(sim::Tick t, double DegradedSpan::*factor)
{
    // Gray window: the node is slow, not down — runs and installs
    // sampled inside one crawl by its factors.
    const sim::Tick now = _engine.now();
    while (_degradedCursor < _degraded.size() &&
           _degraded[_degradedCursor].end <= now)
        ++_degradedCursor;
    if (_degradedCursor == _degraded.size() ||
        _degraded[_degradedCursor].start > now)
        return t;
    const double gray = _degraded[_degradedCursor].*factor;
    return gray > 1.0 ? static_cast<sim::Tick>(static_cast<double>(t) * gray)
                      : t;
}

void
Invoker::drainQueue()
{
    if (_draining)
        return;
    _draining = true;
    while (!_queue.empty()) {
        Invocation head = _queue.front();
        head.queueWait = _engine.now() - head.arrival;
        if (!tryDispatch(head))
            break;
        _queue.pop_front();
    }
    _draining = false;
}

} // namespace rc::platform
