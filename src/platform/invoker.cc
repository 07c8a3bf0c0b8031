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

void
Invoker::noteDispatch(const Pending& inv, container::ContainerId cid,
                      StartupType type, obs::Counter counter)
{
    if (_obs == nullptr)
        return;
    if (_obs->spansEnabled()) {
        // Any time between the last stage and this binding was spent
        // waiting in the queue (zero-length waits are skipped).
        emitStageSpan(inv, obs::SpanStage::Queue, _engine.now());
    }
    _obs->counters().bump(counter, _engine.now());
    _obs->emit(_engine.now(), obs::EventType::InvocationDispatched, cid,
               inv.function, static_cast<std::uint8_t>(type), 0,
               sim::toSeconds(inv.queueWait));
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

} // namespace

void
Invoker::emitStageSpan(const Pending& inv, obs::SpanStage stage,
                       sim::Tick end, std::uint64_t container,
                       bool aborted, std::uint8_t info)
{
    if (inv.id == 0)
        return;
    const auto it = _liveSpans.find(inv.id);
    if (it == _liveSpans.end())
        return;
    LiveSpan& live = it->second;
    const sim::Tick start = live.lastEnd;
    live.lastEnd = end;
    if (end == start)
        return;
    if (live.nextSeq > 0xff)
        return; // id space exhausted (>254 stages); tree check flags it
    obs::Span span;
    span.id = (inv.id << 8) | live.nextSeq++;
    span.parent = (inv.id << 8) | 1U;
    span.invocation = inv.id;
    span.container = container;
    span.start = start;
    span.end = end;
    span.function = inv.function;
    span.node = _obs->spanNode();
    span.stage = stage;
    span.info = info;
    span.attempt = static_cast<std::uint8_t>(
        std::min<std::uint32_t>(inv.attempt, 0xff));
    span.flags = aborted ? obs::kSpanAborted : 0;
    _obs->emitSpan(span);
}

void
Invoker::emitInitSpans(const Pending& inv, StartupType type,
                       std::uint64_t container, sim::Tick end)
{
    const auto it = _liveSpans.find(inv.id);
    if (it == _liveSpans.end())
        return;
    const sim::Tick start = it->second.lastEnd;
    const sim::Tick total = end - start;
    const auto& costs = _catalog.at(inv.function).costs();
    // The layers this install actually built, per the lookup ladder;
    // the elapsed interval is split across them proportionally to the
    // catalog stage costs so per-layer attribution matches the cost
    // model even when policies scale or bias the install.
    const sim::Tick wLang = costs.bareToLang + costs.langInit;
    const sim::Tick wUser = costs.langToUser + costs.userInit;
    switch (type) {
      case StartupType::Load:
        emitStageSpan(inv, obs::SpanStage::InitWait, end, container);
        return;
      case StartupType::User: // foreign-User specialize (Pagurus)
      case StartupType::Lang: // langToUser + userInit on a Lang hit
        emitStageSpan(inv, obs::SpanStage::InitUser, end, container);
        return;
      case StartupType::Bare: {
        const sim::Tick sum = wLang + wUser;
        const sim::Tick langPart = sum > 0 ? total * wLang / sum : 0;
        emitStageSpan(inv, obs::SpanStage::InitLang, start + langPart,
                      container);
        emitStageSpan(inv, obs::SpanStage::InitUser, end, container);
        return;
      }
      case StartupType::Cold: {
        const sim::Tick wBare = costs.bareInit;
        const sim::Tick sum = wBare + wLang + wUser;
        const sim::Tick barePart = sum > 0 ? total * wBare / sum : 0;
        const sim::Tick langPart = sum > 0 ? total * wLang / sum : 0;
        emitStageSpan(inv, obs::SpanStage::InitBare, start + barePart,
                      container);
        emitStageSpan(inv, obs::SpanStage::InitLang,
                      start + barePart + langPart, container);
        emitStageSpan(inv, obs::SpanStage::InitUser, end, container);
        return;
      }
    }
}

std::uint64_t
Invoker::closeRootSpan(const Pending& inv, obs::SpanOutcome outcome)
{
    if (inv.id == 0)
        return 0;
    const auto it = _liveSpans.find(inv.id);
    if (it == _liveSpans.end())
        return 0;
    obs::Span span;
    span.id = (inv.id << 8) | 1U;
    span.parent = it->second.origin;
    span.invocation = inv.id;
    span.start = inv.arrival;
    span.end = _engine.now();
    span.function = inv.function;
    span.node = _obs->spanNode();
    span.stage = obs::SpanStage::Invocation;
    span.info = static_cast<std::uint8_t>(outcome);
    span.attempt = static_cast<std::uint8_t>(
        std::min<std::uint32_t>(inv.attempt, 0xff));
    _obs->emitSpan(span);
    _liveSpans.erase(it);
    return span.id;
}

void
Invoker::closeStrandedSpans()
{
    for (const auto& inv : _queue) {
        if (spansOn()) {
            emitStageSpan(inv, obs::SpanStage::Queue, _engine.now());
            closeRootSpan(inv, obs::SpanOutcome::Stranded);
        }
        // Stranded work is terminal for the cluster's hedge ledger too.
        noteTicketTerminal(inv, TicketOutcome::kShed, 0.0, 0.0);
    }
}

sim::Tick
Invoker::coldInitLatency(const workload::FunctionProfile& p) const
{
    // All three stage installs plus the transitions crossed on the
    // way up; the final User-to-Run dispatch is added at execution
    // start so it is charged uniformly across every startup type.
    const auto& costs = p.costs();
    return costs.bareInit + costs.bareToLang + costs.langInit +
           costs.langToUser + costs.userInit;
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
    Pending inv{function, _engine.now(), 0, 0};
    inv.ticket = ticket;
    if (spansOn()) {
        inv.id = nextInvocationId();
        LiveSpan& live = _liveSpans[inv.id];
        live.lastEnd = _engine.now();
        live.origin = originSpan;
    }
    if (ticket != 0) {
        _liveTickets.insert(ticket);
        TicketOutcome admitted;
        admitted.ticket = ticket;
        admitted.at = _engine.now();
        admitted.kind = TicketOutcome::kAdmitted;
        admitted.rootSpan = inv.id != 0 ? ((inv.id << 8) | 1U) : 0;
        _ticketLog.push_back(admitted);
    }
    if (_admission != nullptr &&
        !_admission->tryAdmit(function, _engine.now())) {
        rejectArrival(inv, 0); // per-function rate limit
        return;
    }
    if (isDown() || !tryDispatch(inv)) {
        if (_admission != nullptr) {
            if (_admission->shedInsteadOfQueue()) {
                shedInvocation(inv, 1); // critical pressure: no queueing
                return;
            }
            const std::uint32_t bound = _admission->plan().maxQueueDepth;
            if (bound > 0 && _queue.size() >= bound) {
                rejectArrival(inv, 1); // bounded queue is full
                return;
            }
        }
        enqueue(inv);
    }
}

void
Invoker::rejectArrival(const Pending& inv, std::uint8_t reason)
{
    ++_rejected;
    noteTicketTerminal(inv, TicketOutcome::kShed, 0.0, 0.0);
    if (spansOn())
        closeRootSpan(inv, obs::SpanOutcome::Rejected);
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
Invoker::shedInvocation(const Pending& inv, std::uint8_t cause)
{
    noteTicketTerminal(inv, TicketOutcome::kShed, 0.0, 0.0);
    if (spansOn()) {
        emitStageSpan(inv, obs::SpanStage::Queue, _engine.now());
        closeRootSpan(inv, cause == 0 ? obs::SpanOutcome::ShedDeadline
                                      : obs::SpanOutcome::ShedPressure);
    }
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
Invoker::queueOrShed(const Pending& inv)
{
    if (_admission != nullptr) {
        const std::uint32_t bound = _admission->plan().maxQueueDepth;
        if (_admission->shedInsteadOfQueue() ||
            (bound > 0 && _queue.size() >= bound)) {
            // Already-admitted work (retries) cannot be "rejected";
            // dropping it is a pressure shed either way.
            shedInvocation(inv, 1);
            return;
        }
    }
    enqueue(inv);
}

void
Invoker::onQueueDeadline(std::uint64_t seq)
{
    for (auto it = _queue.begin(); it != _queue.end(); ++it) {
        if (it->seq != seq)
            continue;
        const Pending inv = *it;
        _queue.erase(it);
        shedInvocation(inv, 0);
        drainQueue(); // the head may have been the expired item
        return;
    }
    // Stale deadline: the item bound in time (or a crash extracted it).
}

void
Invoker::enqueue(const Pending& inv)
{
    _queue.push_back(inv);
    if (_queue.size() > _peakQueueDepth)
        _peakQueueDepth = _queue.size();
    if (_admission != nullptr &&
        _admission->plan().queueDeadlineSeconds > 0.0) {
        // Tag the parked item and arm its shedding deadline; binding
        // before expiry simply leaves a stale event behind.
        Pending& parked = _queue.back();
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

bool
Invoker::tryDispatch(const Pending& inv)
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
        noteDispatch(inv, c->id(), type, obs::Counter::HitUser);
        dispatchUserHit(inv, *c, type, 0);
        return true;
    }

    // 2. In-flight initialization toward this function: latch on.
    if (Container* c = _pool.findUnclaimedInit(inv.function)) {
        _pool.claim(*c);
        _attachments[c->id()] = Attachment{inv, StartupType::Load};
        noteDispatch(inv, c->id(), StartupType::Load,
                     obs::Counter::HitLoad);
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
        _attachments[c->id()] = Attachment{inv, StartupType::User};
        noteDispatch(inv, c->id(), StartupType::User,
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

void
Invoker::dispatchUserHit(const Pending& inv, Container& c,
                         StartupType type, sim::Tick extraLatency)
{
    _pool.beginExecution(c);
    startExecution(inv, c, type,
                   _catalog.at(inv.function).costs().userToRun +
                       extraLatency);
}

bool
Invoker::tryDispatchPartial(const Pending& inv, Container& c,
                            StartupType type)
{
    const auto& profile = _catalog.at(inv.function);
    const auto& costs = profile.costs();

    sim::Tick install = 0;
    switch (c.layer()) {
      case Layer::Lang:
        install = costs.langToUser + costs.userInit;
        break;
      case Layer::Bare:
        install = costs.bareToLang + costs.langInit + costs.langToUser +
                  costs.userInit;
        break;
      default:
        sim::panic("Invoker::tryDispatchPartial: unexpected layer");
    }
    install = static_cast<sim::Tick>(
                  static_cast<double>(install) *
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
    _attachments[target->id()] = Attachment{inv, type};
    noteDispatch(inv, target->id(), type,
                 type == StartupType::Lang ? obs::Counter::HitLang
                                           : obs::Counter::HitBare);
    // The install covers the stages above the cached layer.
    scheduleInit(target->id(), install,
                 /*bare=*/false, /*lang=*/c.layer() == Layer::Bare,
                 /*user=*/true);
    return true;
}

bool
Invoker::tryDispatchCold(const Pending& inv)
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

    const auto install = static_cast<sim::Tick>(
        static_cast<double>(coldInitLatency(profile)) *
        _policy.coldStartFactor());
    _attachments[c->id()] = Attachment{inv, StartupType::Cold};
    noteDispatch(inv, c->id(), StartupType::Cold,
                 obs::Counter::ColdStart);
    scheduleInit(c->id(), install, true, true, true);
    return true;
}

void
Invoker::onInitComplete(container::ContainerId cid)
{
    if (trackingEvents())
        _initEvents.erase(cid);
    Container* c = _pool.byId(cid);
    if (!c || c->state() != State::Initializing)
        sim::panic("Invoker::onInitComplete: container vanished mid-init");
    _pool.finishInit(*c);

    auto it = _attachments.find(cid);
    if (it == _attachments.end()) {
        // Unclaimed pre-warm finished: enter keep-alive and see if a
        // queued invocation can use the new capacity.
        scheduleKeepAlive(*c);
        drainQueue();
        return;
    }
    const Attachment attachment = it->second;
    _attachments.erase(it);
    if (spansOn()) {
        emitInitSpans(attachment.pending, attachment.type, cid,
                      _engine.now());
    }
    _pool.beginExecution(*c);
    startExecution(attachment.pending, *c, attachment.type,
                   _catalog.at(attachment.pending.function)
                       .costs().userToRun);
}

void
Invoker::startExecution(const Pending& inv, Container& c, StartupType type,
                        sim::Tick dispatchOverhead)
{
    const auto& profile = _catalog.at(inv.function);
    sim::Tick execution = profile.sampleExecution(_rng);
    if (!_degraded.empty()) {
        // Gray window: the node is slow, not down — stretch the run.
        const double gray = degradedFactor(&DegradedSpan::execFactor);
        if (gray > 1.0) {
            execution = static_cast<sim::Tick>(
                static_cast<double>(execution) * gray);
        }
    }
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
    observation.type = type;
    observation.startupLatency = startupLatency;
    _policy.onStartupResolved(observation);

    ++_inFlight;
    if (_admission != nullptr)
        _admission->onExecStart(inv.function);
    const container::ContainerId cid = c.id();

    if (_fault != nullptr) {
        if (_overloadUntil > bindTime) {
            // Transient overload: everything started inside the
            // window runs slower by the configured factor.
            execution = static_cast<sim::Tick>(
                static_cast<double>(execution) *
                _fault->plan().overloadSlowdown);
        }
        const fault::ExecFault outcome = _fault->sampleExecFault();
        if (outcome == fault::ExecFault::Crash) {
            // Dies partway through; the completion never fires.
            const sim::Tick death = std::max<sim::Tick>(
                1, static_cast<sim::Tick>(static_cast<double>(execution) *
                                          _fault->crashFraction()));
            const sim::EventId ev = _engine.scheduleAfter(
                dispatchOverhead + death,
                [this, cid] { onExecFault(cid, false); });
            _execs[cid] = ExecTracking{inv, ev, bindTime};
            return;
        }
        if (outcome == fault::ExecFault::Wedge) {
            // Hangs forever; the execution-timeout watchdog kills it.
            const sim::EventId ev = _engine.scheduleAfter(
                dispatchOverhead + _fault->plan().execTimeout,
                [this, cid] { onExecFault(cid, true); });
            _execs[cid] = ExecTracking{inv, ev, bindTime};
            return;
        }
    }

    const sim::EventId completion = _engine.scheduleAfter(
        dispatchOverhead + execution,
        [this, inv, cid, type, startupLatency, execution] {
            if (trackingEvents())
                _execs.erase(cid);
            Container* done = _pool.byId(cid);
            if (!done || done->state() != State::Busy)
                sim::panic("Invoker: executing container vanished");
            _pool.finishExecution(*done);
            --_inFlight;
            if (_admission != nullptr)
                _admission->onExecFinish(inv.function);

            InvocationRecord record;
            record.function = inv.function;
            record.arrival = inv.arrival;
            record.type = type;
            record.queueWait = inv.queueWait;
            record.startupLatency = startupLatency;
            record.execution = execution;
            record.endToEnd = _engine.now() - inv.arrival;
            _metrics.record(record);
            noteTicketTerminal(inv, TicketOutcome::kCompleted,
                               sim::toSeconds(record.endToEnd),
                               sim::toSeconds(execution));

            if (_obs != nullptr) {
                _obs->emit(_engine.now(),
                           obs::EventType::InvocationCompleted, cid,
                           inv.function,
                           static_cast<std::uint8_t>(type), 0,
                           sim::toSeconds(record.startupLatency),
                           sim::toSeconds(record.endToEnd));
                if (_obs->spansEnabled()) {
                    // The execution interval is the trailing part of
                    // the event; whatever preceded it since the last
                    // stage (= bind time) is dispatch overhead.
                    emitStageSpan(inv, obs::SpanStage::Dispatch,
                                  _engine.now() - execution, cid);
                    emitStageSpan(inv, obs::SpanStage::Exec,
                                  _engine.now(), cid);
                    closeRootSpan(inv, obs::SpanOutcome::Completed);
                }
            }

            scheduleKeepAlive(*done);
            drainQueue();
        });
    if (trackingEvents())
        _execs[cid] = ExecTracking{inv, completion, bindTime};
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
    if (_admission != nullptr && _admission->shrinkTtls() && ttl > 0) {
        // Ladder stage 1: idle layers decay sooner so memory drains.
        ttl = _admission->degradeTtl(ttl);
        ++_degradedKeepalives;
        if (_obs != nullptr) {
            _obs->counters().bump(obs::Counter::DegradedKeepalives,
                                  _engine.now());
        }
    }
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
    sim::Tick nextTtl = decision.nextTtl;
    if (_admission != nullptr && _admission->shrinkTtls() &&
        nextTtl > 0) {
        nextTtl = _admission->degradeTtl(nextTtl);
        ++_degradedKeepalives;
        if (_obs != nullptr) {
            _obs->counters().bump(obs::Counter::DegradedKeepalives,
                                  _engine.now());
        }
    }
    const container::ContainerId id = c->id();
    c->setTimeoutEvent(_engine.scheduleAfter(
        nextTtl, [this, id] { onIdleTimeout(id); }));
    drainQueue();
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

    const auto install = static_cast<sim::Tick>(
        static_cast<double>(coldInitLatency(profile)) *
        _policy.coldStartFactor());
    scheduleInit(c->id(), install, true, true, true);
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
    const auto& costs = profile.costs();
    sim::Tick install = costs.bareInit;
    const bool lang = layer != Layer::Bare;
    const bool user = layer == Layer::User;
    if (lang)
        install += costs.bareToLang + costs.langInit;
    if (user)
        install += costs.langToUser + costs.userInit;
    install = static_cast<sim::Tick>(static_cast<double>(install) *
                                     _policy.coldStartFactor());
    scheduleInit(c->id(), install, true, lang, user);
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
    if (!_degraded.empty()) {
        // Gray window: installs crawl by the configured factor.
        const double gray = degradedFactor(&DegradedSpan::initFactor);
        if (gray > 1.0) {
            install = static_cast<sim::Tick>(
                static_cast<double>(install) * gray);
        }
    }
    if (_fault == nullptr) {
        const sim::EventId ev = _engine.scheduleAfter(
            install, [this, cid] { onInitComplete(cid); });
        if (_ticketing)
            _initEvents[cid] = ev;
        return;
    }
    // The injector samples only over the stages this install covers,
    // so cached layers (already proven good) cannot fail again.
    const auto stage = _fault->sampleInitFault(bare, lang, user);
    sim::EventId ev = sim::kNoEvent;
    if (stage) {
        const workload::Layer failed = *stage;
        ev = _engine.scheduleAfter(
            install, [this, cid, failed] { onInitFailed(cid, failed); });
    } else {
        ev = _engine.scheduleAfter(install,
                                   [this, cid] { onInitComplete(cid); });
    }
    _initEvents[cid] = ev;
}

void
Invoker::onInitFailed(container::ContainerId cid, workload::Layer stage)
{
    _initEvents.erase(cid);
    Container* c = _pool.byId(cid);
    if (!c || c->state() != State::Initializing)
        sim::panic("Invoker::onInitFailed: container vanished mid-init");

    if (_obs != nullptr) {
        _obs->counters().bump(obs::Counter::FaultInjected, _engine.now());
        _obs->emit(_engine.now(), obs::EventType::FaultInjected, cid,
                   c->initFunction(), 0,
                   static_cast<std::uint8_t>(stage));
    }
    RC_LOG(Debug, "init of container " << cid << " failed at stage "
                  << static_cast<int>(stage));

    Pending pending;
    bool hasPending = false;
    auto it = _attachments.find(cid);
    if (it != _attachments.end()) {
        pending = it->second.pending;
        hasPending = true;
        if (spansOn()) {
            const auto spanStage =
                it->second.type == StartupType::Load
                    ? obs::SpanStage::InitWait
                    : initStageForLayer(stage);
            emitStageSpan(pending, spanStage, _engine.now(), cid,
                          /*aborted=*/true,
                          static_cast<std::uint8_t>(stage));
        }
        _attachments.erase(it);
    }
    _policy.onContainerFailed(*c);
    _pool.kill(*c, obs::KillCause::InitFault);
    if (hasPending)
        scheduleRetry(pending);
    drainQueue();
}

void
Invoker::onExecFault(container::ContainerId cid, bool wedged)
{
    Container* c = _pool.byId(cid);
    if (!c || c->state() != State::Busy)
        sim::panic("Invoker::onExecFault: container not executing");
    auto it = _execs.find(cid);
    if (it == _execs.end())
        sim::panic("Invoker::onExecFault: untracked execution");
    const Pending pending = it->second.inv;
    _execs.erase(it);
    --_inFlight;
    if (_admission != nullptr)
        _admission->onExecFinish(pending.function);

    if (_obs != nullptr) {
        _obs->counters().bump(obs::Counter::FaultInjected, _engine.now());
        _obs->emit(_engine.now(), obs::EventType::FaultInjected, cid,
                   pending.function,
                   static_cast<std::uint8_t>(wedged ? 2 : 1), 0);
        if (wedged) {
            _obs->emit(_engine.now(), obs::EventType::ExecTimeoutKill,
                       cid, pending.function);
        }
    }
    if (spansOn()) {
        emitStageSpan(pending, obs::SpanStage::Exec, _engine.now(), cid,
                      /*aborted=*/true, wedged ? 2 : 1);
    }
    _policy.onContainerFailed(*c);
    _pool.forceKill(*c, wedged ? obs::KillCause::WedgeTimeout
                               : obs::KillCause::ExecFault);
    scheduleRetry(pending);
    drainQueue();
}

void
Invoker::scheduleRetry(Pending inv)
{
    ++inv.attempt;
    if (inv.attempt > _fault->plan().maxRetries) {
        ++_failed;
        noteTicketTerminal(inv, TicketOutcome::kFailed, 0.0, 0.0);
        if (spansOn())
            closeRootSpan(inv, obs::SpanOutcome::Failed);
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
    _engine.scheduleAfter(backoff, [this, inv] {
        // A retry landing during downtime simply queues: the restart
        // drain picks it up. Never lost, never double-executed —
        // unless the admission controller forbids queueing, in which
        // case it is shed like any other overflow.
        if (inv.ticket != 0 && _pendingCancels.count(inv.ticket) != 0) {
            // A hedge cancel arrived while this attempt was waiting
            // out its backoff: it dies here instead of re-dispatching.
            ++_cancelled;
            if (spansOn()) {
                emitStageSpan(inv, obs::SpanStage::Backoff,
                              _engine.now());
                closeRootSpan(inv, obs::SpanOutcome::Cancelled);
            }
            noteTicketTerminal(inv, TicketOutcome::kCancelled, 0.0, 0.0);
            return;
        }
        if (spansOn())
            emitStageSpan(inv, obs::SpanStage::Backoff, _engine.now());
        if (isDown() || !tryDispatch(inv))
            queueOrShed(inv);
    });
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
    std::vector<Pending> lost = crashImpl(downUntil);
    for (auto& inv : lost)
        scheduleRetry(inv);
    // The next crash can only strike after the node is back up.
    armNodeCrash(downUntil);
}

std::vector<Invoker::Pending>
Invoker::crashImpl(sim::Tick downUntil)
{
    const sim::Tick now = _engine.now();

    // Cancel every tracked init/exec completion first: once the pool
    // dies, a stale completion would fire into a vanished container.
    for (auto& [cid, ev] : _initEvents)
        _engine.cancel(ev);
    _initEvents.clear();

    // Collect the invocations that lose their container, in container
    // id order so the retry sequence is independent of hash layout.
    struct Lost
    {
        container::ContainerId cid;
        Pending inv;
        obs::SpanStage stage;
    };
    std::vector<Lost> tagged;
    for (auto& [cid, tracking] : _execs) {
        _engine.cancel(tracking.event);
        tagged.push_back(Lost{cid, tracking.inv, obs::SpanStage::Exec});
    }
    _execs.clear();
    for (auto& [cid, attachment] : _attachments) {
        tagged.push_back(Lost{cid, attachment.pending,
                              abortedInstallStage(attachment.type)});
    }
    _attachments.clear();
    std::sort(tagged.begin(), tagged.end(),
              [](const Lost& a, const Lost& b) {
                  return a.cid < b.cid;
              });
    if (spansOn()) {
        for (const auto& lost : tagged)
            emitStageSpan(lost.inv, lost.stage, now, lost.cid,
                          /*aborted=*/true);
    }
    _inFlight = 0;
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
                   static_cast<double>(tagged.size()));
    }
    RC_LOG(Debug, "node crashed; " << tagged.size()
                  << " invocations lost their container, down for "
                  << sim::toSeconds(downUntil - now) << " s");

    _engine.schedule(downUntil, [this] {
        if (_obs != nullptr)
            _obs->emit(_engine.now(), obs::EventType::NodeRestarted, 0, 0);
        drainQueue();
    });

    std::vector<Pending> lost;
    lost.reserve(tagged.size());
    for (auto& entry : tagged)
        lost.push_back(entry.inv);
    return lost;
}

std::vector<FailoverTicket>
Invoker::crashNow(sim::Tick downUntil)
{
    std::vector<Pending> lost = crashImpl(downUntil);
    // Cluster failover also re-admits the queue: queued work would
    // otherwise sit out the whole downtime on a dead node.
    std::vector<FailoverTicket> tickets;
    tickets.reserve(lost.size() + _queue.size());
    for (const auto& inv : lost) {
        if (inv.ticket != 0) {
            // The watch ticket leaves with the work; the coordinator
            // re-points it at whichever node the failover lands on.
            _liveTickets.erase(inv.ticket);
            _pendingCancels.erase(inv.ticket);
        }
        tickets.push_back(FailoverTicket{
            inv.function, closeRootSpan(inv, obs::SpanOutcome::Rerouted),
            inv.ticket});
    }
    for (const auto& inv : _queue) {
        if (inv.ticket != 0) {
            _liveTickets.erase(inv.ticket);
            _pendingCancels.erase(inv.ticket);
        }
        if (spansOn())
            emitStageSpan(inv, obs::SpanStage::Queue, _engine.now());
        tickets.push_back(FailoverTicket{
            inv.function, closeRootSpan(inv, obs::SpanOutcome::Rerouted),
            inv.ticket});
    }
    _queue.clear();
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
Invoker::noteTicketTerminal(const Pending& inv, std::uint8_t kind,
                            double latencySeconds, double execSeconds)
{
    if (inv.ticket == 0)
        return;
    _liveTickets.erase(inv.ticket);
    _pendingCancels.erase(inv.ticket);
    TicketOutcome out;
    out.ticket = inv.ticket;
    out.at = _engine.now();
    out.kind = kind;
    out.latencySeconds = latencySeconds;
    out.execSeconds = execSeconds;
    _ticketLog.push_back(out);
}

void
Invoker::cancelTicket(std::uint64_t ticket)
{
    if (ticket == 0 || _liveTickets.count(ticket) == 0) {
        // Already terminal (the race is benign: the coordinator sees
        // the completed outcome and books the duplicate), or never
        // admitted here. Either way there is nothing to unwind.
        return;
    }

    // 1. Still parked in the admission queue: pure bookkeeping.
    for (auto it = _queue.begin(); it != _queue.end(); ++it) {
        if (it->ticket != ticket)
            continue;
        const Pending inv = *it;
        _queue.erase(it);
        ++_cancelled;
        if (spansOn()) {
            emitStageSpan(inv, obs::SpanStage::Queue, _engine.now());
            closeRootSpan(inv, obs::SpanOutcome::Cancelled);
        }
        noteTicketTerminal(inv, TicketOutcome::kCancelled, 0.0, 0.0);
        return;
    }

    // 2. Attached to a claimed in-flight init. The match is unique
    // (one live attempt per ticket), so map iteration order is
    // immaterial to the result.
    for (auto it = _attachments.begin(); it != _attachments.end(); ++it) {
        if (it->second.pending.ticket != ticket)
            continue;
        const container::ContainerId cid = it->first;
        const Attachment attachment = it->second;
        _attachments.erase(it);
        Container* c = _pool.byId(cid);
        if (c == nullptr || c->state() != State::Initializing)
            sim::panic("Invoker::cancelTicket: attachment container "
                       "vanished");
        if (spansOn()) {
            emitStageSpan(attachment.pending,
                          abortedInstallStage(attachment.type),
                          _engine.now(), cid, /*aborted=*/true);
            closeRootSpan(attachment.pending, obs::SpanOutcome::Cancelled);
        }
        if (attachment.type == StartupType::Load) {
            // The install belongs to a pre-warm this attempt merely
            // latched onto: release the claim and let it finish as an
            // unclaimed pre-warm for the next arrival. Its (possibly
            // untracked) init event stays armed on purpose.
            _pool.unclaim(*c);
        } else {
            // The install ran solely for this attempt: cancel its
            // completion and kill the half-built container.
            const auto ev = _initEvents.find(cid);
            if (ev != _initEvents.end()) {
                _engine.cancel(ev->second);
                _initEvents.erase(ev);
            }
            _pool.kill(*c, obs::KillCause::HedgeCancel);
        }
        ++_cancelled;
        noteTicketTerminal(attachment.pending, TicketOutcome::kCancelled,
                           0.0, 0.0);
        drainQueue();
        return;
    }

    // 3. Executing: cancel the completion, kill the container, and
    // book the machine time burnt so far as wasted work.
    for (auto it = _execs.begin(); it != _execs.end(); ++it) {
        if (it->second.inv.ticket != ticket)
            continue;
        const container::ContainerId cid = it->first;
        const ExecTracking tracking = it->second;
        _execs.erase(it);
        Container* c = _pool.byId(cid);
        if (c == nullptr || c->state() != State::Busy)
            sim::panic("Invoker::cancelTicket: tracked execution "
                       "without a busy container");
        _engine.cancel(tracking.event);
        --_inFlight;
        if (_admission != nullptr)
            _admission->onExecFinish(tracking.inv.function);
        const double wasted =
            sim::toSeconds(_engine.now() - tracking.started);
        if (spansOn()) {
            emitStageSpan(tracking.inv, obs::SpanStage::Exec,
                          _engine.now(), cid, /*aborted=*/true);
            closeRootSpan(tracking.inv, obs::SpanOutcome::Cancelled);
        }
        ++_cancelled;
        _pool.forceKill(*c, obs::KillCause::HedgeCancel);
        noteTicketTerminal(tracking.inv, TicketOutcome::kCancelled, 0.0,
                           wasted);
        drainQueue();
        return;
    }

    // 4. Live but not bound anywhere: the attempt is waiting out a
    // retry backoff. Flag it; the backoff body cancels it on firing.
    _pendingCancels.insert(ticket);
}

double
Invoker::degradedFactor(double DegradedSpan::*factor)
{
    const sim::Tick now = _engine.now();
    while (_degradedCursor < _degraded.size() &&
           _degraded[_degradedCursor].end <= now)
        ++_degradedCursor;
    if (_degradedCursor < _degraded.size() &&
        _degraded[_degradedCursor].start <= now)
        return _degraded[_degradedCursor].*factor;
    return 1.0;
}

void
Invoker::drainQueue()
{
    if (_draining)
        return;
    _draining = true;
    while (!_queue.empty()) {
        Pending head = _queue.front();
        head.queueWait = _engine.now() - head.arrival;
        if (!tryDispatch(head))
            break;
        _queue.pop_front();
    }
    _draining = false;
}

} // namespace rc::platform
