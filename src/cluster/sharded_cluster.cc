#include "cluster/sharded_cluster.hh"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <utility>

#include "sim/logging.hh"
#include "stats/quantile_sketch.hh"

namespace rc::cluster {

namespace {

/** Threads actually worth spawning for @p shards partitions. */
std::size_t
defaultThreads(std::size_t shards)
{
    const std::size_t hw = std::thread::hardware_concurrency();
    return std::max<std::size_t>(1, std::min(shards, hw == 0 ? 1 : hw));
}

} // namespace

ShardedCluster::ShardedCluster(const workload::Catalog& catalog,
                               const PolicyFactory& factory,
                               ClusterConfig config, ShardedConfig sharded)
    : _catalog(catalog), _config(config), _sharded(sharded),
      _scheduler(config.scheduling, catalog)
{
    if (config.nodes == 0)
        sim::fatal("ShardedCluster: need at least one node");
    // One Observer cannot span several engine timelines (ticks would
    // interleave non-monotonically, and pools restart container ids at
    // 1), so nodes run uninstrumented and the configured observer
    // collects cluster-level events only — emitted exclusively by the
    // single-threaded coordinator. Spans are the exception: each node
    // gets a private span-only Observer (touched only by that node's
    // shard worker), merged after the drain on partition-independent
    // keys.
    _obs = config.node.observer;
    const bool spans = _obs != nullptr && _obs->spansEnabled();
    for (std::size_t i = 0; i < config.nodes; ++i) {
        platform::NodeConfig nodeConfig = config.node;
        nodeConfig.seed = config.node.seed + i; // independent exec draws
        nodeConfig.observer = nullptr;
        if (spans) {
            obs::ObserverConfig spanConfig;
            spanConfig.traceEnabled = false;
            spanConfig.profilingEnabled = false;
            spanConfig.counterInterval = _obs->config().counterInterval;
            spanConfig.spansEnabled = true;
            spanConfig.maxSpans = _obs->config().maxSpans;
            auto nodeObs = std::make_unique<obs::Observer>(spanConfig);
            nodeObs->setSpanNode(static_cast<std::uint16_t>(i));
            nodeConfig.observer = nodeObs.get();
            _nodeObservers.push_back(std::move(nodeObs));
        }
        _nodes.push_back(std::make_unique<platform::Node>(
            _catalog, factory(), nodeConfig));
    }
    const admission::AdmissionPlan& admission = config.node.admission;
    if (admission.breakerFailureThreshold > 0.0) {
        admission::CircuitBreaker::Config breaker;
        breaker.failureThreshold = admission.breakerFailureThreshold;
        breaker.window = sim::fromSeconds(admission.breakerWindowSeconds);
        breaker.cooloff =
            sim::fromSeconds(admission.breakerCooloffSeconds);
        breaker.minSamples = admission.breakerMinSamples;
        _breakers.assign(_nodes.size(),
                         admission::CircuitBreaker(breaker));
    }

    _lookahead = _sharded.lookahead > 0
                     ? _sharded.lookahead
                     : core::CostModel(_sharded.cost).crossShardLookahead();

    // Round-robin node -> shard assignment balances load; the mapping
    // never influences results (see header), only wall-clock.
    const std::size_t shards =
        std::max<std::size_t>(1, std::min(_sharded.shards, _nodes.size()));
    _shards.resize(shards);
    for (std::size_t i = 0; i < _nodes.size(); ++i)
        _shards[i % shards].nodes.push_back(i);
    _threads = _sharded.threads > 0
                   ? std::min(_sharded.threads, shards)
                   : defaultThreads(shards);

    _summaries.resize(_nodes.size());
    _pendingInputs.assign(_nodes.size(), 0);
    _summaryStamps.assign(_nodes.size(), 0);
    _seenFailures.assign(_nodes.size(), 0);
    _seenSuccesses.assign(_nodes.size(), 0);
    _seenTransitions.assign(_nodes.size(), 0);

    // Gray-failure network model + tail-tolerant dispatch. Ticketed
    // dispatch is armed when either the network plan or the domain
    // plan is active (recovery orchestration and retry feedback track
    // requests end-to-end just like hedging does); the net-only
    // machinery — link sampling, hedges, partitions, quarantine —
    // stays gated on the network plan. A zero-knob fault plan builds
    // none of this, draws nothing, and stays bit-identical to an
    // unplanned run.
    if (_config.node.fault.network.active())
        _net = &_config.node.fault.network;
    _ticketed = _net != nullptr || _config.node.fault.domain.active();
    if (_ticketed) {
        // With no network plan the sampler wraps an all-zero plan: it
        // consumes no randomness and delivers everything instantly.
        _netSampler = std::make_unique<fault::NetworkSampler>(
            _config.node.fault.network,
            sim::Rng(_config.node.seed).stream("net"));
        NodeHealthTracker::Config health;
        if (_net != nullptr) {
            health.enabled = _net->quarantineEnabled;
            health.latencyFactor = _net->quarantineLatencyFactor;
            health.minSamples = _net->quarantineMinSamples;
            health.drain =
                sim::fromSeconds(_net->quarantineDrainSeconds);
            health.probeCount = _net->quarantineProbeCount;
            health.readmitFactor = _net->quarantineReadmitFactor;
        }
        _health =
            std::make_unique<NodeHealthTracker>(health, _nodes.size());
        _functionSketches.assign(_catalog.size(),
                                 stats::QuantileSketch());
        for (auto& node : _nodes)
            node->enableTicketing();
    }
}

NodeSummary
ShardedCluster::captureSummary(platform::Node& node) const
{
    NodeSummary s;
    s.down = node.isDown() ? 1 : 0;
    s.inFlightPlusQueued = static_cast<std::uint32_t>(
        node.invoker().inFlightInvocations() +
        node.invoker().queuedInvocations());
    s.usedMemoryMb = node.pool().usedMemoryMb();
    s.idleBare = static_cast<std::uint32_t>(node.pool().idleBareCount());
    for (std::size_t l = 0; l < workload::kLanguageCount; ++l) {
        s.idleLang[l] = static_cast<std::uint32_t>(
            node.pool().idleLangCount(static_cast<workload::Language>(l)));
    }
    s.idleUser = static_cast<std::uint32_t>(
        node.pool().idleCountAtLayer(workload::Layer::User, std::nullopt));
    s.failures = node.invoker().failedInvocations();
    s.successes = node.metrics().total();
    return s;
}

void
ShardedCluster::runShardWindow(Shard& shard, sim::Tick windowEnd)
{
    const sim::Tick failoverHop = std::max(
        _lookahead, sim::fromMillis(_sharded.cost.failoverHopMillis));
    // The coordinator appends the bin per stream (failover, arrivals,
    // crashes), so inputs interleave; one sort groups the bin by node
    // and restores the global (tick, kind, seq) drain order within
    // each node — exactly the order the old per-node inbox sort
    // produced (the node major key is determinism-irrelevant: node
    // states are disjoint).
    std::sort(shard.bin.begin(), shard.bin.end(),
              [](const RoutedInput& a, const RoutedInput& b) {
                  if (a.node != b.node)
                      return a.node < b.node;
                  return shardInputBefore(a.input, b.input);
              });
    std::size_t cursor = 0;
    sim::Tick shardNext = std::numeric_limits<sim::Tick>::max();
    for (const std::size_t index : shard.nodes) {
        platform::Node& node = *_nodes[index];
        const std::size_t begin = cursor;
        while (cursor < shard.bin.size() &&
               shard.bin[cursor].node == index)
            ++cursor;
        // Idle fast path: a node with no inputs and no event due
        // before the barrier does nothing this window, so its change
        // stamp cannot have moved (events and coordinator mutations
        // are the only stamp sources, and both come through here) —
        // skip it without even reading the stamp. The check reads
        // only this node's state, so it is independent of the shard
        // partitioning. fullSummaryCapture disables the shortcut so
        // the identity test exercises the full re-walk.
        if (cursor == begin && !_sharded.fullSummaryCapture) {
            const sim::Tick next = node.engine().nextEventAt();
            if (next >= windowEnd) {
                shardNext = std::min(shardNext, next);
                continue;
            }
        }
        {
            for (std::size_t k = begin; k < cursor; ++k) {
                const ShardInput& input = shard.bin[k].input;
                node.advanceTo(input.tick);
                if (input.kind == ShardInput::kCrash) {
                    const auto lost = node.crashNow(input.downUntil);
                    shard.crashLog.push_back(
                        {input.tick, static_cast<std::uint32_t>(index),
                         input.downUntil,
                         static_cast<std::uint32_t>(lost.size())});
                    // Displaced work re-enters at the next barrier,
                    // one failover hop after the crash. The hop is
                    // >= the lookahead by construction, so delivery
                    // never lands inside this window.
                    std::uint32_t i = 0;
                    for (const auto& ticket : lost) {
                        shard.outbox.push_back(
                            {std::max(windowEnd,
                                      input.tick + failoverHop),
                             input.tick,
                             static_cast<std::uint32_t>(index), i++,
                             ticket.function, ticket.originSpan,
                             ticket.ticket});
                    }
                } else if (input.kind == ShardInput::kInvoke) {
                    node.invokeNow(input.function, input.originSpan,
                                   input.ticket);
                } else if (input.kind == ShardInput::kPrewarm) {
                    // Census warm-up: downUntil carries the Layer.
                    node.recoveryPrewarm(
                        input.function,
                        static_cast<workload::Layer>(
                            static_cast<std::uint8_t>(input.downUntil)));
                } else {
                    node.cancelTicket(input.ticket);
                }
            }
            // Windows are half-open: drain everything strictly
            // before the barrier.
            node.advanceTo(windowEnd - 1);
        }
        // Delta capture: publish the summary only when the node's
        // change stamp moved since the last capture. An untouched
        // node's summary is bitwise what the coordinator already
        // holds, so skipping it cannot change results (the
        // fullSummaryCapture identity test pins this).
        const std::uint64_t stamp = node.summaryStamp();
        if (stamp != _summaryStamps[index] ||
            _sharded.fullSummaryCapture) {
            _summaryStamps[index] = stamp;
            shard.summaryScratch.emplace_back(
                static_cast<std::uint32_t>(index), captureSummary(node));
        }
        shardNext = std::min(shardNext, node.engine().nextEventAt());
    }
    shard.bin.clear();
    shard.nextEventAt = shardNext;
}

void
ShardedCluster::refreshBreakers(sim::Tick now)
{
    if (_breakers.empty())
        return;
    for (std::size_t i = 0; i < _nodes.size(); ++i) {
        admission::CircuitBreaker& breaker = _breakers[i];
        // Feed the outcome deltas the barrier summaries carry.
        for (; _seenFailures[i] < _summaries[i].failures;
             ++_seenFailures[i])
            breaker.recordFailure(now);
        for (; _seenSuccesses[i] < _summaries[i].successes;
             ++_seenSuccesses[i])
            breaker.recordSuccess(now);
        _summaries[i].tripped = breaker.allows(now) ? 0 : 1;
        const auto& transitions = breaker.transitions();
        for (; _seenTransitions[i] < transitions.size();
             ++_seenTransitions[i]) {
            const auto& tr = transitions[_seenTransitions[i]];
            if (_obs == nullptr)
                continue;
            if (tr.to == admission::CircuitBreaker::State::Open) {
                _obs->counters().bump(obs::Counter::BreakerOpenTotal,
                                      tr.at);
            }
            _obs->emit(tr.at, obs::EventType::BreakerStateChanged, 0,
                       0xffffffffU, static_cast<std::uint8_t>(tr.to),
                       static_cast<std::uint8_t>(tr.from),
                       static_cast<double>(i));
        }
    }
}

ClusterResult
ShardedCluster::run(const std::vector<trace::Arrival>& arrivals)
{
    trace::VectorArrivalSource source(arrivals);
    return run(source);
}

std::uint64_t
ShardedCluster::RunState::clock() const
{
    if (!timing)
        return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

ClusterResult
ShardedCluster::run(trace::ArrivalSource& source)
{
    // Coordinator-phase wall-clock breakdown. Gated: the numbers are
    // nondeterministic and the clock reads are not free, so only
    // bench/instrumented runs pay for them.
    RunState run(source, _sharded.phaseTimings);
    arm(run);

    sim::ShardExecutor executor(_threads);
    // One round closure reused by every window (no per-window
    // std::function allocation); the coordinator sets run.windowEnd
    // and _activeShards before each round.
    const sim::ShardExecutor::RoundFn shardRound =
        [this, &run](std::size_t i) {
            runShardWindow(_shards[_activeShards[i]], run.windowEnd);
        };

    while (true) {
        const std::uint64_t tWindow = run.clock();
        const sim::Tick wake = nextWakeUp(run);
        if (wake == kNever)
            break;
        run.windowStart = std::min(wake / _lookahead * _lookahead,
                                   run.lastBarrier + run.maxStride);
        run.windowEnd = run.windowStart + _lookahead;
        ++run.result.windows;

        // ---- coordinator phase (single-threaded) --------------------
        preRoute(run);
        const std::uint64_t tRoute = run.clock();
        route(run);
        binInputs(run.windowEnd);
        run.routedNs += run.clock() - tRoute;

        // ---- parallel phase -----------------------------------------
        const std::uint64_t tParallel = run.clock();
        run.coordNs += tParallel - tWindow;
        if (!_activeShards.empty())
            executor.runRound(_activeShards.size(), shardRound);
        const std::uint64_t tMerge = run.clock();
        run.parallelNs += tMerge - tParallel;

        // ---- merge phase (single-threaded, sort-once) ---------------
        mergeSummaries();
        run.summaryNs += run.clock() - tMerge;
        mergeOutcomes(run);
        run.lastBarrier = run.windowEnd;
        run.coordNs += run.clock() - tMerge;
    }

    // Drain: no cross-shard input remains, so every node can run to
    // completion and flush independently.
    const std::uint64_t tDrain = run.clock();
    executor.runRound(_shards.size(), [this](std::size_t s) {
        for (const std::size_t index : _shards[s].nodes) {
            _nodes[index]->engine().run();
            _nodes[index]->finalize();
        }
    });
    run.parallelNs += run.clock() - tDrain;

    settleAfterDrain(run);
    assemble(run);
    return std::move(run.result);
}

void
ShardedCluster::arm(RunState& run)
{
    run.result.schedulingName = toString(_config.scheduling);
    const sim::Tick horizon = run.source.horizon();
    run.horizon = horizon;

    for (auto& node : _nodes)
        node->armAdmission(horizon);
    const fault::FaultPlan& plan = _config.node.fault;
    if (plan.active()) {
        for (auto& node : _nodes)
            node->armFaults(horizon, /*manageNodeCrashes=*/false);
    }
    run.crashes = drawCrashSchedule(plan, _config.node.seed,
                                    _nodes.size(), horizon);
    if (plan.domain.active()) {
        _recovery = std::make_unique<RecoveryOrchestrator>(
            plan.domain, _catalog, _config.node.seed, _nodes.size(),
            horizon, _obs);
        // Correlated-outage crashes ride the same pre-drawn crash
        // stream as independent MTBF crashes; one merge restores the
        // (at, node) order both sources already obey.
        const auto& outageCrashes = _recovery->outageCrashes();
        if (!outageCrashes.empty()) {
            // The recovery-window latency sketch starts collecting at
            // the first correlated strike (the stream is (at, node)
            // sorted, so front() is earliest).
            _recoveryFrom = outageCrashes.front().at;
            run.crashes.insert(run.crashes.end(), outageCrashes.begin(),
                               outageCrashes.end());
            std::stable_sort(run.crashes.begin(), run.crashes.end(),
                             [](const CrashEvent& a,
                                const CrashEvent& b) {
                                 return a.at != b.at ? a.at < b.at
                                                     : a.node < b.node;
                             });
        }
    }
    if (_net != nullptr) {
        _degradedSchedule = fault::drawDegradedWindows(
            *_net, _config.node.seed, _nodes.size(), horizon);
        _partitions = fault::drawPartitionSchedule(
            *_net, _config.node.seed, _nodes.size(), horizon);
        std::vector<std::vector<platform::DegradedSpan>> perNode(
            _nodes.size());
        for (const auto& w : _degradedSchedule) {
            perNode[w.node].push_back(
                {w.start, w.end, w.execFactor, w.initFactor});
        }
        for (std::size_t i = 0; i < _nodes.size(); ++i) {
            if (!perNode[i].empty())
                _nodes[i]->setDegradedWindows(std::move(perNode[i]));
        }
    }

    // Staleness cap, rounded up to whole windows so every barrier
    // stays on the lookahead grid.
    const sim::Tick L = _lookahead;
    run.maxStride =
        std::max(L, (_sharded.maxSummaryStaleness + L - 1) / L * L);

    for (std::size_t i = 0; i < _nodes.size(); ++i) {
        _summaries[i] = captureSummary(*_nodes[i]);
        _summaryStamps[i] = _nodes[i]->summaryStamp();
    }
    for (Shard& shard : _shards) {
        shard.nextEventAt = kNever;
        for (const std::size_t i : shard.nodes) {
            shard.nextEventAt = std::min(
                shard.nextEventAt, _nodes[i]->engine().nextEventAt());
        }
    }
}

sim::Tick
ShardedCluster::nextWakeUp(const RunState& run) const
{
    const sim::Tick L = _lookahead;
    sim::Tick next = kNever;
    if (!run.source.done())
        next = std::min(next, run.source.peek().time);
    if (run.crashIdx < run.crashes.size())
        next = std::min(next, run.crashes[run.crashIdx].at);
    if (run.failIdx < run.pendingFailover.size())
        next = std::min(next, run.pendingFailover[run.failIdx].deliverAt);
    if (_deliveryIdx < _pendingDeliveries.size())
        next = std::min(next, _pendingDeliveries[_deliveryIdx].deliverAt);
    bool nodeProgress = false;
    if (ticketing()) {
        // Partition flips and outstanding ticket watches (hedge
        // deadlines, pending cancels) keep the barrier grid stepping
        // even with no routable input left.
        if (_partitionIdx < _partitions.size())
            next = std::min(next, _partitions[_partitionIdx].start);
        for (const std::size_t pi : _activePartitions) {
            // A partition lifts at the first barrier at or after its
            // end (applyPartitions tests end <= windowStart), so
            // propose that grid point — proposing the raw end tick
            // would floor back into a window that can never clear it.
            next = std::min(next, alignToBarrier(_partitions[pi].end, L));
        }
        if (!_watches.empty()) {
            // Wake at the next instant the coordinator can act on a
            // watch: a queued cancel input (pushed at the last
            // barrier), the next node event (the earliest a new ticket
            // outcome can surface), or the earliest hedge deadline.
            // All three read per-node / coordinator state only, so the
            // barrier schedule — and with it hedge timing — is
            // identical at any shard count.
            nodeProgress = true;
            if (_net != nullptr && _net->hedgeEnabled) {
                for (const auto& [ticket, watch] : _watches) {
                    next = std::min(next, std::max(hedgeDeadline(watch),
                                                   run.lastBarrier));
                }
            }
        }
    }
    if (_recovery != nullptr) {
        // Recovery deadlines gate on windowStart >= deadline, so
        // propose the grid point at-or-after them (the same trap as
        // partition ends above).
        const sim::Tick recoveryAt = _recovery->nextActionAt();
        if (recoveryAt != kNever)
            next = std::min(next, alignToBarrier(recoveryAt, L));
        // Draining and warming complete through node-local events
        // (executions finishing, prewarm inits); keep barriers
        // stepping with them so the FSM observes progress promptly.
        if (_recovery->needsNodeProgress())
            nodeProgress = true;
    }
    if (nodeProgress) {
        // A node acts at its next engine event, or at the last barrier
        // when it holds queued input.
        for (std::size_t i = 0; i < _nodes.size(); ++i) {
            next = std::min(next, _pendingInputs[i] == 0
                                      ? _nodes[i]->engine().nextEventAt()
                                      : run.lastBarrier);
        }
    }
    if (_feedbackIdx < _feedbackQueue.size())
        next = std::min(next, _feedbackQueue[_feedbackIdx].at);
    return next;
}

void
ShardedCluster::preRoute(RunState& run)
{
    refreshBreakers(run.windowStart);
    if (ticketing()) {
        applyPartitions(run.windowStart, run.windowEnd, run.result);
        emitDegradedEvents(run.windowEnd);
        _health->refresh(run.windowStart);
        emitHealthTransitions();
    }
    // Recovery FSM runs before routing (hedges, retries, arrivals) so
    // every dispatch this window sees the recovering flags; it runs
    // before the crash drain so census snapshots still read
    // pre-failure summaries.
    if (_recovery != nullptr)
        applyRecovery(run.windowStart, run.windowEnd, run.seq);
    if (_net != nullptr)
        launchHedges(run.windowStart, run.windowEnd, run.seq, run.result);
    drainFeedbackRetries(run.windowEnd, run.seq);
}

void
ShardedCluster::route(RunState& run)
{
    // Drain the input streams due this window in one merged
    // (tick, class) order: at the same instant crashes outrank
    // failover re-issues, which outrank parked deliveries, which
    // outrank fresh arrivals.
    while (true) {
        const sim::Tick crashAt = run.crashIdx < run.crashes.size()
                                      ? run.crashes[run.crashIdx].at
                                      : kNever;
        const sim::Tick failAt =
            run.failIdx < run.pendingFailover.size()
                ? run.pendingFailover[run.failIdx].deliverAt
                : kNever;
        const sim::Tick deliverAt =
            _deliveryIdx < _pendingDeliveries.size()
                ? _pendingDeliveries[_deliveryIdx].deliverAt
                : kNever;
        const sim::Tick arriveAt =
            !run.source.done() ? run.source.peek().time : kNever;
        const sim::Tick due = std::min(std::min(crashAt, deliverAt),
                                       std::min(failAt, arriveAt));
        if (due >= run.windowEnd)
            break;
        if (crashAt == due) {
            const CrashEvent& ev = run.crashes[run.crashIdx++];
            // Routing inside this window must already see the node as
            // gone; the summary refresh at the barrier re-evaluates
            // isDown() for the windows that follow.
            _summaries[ev.node].down = 1;
            queueInput(ev.node,
                       {ev.at, run.seq++, workload::kInvalidFunction,
                        ev.downUntil, ShardInput::kCrash});
        } else if (failAt == due) {
            routeFailover(run, run.pendingFailover[run.failIdx++]);
        } else if (deliverAt == due) {
            const Delivery& d = _pendingDeliveries[_deliveryIdx++];
            queueInput(d.node, {d.deliverAt, run.seq++, d.function, 0,
                                ShardInput::kInvoke, d.originSpan,
                                d.ticket});
        } else {
            const trace::Arrival arrival = run.source.peek();
            run.source.pop();
            routeArrival(run, arrival);
        }
    }
    if (ticketing() && _deliveryIdx < _pendingDeliveries.size()) {
        // New sends may have parked out-of-order relative to the
        // undelivered backlog; one sort restores (deliverAt, sendSeq)
        // before the next window reads the front.
        std::sort(_pendingDeliveries.begin() +
                      static_cast<std::ptrdiff_t>(_deliveryIdx),
                  _pendingDeliveries.end(),
                  [](const Delivery& a, const Delivery& b) {
                      if (a.deliverAt != b.deliverAt)
                          return a.deliverAt < b.deliverAt;
                      return a.sendSeq < b.sendSeq;
                  });
    }
}

void
ShardedCluster::routeFailover(RunState& run, const FailoverItem& item)
{
    const std::size_t target = _scheduler.pick(_summaries, item.function);
    ++run.result.reroutedInvocations;
    if (_obs != nullptr) {
        _obs->counters().bump(obs::Counter::FailoverRouted,
                              item.deliverAt);
        _obs->emit(item.deliverAt, obs::EventType::FailoverRouted, 0,
                   item.function, static_cast<std::uint8_t>(target),
                   static_cast<std::uint8_t>(item.fromNode));
    }
    // The re-issued attempt keeps its ticket; the watch follows it to
    // the new node.
    if (Watch* watch = item.ticket != 0 ? watchOf(item.ticket) : nullptr) {
        if (item.ticket == watch->hedgeTicket)
            watch->hedgeNode = static_cast<std::uint32_t>(target);
        else
            watch->primaryNode = static_cast<std::uint32_t>(target);
    }
    queueInput(target, {item.deliverAt, run.seq++, item.function, 0,
                        ShardInput::kInvoke, item.originSpan,
                        item.ticket});
}

void
ShardedCluster::routeArrival(RunState& run, const trace::Arrival& arrival)
{
    ++_offeredLoad;
    std::size_t target = 0;
    bool probe = false;
    if (ticketing()) {
        // Probation trickle: the lowest-index reachable node waiting
        // on a readmission probe takes this arrival instead of the
        // normal pick.
        for (std::size_t i = 0; i < _nodes.size(); ++i) {
            if (_health->wantsProbe(i) && _summaries[i].down == 0 &&
                _summaries[i].tripped == 0 &&
                _summaries[i].severed == 0) {
                target = i;
                probe = true;
                break;
            }
        }
    }
    if (!probe)
        target = _scheduler.pick(_summaries, arrival.function);
    if (_obs != nullptr) {
        _obs->emit(arrival.time, obs::EventType::ClusterRouted, 0,
                   arrival.function, static_cast<std::uint8_t>(target));
    }
    if (!ticketing()) {
        queueInput(target, {arrival.time, run.seq++, arrival.function, 0,
                            ShardInput::kInvoke});
        return;
    }
    if (probe) {
        _health->noteProbeSent(target);
        if (_obs != nullptr) {
            _obs->counters().bump(obs::Counter::NodeProbes, arrival.time);
            _obs->emit(arrival.time, obs::EventType::NodeProbed, 0,
                       arrival.function,
                       static_cast<std::uint8_t>(target));
        }
    } else if (_health->quarantined(target)) {
        // The scheduler only lands on a quarantined node when nothing
        // else is available; with a healthy alternative up this counts
        // as a violation (chaos_check --gray pins it at zero).
        for (std::size_t i = 0; i < _nodes.size(); ++i) {
            if (_summaries[i].down == 0 && _summaries[i].tripped == 0 &&
                _summaries[i].severed == 0 &&
                _summaries[i].quarantined == 0) {
                ++_quarantineViolations;
                break;
            }
        }
    }
    Watch watch;
    watch.function = arrival.function;
    watch.arrival = arrival.time;
    watch.sentAt = arrival.time;
    watch.primaryNode = static_cast<std::uint32_t>(target);
    watch.isProbe = probe;
    const std::uint64_t ticket = openWatch(watch);
    if (probe)
        _probeTickets.emplace(ticket, static_cast<std::uint32_t>(target));
    sendInvoke(target, arrival.function, 0, ticket, arrival.time,
               run.windowEnd, run.seq);
}

void
ShardedCluster::binInputs(sim::Tick windowEnd)
{
    // One batch pass routes the whole window into per-shard bins,
    // with capacity reserved from the previous window's high-water
    // mark so steady-state windows never reallocate; the worker
    // regroups its bin by node with a single sort.
    const std::size_t shardCount = _shards.size();
    if (!_routeScratch.empty()) {
        for (Shard& shard : _shards)
            shard.bin.reserve(shard.binHighWater);
        for (const RoutedInput& r : _routeScratch) {
            _shards[r.node % shardCount].bin.push_back(r);
            _pendingInputs[r.node] = 0;
        }
        for (Shard& shard : _shards) {
            shard.binHighWater =
                std::max(shard.binHighWater, shard.bin.size());
        }
        _routeScratch.clear();
    }
    // Shards with no input and no due node events would only run
    // every node's idle fast path; skip them wholesale. The test knob
    // forces full participation so identity tests exercise the
    // no-skip path.
    _activeShards.clear();
    for (std::size_t s = 0; s < shardCount; ++s) {
        if (_sharded.fullSummaryCapture || !_shards[s].bin.empty() ||
            _shards[s].nextEventAt < windowEnd)
            _activeShards.push_back(s);
    }
}

void
ShardedCluster::mergeSummaries()
{
    // Patch the coordinator's table in place from the entries the
    // workers flagged dirty, preserving the coordinator-owned flags
    // (tripped, severed, quarantined) that nodes never track —
    // refreshBreakers, applyPartitions, and emitHealthTransitions keep
    // those current themselves.
    for (Shard& shard : _shards) {
        for (const auto& [index, fresh] : shard.summaryScratch) {
            NodeSummary& slot = _summaries[index];
            const std::uint8_t tripped = slot.tripped;
            const std::uint8_t severed = slot.severed;
            const std::uint8_t quarantined = slot.quarantined;
            slot = fresh;
            slot.tripped = tripped;
            slot.severed = severed;
            slot.quarantined = quarantined;
        }
        shard.summaryScratch.clear();
    }
}

void
ShardedCluster::mergeOutcomes(RunState& run)
{
    // Crash log: merged by (tick, node), independent of which shard
    // observed what.
    run.crashed.clear();
    for (Shard& shard : _shards) {
        run.crashed.insert(run.crashed.end(), shard.crashLog.begin(),
                           shard.crashLog.end());
        shard.crashLog.clear();
    }
    std::sort(run.crashed.begin(), run.crashed.end(),
              [](const CrashRecord& a, const CrashRecord& b) {
                  return a.at != b.at ? a.at < b.at : a.node < b.node;
              });
    for (const CrashRecord& record : run.crashed) {
        ++run.result.nodeCrashes;
        if (_obs != nullptr) {
            _obs->counters().bump(obs::Counter::NodeCrashes, record.at);
            _obs->emit(record.at, obs::EventType::NodeCrashed, 0, 0,
                       static_cast<std::uint8_t>(record.node), 0,
                       sim::toSeconds(record.downUntil - record.at),
                       static_cast<double>(record.lost));
        }
    }
    // Outboxes: displaced work queues for re-routing, ordered by
    // (crash tick, node, position) — again partition-independent.
    std::vector<FailoverItem>& pending = run.pendingFailover;
    pending.erase(pending.begin(),
                  pending.begin() + static_cast<std::ptrdiff_t>(run.failIdx));
    run.failIdx = 0;
    bool grew = false;
    for (Shard& shard : _shards) {
        if (!shard.outbox.empty()) {
            pending.insert(pending.end(), shard.outbox.begin(),
                           shard.outbox.end());
            shard.outbox.clear();
            grew = true;
        }
    }
    if (grew) {
        std::sort(pending.begin(), pending.end(),
                  [](const FailoverItem& a, const FailoverItem& b) {
                      if (a.deliverAt != b.deliverAt)
                          return a.deliverAt < b.deliverAt;
                      if (a.crashAt != b.crashAt)
                          return a.crashAt < b.crashAt;
                      if (a.fromNode != b.fromNode)
                          return a.fromNode < b.fromNode;
                      return a.index < b.index;
                  });
    }
    if (ticketing()) {
        _pendingDeliveries.erase(
            _pendingDeliveries.begin(),
            _pendingDeliveries.begin() +
                static_cast<std::ptrdiff_t>(_deliveryIdx));
        _deliveryIdx = 0;
        processOutcomes(run.windowEnd, run.seq, run.result);
    }
}

void
ShardedCluster::settleAfterDrain(RunState& run)
{
    if (ticketing()) {
        // The drain turned every live ticket terminal (completed,
        // failed, or stranded-shed); one final sweep settles the
        // remaining hedge pairs. Cancels it would issue have no window
        // left to run in — their losers are already terminal in this
        // same batch — so drop the dead inbox inputs.
        processOutcomes(run.lastBarrier, run.seq, run.result);
        _routeScratch.clear();
        std::fill(_pendingInputs.begin(), _pendingInputs.end(), 0);
        emitDegradedEvents(kNever);
        emitHealthTransitions();
    }
    if (_recovery != nullptr) {
        // Close every in-flight episode so the recovery conservation
        // identities hold however the horizon cut the schedule.
        _recovery->finishPending(run.lastBarrier);
        _recovery->report(run.result);
        run.result.retriesFeedback = _retriesFeedback;
    }
}

void
ShardedCluster::assemble(RunState& run)
{
    ClusterResult& result = run.result;
    // Fleet latency sketch: one QuantileSketch per node, merged in
    // node-index order. The bucket-wise merge is commutative and
    // associative, so the result is shard-count independent.
    stats::QuantileSketch e2eSketch;
    for (const auto& node : _nodes) {
        const auto& metrics = node->metrics();
        stats::QuantileSketch nodeSketch;
        for (const auto& record : metrics.records())
            nodeSketch.add(sim::toSeconds(record.endToEnd));
        e2eSketch.merge(nodeSketch);
        result.invocations += metrics.total();
        result.coldStarts += metrics.countOf(platform::StartupType::Cold);
        result.totalStartupSeconds += metrics.totalStartupSeconds();
        result.totalWasteMbSeconds +=
            node->pool().wasteLog().totalWasteMbSeconds();
        result.strandedInvocations += node->strandedInvocations();
        result.perNodeInvocations.push_back(metrics.total());
        result.failedInvocations += node->invoker().failedInvocations();
        result.rejectedInvocations +=
            node->invoker().rejectedInvocations();
        result.shedDeadline += node->invoker().shedDeadlineCount();
        result.shedPressure += node->invoker().shedPressureCount();
        result.admittedInvocations +=
            node->invoker().admittedInvocations();
        result.engineEvents += node->engine().executedEvents();
        result.cancelledInvocations += node->cancelledInvocations();
        // Recovery prewarms (all zero without a domain plan).
        result.prewarmLayers += node->recoveryPrewarmsIssued();
        result.prewarmHit += node->pool().recoveryPrewarmHits();
        result.prewarmEvicted += node->pool().recoveryPrewarmEvicted();
        result.prewarmWasted += node->pool().recoveryPrewarmWasted();
        result.prewarmWastedMb += node->pool().recoveryPrewarmWastedMb();
    }
    for (const auto& breaker : _breakers)
        result.breakerOpens += breaker.openCount();
    if (result.invocations > 0) {
        result.meanStartupSeconds = result.totalStartupSeconds /
            static_cast<double>(result.invocations);
    }
    if (e2eSketch.count() > 0) {
        result.e2eP50Seconds = e2eSketch.median();
        result.e2eP99Seconds = e2eSketch.p99();
    }
    if (ticketing()) {
        // Under hedging the node-level sketch double-counts duplicate
        // attempts; the request-level sketch (winner per ticket) is
        // the meaningful latency distribution, so it supplies the
        // percentiles instead.
        if (_requestSketch.count() > 0) {
            result.e2eP50Seconds = _requestSketch.median();
            result.e2eP99Seconds = _requestSketch.p99();
            result.e2eP999Seconds = _requestSketch.quantile(0.999);
        }
        if (_recoverySketch.count() > 0) {
            result.recoveryP99Seconds = _recoverySketch.p99();
            result.recoveryP999Seconds = _recoverySketch.quantile(0.999);
        }
        if (_health != nullptr) {
            result.quarantines = _health->quarantines();
            result.probes = _health->probes();
            result.readmits = _health->readmits();
        }
        result.msgsDelayed = _msgsDelayed;
        result.msgsDropped = _msgsDropped;
        result.quarantineViolations = _quarantineViolations;
    }
    // Merge the per-node span buffers into the routing observer. Span
    // identities embed (node, local seq), and absorbSpans sorts on
    // (invocation, id), so the merged dump is byte-identical at any
    // --shards / thread count.
    if (!_nodeObservers.empty()) {
        std::vector<obs::Span> all;
        std::uint64_t dropped = 0;
        for (auto& nodeObs : _nodeObservers) {
            const auto& spans = nodeObs->spans();
            all.insert(all.end(), spans.begin(), spans.end());
            dropped += nodeObs->droppedSpans();
        }
        _obs->absorbSpans(std::move(all), dropped, run.horizon);
    }
    if (run.timing) {
        result.coordinatorDrainNs = run.coordNs;
        result.routeNs = run.routedNs;
        result.summaryCaptureNs = run.summaryNs;
        result.parallelNs = run.parallelNs;
        if (run.coordNs + run.parallelNs > 0) {
            result.serialFraction =
                static_cast<double>(run.coordNs) /
                static_cast<double>(run.coordNs + run.parallelNs);
        }
        if (_obs != nullptr) {
            obs::Registry& counters = _obs->counters();
            counters.gaugeMax(obs::Gauge::CoordinatorDrainNs,
                              static_cast<double>(run.coordNs));
            counters.gaugeMax(obs::Gauge::RouteNs,
                              static_cast<double>(run.routedNs));
            counters.gaugeMax(obs::Gauge::SummaryCaptureNs,
                              static_cast<double>(run.summaryNs));
        }
    }
}

// ---- gray network / tail tolerance (coordinator only) ------------------

void
ShardedCluster::sendInvoke(std::size_t node, workload::FunctionId function,
                           std::uint64_t originSpan, std::uint64_t ticket,
                           sim::Tick sendAt, sim::Tick windowEnd,
                           std::uint64_t& seq)
{
    const fault::NetworkSampler::Delivery link = _netSampler->sample();
    if (link.delay > 0) {
        ++_msgsDelayed;
        if (_obs != nullptr) {
            _obs->counters().bump(obs::Counter::MsgsDelayed, sendAt);
            _obs->emit(sendAt, obs::EventType::MsgDelayed, 0, function,
                       static_cast<std::uint8_t>(node), 0,
                       sim::toSeconds(link.delay));
        }
    }
    if (link.drops > 0) {
        _msgsDropped += link.drops;
        if (_obs != nullptr) {
            _obs->counters().bump(obs::Counter::MsgsDropped, sendAt,
                                  link.drops);
            _obs->emit(sendAt, obs::EventType::MsgDropped, 0, function,
                       static_cast<std::uint8_t>(node),
                       static_cast<std::uint8_t>(
                           std::min<std::uint32_t>(link.drops, 255)),
                       sim::toSeconds(link.delay));
        }
    }
    const sim::Tick deliverAt = sendAt + link.delay;
    if (deliverAt < windowEnd) {
        queueInput(node, {deliverAt, seq++, function, 0,
                          ShardInput::kInvoke, originSpan, ticket});
    } else {
        // Crosses the barrier: park it; nextWakeUp and route() pick
        // it up in (deliverAt, sendSeq) order.
        _pendingDeliveries.push_back(
            {deliverAt, seq++, static_cast<std::uint32_t>(node), function,
             originSpan, ticket});
    }
}

void
ShardedCluster::applyPartitions(sim::Tick windowStart, sim::Tick windowEnd,
                                ClusterResult& result)
{
    for (auto it = _activePartitions.begin();
         it != _activePartitions.end();) {
        const fault::PartitionEvent& ev = _partitions[*it];
        if (ev.end <= windowStart) {
            for (const std::uint32_t n : ev.nodes)
                _summaries[n].severed = 0;
            if (_obs != nullptr) {
                _obs->emit(ev.end, obs::EventType::PartitionEnd, 0,
                           0xffffffffU,
                           static_cast<std::uint8_t>(ev.nodes.size()));
            }
            it = _activePartitions.erase(it);
        } else {
            ++it;
        }
    }
    while (_partitionIdx < _partitions.size() &&
           _partitions[_partitionIdx].start < windowEnd) {
        const fault::PartitionEvent& ev = _partitions[_partitionIdx];
        for (const std::uint32_t n : ev.nodes)
            _summaries[n].severed = 1;
        ++result.partitions;
        if (_obs != nullptr) {
            _obs->counters().bump(obs::Counter::PartitionsStarted,
                                  ev.start);
            _obs->emit(ev.start, obs::EventType::PartitionStart, 0,
                       0xffffffffU,
                       static_cast<std::uint8_t>(ev.nodes.size()), 0,
                       sim::toSeconds(ev.end - ev.start));
        }
        _activePartitions.push_back(_partitionIdx);
        ++_partitionIdx;
    }
}

void
ShardedCluster::emitDegradedEvents(sim::Tick end)
{
    while (_degradedEmitted < _degradedSchedule.size() &&
           _degradedSchedule[_degradedEmitted].start < end) {
        const fault::DegradedWindow& w =
            _degradedSchedule[_degradedEmitted++];
        if (_obs != nullptr) {
            _obs->emit(w.start, obs::EventType::NodeDegraded, 0,
                       0xffffffffU, static_cast<std::uint8_t>(w.node), 0,
                       sim::toSeconds(w.end - w.start), w.execFactor);
        }
    }
}

void
ShardedCluster::emitHealthTransitions()
{
    if (_health == nullptr)
        return;
    for (const NodeHealthTracker::Transition& tr :
         _health->drainTransitions()) {
        // The summary table tracks quarantine by transition delta:
        // workers never see the flag, and the delta merge preserves
        // it, so patching here (every state change logs a transition)
        // replaces the old full-fleet re-sync each window.
        _summaries[tr.node].quarantined =
            tr.to != NodeHealthTracker::State::Healthy ? 1 : 0;
        if (_obs == nullptr)
            continue;
        using State = NodeHealthTracker::State;
        if (tr.to == State::Quarantined) {
            _obs->counters().bump(obs::Counter::NodeQuarantines, tr.at);
            _obs->emit(tr.at, obs::EventType::NodeQuarantined, 0,
                       0xffffffffU, static_cast<std::uint8_t>(tr.node),
                       static_cast<std::uint8_t>(tr.from),
                       static_cast<double>(tr.node),
                       _health->ewma(tr.node));
        } else if (tr.to == State::Healthy) {
            _obs->counters().bump(obs::Counter::NodeReadmits, tr.at);
            _obs->emit(tr.at, obs::EventType::NodeReadmitted, 0,
                       0xffffffffU, static_cast<std::uint8_t>(tr.node), 0,
                       static_cast<double>(tr.node));
        }
        // Quarantined -> Probation flips silently; the NodeProbed
        // events that follow tell the story.
    }
}

sim::Tick
ShardedCluster::hedgeDeadline(const Watch& watch) const
{
    if (watch.resolved || watch.hedgeTicket != 0 || watch.isProbe ||
        watch.primaryDone)
        return kNever;
    const stats::QuantileSketch& sketch = _functionSketches[watch.function];
    if (sketch.count() < _net->hedgeMinSamples)
        return kNever;
    const double budgetSeconds =
        std::max(sketch.p99() * _net->hedgeLatencyFactor,
                 _net->hedgeMinBudgetMs / 1000.0);
    return watch.sentAt + sim::fromSeconds(budgetSeconds);
}

std::uint64_t
ShardedCluster::openWatch(Watch watch)
{
    const std::uint64_t ticket = _nextTicket++;
    watch.primaryTicket = ticket;
    _watches.emplace(ticket, watch);
    _ticketToPrimary.emplace(ticket, ticket);
    return ticket;
}

void
ShardedCluster::launchHedges(sim::Tick now, sim::Tick windowEnd,
                             std::uint64_t& seq, ClusterResult& result)
{
    if (!_net->hedgeEnabled)
        return;
    // _watches is ordered by primary ticket = issue order, so the scan
    // order (and thus the sampler draw order in sendInvoke) is a pure
    // function of coordinator state.
    for (auto& [primaryTicket, watch] : _watches) {
        if (now < hedgeDeadline(watch))
            continue;
        const std::size_t target = _scheduler.pickAvoiding(
            _summaries, watch.function, watch.primaryNode);
        // pickAvoiding falls back to the primary when nothing else is
        // reachable; hedging onto the same node (or a straggler) is
        // worse than waiting, so skip and re-try next barrier.
        if (target == watch.primaryNode || _health->quarantined(target))
            continue;
        watch.hedgeTicket = _nextTicket++;
        watch.hedgeNode = static_cast<std::uint32_t>(target);
        _ticketToPrimary.emplace(watch.hedgeTicket, primaryTicket);
        ++result.hedgesLaunched;
        if (_obs != nullptr) {
            _obs->counters().bump(obs::Counter::HedgesLaunched, now);
            _obs->emit(now, obs::EventType::HedgeLaunched,
                       watch.primaryRoot, watch.function,
                       static_cast<std::uint8_t>(target),
                       static_cast<std::uint8_t>(watch.primaryNode),
                       sim::toSeconds(now - watch.sentAt));
        }
        sendInvoke(target, watch.function, watch.primaryRoot,
                   watch.hedgeTicket, now, windowEnd, seq);
    }
}

void
ShardedCluster::noteSideDone(Watch& watch, bool hedgeSide,
                             ClusterResult& result, sim::Tick at)
{
    if (hedgeSide) {
        if (watch.hedgeDone)
            return;
        watch.hedgeDone = true;
        // A hedge that turned terminal without winning is a lost
        // hedge: the speculation bought nothing.
        ++result.hedgesLost;
        if (_obs != nullptr) {
            _obs->counters().bump(obs::Counter::HedgesLost, at);
            _obs->emit(at, obs::EventType::HedgeLost, watch.primaryRoot,
                       watch.function,
                       static_cast<std::uint8_t>(watch.hedgeNode));
        }
    } else {
        watch.primaryDone = true;
    }
}

void
ShardedCluster::eraseWatchIfComplete(std::uint64_t primaryTicket)
{
    const auto it = _watches.find(primaryTicket);
    if (it == _watches.end())
        return;
    const Watch& watch = it->second;
    const bool hedgeDone =
        watch.hedgeTicket == 0 || watch.hedgeDone;
    if (!watch.primaryDone || !hedgeDone)
        return;
    _ticketToPrimary.erase(watch.primaryTicket);
    if (watch.hedgeTicket != 0)
        _ticketToPrimary.erase(watch.hedgeTicket);
    _probeTickets.erase(watch.primaryTicket);
    _watches.erase(it);
}

void
ShardedCluster::processOutcomes(sim::Tick barrier, std::uint64_t& seq,
                                ClusterResult& result)
{
    // Drain per node in node-index order, then impose the global
    // (at, ticket, kind) order — both independent of the sharding.
    // The batch lives in a member scratch vector so its capacity is
    // reused across windows.
    std::vector<TaggedOutcome>& batch = _outcomeScratch;
    batch.clear();
    for (std::size_t i = 0; i < _nodes.size(); ++i) {
        for (const platform::TicketOutcome& outcome :
             _nodes[i]->drainTicketOutcomes())
            batch.push_back({outcome, static_cast<std::uint32_t>(i)});
    }
    if (batch.empty())
        return;
    std::sort(batch.begin(), batch.end(),
              [](const TaggedOutcome& a, const TaggedOutcome& b) {
                  if (a.outcome.at != b.outcome.at)
                      return a.outcome.at < b.outcome.at;
                  if (a.outcome.ticket != b.outcome.ticket)
                      return a.outcome.ticket < b.outcome.ticket;
                  return a.outcome.kind < b.outcome.kind;
              });
    for (const TaggedOutcome& tagged : batch) {
        switch (tagged.outcome.kind) {
          case platform::TicketOutcome::kAdmitted:
            onAdmitted(tagged, barrier, seq);
            break;
          case platform::TicketOutcome::kCompleted:
            onCompleted(tagged, barrier, seq, result);
            break;
          case platform::TicketOutcome::kCancelled:
            onCancelled(tagged.outcome, result);
            break;
          default: // kFailed / kShed
            onAttemptDied(tagged.outcome, result);
            break;
        }
    }
}

ShardedCluster::Watch*
ShardedCluster::watchOf(std::uint64_t ticket)
{
    const auto it = _ticketToPrimary.find(ticket);
    return it == _ticketToPrimary.end() ? nullptr
                                        : &_watches.at(it->second);
}

void
ShardedCluster::issueCancel(std::uint32_t node, std::uint64_t ticket,
                            sim::Tick barrier, std::uint64_t& seq)
{
    queueInput(node, {barrier, seq++, workload::kInvalidFunction, 0,
                      ShardInput::kCancel, 0, ticket});
}

void
ShardedCluster::abortProbe(std::uint64_t ticket)
{
    const auto it = _probeTickets.find(ticket);
    if (it != _probeTickets.end()) {
        _health->noteProbeAborted(it->second);
        _probeTickets.erase(it);
    }
}

void
ShardedCluster::onAdmitted(const TaggedOutcome& tagged, sim::Tick barrier,
                           std::uint64_t& seq)
{
    const platform::TicketOutcome& o = tagged.outcome;
    Watch* found = watchOf(o.ticket);
    if (found == nullptr)
        return;
    Watch& watch = *found;
    const bool hedgeSide = o.ticket == watch.hedgeTicket;
    if (hedgeSide) {
        watch.hedgeAdmitted = true;
    } else {
        watch.primaryAdmitted = true;
        if (watch.primaryRoot == 0)
            watch.primaryRoot = o.rootSpan;
    }
    // The winner committed while this loser was still in flight: the
    // deferred cancel lands now that the node holds the ticket.
    const bool sideDone = hedgeSide ? watch.hedgeDone : watch.primaryDone;
    if (watch.resolved && !sideDone) {
        issueCancel(tagged.node, o.ticket, barrier, seq);
        watch.cancelIssued = true;
    }
}

void
ShardedCluster::onCompleted(const TaggedOutcome& tagged, sim::Tick barrier,
                            std::uint64_t& seq, ClusterResult& result)
{
    const platform::TicketOutcome& o = tagged.outcome;
    // Health + budget feeds see every completion, including
    // duplicates — the node really did take that long.
    if (_health != nullptr)
        _health->recordLatency(tagged.node, o.latencySeconds, o.at);
    result.totalExecSeconds += o.execSeconds;
    Watch* found = watchOf(o.ticket);
    if (found == nullptr)
        return;
    Watch& watch = *found;
    const bool hedgeSide = o.ticket == watch.hedgeTicket;
    _functionSketches[watch.function].add(o.latencySeconds);
    if (watch.resolved) {
        // Both sides completed: the cancel raced the loser's finish.
        // All of its execution is waste.
        ++result.duplicateCompletions;
        result.wastedExecSeconds += o.execSeconds;
        noteSideDone(watch, hedgeSide, result, o.at);
        eraseWatchIfComplete(watch.primaryTicket);
        return;
    }
    // First winner commits the request.
    watch.resolved = true;
    watch.e2eSeconds = sim::toSeconds(o.at - watch.arrival);
    _requestSketch.add(watch.e2eSeconds);
    if (o.at >= _recoveryFrom)
        _recoverySketch.add(watch.e2eSeconds);
    if (hedgeSide) {
        watch.hedgeDone = true;
        ++result.hedgesWon;
        if (_obs != nullptr) {
            _obs->counters().bump(obs::Counter::HedgesWon, o.at);
            _obs->emit(o.at, obs::EventType::HedgeWon, watch.primaryRoot,
                       watch.function,
                       static_cast<std::uint8_t>(tagged.node));
        }
    } else {
        watch.primaryDone = true;
    }
    // Deterministic loser cancellation. Every dispatch is always
    // delivered (messages delay, never vanish), so admitted ==
    // arrivals + rerouted + hedges_launched stays an exact identity:
    // the cancel goes to the loser's node if it has admitted, and is
    // deferred to its kAdmitted otherwise.
    const bool loserIsHedge = !hedgeSide;
    const bool loserLive =
        loserIsHedge ? (watch.hedgeTicket != 0 && !watch.hedgeDone)
                     : !watch.primaryDone;
    const bool loserAdmitted =
        loserIsHedge ? watch.hedgeAdmitted : watch.primaryAdmitted;
    if (loserLive && !watch.cancelIssued && loserAdmitted) {
        issueCancel(loserIsHedge ? watch.hedgeNode : watch.primaryNode,
                    loserIsHedge ? watch.hedgeTicket : watch.primaryTicket,
                    barrier, seq);
        watch.cancelIssued = true;
    }
    eraseWatchIfComplete(watch.primaryTicket);
}

void
ShardedCluster::onCancelled(const platform::TicketOutcome& o,
                            ClusterResult& result)
{
    result.wastedExecSeconds += o.execSeconds;
    abortProbe(o.ticket);
    Watch* found = watchOf(o.ticket);
    if (found == nullptr)
        return;
    Watch& watch = *found;
    if (o.ticket != watch.hedgeTicket) {
        watch.primaryDone = true;
    } else if (!watch.hedgeDone) {
        watch.hedgeDone = true;
        ++result.hedgesCancelled;
        if (_obs != nullptr) {
            _obs->counters().bump(obs::Counter::HedgesCancelled, o.at);
            _obs->emit(o.at, obs::EventType::HedgeCancelled,
                       watch.primaryRoot, watch.function,
                       static_cast<std::uint8_t>(watch.hedgeNode));
        }
    }
    eraseWatchIfComplete(watch.primaryTicket);
}

void
ShardedCluster::onAttemptDied(const platform::TicketOutcome& o,
                              ClusterResult& result)
{
    abortProbe(o.ticket);
    Watch* found = watchOf(o.ticket);
    if (found == nullptr)
        return;
    Watch& watch = *found;
    noteSideDone(watch, o.ticket == watch.hedgeTicket, result, o.at);
    // Every attempt is terminal and none completed: the request failed
    // at the client, which re-submits after its backoff when retry
    // feedback is armed.
    if (!watch.resolved && watch.primaryDone &&
        (watch.hedgeTicket == 0 || watch.hedgeDone))
        scheduleFeedbackRetry(watch, o.at);
    eraseWatchIfComplete(watch.primaryTicket);
}

// ---- recovery orchestration (coordinator only) --------------------------

LayerCensus
ShardedCluster::censusOf(std::size_t index) const
{
    // Count every live container at the layer it has installed (or is
    // installing toward): busy User containers are warm capital just
    // as much as idle ones — at outage time under load they are MOST
    // of the working set. Iteration is in ascending container-id
    // (creation) order and functions accumulate into a sorted map, so
    // the census is identical at any shard count.
    LayerCensus census;
    platform::Node& node = *_nodes[index];
    std::map<workload::FunctionId, std::uint32_t> users;
    for (const container::ContainerId id :
         node.pool().allContainerIds()) {
        const container::Container* c = node.pool().byId(id);
        if (c == nullptr || c->state() == container::State::Dead)
            continue;
        const workload::Layer layer =
            c->state() == container::State::Initializing
                ? c->targetLayer()
                : c->layer();
        switch (layer) {
        case workload::Layer::Bare:
            ++census.bare;
            break;
        case workload::Layer::Lang:
            if (c->language()) {
                ++census.lang[workload::languageIndex(*c->language())];
            }
            break;
        case workload::Layer::User:
            ++users[c->function()];
            break;
        case workload::Layer::None:
            break;
        }
    }
    census.user.assign(users.begin(), users.end());
    return census;
}

void
ShardedCluster::applyRecovery(sim::Tick windowStart, sim::Tick windowEnd,
                              std::uint64_t& seq)
{
    std::vector<RecoveryAction> actions;
    const int floor = _recovery->onBarrier(
        windowStart, windowEnd, _summaries, _offeredLoad,
        [this](std::size_t index) { return censusOf(index); }, actions);
    for (const RecoveryAction& action : actions) {
        if (action.kind == RecoveryAction::kCrashNode) {
            // A drain end restarts the node through the ordinary
            // crash path: warm state is torn down and anything still
            // in flight (timeout kill) fails over like a crash.
            _summaries[action.node].down = 1;
            queueInput(action.node,
                       {action.at, seq++, workload::kInvalidFunction,
                        action.downUntil, ShardInput::kCrash});
        } else {
            queueInput(action.node,
                       {action.at, seq++, action.function,
                        static_cast<sim::Tick>(
                            static_cast<std::uint8_t>(action.layer)),
                        ShardInput::kPrewarm});
        }
    }
    if (floor != _recoveryFloor) {
        _recoveryFloor = floor;
        for (auto& node : _nodes)
            node->setRecoveryPressureFloor(floor);
    }
}

void
ShardedCluster::scheduleFeedbackRetry(const Watch& watch, sim::Tick at)
{
    if (_recovery == nullptr)
        return;
    const fault::DomainPlan& plan = _config.node.fault.domain;
    if (!plan.retryFeedbackEnabled || watch.isProbe ||
        watch.feedbackAttempt >= plan.retryMaxAttempts)
        return;
    const sim::Tick backoff = std::max<sim::Tick>(
        1, sim::fromSeconds(plan.retryBackoffSeconds));
    _feedbackQueue.push_back(
        {at + backoff, _feedbackSeq++, watch.function,
         watch.feedbackAttempt + 1});
}

void
ShardedCluster::drainFeedbackRetries(sim::Tick windowEnd,
                                     std::uint64_t& seq)
{
    if (_feedbackIdx >= _feedbackQueue.size())
        return;
    // Outcomes drain in (at, ...) order with a constant backoff, so
    // the tail is already sorted; the sort is a cheap invariant guard
    // (its (at, seq) key is a total order, so it cannot perturb
    // determinism either way).
    std::sort(_feedbackQueue.begin() +
                  static_cast<std::ptrdiff_t>(_feedbackIdx),
              _feedbackQueue.end(),
              [](const FeedbackRetry& a, const FeedbackRetry& b) {
                  return a.at != b.at ? a.at < b.at : a.seq < b.seq;
              });
    while (_feedbackIdx < _feedbackQueue.size() &&
           _feedbackQueue[_feedbackIdx].at < windowEnd) {
        const FeedbackRetry retry = _feedbackQueue[_feedbackIdx++];
        const std::size_t target =
            _scheduler.pick(_summaries, retry.function);
        ++_retriesFeedback;
        ++_offeredLoad;
        if (_obs != nullptr) {
            _obs->counters().bump(obs::Counter::RecoveryRetries,
                                  retry.at);
            _obs->emit(retry.at, obs::EventType::RecoveryRetry, 0,
                       retry.function,
                       static_cast<std::uint8_t>(target),
                       static_cast<std::uint8_t>(
                           std::min<std::uint32_t>(retry.attempt, 255)));
        }
        Watch watch;
        watch.function = retry.function;
        watch.arrival = retry.at;
        watch.sentAt = retry.at;
        watch.primaryNode = static_cast<std::uint32_t>(target);
        watch.feedbackAttempt = retry.attempt;
        const std::uint64_t ticket = openWatch(watch);
        sendInvoke(target, retry.function, 0, ticket, retry.at,
                   windowEnd, seq);
    }
    if (_feedbackIdx == _feedbackQueue.size()) {
        _feedbackQueue.clear();
        _feedbackIdx = 0;
    }
}

} // namespace rc::cluster
