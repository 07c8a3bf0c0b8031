#include "cluster/sharded_cluster.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <utility>

#ifdef __linux__
#include <sched.h>
#endif

#include "sim/logging.hh"
#include "sim/shard_executor.hh"

namespace rc::cluster {

namespace {

/**
 * Summaries are refreshed at least this often while input remains,
 * even across windows with no arrivals (a whole number of barrier
 * windows). Bounds routing staleness on sparse traces.
 */
constexpr sim::Tick kMaxSummaryStaleness = sim::kSecond;
static_assert(kMaxSummaryStaleness % ShardedCluster::kBarrierPitch == 0);

} // namespace

std::size_t
usableCpus()
{
#ifdef __linux__
    cpu_set_t mask;
    if (sched_getaffinity(0, sizeof(mask), &mask) == 0)
        return static_cast<std::size_t>(std::max(1, CPU_COUNT(&mask)));
#endif
    return std::max(1u, std::thread::hardware_concurrency());
}

ShardedCluster::ShardedCluster(const workload::Catalog& catalog,
                               const PolicyFactory& factory,
                               ClusterConfig config, ShardedConfig sharded)
    : _catalog(catalog), _config(config), _sharded(sharded),
      _scheduler(config.scheduling, catalog), _summaries(config.nodes)
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

    // Round-robin node -> shard assignment balances load; the mapping
    // never influences results (see header), only wall-clock.
    const std::size_t shards =
        std::max<std::size_t>(1, std::min(_sharded.shards, _nodes.size()));
    _shards.resize(shards);
    for (std::size_t i = 0; i < _nodes.size(); ++i)
        _shards[i % shards].nodes.push_back(i);
    _threads = std::min({_sharded.threads > 0 ? _sharded.threads : shards,
                         shards, usableCpus()});

    _summaryStamps.assign(_nodes.size(), 0);
    _seenFailures.assign(_nodes.size(), 0);
    _seenSuccesses.assign(_nodes.size(), 0);
    _seenTransitions.assign(_nodes.size(), 0);

    // Gray-failure network model + tail-tolerant dispatch. The request
    // tracker is built when either the network plan or the domain plan
    // is active (recovery orchestration and retry feedback track
    // requests end-to-end just like hedging does); the net-only
    // machinery — link sampling, hedges, partitions, quarantine —
    // stays gated on the network plan. A zero-knob fault plan builds
    // none of this, draws nothing, and stays bit-identical to an
    // unplanned run.
    const fault::FaultPlan& plan = _config.node.fault;
    if (plan.network.active() || plan.domain.active()) {
        _health = std::make_unique<NodeHealthTracker>(plan.network,
                                                      _nodes.size());
        _requests = std::make_unique<RequestTracker>(plan, _catalog.size(),
                                                     *_health, _obs);
    }
}

void
ShardedCluster::runShardWindow(Shard& shard, sim::Tick windowEnd)
{
    // The coordinator appends the bin per stream (failover, arrivals,
    // crashes), so inputs interleave; one sort groups the bin by node
    // and restores the global (tick, kind, seq) drain order within
    // each node. Node states are disjoint, so the order in which the
    // shard visits its nodes never matters.
    std::sort(shard.bin.begin(), shard.bin.end(),
              [](const RoutedInput& a, const RoutedInput& b) {
                  if (a.node != b.node)
                      return a.node < b.node;
                  return shardInputBefore(a.input, b.input);
              });
    const std::span<const RoutedInput> bin(shard.bin);
    for (std::size_t begin = 0, end = 0; begin < bin.size(); begin = end) {
        while (end < bin.size() && bin[end].node == bin[begin].node)
            ++end;
        visitNode(shard, bin[begin].node, bin.subspan(begin, end - begin),
                  windowEnd);
    }
    // A visit leaves the node's next event at or past the barrier, so
    // this pops each due node once and stops at the first idle one.
    while (shard.wake.top() < windowEnd)
        visitNode(shard, shard.nodes[shard.wake.topEntry()], {}, windowEnd);
    // The test knob visits and captures every node (a node visited
    // above only re-captures: it already stands at the barrier).
    if (_sharded.fullSummaryCapture) {
        for (const std::size_t index : shard.nodes)
            visitNode(shard, index, {}, windowEnd);
    }
    shard.bin.clear();
}

void
ShardedCluster::visitNode(Shard& shard, std::size_t index,
                          std::span<const RoutedInput> inputs,
                          sim::Tick windowEnd)
{
    platform::Node& node = *_nodes[index];
    for (const RoutedInput& routed : inputs) {
        const ShardInput& input = routed.input;
        node.advanceTo(input.tick);
        if (input.kind == ShardInput::kCrash) {
            const auto lost = node.crashNow(input.downUntil);
            shard.crashLog.push_back(
                {{input.tick, index, input.downUntil},
                 static_cast<std::uint32_t>(lost.size())});
            // Displaced work re-enters one failover hop after the
            // crash; the hop is at least the pitch, so delivery never
            // lands inside this window.
            std::uint32_t i = 0;
            for (const auto& ticket : lost) {
                shard.outbox.push_back(
                    {input.tick + kFailoverHop,
                     input.tick, static_cast<std::uint32_t>(index), i++,
                     ticket.function, ticket.originSpan, ticket.ticket});
            }
        } else if (input.kind == ShardInput::kInvoke) {
            node.invokeNow(input.function, input.originSpan, input.ticket);
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
    // Windows are half-open: drain everything strictly before the
    // barrier.
    node.advanceTo(windowEnd - 1);
    // Delta capture: publish the summary only when the node's change
    // stamp moved since the last capture. An untouched node's report
    // is what its row already holds, bar placements modelled for work
    // that has not reached it (a send parked on the gray network;
    // DESIGN.md §15).
    const std::uint64_t stamp = node.summaryStamp();
    if (stamp != _summaryStamps[index] || _sharded.fullSummaryCapture) {
        _summaryStamps[index] = stamp;
        shard.summaryScratch.emplace_back(static_cast<std::uint32_t>(index),
                                          captureSummary(node));
    }
    // Node i is entry i / shards of shard i % shards.
    shard.wake.update(static_cast<std::uint32_t>(index / _shards.size()),
                      node.engine().nextEventAt());
}

void
ShardedCluster::WakeIndex::reset(std::size_t nodes)
{
    _heap.clear();
    _slot.clear();
    for (std::uint32_t k = 0; k < nodes; ++k) {
        _heap.emplace_back(kNever, k);
        _slot.push_back(k);
    }
}

void
ShardedCluster::WakeIndex::update(std::uint32_t local, sim::Tick tick)
{
    std::size_t slot = _slot[local];
    const std::pair<sim::Tick, std::uint32_t> entry{tick, local};
    // Sift up while the parent is later, else down while a child is
    // earlier; (tick, entry) is a total order.
    while (slot > 0 && entry < _heap[(slot - 1) / 2]) {
        place(slot, _heap[(slot - 1) / 2]);
        slot = (slot - 1) / 2;
    }
    while (true) {
        std::size_t child = 2 * slot + 1;
        if (child >= _heap.size())
            break;
        if (child + 1 < _heap.size() && _heap[child + 1] < _heap[child])
            ++child;
        if (!(_heap[child] < entry))
            break;
        place(slot, _heap[child]);
        slot = child;
    }
    place(slot, entry);
}

void
ShardedCluster::WakeIndex::place(std::size_t slot,
                                 std::pair<sim::Tick, std::uint32_t> e)
{
    _heap[slot] = e;
    _slot[e.second] = static_cast<std::uint32_t>(slot);
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
        _summaries.setHold(i, SummaryTable::kTripped, !breaker.allows(now));
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

    sim::ShardExecutor executor(_threads, run.timing);
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
        run.windowStart = std::min(wake / kBarrierPitch * kBarrierPitch,
                                   run.lastBarrier + kMaxSummaryStaleness);
        run.windowEnd = run.windowStart + kBarrierPitch;
        ++run.result.windows;

        // ---- coordinator phase (single-threaded) --------------------
        preRoute(run);
        const std::uint64_t tRoute = run.clock();
        route(run);
        binInputs(run.windowEnd);
        run.result.routeNs += run.clock() - tRoute;

        // ---- parallel phase -----------------------------------------
        const std::uint64_t tParallel = run.clock();
        run.result.coordinatorDrainNs += tParallel - tWindow;
        if (!_activeShards.empty())
            executor.runRound(_activeShards.size(), shardRound);
        const std::uint64_t tMerge = run.clock();
        run.result.parallelNs += tMerge - tParallel;

        // ---- merge phase (single-threaded, sort-once) ---------------
        mergeSummaries();
        run.result.summaryCaptureNs += run.clock() - tMerge;
        mergeOutcomes(run);
        run.lastBarrier = run.windowEnd;
        run.result.coordinatorDrainNs += run.clock() - tMerge;
    }

    // Drain: no cross-shard input remains, so every node can run to
    // completion and flush independently, each from the last barrier
    // (an idle node's clock stopped at its last visit, and finalize()
    // closes open idle intervals at the node's clock).
    const std::uint64_t tDrain = run.clock();
    executor.runRound(_shards.size(), [this, &run](std::size_t s) {
        for (const std::size_t index : _shards[s].nodes) {
            platform::Node& node = *_nodes[index];
            node.advanceTo(run.lastBarrier - 1);
            node.engine().run();
            node.finalize();
        }
    });
    run.result.parallelNs += run.clock() - tDrain;
    run.result.barrierWaitNs = executor.waitNs();

    settleAfterDrain(run);
    assemble(run);
    return std::move(run.result);
}

void
ShardedCluster::arm(RunState& run)
{
    run.result.schedulingName = toString(_config.scheduling);
    if (_obs != nullptr)
        run.firstEvent = _obs->events().size();
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
            _requests->setRecoveryFrom(outageCrashes.front().at);
            run.crashes.insert(run.crashes.end(), outageCrashes.begin(),
                               outageCrashes.end());
            std::stable_sort(run.crashes.begin(), run.crashes.end());
        }
    }
    if (ticketing()) {
        _gray = std::make_unique<GrayNetwork>(
            plan.network, _config.node.seed, _nodes.size(), horizon, _obs);
        std::vector<std::vector<platform::DegradedSpan>> perNode(
            _nodes.size());
        for (const auto& w : _gray->degradedWindows()) {
            perNode[w.node].push_back(
                {w.start, w.end, w.execFactor, w.initFactor});
        }
        for (std::size_t i = 0; i < _nodes.size(); ++i)
            _nodes[i]->setDegradedWindows(std::move(perNode[i]));
    }

    for (std::size_t i = 0; i < _nodes.size(); ++i) {
        _summaries.report(i, captureSummary(*_nodes[i]));
        _summaryStamps[i] = _nodes[i]->summaryStamp();
    }
    for (Shard& shard : _shards) {
        shard.wake.reset(shard.nodes.size());
        for (std::uint32_t k = 0; k < shard.nodes.size(); ++k) {
            shard.wake.update(k,
                              _nodes[shard.nodes[k]]->engine().nextEventAt());
        }
    }
}

sim::Tick
ShardedCluster::nextWakeUp(const RunState& run) const
{
    const std::array<sim::Tick, 4> due = inputsDue(run);
    sim::Tick next = *std::min_element(due.begin(), due.end());
    bool nodeProgress = false;
    if (ticketing()) {
        // Partition flips, retry feedback and outstanding ticket
        // watches (hedge deadlines, pending cancels) keep the barrier
        // grid stepping even with no routable input left.
        next = std::min({next, _gray->nextPartitionFlipAt(kBarrierPitch),
                         _requests->nextActionAt(run.lastBarrier)});
        // With a watch open, wake at the next instant the coordinator
        // can act on it: a queued cancel input (pushed at the last
        // barrier), the next node event (the earliest a new ticket
        // outcome can surface), or the earliest hedge deadline. All
        // three read per-node / coordinator state only, so the barrier
        // schedule — and with it hedge timing — is identical at any
        // shard count.
        nodeProgress = !_requests->idle();
    }
    if (_recovery != nullptr) {
        // Recovery deadlines gate on windowStart >= deadline, so
        // propose the grid point at-or-after them (the same trap as
        // partition ends).
        const sim::Tick recoveryAt = _recovery->nextActionAt();
        if (recoveryAt != kNever)
            next = std::min(next, alignToBarrier(recoveryAt, kBarrierPitch));
        // Draining and warming complete through node-local events
        // (executions finishing, prewarm inits); keep barriers
        // stepping with them so the FSM observes progress promptly.
        if (_recovery->needsNodeProgress())
            nodeProgress = true;
    }
    if (nodeProgress) {
        // A node acts at its next engine event, or at the last barrier
        // when it holds queued input. After a round every node's next
        // event is at or past the last barrier, so the earliest is the
        // earliest shard minimum, or the barrier itself while input is
        // queued.
        if (!_routeScratch.empty())
            next = std::min(next, run.lastBarrier);
        for (const Shard& shard : _shards)
            next = std::min(next, shard.wake.top());
    }
    return next;
}

void
ShardedCluster::preRoute(RunState& run)
{
    refreshBreakers(run.windowStart);
    if (ticketing()) {
        _gray->applyPartitions(run.windowStart, run.windowEnd, _summaries,
                               run.result);
        _gray->emitDegradedEvents(run.windowEnd);
        _health->refresh(run.windowStart);
        emitHealthTransitions();
    }
    // Recovery FSM runs before routing (hedges, retries, arrivals) so
    // every dispatch this window sees the recovery holds; it runs
    // before the crash drain so census snapshots still read
    // pre-failure summaries.
    if (_recovery != nullptr)
        applyRecovery(run.windowStart, run.windowEnd, run.seq);
    if (ticketing()) {
        launchHedges(run);
        drainFeedbackRetries(run);
    }
}

void
ShardedCluster::route(RunState& run)
{
    // Drain the input streams due this window in one merged
    // (tick, class) order: at the same instant crashes outrank
    // failover re-issues, which outrank parked deliveries, which
    // outrank fresh arrivals.
    while (true) {
        const auto [crashAt, failAt, deliverAt, arriveAt] = inputsDue(run);
        const sim::Tick due = std::min({crashAt, failAt, deliverAt, arriveAt});
        if (due >= run.windowEnd)
            break;
        if (crashAt == due) {
            const CrashEvent& ev = run.crashes[run.crashIdx++];
            // Routing inside this window must already see the node as
            // gone; its next report re-evaluates isDown() for the
            // windows that follow.
            _summaries.markDown(ev.node);
            queueInput(ev.node,
                       {ev.at, run.seq++, workload::kInvalidFunction,
                        ev.downUntil, ShardInput::kCrash});
        } else if (failAt == due) {
            const FailoverItem item = run.failover.top();
            run.failover.pop();
            routeFailover(run, item);
        } else if (deliverAt == due) {
            // A parked invoke takes its inbox sequence when it lands.
            RoutedInput parked = _gray->popDelivery();
            parked.input.seq = run.seq++;
            queueInput(parked.node, parked.input);
        } else {
            const trace::Arrival arrival = run.source.peek();
            run.source.pop();
            routeArrival(run, arrival);
        }
    }
}

std::array<sim::Tick, 4>
ShardedCluster::inputsDue(const RunState& run) const
{
    return {run.crashIdx < run.crashes.size() ? run.crashes[run.crashIdx].at
                                              : kNever,
            run.failover.empty() ? kNever : run.failover.top().deliverAt,
            _gray != nullptr ? _gray->nextDeliveryAt() : kNever,
            run.source.done() ? kNever : run.source.peek().time};
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
    if (item.ticket != 0)
        _requests->moved(item.ticket, static_cast<std::uint32_t>(target));
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
            if (_health->wantsProbe(i) &&
                _summaries.available(i, SummaryTable::kTripped |
                                            SummaryTable::kSevered)) {
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
            if (_summaries.available(i, SummaryTable::kTripped |
                                            SummaryTable::kSevered |
                                            SummaryTable::kQuarantined)) {
                ++run.result.quarantineViolations;
                break;
            }
        }
    }
    dispatchTicketed(run, target, arrival.function, arrival.time, probe, 0);
}

void
ShardedCluster::binInputs(sim::Tick windowEnd)
{
    // One batch pass routes the whole window into per-shard bins; a
    // bin keeps its capacity across windows (the worker only clears
    // it), so steady-state windows never reallocate. The worker
    // regroups its bin by node with a single sort.
    const std::size_t shardCount = _shards.size();
    for (const RoutedInput& r : _routeScratch)
        _shards[r.node % shardCount].bin.push_back(r);
    _routeScratch.clear();
    // Shards with no input and no due node events would visit no
    // node; skip them wholesale. The test knob forces full
    // participation so identity tests exercise the no-skip path.
    _activeShards.clear();
    for (std::size_t s = 0; s < shardCount; ++s) {
        if (_sharded.fullSummaryCapture || !_shards[s].bin.empty() ||
            _shards[s].wake.top() < windowEnd)
            _activeShards.push_back(s);
    }
}

void
ShardedCluster::mergeSummaries()
{
    // The entries the workers flagged dirty; a report keeps the
    // coordinator's holds, which their owners keep current.
    for (Shard& shard : _shards) {
        for (const auto& [index, fresh] : shard.summaryScratch)
            _summaries.report(index, fresh);
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
    std::sort(run.crashed.begin(), run.crashed.end());
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
    // Outboxes: displaced work queues for re-routing; the heap keeps
    // it in (deliverAt, crash tick, node, position) order — again
    // partition-independent.
    for (Shard& shard : _shards) {
        for (const FailoverItem& item : shard.outbox)
            run.failover.push(item);
        shard.outbox.clear();
    }
    if (ticketing())
        settleOutcomes(run, run.windowEnd);
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
        settleOutcomes(run, run.lastBarrier);
        _routeScratch.clear();
        _gray->emitDegradedEvents(kNever);
        emitHealthTransitions();
    }
    if (_recovery != nullptr) {
        // Close every in-flight episode so the recovery conservation
        // identities hold however the horizon cut the schedule.
        _recovery->finishPending(run.lastBarrier);
        _recovery->report(run.result);
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
        _requests->report(result);
        _gray->report(result);
        result.quarantines = _health->quarantines();
        result.probes = _health->probes();
        result.readmits = _health->readmits();
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
    // The coordinator emits a window's events phase by phase (a crash
    // merged after the round lands behind later routing instants), so
    // put this run's events in tick order.
    if (_obs != nullptr)
        _obs->sortEventsByTick(run.firstEvent);
    if (run.timing) {
        const std::uint64_t coordNs = result.coordinatorDrainNs;
        const std::uint64_t busyNs =
            coordNs + result.parallelNs - result.barrierWaitNs;
        if (busyNs > 0) {
            result.serialFraction = static_cast<double>(coordNs) /
                                    static_cast<double>(busyNs);
        }
        if (_obs != nullptr) {
            obs::Registry& counters = _obs->counters();
            counters.gaugeMax(obs::Gauge::CoordinatorDrainNs,
                              static_cast<double>(coordNs));
            counters.gaugeMax(obs::Gauge::RouteNs,
                              static_cast<double>(result.routeNs));
            counters.gaugeMax(obs::Gauge::SummaryCaptureNs,
                              static_cast<double>(result.summaryCaptureNs));
        }
    }
}

// ---- ticketed dispatch (coordinator only) -------------------------------

void
ShardedCluster::dispatchTicketed(RunState& run, std::size_t node,
                                 workload::FunctionId function, sim::Tick at,
                                 bool probe, std::uint32_t feedbackAttempt)
{
    const std::uint64_t ticket =
        _requests->open(function, at, static_cast<std::uint32_t>(node),
                        probe, feedbackAttempt);
    send(run, node, function, 0, ticket, at);
}

void
ShardedCluster::send(RunState& run, std::size_t node,
                     workload::FunctionId function, std::uint64_t originSpan,
                     std::uint64_t ticket, sim::Tick at)
{
    const ShardInput invoke{at, run.seq++, function, 0, ShardInput::kInvoke,
                            originSpan, ticket};
    if (const auto due = _gray->send(
            {invoke, static_cast<std::uint32_t>(node)}, run.windowEnd))
        queueInput(node, due->input);
}

void
ShardedCluster::launchHedges(RunState& run)
{
    // Due hedges come in primary-ticket (issue) order, so the pick and
    // sampler draw order is a pure function of coordinator state.
    const sim::Tick now = run.windowStart;
    for (const RequestTracker::DueHedge& due : _requests->dueHedges(now)) {
        const std::size_t target =
            _scheduler.pick(_summaries, due.function, due.primaryNode);
        // The pick falls back to the primary when nothing else is
        // reachable; hedging onto the same node (or a straggler) is
        // worse than waiting, so skip and re-try next barrier.
        if (target == due.primaryNode || _health->quarantined(target))
            continue;
        const std::uint64_t ticket = _requests->launchHedge(
            due.primaryTicket, static_cast<std::uint32_t>(target), now,
            run.result);
        send(run, target, due.function, due.rootSpan, ticket, now);
    }
}

void
ShardedCluster::settleOutcomes(RunState& run, sim::Tick barrier)
{
    // Drain per node in node-index order; the tracker imposes the
    // global (at, ticket, kind) order — both independent of the
    // sharding.
    _outcomeScratch.clear();
    for (std::size_t i = 0; i < _nodes.size(); ++i) {
        for (const platform::TicketOutcome& outcome :
             _nodes[i]->drainTicketOutcomes())
            _outcomeScratch.push_back(
                {outcome, static_cast<std::uint32_t>(i)});
    }
    // A loser may live on any shard, so its cancel routes like any
    // input, at the barrier.
    for (const RequestTracker::Cancel& cancel :
         _requests->settle(_outcomeScratch, run.result)) {
        queueInput(cancel.node, {barrier, run.seq++,
                                 workload::kInvalidFunction, 0,
                                 ShardInput::kCancel, 0, cancel.ticket});
    }
}

void
ShardedCluster::emitHealthTransitions()
{
    for (const NodeHealthTracker::Transition& tr :
         _health->drainTransitions()) {
        // The quarantine hold follows the transition log: every
        // state change logs a transition, and a report keeps the hold.
        _summaries.setHold(tr.node, SummaryTable::kQuarantined,
                           tr.to != NodeHealthTracker::State::Healthy);
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

void
ShardedCluster::drainFeedbackRetries(RunState& run)
{
    while (const auto retry = _requests->popRetry(run.windowEnd)) {
        const std::size_t target =
            _scheduler.pick(_summaries, retry->function);
        ++run.result.retriesFeedback;
        ++_offeredLoad;
        if (_obs != nullptr) {
            _obs->counters().bump(obs::Counter::RecoveryRetries,
                                  retry->at);
            _obs->emit(retry->at, obs::EventType::RecoveryRetry, 0,
                       retry->function, static_cast<std::uint8_t>(target),
                       static_cast<std::uint8_t>(
                           std::min<std::uint32_t>(retry->attempt, 255)));
        }
        dispatchTicketed(run, target, retry->function, retry->at, false,
                         retry->attempt);
    }
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
            // A drain end restarts the node (onBarrier marked it down)
            // through the ordinary crash path: warm state is torn down
            // and anything still in flight (timeout kill) fails over
            // like a crash.
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

} // namespace rc::cluster
