#include "cluster/recovery_orchestrator.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace rc::cluster {

namespace {

/** Goodput buckets: fleet completions per 10 simulated seconds. */
constexpr double kGoodputBucketSeconds = 10.0;

/** Pressure floor from the unavailable fleet fraction. */
int
floorFromFraction(double fraction)
{
    if (fraction >= 0.5)
        return 2;
    if (fraction >= 0.25)
        return 1;
    return 0;
}

} // namespace

RecoveryOrchestrator::RecoveryOrchestrator(const fault::DomainPlan& plan,
                                           const workload::Catalog& catalog,
                                           std::uint64_t seed,
                                           std::size_t nodes,
                                           sim::Tick horizon,
                                           obs::Observer* obs)
    : _plan(plan), _obs(obs), _nodes(nodes), _recs(nodes)
{
    if (catalog.empty())
        sim::panic("RecoveryOrchestrator: empty catalog");
    _repBare = 0;
    for (std::size_t l = 0; l < workload::kLanguageCount; ++l) {
        const auto ids = catalog.functionsOfLanguage(
            static_cast<workload::Language>(l));
        _repLang[l] = ids.empty() ? -1 : static_cast<std::int64_t>(
                                             ids.front());
    }
    _tokenInterval =
        _plan.rejoinTokensPerSecond > 0.0
            ? std::max<sim::Tick>(
                  1, sim::fromSeconds(1.0 / _plan.rejoinTokensPerSecond))
            : 1;

    // Expand the pre-drawn schedules into per-node episode queues.
    // Episodes of one node must not overlap: a wave striking a node
    // still inside an earlier episode (conservatively bounded below)
    // merges into it — the node is already down or warming, there is
    // nothing new to recover. Dropped outage members also do not
    // crash again (their crash event is simply not expanded).
    const auto outages =
        fault::drawOutageSchedule(_plan, seed, nodes, horizon);
    const auto upgrades =
        fault::drawUpgradeSchedule(_plan, seed, nodes, horizon);

    struct Raw
    {
        sim::Tick beginAt;
        sim::Tick downFor;
        bool planned;
        std::size_t wave; //!< outage wave index (planned: unused)
    };
    std::vector<std::vector<Raw>> raw(nodes);
    _waves.reserve(outages.size());
    for (const auto& o : outages) {
        const std::size_t wave = _waves.size();
        _waves.push_back({o.at, o.downUntil - o.at, 0, false});
        for (const std::uint32_t n : o.nodes)
            raw[n].push_back({o.at, o.downUntil - o.at, false, wave});
    }
    for (const auto& u : upgrades)
        raw[u.node].push_back(
            {u.drainAt, u.restartDowntime, true, 0});

    const sim::Tick rejoinSlack =
        _plan.stagedRejoin
            ? sim::fromSeconds(static_cast<double>(nodes) /
                               std::max(_plan.rejoinTokensPerSecond,
                                        1e-9))
            : 0;
    const sim::Tick warmupSlack =
        sim::fromSeconds(_plan.warmupTimeoutSeconds);
    const sim::Tick drainSlack =
        sim::fromSeconds(_plan.drainTimeoutSeconds);
    for (std::size_t n = 0; n < nodes; ++n) {
        auto& events = raw[n];
        std::stable_sort(events.begin(), events.end(),
                         [](const Raw& a, const Raw& b) {
                             return a.beginAt < b.beginAt;
                         });
        sim::Tick busyUntil = 0;
        for (const Raw& e : events) {
            if (e.beginAt < busyUntil)
                continue; // merged into the ongoing episode
            _recs[n].queue.push_back({e.beginAt, e.downFor, e.planned});
            busyUntil = e.beginAt + e.downFor + warmupSlack + rejoinSlack;
            if (e.planned)
                busyUntil += drainSlack;
            else {
                ++_waves[e.wave].nodesStruck;
                _outageCrashes.push_back(
                    {e.beginAt, n, e.beginAt + e.downFor});
            }
        }
    }
    std::sort(_outageCrashes.begin(), _outageCrashes.end());
    for (const CrashEvent& c : _outageCrashes) {
        if (_firstOutageAt == 0 || c.at < _firstOutageAt)
            _firstOutageAt = c.at;
    }
}

sim::Tick
RecoveryOrchestrator::nextActionAt() const
{
    sim::Tick next = kNever;
    for (std::size_t n = 0; n < _nodes; ++n) {
        const NodeRec& rec = _recs[n];
        switch (rec.state) {
        case NodeState::Up:
            if (rec.next < rec.queue.size())
                next = std::min(next, rec.queue[rec.next].beginAt);
            break;
        case NodeState::Draining:
            next = std::min(next, rec.drainDeadline);
            break;
        case NodeState::Down:
            next = std::min(next, rec.downUntil);
            break;
        case NodeState::WaitingRejoin:
            break; // handled by the queue term below
        case NodeState::Warming:
            next = std::min(next, rec.warmupDeadline);
            break;
        }
    }
    if (!_rejoinQueue.empty()) {
        const sim::Tick readyAt = _recs[_rejoinQueue.front()].readyAt;
        next = std::min(next, _plan.stagedRejoin
                                  ? std::max(readyAt, _nextTokenAt)
                                  : readyAt);
    }
    return next;
}

bool
RecoveryOrchestrator::needsNodeProgress() const
{
    for (const NodeRec& rec : _recs) {
        if (rec.state == NodeState::Draining ||
            rec.state == NodeState::Warming) {
            return true;
        }
    }
    return false;
}

void
RecoveryOrchestrator::beginDown(std::size_t node, sim::Tick at,
                                sim::Tick downFor)
{
    NodeRec& rec = _recs[node];
    rec.state = NodeState::Down;
    rec.downUntil = at + downFor;
    rec.readyAt = rec.downUntil;
}

bool
RecoveryOrchestrator::censusMet(const NodeRec& rec,
                                const NodeSummary& summary) const
{
    if (summary.idleBare < rec.plannedBare)
        return false;
    for (std::size_t l = 0; l < workload::kLanguageCount; ++l) {
        if (summary.idleLang[l] < rec.plannedLang[l])
            return false;
    }
    return summary.idleUser >= rec.plannedUser;
}

void
RecoveryOrchestrator::grantRejoin(std::size_t node, sim::Tick grantAt,
                                  std::vector<RecoveryAction>& actions)
{
    NodeRec& rec = _recs[node];
    noteRejoin(node, grantAt);
    // Plan the census warm-up, most specialized capital first: the
    // per-function User working set (what warm starts actually need),
    // then each language's Lang containers, then Bare, truncated at
    // the per-node cap. Hot functions rebuild first: User entries are
    // planned in descending census count.
    rec.plannedBare = 0;
    rec.plannedLang.fill(0);
    rec.plannedUser = 0;
    rec.plannedTotal = 0;
    if (_plan.prewarmEnabled) {
        const auto prewarm = [&](workload::FunctionId function,
                                 workload::Layer layer,
                                 std::uint32_t count) {
            for (std::uint32_t i = 0; i < count; ++i) {
                actions.push_back({RecoveryAction::kPrewarm, grantAt,
                                   static_cast<std::uint32_t>(node), 0,
                                   function, layer});
            }
        };
        std::uint32_t budget = _plan.prewarmMaxLayers;
        auto userCensus = rec.census.user;
        std::sort(userCensus.begin(), userCensus.end(),
                  [](const auto& a, const auto& b) {
                      return a.second != b.second ? a.second > b.second
                                                  : a.first < b.first;
                  });
        for (const auto& [function, count] : userCensus) {
            const std::uint32_t planned = std::min(count, budget);
            budget -= planned;
            rec.plannedUser += planned;
            prewarm(function, workload::Layer::User, planned);
        }
        for (std::size_t l = 0; l < workload::kLanguageCount; ++l) {
            if (_repLang[l] < 0)
                continue; // no function of this language deployed
            rec.plannedLang[l] = std::min(rec.census.lang[l], budget);
            budget -= rec.plannedLang[l];
            prewarm(static_cast<workload::FunctionId>(_repLang[l]),
                    workload::Layer::Lang, rec.plannedLang[l]);
        }
        rec.plannedBare = std::min(rec.census.bare, budget);
        prewarm(_repBare, workload::Layer::Bare, rec.plannedBare);
        rec.plannedTotal = rec.plannedBare + rec.plannedUser;
        for (std::size_t l = 0; l < workload::kLanguageCount; ++l)
            rec.plannedTotal += rec.plannedLang[l];
    }
    if (rec.plannedTotal > 0) {
        rec.state = NodeState::Warming;
        rec.warmupDeadline =
            grantAt + sim::fromSeconds(_plan.warmupTimeoutSeconds);
    } else {
        complete(node, grantAt);
    }
}

void
RecoveryOrchestrator::noteRejoin(std::size_t node, sim::Tick grantAt)
{
    const sim::Tick readyAt = _recs[node].readyAt;
    const double wait =
        grantAt > readyAt ? sim::toSeconds(grantAt - readyAt) : 0.0;
    _rejoinWaitSeconds += wait;
    if (_obs != nullptr) {
        _obs->counters().bump(obs::Counter::NodesRejoined, grantAt);
        _obs->emit(grantAt, obs::EventType::NodeRejoinGranted, 0,
                   0xffffffffU, static_cast<std::uint8_t>(node), 0,
                   wait);
    }
}

void
RecoveryOrchestrator::complete(std::size_t node, sim::Tick at)
{
    NodeRec& rec = _recs[node];
    if (_obs != nullptr) {
        _obs->emit(at, obs::EventType::NodeWarmupDone, 0, 0xffffffffU,
                   static_cast<std::uint8_t>(node), 0,
                   static_cast<double>(rec.plannedTotal));
    }
    ++_recoveredNodes;
    rec.state = NodeState::Up;
    ++rec.next;
    rec.census = LayerCensus{};
    rec.plannedBare = 0;
    rec.plannedLang.fill(0);
    rec.plannedUser = 0;
    rec.plannedTotal = 0;
}

int
RecoveryOrchestrator::onBarrier(sim::Tick windowStart,
                                sim::Tick windowEnd, SummaryTable& table,
                                std::uint64_t offered,
                                const CensusSource& census,
                                std::vector<RecoveryAction>& actions)
{
    // Goodput sample: attribute completions and offered load since
    // the last barrier to the bucket containing this barrier instant.
    std::uint64_t completed = 0;
    for (std::size_t n = 0; n < _nodes; ++n)
        completed += table[n].successes;
    const auto bucket = static_cast<std::size_t>(
        sim::toSeconds(windowStart) / kGoodputBucketSeconds);
    const auto sample = [bucket](std::vector<std::uint64_t>& buckets,
                                 std::uint64_t& last, std::uint64_t now) {
        if (now <= last)
            return;
        if (buckets.size() <= bucket)
            buckets.resize(bucket + 1, 0);
        buckets[bucket] += now - last;
        last = now;
    };
    sample(_goodputBuckets, _lastCompleted, completed);
    sample(_offeredBuckets, _lastOffered, offered);
    _lastSampleAt = windowStart;

    // Correlated waves striking inside this window announce
    // themselves once (their per-node crashes ride the cluster crash
    // schedule).
    for (Wave& wave : _waves) {
        if (wave.emitted || wave.at >= windowEnd)
            continue;
        wave.emitted = true;
        if (wave.nodesStruck == 0)
            continue; // every member merged into an earlier episode
        ++_domainOutages;
        if (_obs != nullptr) {
            _obs->counters().bump(obs::Counter::DomainOutages, wave.at);
            _obs->emit(wave.at, obs::EventType::DomainOutage, 0,
                       0xffffffffU,
                       static_cast<std::uint8_t>(
                           std::min<std::uint32_t>(wave.nodesStruck,
                                                   255)),
                       0, sim::toSeconds(wave.downFor));
        }
    }

    // Per-node FSM, ascending node order (determinism).
    for (std::size_t n = 0; n < _nodes; ++n) {
        NodeRec& rec = _recs[n];
        if (rec.state == NodeState::Up && rec.next < rec.queue.size() &&
            rec.queue[rec.next].beginAt < windowEnd) {
            const Episode& e = rec.queue[rec.next];
            // The episode begins inside this window: snapshot the
            // pre-failure census now — node state is as of the last
            // barrier, before the crash or drain lands.
            rec.census = census(n);
            if (e.planned) {
                ++_upgradeEpisodes;
                rec.state = NodeState::Draining;
                rec.drainDeadline =
                    e.beginAt +
                    sim::fromSeconds(_plan.drainTimeoutSeconds);
                if (_obs != nullptr) {
                    _obs->counters().bump(obs::Counter::NodesDrained,
                                          e.beginAt);
                    _obs->emit(e.beginAt,
                               obs::EventType::NodeDrainStarted, 0,
                               0xffffffffU,
                               static_cast<std::uint8_t>(n), 0,
                               sim::toSeconds(e.downFor));
                }
            } else {
                ++_outageNodeEpisodes;
                beginDown(n, e.beginAt, e.downFor);
            }
        }
        switch (rec.state) {
        case NodeState::Up:
            break;
        case NodeState::Draining: {
            const Episode& e = rec.queue[rec.next];
            if (windowStart < e.beginAt)
                break; // drain starts mid-window; judge next barrier
            const bool empty = table[n].inFlightPlusQueued == 0;
            if (empty || windowStart >= rec.drainDeadline) {
                if (empty)
                    ++_nodesDrained;
                else
                    ++_nodesKilled;
                if (_obs != nullptr) {
                    _obs->emit(windowStart, obs::EventType::NodeDrained,
                               0, 0xffffffffU,
                               static_cast<std::uint8_t>(n),
                               empty ? 0 : 1);
                }
                beginDown(n, windowStart, e.downFor);
                actions.push_back({RecoveryAction::kCrashNode,
                                   windowStart,
                                   static_cast<std::uint32_t>(n),
                                   rec.downUntil, 0,
                                   workload::Layer::Bare});
                table.markDown(n);
            }
            break;
        }
        case NodeState::Down:
            if (windowStart >= rec.downUntil) {
                rec.state = NodeState::WaitingRejoin;
                _rejoinQueue.push_back(
                    static_cast<std::uint32_t>(n));
            }
            break;
        case NodeState::WaitingRejoin:
            break;
        case NodeState::Warming:
            if (windowStart >= rec.warmupDeadline ||
                censusMet(rec, table[n])) {
                complete(n, windowStart);
            }
            break;
        }
        // Set or cleared at every barrier, so the hold reads this
        // FSM's state whether or not the node reported since.
        table.setHold(n, SummaryTable::kRecovering,
                      rec.state != NodeState::Up);
    }

    // Token-gated readmission, (readyAt, node) order. Naive mode
    // grants every restarted node at once — the thundering herd the
    // staged path exists to avoid.
    std::sort(_rejoinQueue.begin(), _rejoinQueue.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                  const sim::Tick ra = _recs[a].readyAt;
                  const sim::Tick rb = _recs[b].readyAt;
                  return ra != rb ? ra < rb : a < b;
              });
    while (!_rejoinQueue.empty()) {
        const std::uint32_t n = _rejoinQueue.front();
        sim::Tick grantAt = _recs[n].readyAt;
        if (_plan.stagedRejoin)
            grantAt = std::max(grantAt, _nextTokenAt);
        if (grantAt >= windowEnd)
            break;
        grantAt = std::max(grantAt, windowStart);
        _rejoinQueue.erase(_rejoinQueue.begin());
        if (_plan.stagedRejoin)
            _nextTokenAt = grantAt + _tokenInterval;
        grantRejoin(n, grantAt, actions);
        table.setHold(n, SummaryTable::kRecovering,
                      _recs[n].state != NodeState::Up);
    }

    // Recovery backpressure: survivors tighten their belts while a
    // chunk of the fleet is out.
    std::size_t unavailable = 0;
    for (std::size_t n = 0; n < _nodes; ++n) {
        if (!table.available(n, SummaryTable::kRecovering))
            ++unavailable;
    }
    return floorFromFraction(static_cast<double>(unavailable) /
                             static_cast<double>(_nodes));
}

void
RecoveryOrchestrator::finishPending(sim::Tick now)
{
    for (std::size_t n = 0; n < _nodes; ++n) {
        NodeRec& rec = _recs[n];
        switch (rec.state) {
        case NodeState::Up:
            continue;
        case NodeState::Draining:
            // The run ended while the node drained; the final drain
            // lets its in-flight work finish, so it counts graceful.
            ++_nodesDrained;
            if (_obs != nullptr) {
                _obs->emit(now, obs::EventType::NodeDrained, 0,
                           0xffffffffU, static_cast<std::uint8_t>(n),
                           0);
            }
            rec.readyAt = now;
            break;
        case NodeState::Down:
        case NodeState::WaitingRejoin:
            break;
        case NodeState::Warming:
            complete(n, now);
            continue;
        }
        // Grant with the wait accrued so far; no prewarms — the
        // nodes are about to finalize.
        noteRejoin(n, now);
        rec.plannedTotal = 0;
        complete(n, now);
    }
    _rejoinQueue.clear();
}

void
RecoveryOrchestrator::report(ClusterResult& result) const
{
    result.domainOutages = _domainOutages;
    result.outageNodeEpisodes = _outageNodeEpisodes;
    result.upgradeEpisodes = _upgradeEpisodes;
    result.nodesDrained = _nodesDrained;
    result.nodesKilled = _nodesKilled;
    result.recoveredNodes = _recoveredNodes;
    result.rejoinWaitSeconds = _rejoinWaitSeconds;

    // Time to goodput: how long from the outage until the fleet
    // durably completes >= 90% of what clients offer it. Measured as
    // a trailing 3-bucket completion ratio (completions / offered
    // load, 10 s buckets) — a ratio, not an absolute rate, so bursty
    // arrival processes do not read as goodput collapses. The clock
    // stops after the *last* post-outage bucket whose trailing ratio
    // is below 0.9, so a single lucky bucket in the middle of a
    // collapse (or a retry storm that re-dips later) does not end it.
    result.timeToGoodputSeconds = 0.0;
    if (_firstOutageAt == 0 || _goodputBuckets.empty())
        return;
    const double outageSeconds = sim::toSeconds(_firstOutageAt);
    const auto outageBucket =
        static_cast<std::size_t>(outageSeconds / kGoodputBucketSeconds);
    const auto ratioAt = [this](std::size_t b) {
        std::uint64_t done = 0;
        std::uint64_t asked = 0;
        for (std::size_t k = b; k + 3 > b; --k) {
            if (k < _goodputBuckets.size())
                done += _goodputBuckets[k];
            if (k < _offeredBuckets.size())
                asked += _offeredBuckets[k];
            if (k == 0)
                break;
        }
        // An idle trailing window owes nothing and counts as healthy.
        return asked == 0 ? 1.0
                          : static_cast<double>(done) /
                                static_cast<double>(asked);
    };
    // The final bucket is usually a partial window; judge it only if
    // the run ends still collapsed.
    const std::size_t usable =
        std::max<std::size_t>(_goodputBuckets.size(), 1) - 1;
    std::size_t lastBad = _goodputBuckets.size();
    for (std::size_t b = outageBucket; b < usable; ++b) {
        if (ratioAt(b) < 0.9)
            lastBad = b;
    }
    if (lastBad == _goodputBuckets.size())
        return; // the fleet absorbed the outage without a dip
    result.timeToGoodputSeconds = std::max(
        0.0, static_cast<double>(lastBad + 1) * kGoodputBucketSeconds -
                 outageSeconds);
}

} // namespace rc::cluster
