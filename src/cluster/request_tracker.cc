#include "cluster/request_tracker.hh"

#include <algorithm>

namespace rc::cluster {

RequestTracker::RequestTracker(const fault::FaultPlan& plan,
                               std::size_t functions,
                               NodeHealthTracker& health,
                               obs::Observer* obs)
    : _plan(plan),
      _hedging(plan.network.active() && plan.network.hedgeEnabled),
      _feedback(plan.domain.active() && plan.domain.retryFeedbackEnabled),
      _health(health), _obs(obs), _functionSketches(functions)
{
}

RequestTracker::WatchMap::iterator
RequestTracker::find(std::uint64_t ticket)
{
    const auto it = _watches.find(ticket);
    if (it != _watches.end())
        return it;
    const auto hedge = _hedgeOwner.find(ticket);
    return hedge == _hedgeOwner.end() ? _watches.end()
                                      : _watches.find(hedge->second);
}

std::uint64_t
RequestTracker::open(workload::FunctionId function, sim::Tick at,
                     std::uint32_t node, bool probe,
                     std::uint32_t feedbackAttempt)
{
    const std::uint64_t ticket = _nextTicket++;
    Watch& watch = _watches[ticket];
    watch.function = function;
    watch.sentAt = at;
    watch.attempts[kPrimary] = {ticket, node};
    watch.probe = probe;
    watch.feedbackAttempt = feedbackAttempt;
    if (probe) {
        _health.noteProbeSent(node);
        watch.probeSlot = node;
    }
    return ticket;
}

sim::Tick
RequestTracker::hedgeDeadline(const Watch& watch) const
{
    if (!_hedging || watch.resolved || watch.probe ||
        watch.attempts[kPrimary].done || watch.attempts[kHedge].ticket != 0)
        return kNever;
    const fault::NetworkPlan& net = _plan.network;
    const stats::QuantileSketch& sketch = _functionSketches[watch.function];
    if (sketch.count() < net.hedgeMinSamples)
        return kNever;
    const double budgetSeconds =
        std::max(sketch.p99() * net.hedgeLatencyFactor,
                 net.hedgeMinBudgetMs / 1000.0);
    return watch.sentAt + sim::fromSeconds(budgetSeconds);
}

sim::Tick
RequestTracker::nextActionAt(sim::Tick floor) const
{
    sim::Tick hedgeAt = kNever;
    if (_hedging) {
        for (const auto& [ticket, watch] : _watches)
            hedgeAt = std::min(hedgeAt, hedgeDeadline(watch));
    }
    const sim::Tick next = std::max(hedgeAt, floor);
    return _retries.empty() ? next : std::min(next, _retries.top().at);
}

const std::vector<RequestTracker::DueHedge>&
RequestTracker::dueHedges(sim::Tick now)
{
    _due.clear();
    if (_hedging) {
        for (const auto& [ticket, watch] : _watches) {
            if (now >= hedgeDeadline(watch)) {
                _due.push_back({ticket, watch.function,
                                watch.attempts[kPrimary].node,
                                watch.rootSpan});
            }
        }
    }
    return _due;
}

std::uint64_t
RequestTracker::launchHedge(std::uint64_t primaryTicket, std::uint32_t node,
                            sim::Tick now, ClusterResult& result)
{
    Watch& watch = _watches.at(primaryTicket);
    const std::uint64_t ticket = _nextTicket++;
    watch.attempts[kHedge] = {ticket, node};
    _hedgeOwner.emplace(ticket, primaryTicket);
    ++result.hedgesLaunched;
    if (_obs != nullptr) {
        _obs->counters().bump(obs::Counter::HedgesLaunched, now);
        _obs->emit(now, obs::EventType::HedgeLaunched, watch.rootSpan,
                   watch.function, static_cast<std::uint8_t>(node),
                   static_cast<std::uint8_t>(watch.attempts[kPrimary].node),
                   sim::toSeconds(now - watch.sentAt));
    }
    return ticket;
}

void
RequestTracker::moved(std::uint64_t ticket, std::uint32_t node)
{
    const auto it = find(ticket);
    if (it == _watches.end())
        return;
    Watch& watch = it->second;
    watch.attempts[ticket == watch.attempts[kHedge].ticket ? kHedge
                                                           : kPrimary]
        .node = node;
    // The attempt left the node whose probe slot it held: free the
    // slot now, so that no later outcome of the attempt touches it.
    releaseProbe(watch);
}

const std::vector<RequestTracker::Cancel>&
RequestTracker::settle(std::vector<TaggedOutcome>& batch,
                       ClusterResult& result)
{
    using Outcome = platform::TicketOutcome;
    _cancels.clear();
    std::sort(batch.begin(), batch.end(),
              [](const TaggedOutcome& a, const TaggedOutcome& b) {
                  return std::tie(a.outcome.at, a.outcome.ticket,
                                  a.outcome.kind) <
                         std::tie(b.outcome.at, b.outcome.ticket,
                                  b.outcome.kind);
              });
    for (const TaggedOutcome& tagged : batch) {
        const Outcome& o = tagged.outcome;
        // Health sees every completion, duplicates included — the node
        // really did take that long.
        if (o.kind == Outcome::kCompleted) {
            _health.recordLatency(tagged.node, o.latencySeconds, o.at);
            result.totalExecSeconds += o.execSeconds;
        } else if (o.kind == Outcome::kCancelled) {
            result.wastedExecSeconds += o.execSeconds;
        }
        const auto it = find(o.ticket);
        if (it == _watches.end())
            continue;
        Watch& watch = it->second;
        const std::size_t side =
            o.ticket == watch.attempts[kHedge].ticket ? kHedge : kPrimary;
        Attempt& hedge = watch.attempts[kHedge];
        switch (o.kind) {
          case Outcome::kAdmitted:
            onAdmitted(watch, side, tagged);
            break;
          case Outcome::kCompleted:
            onCompleted(watch, side, tagged, result);
            break;
          case Outcome::kCancelled:
            // A loser's cancel landed.
            releaseProbe(watch);
            retire(watch, side, o.at, hedge.node, kCancelled, result);
            break;
          default: // kFailed / kShed
            releaseProbe(watch);
            retire(watch, side, o.at, hedge.node, kLost, result);
            // Every attempt is terminal and none completed: the
            // request failed at the client.
            if (!watch.resolved && watch.settled())
                scheduleRetry(watch, o.at);
            break;
        }
        if (watch.settled()) {
            _hedgeOwner.erase(hedge.ticket);
            _watches.erase(it);
        }
    }
    return _cancels;
}

void
RequestTracker::onAdmitted(Watch& watch, std::size_t side,
                           const TaggedOutcome& tagged)
{
    Attempt& attempt = watch.attempts[side];
    attempt.admitted = true;
    if (side == kPrimary && watch.rootSpan == 0)
        watch.rootSpan = tagged.outcome.rootSpan;
    // The winner committed while this loser was still in flight: the
    // deferred cancel lands now that the node holds the ticket.
    if (watch.resolved && !attempt.done)
        _cancels.push_back({tagged.node, attempt.ticket});
}

void
RequestTracker::onCompleted(Watch& watch, std::size_t side,
                            const TaggedOutcome& tagged,
                            ClusterResult& result)
{
    const platform::TicketOutcome& o = tagged.outcome;
    _functionSketches[watch.function].add(o.latencySeconds);
    if (watch.resolved) {
        // Both attempts completed: the cancel raced the loser's
        // finish, so all of its execution is waste.
        ++result.duplicateCompletions;
        result.wastedExecSeconds += o.execSeconds;
        retire(watch, side, o.at, watch.attempts[kHedge].node, kLost,
               result);
        return;
    }
    // First winner commits the request.
    watch.resolved = true;
    const double e2eSeconds = sim::toSeconds(o.at - watch.sentAt);
    _requestSketch.add(e2eSeconds);
    if (o.at >= _recoveryFrom)
        _recoverySketch.add(e2eSeconds);
    retire(watch, side, o.at, tagged.node, kWon, result);
    // Deterministic loser cancellation. Every dispatch is always
    // delivered (messages delay, never vanish), so admitted ==
    // arrivals + rerouted + hedges_launched stays an exact identity:
    // the cancel goes to the loser's node if it has admitted, and is
    // deferred to its kAdmitted otherwise.
    const Attempt& loser = watch.attempts[1 - side];
    if (!loser.over() && loser.admitted)
        _cancels.push_back({loser.node, loser.ticket});
}

void
RequestTracker::retire(Watch& watch, std::size_t side, sim::Tick at,
                       std::uint32_t node, const HedgeFate& fate,
                       ClusterResult& result)
{
    Attempt& attempt = watch.attempts[side];
    if (attempt.done)
        return;
    attempt.done = true;
    if (side == kPrimary)
        return;
    ++(result.*fate.count);
    if (_obs != nullptr) {
        _obs->counters().bump(fate.counter, at);
        _obs->emit(at, fate.event, watch.rootSpan, watch.function,
                   static_cast<std::uint8_t>(node));
    }
}

void
RequestTracker::releaseProbe(Watch& watch)
{
    if (watch.probeSlot) {
        _health.noteProbeAborted(*watch.probeSlot);
        watch.probeSlot.reset();
    }
}

void
RequestTracker::scheduleRetry(const Watch& watch, sim::Tick at)
{
    const fault::DomainPlan& plan = _plan.domain;
    if (!_feedback || watch.probe ||
        watch.feedbackAttempt >= plan.retryMaxAttempts)
        return;
    const sim::Tick backoff = std::max<sim::Tick>(
        1, sim::fromSeconds(plan.retryBackoffSeconds));
    _retries.push({at + backoff, _retrySeq++, watch.function,
                   watch.feedbackAttempt + 1});
}

std::optional<RequestTracker::Retry>
RequestTracker::popRetry(sim::Tick end)
{
    if (_retries.empty() || _retries.top().at >= end)
        return std::nullopt;
    const Retry retry = _retries.top();
    _retries.pop();
    return retry;
}

void
RequestTracker::report(ClusterResult& result) const
{
    // Under hedging the node-level sketch double-counts duplicate
    // attempts; the request-level sketch (winner per ticket) is the
    // meaningful latency distribution, so it supplies the percentiles.
    if (_requestSketch.count() > 0) {
        result.e2eP50Seconds = _requestSketch.median();
        result.e2eP99Seconds = _requestSketch.p99();
        result.e2eP999Seconds = _requestSketch.quantile(0.999);
    }
    if (_recoverySketch.count() > 0) {
        result.recoveryP99Seconds = _recoverySketch.p99();
        result.recoveryP999Seconds = _recoverySketch.quantile(0.999);
    }
}

} // namespace rc::cluster
