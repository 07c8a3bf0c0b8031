#include "cluster/gray_network.hh"

#include <algorithm>

namespace rc::cluster {

GrayNetwork::GrayNetwork(const fault::NetworkPlan& plan, std::uint64_t seed,
                         std::size_t nodes, sim::Tick horizon,
                         obs::Observer* obs)
    : _obs(obs), _sampler(plan, sim::Rng(seed).stream("net"))
{
    if (plan.active()) {
        _degraded = fault::drawDegradedWindows(plan, seed, nodes, horizon);
        _partitions =
            fault::drawPartitionSchedule(plan, seed, nodes, horizon);
    }
}

std::optional<RoutedInput>
GrayNetwork::send(RoutedInput invoke, sim::Tick windowEnd)
{
    const fault::NetworkSampler::Delivery link = _sampler.sample();
    const sim::Tick sendAt = invoke.input.tick;
    const auto node = static_cast<std::uint8_t>(invoke.node);
    if (link.delay > 0) {
        ++_msgsDelayed;
        if (_obs != nullptr) {
            _obs->counters().bump(obs::Counter::MsgsDelayed, sendAt);
            _obs->emit(sendAt, obs::EventType::MsgDelayed, 0,
                       invoke.input.function, node, 0,
                       sim::toSeconds(link.delay));
        }
    }
    if (link.drops > 0) {
        _msgsDropped += link.drops;
        if (_obs != nullptr) {
            _obs->counters().bump(obs::Counter::MsgsDropped, sendAt,
                                  link.drops);
            _obs->emit(sendAt, obs::EventType::MsgDropped, 0,
                       invoke.input.function, node,
                       static_cast<std::uint8_t>(
                           std::min<std::uint32_t>(link.drops, 255)),
                       sim::toSeconds(link.delay));
        }
    }
    invoke.input.tick += link.delay;
    if (invoke.input.tick < windowEnd)
        return invoke;
    _parked.push(invoke);
    return std::nullopt;
}

RoutedInput
GrayNetwork::popDelivery()
{
    const RoutedInput invoke = _parked.top();
    _parked.pop();
    return invoke;
}

sim::Tick
GrayNetwork::nextPartitionFlipAt(sim::Tick pitch) const
{
    sim::Tick next = _started < _partitions.size()
                         ? _partitions[_started].start
                         : kNever;
    // A partition lifts at the first barrier at or after its end
    // (applyPartitions tests end <= windowStart), so propose that grid
    // point — the raw end tick would floor back into a window that can
    // never clear it.
    if (_lifted < _started)
        next = std::min(next, alignToBarrier(_partitions[_lifted].end, pitch));
    return next;
}

void
GrayNetwork::applyPartitions(sim::Tick windowStart, sim::Tick windowEnd,
                             SummaryTable& table, ClusterResult& result)
{
    for (; _lifted < _started && _partitions[_lifted].end <= windowStart;
         ++_lifted) {
        const fault::PartitionEvent& ev = _partitions[_lifted];
        for (const std::uint32_t n : ev.nodes)
            table.setHold(n, SummaryTable::kSevered, false);
        if (_obs != nullptr) {
            _obs->emit(ev.end, obs::EventType::PartitionEnd, 0, 0xffffffffU,
                       static_cast<std::uint8_t>(ev.nodes.size()));
        }
    }
    for (; _started < _partitions.size() &&
           _partitions[_started].start < windowEnd;
         ++_started) {
        const fault::PartitionEvent& ev = _partitions[_started];
        for (const std::uint32_t n : ev.nodes)
            table.setHold(n, SummaryTable::kSevered, true);
        ++result.partitions;
        if (_obs != nullptr) {
            _obs->counters().bump(obs::Counter::PartitionsStarted,
                                  ev.start);
            _obs->emit(ev.start, obs::EventType::PartitionStart, 0,
                       0xffffffffU,
                       static_cast<std::uint8_t>(ev.nodes.size()), 0,
                       sim::toSeconds(ev.end - ev.start));
        }
    }
}

void
GrayNetwork::emitDegradedEvents(sim::Tick end)
{
    for (; _degradedEmitted < _degraded.size() &&
           _degraded[_degradedEmitted].start < end;
         ++_degradedEmitted) {
        const fault::DegradedWindow& w = _degraded[_degradedEmitted];
        if (_obs != nullptr) {
            _obs->emit(w.start, obs::EventType::NodeDegraded, 0,
                       0xffffffffU, static_cast<std::uint8_t>(w.node), 0,
                       sim::toSeconds(w.end - w.start), w.execFactor);
        }
    }
}

void
GrayNetwork::report(ClusterResult& result) const
{
    result.msgsDelayed = _msgsDelayed;
    result.msgsDropped = _msgsDropped;
}

} // namespace rc::cluster
