#include "cluster/node_health.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace rc::cluster {

namespace {

/** EWMA smoothing factor: ~last 10 completions dominate. */
constexpr double kAlpha = 0.2;

} // namespace

NodeHealthTracker::NodeHealthTracker(const fault::NetworkPlan& plan,
                                     std::size_t nodes)
    : _plan(plan), _drain(sim::fromSeconds(plan.quarantineDrainSeconds)),
      _state(nodes, State::Healthy), _ewma(nodes, 0.0),
      _samples(nodes, 0), _quarantinedAt(nodes, 0), _probeStreak(nodes, 0),
      _probeOutstanding(nodes, 0)
{
    if (_plan.quarantineEnabled && _plan.quarantineProbeCount == 0)
        sim::panic("NodeHealthTracker: quarantine_probe_count must be >= 1");
}

void
NodeHealthTracker::transition(std::size_t node, State to, sim::Tick now)
{
    const State from = _state[node];
    if (from == to)
        return;
    _state[node] = to;
    _transitions.push_back(Transition{
        now, static_cast<std::uint16_t>(node), from, to});
    if (to == State::Quarantined) {
        ++_quarantines;
        _quarantinedAt[node] = now;
    } else if (to == State::Healthy && from == State::Probation) {
        ++_readmits;
        // The degraded-era EWMA must re-earn trust: the node is not
        // judged again until it accumulates fresh samples.
        _samples[node] = 0;
    }
    if (to == State::Probation) {
        _probeStreak[node] = 0;
        _probeOutstanding[node] = 0;
    }
}

void
NodeHealthTracker::recordLatency(std::size_t node, double seconds,
                                 sim::Tick at)
{
    if (!_plan.quarantineEnabled)
        return;
    if (_samples[node] == 0)
        _ewma[node] = seconds;
    else
        _ewma[node] = kAlpha * seconds + (1.0 - kAlpha) * _ewma[node];
    ++_samples[node];

    if (_state[node] == State::Probation && _probeOutstanding[node]) {
        _probeOutstanding[node] = 0;
        const bool healthy =
            _fleetMedian <= 0.0 ||
            seconds < _plan.quarantineReadmitFactor * _fleetMedian;
        if (!healthy) {
            transition(node, State::Quarantined, at);
            return;
        }
        if (++_probeStreak[node] >= _plan.quarantineProbeCount)
            transition(node, State::Healthy, at);
    }
}

void
NodeHealthTracker::refresh(sim::Tick now)
{
    if (!_plan.quarantineEnabled)
        return;

    // Fleet median EWMA over judged nodes. A single node has no peers
    // to be slower than, so judging needs at least two.
    _medianScratch.clear();
    for (std::size_t i = 0; i < _state.size(); ++i) {
        if (_samples[i] >= _plan.quarantineMinSamples)
            _medianScratch.push_back(_ewma[i]);
    }
    if (_medianScratch.size() < 2) {
        _fleetMedian = 0.0;
    } else {
        const std::size_t mid = _medianScratch.size() / 2;
        std::nth_element(_medianScratch.begin(),
                         _medianScratch.begin() + mid,
                         _medianScratch.end());
        _fleetMedian = _medianScratch[mid];
    }

    for (std::size_t i = 0; i < _state.size(); ++i) {
        switch (_state[i]) {
          case State::Healthy:
            if (_fleetMedian > 0.0 &&
                _samples[i] >= _plan.quarantineMinSamples &&
                _ewma[i] > _plan.quarantineLatencyFactor * _fleetMedian) {
                transition(i, State::Quarantined, now);
            }
            break;
          case State::Quarantined:
            if (now >= _quarantinedAt[i] + _drain)
                transition(i, State::Probation, now);
            break;
          case State::Probation:
            break;
        }
    }
}

} // namespace rc::cluster
