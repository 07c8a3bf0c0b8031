#include "admission/circuit_breaker.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace rc::admission {

const char*
toString(CircuitBreaker::State state)
{
    switch (state) {
      case CircuitBreaker::State::Closed: return "closed";
      case CircuitBreaker::State::Open: return "open";
      case CircuitBreaker::State::HalfOpen: return "half_open";
    }
    return "?";
}

CircuitBreaker::CircuitBreaker(Config config)
    : _config(config), _buckets(kBuckets)
{
    if (config.window <= 0)
        sim::fatal("CircuitBreaker: window must be positive");
    _bucketWidth = std::max<sim::Tick>(
        1, config.window / static_cast<sim::Tick>(kBuckets));
}

void
CircuitBreaker::transitionTo(State next, sim::Tick now)
{
    if (next == _state)
        return;
    _transitions.push_back(Transition{now, _state, next});
    _state = next;
    if (next == State::Open) {
        _openedAt = now;
        ++_openCount;
    }
    if (next == State::Closed)
        resetWindow();
}

CircuitBreaker::Bucket&
CircuitBreaker::bucketFor(sim::Tick now)
{
    const sim::Tick start = (now / _bucketWidth) * _bucketWidth;
    Bucket& bucket = _buckets[static_cast<std::size_t>(
        (now / _bucketWidth) % static_cast<sim::Tick>(kBuckets))];
    if (bucket.start != start) {
        bucket.start = start;
        bucket.successes = 0;
        bucket.failures = 0;
    }
    return bucket;
}

void
CircuitBreaker::expireOld(sim::Tick now)
{
    const sim::Tick oldest = now - _config.window;
    for (Bucket& bucket : _buckets) {
        if (bucket.start >= 0 && bucket.start + _bucketWidth <= oldest) {
            bucket.start = -1;
            bucket.successes = 0;
            bucket.failures = 0;
        }
    }
}

void
CircuitBreaker::resetWindow()
{
    for (Bucket& bucket : _buckets) {
        bucket.start = -1;
        bucket.successes = 0;
        bucket.failures = 0;
    }
}

void
CircuitBreaker::recordSuccess(sim::Tick now)
{
    if (_state == State::HalfOpen) {
        // The probe came back healthy: close and forget the window
        // (stale failures must not instantly re-trip the breaker).
        transitionTo(State::Closed, now);
        return;
    }
    expireOld(now);
    ++bucketFor(now).successes;
}

void
CircuitBreaker::recordFailure(sim::Tick now)
{
    if (_state == State::HalfOpen) {
        transitionTo(State::Open, now);
        return;
    }
    if (_state == State::Open)
        return; // routed-around nodes can still fail stale work
    expireOld(now);
    ++bucketFor(now).failures;

    std::uint64_t successes = 0;
    std::uint64_t failures = 0;
    for (const Bucket& bucket : _buckets) {
        if (bucket.start < 0)
            continue;
        successes += bucket.successes;
        failures += bucket.failures;
    }
    const std::uint64_t total = successes + failures;
    if (total < _config.minSamples)
        return;
    const double fraction =
        static_cast<double>(failures) / static_cast<double>(total);
    if (fraction >= _config.failureThreshold)
        transitionTo(State::Open, now);
}

bool
CircuitBreaker::allows(sim::Tick now)
{
    switch (_state) {
      case State::Closed:
        return true;
      case State::Open:
        if (_openedAt >= 0 && now >= _openedAt + _config.cooloff) {
            transitionTo(State::HalfOpen, now);
            return true; // the probe
        }
        return false;
      case State::HalfOpen:
        return true; // probe outcome pending; let work through
    }
    return true;
}

} // namespace rc::admission
