/**
 * @file
 * Per-node circuit breaker for the cluster scheduler.
 *
 * The breaker watches one node's invocation outcomes over a rolling
 * bucketed window and implements the classic three-state FSM:
 *
 *          failure fraction >= threshold
 *          (with >= minSamples observed)
 *   Closed ------------------------------> Open
 *     ^                                      |
 *     | success on the probe                 | cooloff elapsed
 *     |                                      v
 *     +----------------------------------- HalfOpen
 *                    failure on the probe -> Open (again)
 *
 * While Open, the cluster scheduler routes around the node exactly as
 * it routes around crashed nodes; after the cooloff one probe
 * invocation is let through (HalfOpen) and its outcome decides
 * between closing and re-opening. The breaker is pure arithmetic over
 * simulated time — no randomness — and it keeps its full transition
 * history so chaos_check can assert every observed sequence is legal.
 */

#ifndef RC_ADMISSION_CIRCUIT_BREAKER_HH_
#define RC_ADMISSION_CIRCUIT_BREAKER_HH_

#include <cstdint>
#include <vector>

#include "sim/time.hh"

namespace rc::admission {

/** One node's rolling-window failure tracker and breaker FSM. */
class CircuitBreaker
{
  public:
    enum class State : std::uint8_t { Closed, Open, HalfOpen };

    struct Config
    {
        /** Failure fraction over the window that trips the breaker. */
        double failureThreshold = 0.5;
        /** Rolling observation window. */
        sim::Tick window = 60 * sim::kSecond;
        /** Open -> half-open probe delay. */
        sim::Tick cooloff = 30 * sim::kSecond;
        /** Minimum window samples before the breaker may trip. */
        std::uint32_t minSamples = 20;
    };

    /** A recorded state change (chaos_check legality evidence). */
    struct Transition
    {
        sim::Tick at = 0;
        State from = State::Closed;
        State to = State::Closed;
    };

    explicit CircuitBreaker(Config config);

    /** The node served an invocation to completion. */
    void recordSuccess(sim::Tick now);

    /** The node failed an invocation (retries exhausted). */
    void recordFailure(sim::Tick now);

    /**
     * May the scheduler route to this node right now? Not const: an
     * Open breaker whose cooloff has elapsed transitions to HalfOpen
     * here and admits the probe.
     */
    bool allows(sim::Tick now);

    State state() const { return _state; }

    /** Times the breaker entered Open (feeds breaker_open_total). */
    std::uint64_t openCount() const { return _openCount; }

    /** Full transition history, in time order. */
    const std::vector<Transition>& transitions() const
    {
        return _transitions;
    }

  private:
    /** Bucketed window slot. */
    struct Bucket
    {
        sim::Tick start = -1;
        std::uint32_t successes = 0;
        std::uint32_t failures = 0;
    };

    void transitionTo(State next, sim::Tick now);
    Bucket& bucketFor(sim::Tick now);
    void expireOld(sim::Tick now);
    void resetWindow();

    Config _config;
    State _state = State::Closed;
    sim::Tick _openedAt = -1;
    std::uint64_t _openCount = 0;
    std::vector<Transition> _transitions;

    /** Rolling window as a small ring of time buckets. */
    static constexpr std::size_t kBuckets = 8;
    sim::Tick _bucketWidth = 0;
    std::vector<Bucket> _buckets;
};

/** Stable names for reports and traces. */
const char* toString(CircuitBreaker::State state);

} // namespace rc::admission

#endif // RC_ADMISSION_CIRCUIT_BREAKER_HH_
