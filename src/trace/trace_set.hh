/**
 * @file
 * Invocation traces in the Azure Functions dataset format.
 *
 * The Azure Functions traces the paper replays (§7.1) record, per
 * function, the number of invocations in each one-minute bucket of
 * the day. TraceSet keeps exactly that representation: one count
 * vector per function over a common horizon. Replay expansion to
 * concrete arrival instants follows §7.2: a single invocation in a
 * bucket is injected at the beginning of the minute; multiple
 * invocations are distributed evenly throughout the minute.
 */

#ifndef RC_TRACE_TRACE_SET_HH_
#define RC_TRACE_TRACE_SET_HH_

#include <cstdint>
#include <vector>

#include "workload/types.hh"

namespace rc::trace {

/** Per-minute invocation counts of one function. */
struct FunctionTrace
{
    workload::FunctionId function = workload::kInvalidFunction;
    std::vector<std::uint32_t> perMinute;

    /** Total invocations in the trace. */
    std::uint64_t totalInvocations() const;

    /** Number of minutes with at least one invocation. */
    std::size_t activeMinutes() const;
};

/** A set of per-function minute traces over a shared horizon. */
class TraceSet
{
  public:
    /** @param minutes Horizon length in minutes (> 0). */
    explicit TraceSet(std::size_t minutes);

    /** Add a function trace; it is zero-padded/truncated to the horizon. */
    void add(FunctionTrace trace);

    std::size_t durationMinutes() const { return _minutes; }

    const std::vector<FunctionTrace>& traces() const { return _traces; }
    std::size_t functionCount() const { return _traces.size(); }

    /** Total invocations across all functions. */
    std::uint64_t totalInvocations() const;

    /** Per-minute total arrivals across all functions (Fig. 10 top). */
    std::vector<std::uint64_t> arrivalsPerMinute() const;

  private:
    std::size_t _minutes;
    std::vector<FunctionTrace> _traces;
};

} // namespace rc::trace

#endif // RC_TRACE_TRACE_SET_HH_
