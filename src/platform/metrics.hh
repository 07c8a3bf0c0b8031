/**
 * @file
 * Per-invocation records and aggregate metrics of one run.
 *
 * The cost metrics follow §4.2: startup overhead is the time from an
 * invocation's arrival until its execution actually starts (queueing
 * included), and wasted resource is the mem x idle-time integral the
 * pool logs separately. End-to-end latency is startup + execution.
 */

#ifndef RC_PLATFORM_METRICS_HH_
#define RC_PLATFORM_METRICS_HH_

#include <array>
#include <cstdint>
#include <vector>

#include "platform/startup_type.hh"
#include "sim/time.hh"
#include "stats/accumulator.hh"
#include "stats/time_series.hh"
#include "workload/types.hh"

namespace rc::platform {

/** Everything recorded about one completed invocation. */
struct InvocationRecord
{
    workload::FunctionId function = workload::kInvalidFunction;
    sim::Tick arrival = 0;
    StartupType type = StartupType::Cold;
    sim::Tick queueWait = 0;      //!< time spent in the admission queue
    sim::Tick startupLatency = 0; //!< arrival -> execution start
    sim::Tick execution = 0;      //!< execution duration
    sim::Tick endToEnd = 0;       //!< arrival -> completion
};

/** Collector of invocation records with aggregate accessors. */
class Metrics
{
  public:
    /** Record one completed invocation. */
    void record(const InvocationRecord& record);

    /** Make room for @p invocations records. */
    void reserve(std::size_t invocations) { _records.reserve(invocations); }

    /** All records in completion order. */
    const std::vector<InvocationRecord>& records() const { return _records; }

    /** Count per startup type. */
    std::uint64_t countOf(StartupType type) const;

    /** Total invocations recorded. */
    std::uint64_t total() const { return _records.size(); }

    /** Sum of startup latencies in seconds (the paper's C_startup). */
    double totalStartupSeconds() const { return _totalStartupSeconds; }

    /** Mean startup latency in seconds. */
    double meanStartupSeconds() const;

    /** Mean end-to-end latency in seconds. */
    double meanEndToEndSeconds() const;

    /**
     * Exact P99 of end-to-end latency in seconds, read from the
     * records (sorted into a local copy, so concurrent const reads of
     * one Metrics are safe).
     */
    double p99EndToEndSeconds() const;

    /** Per-function startup latency accumulator (seconds). */
    stats::Accumulator startupByFunction(workload::FunctionId f) const;

    /** Per-function end-to-end accumulator (seconds). */
    stats::Accumulator endToEndByFunction(workload::FunctionId f) const;

    /**
     * Per-minute count of invocations resolved to @p type, keyed by
     * arrival minute (Fig. 10 bottom series).
     */
    stats::TimeSeries startupTypeTimeline(StartupType type) const;

    /** Per-minute cumulative end-to-end latency in seconds (Fig. 3). */
    stats::TimeSeries endToEndTimeline() const;

  private:
    std::vector<InvocationRecord> _records;
    std::array<std::uint64_t, kStartupTypeCount> _typeCounts{};
    double _totalStartupSeconds = 0.0;
    double _totalEndToEndSeconds = 0.0;
};

} // namespace rc::platform

#endif // RC_PLATFORM_METRICS_HH_
