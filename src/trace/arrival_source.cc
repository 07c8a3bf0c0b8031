#include "trace/arrival_source.hh"

#include <algorithm>

#include "trace/generator.hh"

namespace rc::trace {

VectorArrivalSource::VectorArrivalSource(
    const std::vector<Arrival>& arrivals)
    : _arrivals(&arrivals)
{
    for (const Arrival& arrival : arrivals)
        _horizon = std::max(_horizon, arrival.time);
}

namespace {

/**
 * Last arrival instant of a bucket with @p count invocations starting
 * at @p minuteStart. Uniform over both replay cases: count == 1 makes
 * the step term vanish, leaving the minute start.
 */
sim::Tick
bucketLastArrival(sim::Tick minuteStart, std::uint32_t count)
{
    const sim::Tick step = sim::kMinute / static_cast<sim::Tick>(count);
    return minuteStart + static_cast<sim::Tick>(count - 1) * step;
}

sim::Tick
bucketArrival(sim::Tick minuteStart, std::uint32_t count,
              std::uint32_t index)
{
    if (count == 1)
        return minuteStart;
    const sim::Tick step = sim::kMinute / static_cast<sim::Tick>(count);
    return minuteStart + static_cast<sim::Tick>(index) * step;
}

} // namespace

TraceSetArrivalSource::TraceSetArrivalSource(TraceSet set)
    : _owned(std::move(set))
{
    init();
}

TraceSetArrivalSource::TraceSetArrivalSource(const TraceSet* borrowed)
    : _borrowed(borrowed)
{
    init();
}

TraceSetArrivalSource
TraceSetArrivalSource::borrowing(const TraceSet& set)
{
    return TraceSetArrivalSource(&set);
}

void
TraceSetArrivalSource::init()
{
    for (const FunctionTrace& trace : traceSet().traces()) {
        _total += trace.totalInvocations();
        for (std::size_t minute = trace.perMinute.size(); minute > 0;
             --minute) {
            const std::uint32_t count = trace.perMinute[minute - 1];
            if (count == 0)
                continue;
            const sim::Tick minuteStart =
                static_cast<sim::Tick>(minute - 1) * sim::kMinute;
            _horizon =
                std::max(_horizon, bucketLastArrival(minuteStart, count));
            break;
        }
    }
    reset();
}

bool
TraceSetArrivalSource::cursorAfter(const Cursor& a, const Cursor& b)
{
    if (a.time != b.time)
        return a.time > b.time;
    return a.function > b.function;
}

bool
TraceSetArrivalSource::seekBucket(Cursor& cur, std::uint32_t minute) const
{
    const FunctionTrace& trace = traceSet().traces()[cur.trace];
    const std::size_t minutes = trace.perMinute.size();
    for (std::size_t m = minute; m < minutes; ++m) {
        const std::uint32_t count = trace.perMinute[m];
        if (count == 0)
            continue;
        cur.minute = static_cast<std::uint32_t>(m);
        cur.index = 0;
        cur.time = bucketArrival(
            static_cast<sim::Tick>(m) * sim::kMinute, count, 0);
        return true;
    }
    return false;
}

bool
TraceSetArrivalSource::advance(Cursor& cur) const
{
    const FunctionTrace& trace = traceSet().traces()[cur.trace];
    const std::uint32_t count = trace.perMinute[cur.minute];
    if (cur.index + 1 < count) {
        ++cur.index;
        cur.time = bucketArrival(
            static_cast<sim::Tick>(cur.minute) * sim::kMinute, count,
            cur.index);
        return true;
    }
    return seekBucket(cur, cur.minute + 1);
}

void
TraceSetArrivalSource::refreshCurrent()
{
    if (!_heap.empty())
        _current = Arrival{_heap.front().time, _heap.front().function};
}

void
TraceSetArrivalSource::pop()
{
    std::pop_heap(_heap.begin(), _heap.end(), cursorAfter);
    Cursor cur = _heap.back();
    _heap.pop_back();
    if (advance(cur)) {
        _heap.push_back(cur);
        std::push_heap(_heap.begin(), _heap.end(), cursorAfter);
    }
    refreshCurrent();
}

void
TraceSetArrivalSource::reset()
{
    _heap.clear();
    const auto& traces = traceSet().traces();
    _heap.reserve(traces.size());
    for (std::size_t i = 0; i < traces.size(); ++i) {
        Cursor cur;
        cur.trace = static_cast<std::uint32_t>(i);
        cur.function = traces[i].function;
        if (seekBucket(cur, 0))
            _heap.push_back(cur);
    }
    std::make_heap(_heap.begin(), _heap.end(), cursorAfter);
    refreshCurrent();
}

TraceSetArrivalSource
makeAzureLikeSource(const workload::Catalog& catalog,
                    const WorkloadTraceConfig& config)
{
    return TraceSetArrivalSource(generateAzureLike(catalog, config));
}

} // namespace rc::trace
