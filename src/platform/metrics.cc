#include "platform/metrics.hh"

#include "stats/percentile.hh"

namespace rc::platform {

void
Metrics::record(const InvocationRecord& record)
{
    _records.push_back(record);
    ++_typeCounts[startupTypeIndex(record.type)];
    _totalStartupSeconds += sim::toSeconds(record.startupLatency);
    _totalEndToEndSeconds += sim::toSeconds(record.endToEnd);
}

std::uint64_t
Metrics::countOf(StartupType type) const
{
    return _typeCounts[startupTypeIndex(type)];
}

double
Metrics::meanStartupSeconds() const
{
    if (_records.empty())
        return 0.0;
    return _totalStartupSeconds / static_cast<double>(_records.size());
}

double
Metrics::meanEndToEndSeconds() const
{
    if (_records.empty())
        return 0.0;
    return _totalEndToEndSeconds / static_cast<double>(_records.size());
}

double
Metrics::p99EndToEndSeconds() const
{
    std::vector<double> e2e;
    e2e.reserve(_records.size());
    for (const auto& record : _records)
        e2e.push_back(sim::toSeconds(record.endToEnd));
    return stats::quantileOf(std::move(e2e), 0.99);
}

stats::Accumulator
Metrics::startupByFunction(workload::FunctionId f) const
{
    stats::Accumulator acc;
    for (const auto& record : _records) {
        if (record.function == f)
            acc.add(sim::toSeconds(record.startupLatency));
    }
    return acc;
}

stats::Accumulator
Metrics::endToEndByFunction(workload::FunctionId f) const
{
    stats::Accumulator acc;
    for (const auto& record : _records) {
        if (record.function == f)
            acc.add(sim::toSeconds(record.endToEnd));
    }
    return acc;
}

stats::TimeSeries
Metrics::startupTypeTimeline(StartupType type) const
{
    stats::TimeSeries series;
    for (const auto& record : _records) {
        if (record.type == type)
            series.add(record.arrival, 1.0);
    }
    return series;
}

stats::TimeSeries
Metrics::endToEndTimeline() const
{
    stats::TimeSeries series;
    for (const auto& record : _records)
        series.add(record.arrival, sim::toSeconds(record.endToEnd));
    return series;
}

} // namespace rc::platform
