#include "exp/report.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <ostream>

#include "obs/json.hh"
#include "stats/quantile_sketch.hh"
#include "stats/table.hh"

namespace rc::exp {

void
printSummaryTable(std::ostream& os, const std::string& title,
                  const std::vector<RunResult>& results)
{
    stats::Table table(title);
    table.setHeader({"Policy", "Invocations", "Cold", "Bare", "Lang",
                     "User", "Load", "MeanStartup(s)", "TotalStartup(s)",
                     "MeanE2E(s)", "P99E2E(s)", "Waste(GBs)",
                     "NeverHit(GBs)", "Stranded"});
    for (const auto& result : results) {
        const auto& m = result.metrics;
        table.row()
            .text(result.policyName)
            .integer(static_cast<long long>(m.total()))
            .integer(static_cast<long long>(
                m.countOf(platform::StartupType::Cold)))
            .integer(static_cast<long long>(
                m.countOf(platform::StartupType::Bare)))
            .integer(static_cast<long long>(
                m.countOf(platform::StartupType::Lang)))
            .integer(static_cast<long long>(
                m.countOf(platform::StartupType::User)))
            .integer(static_cast<long long>(
                m.countOf(platform::StartupType::Load)))
            .num(m.meanStartupSeconds(), 3)
            .num(m.totalStartupSeconds(), 0)
            .num(m.meanEndToEndSeconds(), 3)
            .num(m.p99EndToEndSeconds(), 3)
            .num(result.wasteGbSeconds(), 0)
            .num(result.neverHitWasteMbSeconds / 1024.0, 0)
            .integer(static_cast<long long>(result.strandedInvocations));
    }
    table.print(os);
}

void
printTimeline(std::ostream& os, const std::string& label,
              const stats::TimeSeries& series, std::size_t maxRows,
              bool cumulative)
{
    const auto values =
        cumulative ? series.cumulative() : series.values();
    if (values.empty()) {
        os << label << ": (empty)\n";
        return;
    }
    const std::size_t stride =
        std::max<std::size_t>(1, (values.size() + maxRows - 1) / maxRows);

    os << label << " (minute: value, stride " << stride << "):\n";
    for (std::size_t start = 0; start < values.size(); start += stride) {
        const std::size_t end = std::min(values.size(), start + stride);
        double v = 0.0;
        if (cumulative) {
            v = values[end - 1]; // cumulative: take the last point
        } else {
            for (std::size_t i = start; i < end; ++i)
                v += values[i];
        }
        os << "  " << start << ": " << stats::formatNumber(v, 2) << '\n';
    }
}

namespace {

std::string
lowerCased(const char* s)
{
    std::string out(s);
    std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return out;
}

/** Doubles in the report: plain decimal, NaN/Inf degrade to null. */
void
writeNumber(std::ostream& os, double v)
{
    if (std::isfinite(v))
        os << v;
    else
        os << "null";
}

void
writeObservability(std::ostream& os, const obs::Observer& observer,
                   const char* indent)
{
    const auto& registry = observer.counters();
    os << indent << "\"counters\": {";
    for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
        const auto counter = static_cast<obs::Counter>(i);
        os << (i == 0 ? "" : ", ") << '"' << obs::toString(counter)
           << "\": " << registry.total(counter);
    }
    os << "},\n" << indent << "\"gauges\": {";
    for (std::size_t i = 0; i < obs::kGaugeCount; ++i) {
        const auto gauge = static_cast<obs::Gauge>(i);
        os << (i == 0 ? "" : ", ") << '"' << obs::toString(gauge)
           << "\": ";
        writeNumber(os, registry.highWater(gauge));
    }
    os << "},\n" << indent << "\"profile\": [";
    const auto& profile = observer.profileData();
    bool first = true;
    for (std::size_t i = 0; i < obs::kScopeCount; ++i) {
        const auto scope = static_cast<obs::Scope>(i);
        if (profile.calls(scope) == 0)
            continue;
        os << (first ? "" : ", ") << "{\"scope\": \""
           << obs::toString(scope) << "\", \"calls\": "
           << profile.calls(scope) << ", \"total_ns\": "
           << profile.totalNs(scope) << ", \"mean_ns\": ";
        writeNumber(os, profile.meanNs(scope));
        os << '}';
        first = false;
    }
    os << "],\n"
       << indent << "\"events_recorded\": " << observer.events().size()
       << ",\n"
       << indent << "\"events_dropped\": " << observer.droppedEvents()
       << ",\n"
       << indent << "\"spans_recorded\": " << observer.spans().size()
       << ",\n"
       << indent << "\"spans_dropped\": " << observer.droppedSpans()
       << ",\n";
}

/**
 * Per-function end-to-end latency tracks from mergeable quantile
 * sketches (1% relative error). These complement — never replace —
 * the exact percentiles above: goldens pin the exact values, the
 * sketch section is what fleet-scale aggregation can actually merge.
 */
void
writeFunctionLatency(std::ostream& os, const platform::Metrics& metrics,
                     const char* indent)
{
    std::map<workload::FunctionId, stats::QuantileSketch> sketches;
    for (const auto& record : metrics.records())
        sketches[record.function].add(sim::toSeconds(record.endToEnd));
    os << indent << "\"function_latency\": [";
    bool first = true;
    for (const auto& [function, sketch] : sketches) {
        os << (first ? "" : ", ") << "{\"function\": " << function
           << ", \"count\": " << sketch.count()
           << ", \"sketch_p50_s\": ";
        writeNumber(os, sketch.median());
        os << ", \"sketch_p99_s\": ";
        writeNumber(os, sketch.p99());
        os << '}';
        first = false;
    }
    os << "],\n";
}

} // namespace

void
writeReportJson(std::ostream& os, const std::string& title,
                const std::vector<RunResult>& results)
{
    os << "{\n"
       << "  \"schema\": \"rainbowcake-report-v1\",\n"
       << "  \"title\": \"" << obs::jsonEscape(title) << "\",\n"
       << "  \"policies\": [\n";
    for (std::size_t r = 0; r < results.size(); ++r) {
        const RunResult& result = results[r];
        const auto& m = result.metrics;
        os << "    {\n"
           << "      \"policy\": \""
           << obs::jsonEscape(result.policyName) << "\",\n"
           << "      \"run_id\": \"" << obs::jsonEscape(result.runId)
           << "\",\n"
           << "      \"invocations\": " << m.total() << ",\n"
           << "      \"startup_counts\": {";
        for (std::size_t t = 0; t < platform::kStartupTypeCount; ++t) {
            const auto type = static_cast<platform::StartupType>(t);
            os << (t == 0 ? "" : ", ") << '"'
               << lowerCased(platform::toString(type)) << "\": "
               << m.countOf(type);
        }
        os << "},\n"
           << "      \"mean_startup_seconds\": ";
        writeNumber(os, m.meanStartupSeconds());
        os << ",\n      \"total_startup_seconds\": ";
        writeNumber(os, m.totalStartupSeconds());
        os << ",\n      \"mean_e2e_seconds\": ";
        writeNumber(os, m.meanEndToEndSeconds());
        os << ",\n      \"p99_e2e_seconds\": ";
        writeNumber(os, m.p99EndToEndSeconds());
        os << ",\n      \"waste_gb_seconds\": ";
        writeNumber(os, result.wasteGbSeconds());
        os << ",\n      \"never_hit_waste_gb_seconds\": ";
        writeNumber(os, result.neverHitWasteMbSeconds / 1024.0);
        os << ",\n      \"stranded\": " << result.strandedInvocations
           << ",\n      \"failed\": " << result.failedInvocations
           << ",\n      \"retries\": " << result.retriesScheduled
           << ",\n      \"finalize_drained\": " << result.finalizeDrained
           << ",\n      \"rejected\": " << result.rejectedInvocations
           << ",\n      \"shed_deadline\": " << result.shedDeadline
           << ",\n      \"shed_pressure\": " << result.shedPressure
           << ",\n      \"degraded_keepalives\": "
           << result.degradedKeepalives
           << ",\n      \"peak_queue_depth\": " << result.peakQueueDepth
           << ",\n";
        writeFunctionLatency(os, m, "      ");
        if (result.observer != nullptr)
            writeObservability(os, *result.observer, "      ");
        os << "      \"instrumented\": "
           << (result.observer != nullptr ? "true" : "false") << "\n"
           << "    }" << (r + 1 < results.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

std::string
percentChange(double baseline, double ours)
{
    if (baseline == 0.0)
        return "n/a";
    const double change = (ours - baseline) / baseline * 100.0;
    const char sign = change >= 0.0 ? '+' : '-';
    return std::string(1, sign)
        .append(stats::formatNumber(std::abs(change), 1))
        .append("%");
}

} // namespace rc::exp
