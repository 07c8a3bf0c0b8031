/**
 * @file
 * The node's arrival path: Node::run pulls arrivals from an
 * ArrivalSource and fires each one ahead of the runtime events of its
 * tick, and the vector overload replays any vector in (time, vector
 * position) order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/ablations.hh"
#include "platform/node.hh"
#include "trace/arrival_source.hh"
#include "trace/generator.hh"
#include "trace/replay.hh"
#include "workload/catalog.hh"

namespace rc::platform {
namespace {

/** Everything a finished run reports that the arrival order can move. */
struct Outcome
{
    std::vector<InvocationRecord> records;
    double wasteMbSeconds = 0.0;
    double hitWasteMbSeconds = 0.0;
    std::vector<std::uint64_t> startups; // one count per StartupType
    std::uint64_t rejected = 0;
    std::uint64_t shed = 0;
    std::uint64_t failed = 0;
    std::uint64_t retries = 0;
};

Outcome
outcomeOf(Node& node)
{
    Outcome out;
    out.records = node.metrics().records();
    out.wasteMbSeconds = node.pool().wasteLog().totalWasteMbSeconds();
    out.hitWasteMbSeconds = node.pool().wasteLog().hitWasteMbSeconds();
    for (std::size_t t = 0; t < kStartupTypeCount; ++t)
        out.startups.push_back(
            node.metrics().countOf(static_cast<StartupType>(t)));
    out.rejected = node.invoker().rejectedInvocations();
    out.shed = node.invoker().shedDeadlineCount() +
               node.invoker().shedPressureCount();
    out.failed = node.invoker().failedInvocations();
    out.retries = node.invoker().retriesScheduled();
    return out;
}

void
expectSameOutcome(const Outcome& a, const Outcome& b, const char* label)
{
    ASSERT_EQ(a.records.size(), b.records.size()) << label;
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        const InvocationRecord& x = a.records[i];
        const InvocationRecord& y = b.records[i];
        EXPECT_EQ(x.function, y.function) << label << " record " << i;
        EXPECT_EQ(x.arrival, y.arrival) << label << " record " << i;
        EXPECT_EQ(x.type, y.type) << label << " record " << i;
        EXPECT_EQ(x.queueWait, y.queueWait) << label << " record " << i;
        EXPECT_EQ(x.startupLatency, y.startupLatency)
            << label << " record " << i;
        EXPECT_EQ(x.execution, y.execution) << label << " record " << i;
        EXPECT_EQ(x.endToEnd, y.endToEnd) << label << " record " << i;
    }
    EXPECT_EQ(a.wasteMbSeconds, b.wasteMbSeconds) << label;
    EXPECT_EQ(a.hitWasteMbSeconds, b.hitWasteMbSeconds) << label;
    EXPECT_EQ(a.startups, b.startups) << label;
    EXPECT_EQ(a.rejected, b.rejected) << label;
    EXPECT_EQ(a.shed, b.shed) << label;
    EXPECT_EQ(a.failed, b.failed) << label;
    EXPECT_EQ(a.retries, b.retries) << label;
}

template <typename Arrivals>
Outcome
runNode(const workload::Catalog& catalog, Arrivals& arrivals,
        const NodeConfig& config)
{
    Node node(catalog, core::makeRainbowCake(catalog), config);
    node.run(arrivals);
    return outcomeOf(node);
}

/**
 * The replay as it ran when the engine held every arrival: all of
 * them scheduled at t = 0, ahead of the fault and controller chains,
 * so each fires before every runtime event of its tick.
 */
Outcome
runScheduledUpFront(const workload::Catalog& catalog,
                    const std::vector<trace::Arrival>& arrivals,
                    const NodeConfig& config)
{
    Node node(catalog, core::makeRainbowCake(catalog), config);
    sim::Tick horizon = 0;
    for (const trace::Arrival& arrival : arrivals) {
        horizon = std::max(horizon, arrival.time);
        node.engine().schedule(arrival.time, [&node, f = arrival.function] {
            node.invokeNow(f);
        });
    }
    node.armFaults(horizon, /*manageNodeCrashes=*/true);
    node.armAdmission(horizon);
    node.engine().run();
    node.finalize();
    return outcomeOf(node);
}

trace::TraceSet
squeezedTrace(const workload::Catalog& catalog)
{
    trace::WorkloadTraceConfig config;
    config.minutes = 60;
    config.targetInvocations = 5000;
    config.seed = 4242;
    return trace::generateAzureLike(catalog, config);
}

TEST(NodeArrivalPath, VectorOverloadFiresInTimeThenVectorOrder)
{
    // Minute-start blocks in a scrambled minute order, each block
    // listing every function in descending id order: times go
    // backwards, and same-tick arrivals are not in Arrival::operator<
    // order.
    const auto catalog = workload::Catalog::standard20();
    std::vector<trace::Arrival> arrivals;
    for (sim::Tick k = 0; k < 30; ++k) {
        const sim::Tick minute = (k * 7) % 30;
        for (auto f = static_cast<workload::FunctionId>(catalog.size());
             f > 0; --f)
            arrivals.push_back({minute * sim::kMinute, f - 1});
    }
    ASSERT_FALSE(std::is_sorted(arrivals.begin(), arrivals.end()));

    std::vector<trace::Arrival> byTime = arrivals;
    std::stable_sort(byTime.begin(), byTime.end(),
                     [](const trace::Arrival& a, const trace::Arrival& b) {
                         return a.time < b.time;
                     });
    NodeConfig config;
    config.pool.memoryBudgetMb = 2048.0;

    const Outcome unsorted = runNode(catalog, arrivals, config);
    const Outcome sorted = runNode(catalog, byTime, config);
    ASSERT_EQ(unsorted.records.size(), arrivals.size());
    expectSameOutcome(unsorted, sorted, "unsorted vs stable-sorted");
    expectSameOutcome(unsorted,
                      runScheduledUpFront(catalog, arrivals, config),
                      "unsorted vs scheduled up front");

    // Sorting by (time, function) instead gives a different replay,
    // so the comparison above can tell the two orders apart.
    std::vector<trace::Arrival> byFunction = arrivals;
    std::sort(byFunction.begin(), byFunction.end());
    const Outcome other = runNode(catalog, byFunction, config);
    bool differs = false;
    for (std::size_t i = 0; i < other.records.size() && !differs; ++i) {
        differs = other.records[i].function != sorted.records[i].function ||
                  other.records[i].endToEnd != sorted.records[i].endToEnd;
    }
    EXPECT_TRUE(differs);
}

TEST(NodeArrivalPath, StreamedAndVectorRunsAgreeUnderControllerAndCrashes)
{
    // The pressure controller ticks every 10 s, so its ticks land on
    // the minute-start arrivals; node crashes and retries add runtime
    // events of their own. Arrivals must fire ahead of both, exactly
    // as when the engine held every arrival from t = 0.
    const auto catalog = workload::Catalog::standard20();
    const trace::TraceSet set = squeezedTrace(catalog);
    const auto arrivals = trace::expandArrivals(set);

    NodeConfig admission;
    admission.pool.memoryBudgetMb = 384.0;
    admission.admission.maxQueueDepth = 8;
    admission.admission.queueDeadlineSeconds = 30.0;
    admission.admission.pressureControlEnabled = true;
    admission.admission.controllerIntervalSeconds = 10.0;
    admission.admission.pressureSmoothing = 0.5;
    admission.admission.pressureWarn = 0.3;
    admission.admission.pressureHigh = 0.5;
    admission.admission.pressureCritical = 0.7;

    NodeConfig crashes;
    crashes.pool.memoryBudgetMb = 2048.0;
    crashes.fault.nodeMtbfSeconds = 300.0;
    crashes.fault.nodeDowntimeSeconds = 20.0;
    crashes.fault.maxRetries = 2;

    for (const auto& [label, config] :
         {std::pair{"admission", admission}, std::pair{"crashes", crashes}}) {
        auto source = trace::TraceSetArrivalSource::borrowing(set);
        const Outcome streamed = runNode(catalog, source, config);
        const Outcome vector = runNode(catalog, arrivals, config);
        // Both plans act on this trace, so the comparison covers them.
        EXPECT_GT(streamed.shed + streamed.retries, 0u) << label;
        expectSameOutcome(streamed, vector, label);
        expectSameOutcome(streamed,
                          runScheduledUpFront(catalog, arrivals, config),
                          label);
    }
}

} // namespace
} // namespace rc::platform
