/**
 * @file
 * The node's arrival path: Node::run pulls arrivals from an
 * ArrivalSource and fires each one ahead of the runtime events of its
 * tick, and the vector overload replays any vector in (time, vector
 * position) order. Then the homes of a live invocation: a ticket
 * cancel and a crash find it in the queue, the in-flight table or the
 * backoff table on a plain node; and the span cursor's arithmetic,
 * tested without an engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/ablations.hh"
#include "obs/observer.hh"
#include "obs/span.hh"
#include "platform/node.hh"
#include "platform/span_cursor.hh"
#include "policy/openwhisk_fixed.hh"
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

// ---- the homes of a live invocation ---------------------------------------

/**
 * A node built the way every node is — no ticket mode to switch on —
 * with spans recorded and a policy that never pre-warms or shares
 * layers on its own, so each test places its invocations by hand.
 */
class TicketHomes : public ::testing::Test
{
  protected:
    TicketHomes() : catalog(workload::Catalog::standard20())
    {
        obs::ObserverConfig config;
        config.traceEnabled = false;
        config.profilingEnabled = false;
        config.spansEnabled = true;
        observer = std::make_unique<obs::Observer>(config);
    }

    std::unique_ptr<Node>
    makeNode(double budgetMb, const fault::FaultPlan& fault = {})
    {
        NodeConfig config;
        config.pool.memoryBudgetMb = budgetMb;
        config.observer = observer.get();
        config.fault = fault;
        return std::make_unique<Node>(
            catalog, std::make_unique<policy::OpenWhiskFixedPolicy>(),
            config);
    }

    double
    userMb(workload::FunctionId f) const
    {
        return catalog.at(f).memoryAtLayer(workload::Layer::User);
    }

    /** Terminal outcomes drained since the last call (no admissions). */
    static std::vector<TicketOutcome>
    terminals(Node& node)
    {
        std::vector<TicketOutcome> out;
        for (const TicketOutcome& o : node.drainTicketOutcomes()) {
            if (o.kind != TicketOutcome::kAdmitted)
                out.push_back(o);
        }
        return out;
    }

    std::uint64_t
    hedgeKills() const
    {
        return observer->counters().total(obs::killCounter(
            static_cast<std::uint8_t>(obs::KillCause::HedgeCancel)));
    }

    /** The root span of the @p n-th invocation (1-based) on node 0. */
    const obs::Span*
    root(std::uint64_t n) const
    {
        for (const obs::Span& span : observer->spans()) {
            if (span.id == ((n << 8) | 1U))
                return &span;
        }
        return nullptr;
    }

    void
    expectWellFormedSpans() const
    {
        std::string error;
        EXPECT_TRUE(obs::validateSpanTree(observer->spans(), &error))
            << error;
    }

    workload::Catalog catalog;
    std::unique_ptr<obs::Observer> observer;
};

TEST_F(TicketHomes, CancelQueuedInvocation)
{
    // The first cold install holds all the memory, so the second
    // invocation parks in the admission queue.
    auto node = makeNode(userMb(0) + 1.0);
    node->invokeNow(0, 0, 1);
    node->invokeNow(1, 0, 2);
    ASSERT_EQ(node->invoker().queuedInvocations(), 1u);
    node->advanceTo(5 * sim::kMillisecond);
    node->cancelTicket(2);

    EXPECT_EQ(node->invoker().queuedInvocations(), 0u);
    const auto out = terminals(*node);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].ticket, 2u);
    EXPECT_EQ(out[0].kind, TicketOutcome::kCancelled);
    EXPECT_EQ(out[0].at, 5 * sim::kMillisecond);
    EXPECT_EQ(node->cancelledInvocations(), 1u);
    const obs::Span* cancelled = root(2);
    ASSERT_NE(cancelled, nullptr);
    EXPECT_EQ(cancelled->info,
              static_cast<std::uint8_t>(obs::SpanOutcome::Cancelled));

    node->engine().run();
    ASSERT_EQ(terminals(*node).size(), 1u); // ticket 1 completes
    EXPECT_EQ(node->metrics().total(), 1u);
    expectWellFormedSpans();
}

TEST_F(TicketHomes, CancelLatchedPrewarmKeepsThePrewarm)
{
    auto node = makeNode(4096.0);
    node->invoker().schedulePrewarm(0, 0);
    node->advanceTo(0); // the pre-warm's install starts
    ASSERT_NE(node->pool().findUnclaimedInit(0), nullptr);
    node->invokeNow(0, 0, 1); // latches onto it (Load)
    ASSERT_EQ(node->pool().findUnclaimedInit(0), nullptr);
    node->advanceTo(5 * sim::kMillisecond);
    node->cancelTicket(1);

    // The claim is released, not the container: the install goes on
    // as an unclaimed pre-warm.
    EXPECT_NE(node->pool().findUnclaimedInit(0), nullptr);
    EXPECT_EQ(node->pool().liveCount(), 1u);
    EXPECT_EQ(hedgeKills(), 0u);
    auto out = terminals(*node);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].kind, TicketOutcome::kCancelled);
    EXPECT_EQ(out[0].at, 5 * sim::kMillisecond);
    EXPECT_EQ(node->cancelledInvocations(), 1u);

    // The next arrival latches onto the surviving pre-warm.
    node->invokeNow(0, 0, 2);
    node->engine().run();
    ASSERT_EQ(node->metrics().total(), 1u);
    EXPECT_EQ(node->metrics().records()[0].type, StartupType::Load);
    out = terminals(*node);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].ticket, 2u);
    EXPECT_EQ(out[0].kind, TicketOutcome::kCompleted);
    expectWellFormedSpans();
}

TEST_F(TicketHomes, CancelColdInstallKillsItsContainer)
{
    auto node = makeNode(4096.0);
    node->invokeNow(0, 0, 1);
    ASSERT_EQ(node->pool().liveCount(), 1u);
    node->advanceTo(5 * sim::kMillisecond);
    const std::uint64_t cancelledEvents = node->engine().cancelledEvents();
    node->cancelTicket(1);

    EXPECT_EQ(node->pool().liveCount(), 0u);
    EXPECT_EQ(hedgeKills(), 1u);
    EXPECT_EQ(node->engine().cancelledEvents(), cancelledEvents + 1);
    const auto out = terminals(*node);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].kind, TicketOutcome::kCancelled);
    EXPECT_EQ(out[0].at, 5 * sim::kMillisecond);
    EXPECT_EQ(node->cancelledInvocations(), 1u);

    node->engine().run();
    EXPECT_EQ(node->metrics().total(), 0u);
    EXPECT_TRUE(terminals(*node).empty());
    expectWellFormedSpans();
}

TEST_F(TicketHomes, CancelExecutionBooksWastedWork)
{
    auto node = makeNode(4096.0);
    node->invokeNow(0, 0, 1);
    while (node->invoker().inFlightInvocations() == 0)
        ASSERT_TRUE(node->engine().step()); // the install completes
    // The run cannot end before its dispatch overhead has passed.
    const sim::Tick overhead = catalog.at(0).costs().userToRun;
    ASSERT_GT(overhead, 0);
    const sim::Tick bound = node->engine().now();
    node->advanceTo(bound + overhead);
    node->cancelTicket(1);

    EXPECT_EQ(node->invoker().inFlightInvocations(), 0u);
    EXPECT_EQ(node->pool().liveCount(), 0u);
    EXPECT_EQ(hedgeKills(), 1u);
    const auto out = terminals(*node);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].kind, TicketOutcome::kCancelled);
    EXPECT_EQ(out[0].at, bound + overhead);
    EXPECT_DOUBLE_EQ(out[0].execSeconds, sim::toSeconds(overhead));
    EXPECT_EQ(node->cancelledInvocations(), 1u);

    node->engine().run();
    EXPECT_EQ(node->metrics().total(), 0u);
    EXPECT_TRUE(terminals(*node).empty());
    expectWellFormedSpans();
}

TEST_F(TicketHomes, CancelDuringBackoffResolvesWhenItFires)
{
    fault::FaultPlan plan;
    plan.execCrashProb = 1.0; // every run dies partway through
    plan.retryBackoffBase = 2 * sim::kSecond;
    plan.retryJitterFrac = 0.0;
    auto node = makeNode(4096.0, plan);
    node->invokeNow(0, 0, 1);
    while (node->invoker().retriesScheduled() == 0)
        ASSERT_TRUE(node->engine().step()); // the run crashes
    const sim::Tick fires = node->engine().now() + 2 * sim::kSecond;
    node->advanceTo(fires - sim::kSecond);
    node->cancelTicket(1);

    // Nothing resolves until the backoff fires.
    EXPECT_TRUE(terminals(*node).empty());
    EXPECT_EQ(node->cancelledInvocations(), 0u);
    node->advanceTo(fires);
    const auto out = terminals(*node);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].kind, TicketOutcome::kCancelled);
    EXPECT_EQ(out[0].at, fires);
    EXPECT_EQ(node->cancelledInvocations(), 1u);
    const obs::Span* cancelled = root(1);
    ASSERT_NE(cancelled, nullptr);
    EXPECT_EQ(cancelled->end, fires);
    EXPECT_EQ(cancelled->attempt, 1u);

    node->engine().run();
    EXPECT_EQ(node->metrics().total(), 0u);
    EXPECT_EQ(node->invoker().retriesScheduled(), 1u);
    expectWellFormedSpans();
}

TEST_F(TicketHomes, CancelOfAnUnknownTicketIsANoOp)
{
    auto node = makeNode(4096.0);
    node->invokeNow(0, 0, 1);
    node->engine().run();
    ASSERT_EQ(terminals(*node).size(), 1u);
    node->cancelTicket(1); // already completed
    node->cancelTicket(7); // never admitted here
    EXPECT_TRUE(terminals(*node).empty());
    EXPECT_EQ(node->cancelledInvocations(), 0u);
}

TEST_F(TicketHomes, CrashNowHandsBackBoundInContainerOrderThenQueue)
{
    // Memory for two installs: a pre-warm of f0 (container 1) and a
    // cold start of f1 (container 2). f1 binds first, f0 latches on
    // second, and f2, f3 queue behind them.
    auto node = makeNode(userMb(0) + userMb(1) + 1.0);
    node->invoker().schedulePrewarm(0, 0);
    node->advanceTo(0);
    node->invokeNow(1, 0, 11); // invocation 1: cold start, container 2
    node->invokeNow(0, 0, 12); // invocation 2: Load latch, container 1
    node->invokeNow(2, 0, 13); // invocation 3: queued
    node->invokeNow(3, 0, 14); // invocation 4: queued
    ASSERT_EQ(node->invoker().queuedInvocations(), 2u);
    node->advanceTo(5 * sim::kMillisecond);

    const auto tickets = node->crashNow(sim::kMinute);
    ASSERT_EQ(tickets.size(), 4u);
    const std::uint64_t tags[] = {12, 11, 13, 14};
    const workload::FunctionId functions[] = {0, 1, 2, 3};
    const std::uint64_t invocations[] = {2, 1, 3, 4};
    for (std::size_t i = 0; i < tickets.size(); ++i) {
        EXPECT_EQ(tickets[i].ticket, tags[i]) << i;
        EXPECT_EQ(tickets[i].function, functions[i]) << i;
        EXPECT_EQ(tickets[i].originSpan, (invocations[i] << 8) | 1U) << i;
        const obs::Span* rerouted = root(invocations[i]);
        ASSERT_NE(rerouted, nullptr) << i;
        EXPECT_EQ(rerouted->info,
                  static_cast<std::uint8_t>(obs::SpanOutcome::Rerouted));
        EXPECT_EQ(rerouted->end, 5 * sim::kMillisecond);
    }
    EXPECT_EQ(node->invoker().queuedInvocations(), 0u);
    EXPECT_EQ(node->invoker().extractedInvocations(), 4u);
    EXPECT_EQ(node->pool().liveCount(), 0u);
    EXPECT_TRUE(terminals(*node).empty()); // the tickets leave with the work
    node->engine().run();
    EXPECT_EQ(node->metrics().total(), 0u);
    expectWellFormedSpans();
}

// ---- span cursor ------------------------------------------------------------

workload::FunctionProfile
costProfile()
{
    workload::StageCosts costs;
    costs.bareInit = 100;
    costs.bareToLang = 10;
    costs.langInit = 290;
    costs.langToUser = 20;
    costs.userInit = 580;
    costs.userToRun = 5;
    costs.bareMemoryMb = 10.0;
    costs.langMemoryMb = 20.0;
    costs.userMemoryMb = 30.0;
    return workload::FunctionProfile(0, "t", "t", workload::Language::Python,
                                     workload::Domain::WebApp, costs,
                                     sim::kSecond, 0.0);
}

std::vector<std::pair<obs::SpanStage, sim::Tick>>
split(StartupType type, sim::Tick start, sim::Tick end)
{
    std::array<InitStage, 3> stages;
    const std::size_t n = initStages(type, costProfile(), start, end, stages);
    std::vector<std::pair<obs::SpanStage, sim::Tick>> out;
    for (std::size_t i = 0; i < n; ++i)
        out.emplace_back(stages[i].stage, stages[i].end);
    return out;
}

TEST(SpanCursor, InitSplitFollowsTheRungsInstallCosts)
{
    using obs::SpanStage;
    using Split = std::vector<std::pair<SpanStage, sim::Tick>>;
    const workload::FunctionProfile p = costProfile();
    ASSERT_EQ(p.installLatency(workload::Layer::None,
                               workload::Layer::User), 1000);
    // Cold builds all three layers, weighted 100 : 300 : 600.
    EXPECT_EQ(split(StartupType::Cold, 1000, 3000),
              (Split{{SpanStage::InitBare, 1200},
                     {SpanStage::InitLang, 1800},
                     {SpanStage::InitUser, 3000}}));
    // Bare builds Lang and User, 300 : 600 (integer division).
    EXPECT_EQ(split(StartupType::Bare, 1000, 3000),
              (Split{{SpanStage::InitLang, 1666},
                     {SpanStage::InitUser, 3000}}));
    // A Lang hit and a foreign-User specialize build the User layer.
    EXPECT_EQ(split(StartupType::Lang, 1000, 3000),
              (Split{{SpanStage::InitUser, 3000}}));
    EXPECT_EQ(split(StartupType::User, 1000, 3000),
              (Split{{SpanStage::InitUser, 3000}}));
    // A Load latch waited on someone else's install.
    EXPECT_EQ(split(StartupType::Load, 1000, 3000),
              (Split{{SpanStage::InitWait, 3000}}));
}

TEST(SpanCursor, StagesTileFromTheLastEndAndSkipZeroLength)
{
    SpanCursor cursor{7, 0, 100, 2};
    obs::Span span;
    EXPECT_FALSE(cursor.closeStage(100, span)); // zero-length: skipped
    EXPECT_EQ(cursor.nextSeq, 2u);
    ASSERT_TRUE(cursor.closeStage(160, span));
    EXPECT_EQ(span.id, (7u << 8) | 2U);
    EXPECT_EQ(span.parent, (7u << 8) | 1U);
    EXPECT_EQ(span.invocation, 7u);
    EXPECT_EQ(span.start, 100);
    EXPECT_EQ(span.end, 160);
    ASSERT_TRUE(cursor.closeStage(200, span));
    EXPECT_EQ(span.id, (7u << 8) | 3U);
    EXPECT_EQ(span.start, 160);
    EXPECT_EQ(cursor.lastEnd, 200);
}

TEST(SpanCursor, SeqSpaceStopsAt0xff)
{
    SpanCursor cursor{7, 0, 0, 0xff};
    obs::Span span;
    ASSERT_TRUE(cursor.closeStage(10, span));
    EXPECT_EQ(span.id, (7u << 8) | 0xffU);
    // The seq byte is spent: nothing more is emitted, but the cursor
    // still moves, so a later root keeps its true end.
    EXPECT_FALSE(cursor.closeStage(20, span));
    EXPECT_EQ(cursor.lastEnd, 20);
}

TEST(SpanCursor, RootIsSeqOneParentedToTheOrigin)
{
    const SpanCursor cursor{7, (3u << 8) | 1U, 50, 4};
    obs::Span span;
    cursor.closeRoot(10, 90, obs::SpanOutcome::Rerouted, span);
    EXPECT_EQ(span.id, cursor.rootId());
    EXPECT_EQ(span.id, (7u << 8) | 1U);
    EXPECT_EQ(span.parent, (3u << 8) | 1U);
    EXPECT_EQ(span.invocation, 7u);
    EXPECT_EQ(span.start, 10);
    EXPECT_EQ(span.end, 90);
    EXPECT_EQ(span.stage, obs::SpanStage::Invocation);
    EXPECT_EQ(span.info,
              static_cast<std::uint8_t>(obs::SpanOutcome::Rerouted));
    EXPECT_EQ(SpanCursor{}.rootId(), 0u); // spans off
}

TEST(SpanCursor, AttemptIsClampedTo0xff)
{
    EXPECT_EQ(spanAttempt(0), 0u);
    EXPECT_EQ(spanAttempt(7), 7u);
    EXPECT_EQ(spanAttempt(0xff), 0xffu);
    EXPECT_EQ(spanAttempt(300), 0xffu);
}

} // namespace
} // namespace rc::platform
