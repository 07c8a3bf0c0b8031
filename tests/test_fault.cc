/**
 * @file
 * Tests for rc::fault: plan parsing, injector sampling, init/exec
 * fault mechanics in the invoker, retry with capped backoff, node
 * crash/restart, transient overload windows, and the zero-knob
 * inertness contract (an inactive plan installs nothing and changes
 * nothing).
 */

#include <gtest/gtest.h>

#include "admission/admission_plan.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_plan.hh"
#include "obs/observer.hh"
#include "platform/node.hh"
#include "policy/policy.hh"
#include "sim/rng.hh"
#include "trace/generator.hh"
#include "trace/replay.hh"
#include "workload/catalog.hh"

namespace rc::fault {
namespace {

using platform::Node;
using platform::NodeConfig;
using workload::Layer;
using rc::sim::kMinute;
using rc::sim::kSecond;
using rc::sim::Tick;

// ---- FaultPlan -------------------------------------------------------

TEST(FaultPlan, DefaultIsInert)
{
    FaultPlan plan;
    EXPECT_FALSE(plan.active());
}

TEST(FaultPlan, AnyFaultKnobActivates)
{
    {
        FaultPlan p;
        p.userInitFailProb = 0.01;
        EXPECT_TRUE(p.active());
    }
    {
        FaultPlan p;
        p.execCrashProb = 0.01;
        EXPECT_TRUE(p.active());
    }
    {
        FaultPlan p;
        p.wedgeProb = 0.01;
        EXPECT_TRUE(p.active());
    }
    {
        FaultPlan p;
        p.nodeMtbfSeconds = 600.0;
        EXPECT_TRUE(p.active());
    }
    {
        FaultPlan p;
        p.overloadRatePerHour = 2.0;
        EXPECT_TRUE(p.active());
    }
}

TEST(FaultPlan, RecoveryKnobsAloneStayInert)
{
    // Retry/backoff/shedding parameters are only consulted after a
    // fault fired; tuning them must not install an injector.
    FaultPlan plan;
    plan.maxRetries = 7;
    plan.retryBackoffBase = kSecond;
    plan.retryJitterFrac = 0.5;
    plan.shedPrewarmsUnderPressure = false;
    EXPECT_FALSE(plan.active());
}

TEST(FaultPlan, ParsesFlatJson)
{
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(parseFaultPlan(
        R"({"user_init_fail_prob": 0.02, "exec_crash_prob": 0.01,
            "node_mtbf_seconds": 1800, "max_retries": 5,
            "retry_backoff_base_seconds": 0.5,
            "shed_prewarms_under_pressure": false})",
        plan, &error))
        << error;
    EXPECT_DOUBLE_EQ(plan.userInitFailProb, 0.02);
    EXPECT_DOUBLE_EQ(plan.execCrashProb, 0.01);
    EXPECT_DOUBLE_EQ(plan.nodeMtbfSeconds, 1800.0);
    EXPECT_EQ(plan.maxRetries, 5u);
    EXPECT_EQ(plan.retryBackoffBase, sim::fromSeconds(0.5));
    EXPECT_FALSE(plan.shedPrewarmsUnderPressure);
    EXPECT_TRUE(plan.active());
}

TEST(FaultPlan, EmptyObjectParsesInert)
{
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(parseFaultPlan("{}", plan, &error)) << error;
    EXPECT_FALSE(plan.active());
}

TEST(FaultPlan, RejectsUnknownKey)
{
    // A typoed knob silently running fault-free would be worse than
    // an error.
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(
        parseFaultPlan(R"({"user_init_fail_probability": 1})", plan,
                       &error));
    EXPECT_NE(error.find("user_init_fail_probability"),
              std::string::npos);
}

TEST(FaultPlan, RejectsSecondsPastTheKnobBound)
{
    // A 1e300 s downtime overflowed the crash schedule's tick sums and
    // never finished; every seconds knob is capped at 1e9 s.
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(parseFaultPlan(
        R"({"node_mtbf_seconds": 60, "node_downtime_seconds": 1e300})",
        plan, &error));
    EXPECT_NE(error.find("node_downtime_seconds"), std::string::npos);
    EXPECT_FALSE(parseFaultPlan(R"({"node_mtbf_seconds": 9e12})", plan,
                                &error));
    EXPECT_FALSE(parseFaultPlan(
        R"({"net_degraded_duration_seconds": 2e9})", plan, &error));
    EXPECT_TRUE(parseFaultPlan(
        R"({"node_mtbf_seconds": 1e9, "node_downtime_seconds": 1e9})",
        plan, &error))
        << error;
    EXPECT_DOUBLE_EQ(plan.nodeMtbfSeconds, 1e9);
}

TEST(FaultPlan, RejectsMalformedJson)
{
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(parseFaultPlan("{\"user_init_fail_prob\":", plan,
                                &error));
    EXPECT_FALSE(error.empty());
}

TEST(FaultPlan, LoadRejectsMissingFile)
{
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(loadFaultPlanFile("/nonexistent/fault-plan.json",
                                   plan, &error));
    EXPECT_FALSE(error.empty());
}

// ---- FaultInjector ---------------------------------------------------

FaultInjector
makeInjector(const FaultPlan& plan, std::uint64_t seed = 11)
{
    return FaultInjector(plan, sim::Rng(seed).stream("fault"));
}

TEST(FaultInjector, SamplingIsDeterministic)
{
    FaultPlan plan;
    plan.userInitFailProb = 0.3;
    plan.execCrashProb = 0.2;
    plan.wedgeProb = 0.1;
    FaultInjector a = makeInjector(plan);
    FaultInjector b = makeInjector(plan);
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(a.sampleInitFault(true, true, true),
                  b.sampleInitFault(true, true, true));
        EXPECT_EQ(a.sampleExecFault(), b.sampleExecFault());
        EXPECT_EQ(a.retryBackoff(1 + i % 5), b.retryBackoff(1 + i % 5));
    }
}

TEST(FaultInjector, InitFaultFailsBottomUp)
{
    FaultPlan plan;
    plan.bareInitFailProb = 1.0;
    plan.langInitFailProb = 1.0;
    plan.userInitFailProb = 1.0;
    FaultInjector injector = makeInjector(plan);
    // The lowest covered stage fails first.
    EXPECT_EQ(injector.sampleInitFault(true, true, true), Layer::Bare);
    EXPECT_EQ(injector.sampleInitFault(false, true, true), Layer::Lang);
    EXPECT_EQ(injector.sampleInitFault(false, false, true), Layer::User);
}

TEST(FaultInjector, InitFaultOnlySamplesCoveredStages)
{
    FaultPlan plan;
    plan.userInitFailProb = 1.0; // bare/lang clean
    FaultInjector injector = makeInjector(plan);
    // An install that does not cover the user stage cannot draw a
    // user-stage failure.
    EXPECT_EQ(injector.sampleInitFault(true, true, false), std::nullopt);
    EXPECT_EQ(injector.sampleInitFault(true, true, true), Layer::User);
}

TEST(FaultInjector, ZeroPlanDrawsNothing)
{
    // bernoulli(0) consumes no randomness, so an all-zero plan leaves
    // the fault stream untouched — the heart of the pay-for-what-you-
    // use contract.
    FaultInjector injector = makeInjector(FaultPlan{});
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(injector.sampleInitFault(true, true, true),
                  std::nullopt);
        EXPECT_EQ(injector.sampleExecFault(), ExecFault::None);
    }
    sim::Rng pristine = sim::Rng(11).stream("fault");
    EXPECT_DOUBLE_EQ(injector.rng().uniform(), pristine.uniform());
}

TEST(FaultInjector, RetryBackoffIsCappedExponential)
{
    FaultPlan plan;
    plan.retryBackoffBase = 100 * sim::kMillisecond;
    plan.retryBackoffCap = sim::fromSeconds(2.0);
    plan.retryJitterFrac = 0.0; // deterministic schedule
    FaultInjector injector = makeInjector(plan);
    EXPECT_EQ(injector.retryBackoff(1), 100 * sim::kMillisecond);
    EXPECT_EQ(injector.retryBackoff(2), 200 * sim::kMillisecond);
    EXPECT_EQ(injector.retryBackoff(3), 400 * sim::kMillisecond);
    // Attempt 6 would be 3.2 s; the cap holds it at 2 s.
    EXPECT_EQ(injector.retryBackoff(6), sim::fromSeconds(2.0));
    EXPECT_EQ(injector.retryBackoff(30), sim::fromSeconds(2.0));
}

TEST(FaultInjector, RetryBackoffJitterStaysBounded)
{
    FaultPlan plan;
    plan.retryBackoffBase = 100 * sim::kMillisecond;
    plan.retryBackoffCap = sim::fromSeconds(2.0);
    plan.retryJitterFrac = 0.25;
    FaultInjector injector = makeInjector(plan);
    for (int i = 0; i < 200; ++i) {
        // Attempt 2 centres on 200 ms; jitter is symmetric +-25%.
        const Tick backoff = injector.retryBackoff(2);
        EXPECT_GT(backoff, 0);
        EXPECT_GE(backoff, 150 * sim::kMillisecond);
        EXPECT_LE(backoff, 250 * sim::kMillisecond);
    }
}

TEST(FaultInjector, CrashFractionIsProperFraction)
{
    FaultPlan plan;
    plan.execCrashProb = 1.0;
    FaultInjector injector = makeInjector(plan);
    for (int i = 0; i < 200; ++i) {
        const double fraction = injector.crashFraction();
        EXPECT_GT(fraction, 0.0);
        EXPECT_LT(fraction, 1.0);
    }
}

// ---- platform integration --------------------------------------------

/** Minimal policy counting the fault hooks. */
class CountingPolicy : public policy::Policy
{
  public:
    std::string name() const override { return "counting"; }
    sim::Tick
    keepAliveTtl(const container::Container& c) override
    {
        (void)c;
        return 10 * kMinute;
    }
    policy::IdleDecision
    onIdleExpired(const container::Container& c) override
    {
        (void)c;
        return policy::IdleDecision::kill();
    }
    void onContainerFailed(const container::Container& c) override
    {
        (void)c;
        ++containerFailures;
    }
    void onNodeDown(sim::Tick downtime) override
    {
        (void)downtime;
        ++nodeDowns;
    }

    std::uint64_t containerFailures = 0;
    std::uint64_t nodeDowns = 0;
};

class FaultNodeTest : public ::testing::Test
{
  protected:
    FaultNodeTest() : catalog(workload::Catalog::standard20()) {}

    void
    makeNode(const FaultPlan& plan, std::uint64_t seed = 1)
    {
        auto policy = std::make_unique<CountingPolicy>();
        policyPtr = policy.get();
        NodeConfig config;
        config.seed = seed;
        config.fault = plan;
        node = std::make_unique<Node>(catalog, std::move(policy), config);
    }

    workload::FunctionId
    fid(const char* name) const
    {
        return *catalog.findByShortName(name);
    }

    std::vector<trace::Arrival>
    smallWorkload(std::uint64_t seed = 17) const
    {
        trace::WorkloadTraceConfig config;
        config.minutes = 20;
        config.targetInvocations = 800;
        config.seed = seed;
        return trace::expandArrivals(
            trace::generateAzureLike(catalog, config));
    }

    workload::Catalog catalog;
    std::unique_ptr<Node> node;
    CountingPolicy* policyPtr = nullptr;
};

TEST_F(FaultNodeTest, InactivePlanInstallsNoInjector)
{
    makeNode(FaultPlan{});
    EXPECT_EQ(node->faultInjector(), nullptr);
    node->invokeNow(fid("MD-Py"));
    node->engine().run();
    node->finalize();
    EXPECT_EQ(node->metrics().total(), 1u);
    EXPECT_EQ(node->invoker().failedInvocations(), 0u);
    EXPECT_EQ(node->invoker().retriesScheduled(), 0u);
}

TEST_F(FaultNodeTest, CertainInitFaultExhaustsRetries)
{
    FaultPlan plan;
    plan.userInitFailProb = 1.0; // every install dies at the user stage
    plan.maxRetries = 2;
    plan.retryJitterFrac = 0.0;
    makeNode(plan);
    ASSERT_NE(node->faultInjector(), nullptr);
    node->invokeNow(fid("MD-Py"));
    node->engine().run();
    node->finalize();
    // Initial attempt + 2 retries, each losing its container.
    EXPECT_EQ(node->metrics().total(), 0u);
    EXPECT_EQ(node->invoker().failedInvocations(), 1u);
    EXPECT_EQ(node->invoker().retriesScheduled(), 2u);
    EXPECT_EQ(policyPtr->containerFailures, 3u);
    EXPECT_EQ(node->pool().liveCount(), 0u);
    EXPECT_EQ(node->invoker().inFlightInvocations(), 0u);
}

TEST_F(FaultNodeTest, CertainExecCrashWithoutRetriesFailsAll)
{
    FaultPlan plan;
    plan.execCrashProb = 1.0;
    plan.maxRetries = 0; // fail immediately
    makeNode(plan);
    node->invokeNow(fid("MD-Py"));
    node->invokeNow(fid("FC-Py"));
    node->engine().run();
    node->finalize();
    EXPECT_EQ(node->metrics().total(), 0u);
    EXPECT_EQ(node->invoker().failedInvocations(), 2u);
    EXPECT_EQ(node->invoker().retriesScheduled(), 0u);
    EXPECT_EQ(policyPtr->containerFailures, 2u);
    EXPECT_EQ(node->pool().liveCount(), 0u);
}

TEST_F(FaultNodeTest, WedgeWatchdogFiresAfterTimeout)
{
    FaultPlan plan;
    plan.wedgeProb = 1.0;
    plan.maxRetries = 0;
    plan.execTimeout = 30 * kSecond;
    makeNode(plan);
    node->invokeNow(fid("MD-Py"));
    node->engine().run(); // terminates only because the watchdog fires
    node->finalize();
    EXPECT_EQ(node->metrics().total(), 0u);
    EXPECT_EQ(node->invoker().failedInvocations(), 1u);
    // The wedged execution held its container until the watchdog
    // killed it at init + timeout.
    EXPECT_GE(node->engine().now(), 30 * kSecond);
    EXPECT_EQ(node->pool().liveCount(), 0u);
}

TEST_F(FaultNodeTest, PartialFaultsRetryToCompletion)
{
    FaultPlan plan;
    plan.userInitFailProb = 0.3;
    plan.execCrashProb = 0.2;
    plan.maxRetries = 6;
    makeNode(plan);
    const auto arrivals = smallWorkload();
    node->run(arrivals);
    const auto& invoker = node->invoker();
    // Conservation: every admitted invocation reaches one terminal
    // state.
    EXPECT_EQ(invoker.admittedInvocations(), arrivals.size());
    EXPECT_EQ(node->metrics().total() + invoker.failedInvocations() +
                  node->strandedInvocations(),
              arrivals.size());
    // Faults fired and retries recovered most of them.
    EXPECT_GT(invoker.retriesScheduled(), 0u);
    EXPECT_GT(node->metrics().total(), arrivals.size() / 2);
    EXPECT_EQ(policyPtr->containerFailures,
              invoker.retriesScheduled() + invoker.failedInvocations());
}

TEST_F(FaultNodeTest, NodeCrashRestartsAndRecovers)
{
    FaultPlan plan;
    plan.nodeMtbfSeconds = 120.0; // several crashes over 20 minutes
    plan.nodeDowntimeSeconds = 5.0;
    plan.maxRetries = 8;
    makeNode(plan);
    const auto arrivals = smallWorkload();
    node->run(arrivals);
    const auto& invoker = node->invoker();
    EXPECT_GT(policyPtr->nodeDowns, 0u);
    EXPECT_GT(invoker.retriesScheduled(), 0u);
    EXPECT_EQ(invoker.admittedInvocations(), arrivals.size());
    EXPECT_EQ(node->metrics().total() + invoker.failedInvocations() +
                  node->strandedInvocations(),
              arrivals.size());
    // Restart happened: the pool was rebuilt and drained cleanly.
    EXPECT_EQ(node->pool().liveCount(), 0u);
    EXPECT_EQ(invoker.inFlightInvocations(), 0u);
}

TEST_F(FaultNodeTest, OverloadWindowsSlowExecutions)
{
    FaultPlan plan;
    plan.overloadRatePerHour = 60.0; // ~one window per minute
    plan.overloadDurationSeconds = 30.0;
    plan.overloadSlowdown = 4.0;
    makeNode(plan);
    const auto arrivals = smallWorkload();
    node->run(arrivals);
    const double slowed = node->metrics().meanEndToEndSeconds();
    EXPECT_EQ(node->metrics().total(), arrivals.size());

    // Fault-free twin over the same arrivals and seed.
    makeNode(FaultPlan{});
    node->run(arrivals);
    EXPECT_GT(slowed, node->metrics().meanEndToEndSeconds());
}

TEST_F(FaultNodeTest, OverloadWindowsComposeWithAdmissionControl)
{
    // Injected overload must show up as pressure inside rc::admission
    // rather than bypassing the controller: while a window is open the
    // pressure signal carries overloadPressureBias, pushing the ladder
    // to critical and shedding work; once the window closes the ladder
    // steps back down. The twin run without the fault plan never
    // reaches critical, so the shedding is attributable to the
    // injected windows alone.
    trace::WorkloadTraceConfig traceConfig;
    traceConfig.minutes = 20;
    traceConfig.targetInvocations = 12000;
    traceConfig.seed = 17;
    const auto arrivals = trace::expandArrivals(
        trace::generateAzureLike(catalog, traceConfig));

    admission::AdmissionPlan admissionPlan;
    admissionPlan.pressureControlEnabled = true;
    admissionPlan.controllerIntervalSeconds = 5.0;
    admissionPlan.pressureSmoothing = 0.8;
    admissionPlan.pressureMemoryWeight = 0.3;
    admissionPlan.pressureQueueWeight = 0.2;
    admissionPlan.pressureShedWeight = 0.1;
    admissionPlan.overloadPressureBias = 0.7;
    admissionPlan.pressureWarn = 0.35;
    admissionPlan.pressureHigh = 0.55;
    admissionPlan.pressureCritical = 0.75;

    // Without windows the raw signal is bounded by the memory + queue
    // weights (0.5), strictly below critical: pressure sheds require
    // the injected overload.
    const auto runOnce = [&](bool withOverload, obs::Observer* obs) {
        NodeConfig config;
        config.seed = 1;
        config.pool.memoryBudgetMb = 512.0;
        config.admission = admissionPlan;
        config.observer = obs;
        if (withOverload) {
            config.fault.overloadRatePerHour = 60.0;
            config.fault.overloadDurationSeconds = 30.0;
            config.fault.overloadSlowdown = 4.0;
        }
        Node node(catalog, std::make_unique<CountingPolicy>(), config);
        node.run(arrivals);
        return node.invoker().shedPressureCount();
    };

    obs::Observer observer;
    const auto shedUnderOverload = runOnce(true, &observer);
    EXPECT_GT(shedUnderOverload, 0u);

    bool reachedCritical = false;
    bool disengaged = false;
    for (const auto& event : observer.events()) {
        if (event.type != obs::EventType::PressureLevel)
            continue;
        if (event.a >= 3)
            reachedCritical = true;
        if (reachedCritical && event.a < event.b)
            disengaged = true;
    }
    EXPECT_TRUE(reachedCritical);
    EXPECT_TRUE(disengaged);

    EXPECT_EQ(runOnce(false, nullptr), 0u);
}

TEST_F(FaultNodeTest, FaultyRunsAreDeterministicTwins)
{
    FaultPlan plan;
    plan.userInitFailProb = 0.2;
    plan.execCrashProb = 0.1;
    plan.wedgeProb = 0.05;
    plan.execTimeout = 30 * kSecond;
    plan.nodeMtbfSeconds = 300.0;
    makeNode(plan, /*seed=*/5);
    const auto arrivals = smallWorkload();
    node->run(arrivals);
    const auto completed = node->metrics().total();
    const auto failed = node->invoker().failedInvocations();
    const auto retries = node->invoker().retriesScheduled();
    const double startup = node->metrics().totalStartupSeconds();

    makeNode(plan, /*seed=*/5);
    node->run(arrivals);
    EXPECT_EQ(node->metrics().total(), completed);
    EXPECT_EQ(node->invoker().failedInvocations(), failed);
    EXPECT_EQ(node->invoker().retriesScheduled(), retries);
    EXPECT_DOUBLE_EQ(node->metrics().totalStartupSeconds(), startup);
}

} // namespace
} // namespace rc::fault
