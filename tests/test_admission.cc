/**
 * @file
 * Tests for rc::admission: plan parsing and validation, the circuit
 * breaker FSM, the AdmissionController primitives (token bucket,
 * concurrency cap, pressure ladder), node-level integration (rate
 * limiting, bounded queue, deadline shedding, pressure degradation,
 * conservation), history non-pollution under degradation, and the
 * cluster circuit-breaker path.
 */

#include <gtest/gtest.h>

#include "admission/admission_controller.hh"
#include "admission/admission_plan.hh"
#include "admission/circuit_breaker.hh"
#include "cluster/sharded_cluster.hh"
#include "core/ablations.hh"
#include "core/rainbowcake_policy.hh"
#include "obs/observer.hh"
#include "platform/node.hh"
#include "policy/policy.hh"
#include "trace/generator.hh"
#include "trace/replay.hh"
#include "workload/catalog.hh"

namespace rc::admission {
namespace {

using platform::Node;
using platform::NodeConfig;
using rc::sim::kMinute;
using rc::sim::kSecond;
using rc::sim::Tick;

// ---- AdmissionPlan ---------------------------------------------------

TEST(AdmissionPlan, DefaultIsInert)
{
    AdmissionPlan plan;
    EXPECT_FALSE(plan.active());
}

TEST(AdmissionPlan, AnyMechanismKnobActivates)
{
    {
        AdmissionPlan p;
        p.functionRatePerSecond = 10.0;
        EXPECT_TRUE(p.active());
    }
    {
        AdmissionPlan p;
        p.functionConcurrencyCap = 4;
        EXPECT_TRUE(p.active());
    }
    {
        AdmissionPlan p;
        p.maxQueueDepth = 128;
        EXPECT_TRUE(p.active());
    }
    {
        AdmissionPlan p;
        p.queueDeadlineSeconds = 30.0;
        EXPECT_TRUE(p.active());
    }
    {
        AdmissionPlan p;
        p.breakerFailureThreshold = 0.5;
        EXPECT_TRUE(p.active());
    }
    {
        AdmissionPlan p;
        p.pressureControlEnabled = true;
        EXPECT_TRUE(p.active());
    }
}

TEST(AdmissionPlan, TuningKnobsAloneStayInert)
{
    // Burst size, thresholds, weights etc. only matter once a
    // mechanism is on; tuning them must not build a controller.
    AdmissionPlan plan;
    plan.tokenBucketBurst = 32.0;
    plan.pressureWarn = 0.4;
    plan.pressureHigh = 0.6;
    plan.pressureCritical = 0.8;
    plan.ttlShrinkFactor = 0.25;
    plan.breakerCooloffSeconds = 5.0;
    EXPECT_FALSE(plan.active());
}

TEST(AdmissionPlan, ParsesFlatJson)
{
    AdmissionPlan plan;
    std::string error;
    ASSERT_TRUE(parseAdmissionPlan(
        R"({"function_rate_per_second": 5, "token_bucket_burst": 16,
            "max_queue_depth": 256, "queue_deadline_seconds": 30,
            "breaker_failure_threshold": 0.5,
            "pressure_control_enabled": true,
            "pressure_warn": 0.4, "pressure_high": 0.6,
            "pressure_critical": 0.8})",
        plan, &error))
        << error;
    EXPECT_DOUBLE_EQ(plan.functionRatePerSecond, 5.0);
    EXPECT_DOUBLE_EQ(plan.tokenBucketBurst, 16.0);
    EXPECT_EQ(plan.maxQueueDepth, 256u);
    EXPECT_DOUBLE_EQ(plan.queueDeadlineSeconds, 30.0);
    EXPECT_DOUBLE_EQ(plan.breakerFailureThreshold, 0.5);
    EXPECT_TRUE(plan.pressureControlEnabled);
    EXPECT_DOUBLE_EQ(plan.pressureWarn, 0.4);
    EXPECT_TRUE(plan.active());
}

TEST(AdmissionPlan, EmptyObjectParsesInert)
{
    AdmissionPlan plan;
    std::string error;
    ASSERT_TRUE(parseAdmissionPlan("{}", plan, &error)) << error;
    EXPECT_FALSE(plan.active());
}

TEST(AdmissionPlan, RejectsUnknownKey)
{
    // A typoed knob silently running unprotected would be worse than
    // an error.
    AdmissionPlan plan;
    std::string error;
    EXPECT_FALSE(
        parseAdmissionPlan(R"({"max_queue_dept": 10})", plan, &error));
    EXPECT_NE(error.find("max_queue_dept"), std::string::npos);
}

TEST(AdmissionPlan, RejectsMalformedJson)
{
    AdmissionPlan plan;
    std::string error;
    EXPECT_FALSE(parseAdmissionPlan("{\"max_queue_depth\":", plan,
                                    &error));
    EXPECT_FALSE(error.empty());
}

TEST(AdmissionPlan, RejectsBadThresholdOrder)
{
    AdmissionPlan plan;
    std::string error;
    EXPECT_FALSE(parseAdmissionPlan(
        R"({"pressure_warn": 0.8, "pressure_high": 0.6})", plan,
        &error));
    EXPECT_NE(error.find("warn < high < critical"), std::string::npos);
}

TEST(AdmissionPlan, RejectsSecondsPastTheKnobBound)
{
    AdmissionPlan plan;
    std::string error;
    EXPECT_FALSE(parseAdmissionPlan(R"({"queue_deadline_seconds": 2e9})",
                                    plan, &error));
    EXPECT_NE(error.find("queue_deadline_seconds"), std::string::npos);
    EXPECT_FALSE(parseAdmissionPlan(
        R"({"breaker_cooloff_seconds": 1e300})", plan, &error));
    EXPECT_TRUE(parseAdmissionPlan(R"({"queue_deadline_seconds": 1e9})",
                                   plan, &error))
        << error;
}

TEST(AdmissionPlan, RejectsZeroBurst)
{
    AdmissionPlan plan;
    std::string error;
    EXPECT_FALSE(
        parseAdmissionPlan(R"({"token_bucket_burst": 0})", plan, &error));
    EXPECT_NE(error.find("token_bucket_burst"), std::string::npos);
}

TEST(AdmissionPlan, LoadRejectsMissingFile)
{
    AdmissionPlan plan;
    std::string error;
    EXPECT_FALSE(loadAdmissionPlanFile("/nonexistent/admission.json",
                                       plan, &error));
    EXPECT_FALSE(error.empty());
}

// ---- CircuitBreaker --------------------------------------------------

CircuitBreaker::Config
smallBreaker()
{
    CircuitBreaker::Config config;
    config.failureThreshold = 0.5;
    config.window = 60 * kSecond;
    config.cooloff = 30 * kSecond;
    config.minSamples = 4;
    return config;
}

/** Every recorded transition must be an edge of the documented FSM. */
void
expectLegalTransitions(const CircuitBreaker& breaker)
{
    using State = CircuitBreaker::State;
    State current = State::Closed;
    Tick last = 0;
    for (const auto& tr : breaker.transitions()) {
        EXPECT_EQ(tr.from, current) << "history is not contiguous";
        EXPECT_GE(tr.at, last) << "history is not time-ordered";
        const bool legal =
            (tr.from == State::Closed && tr.to == State::Open) ||
            (tr.from == State::Open && tr.to == State::HalfOpen) ||
            (tr.from == State::HalfOpen && tr.to == State::Open) ||
            (tr.from == State::HalfOpen && tr.to == State::Closed);
        EXPECT_TRUE(legal) << "illegal transition " << toString(tr.from)
                           << " -> " << toString(tr.to);
        current = tr.to;
        last = tr.at;
    }
}

TEST(CircuitBreakerTest, StaysClosedBelowMinSamples)
{
    CircuitBreaker breaker(smallBreaker());
    for (int i = 0; i < 3; ++i)
        breaker.recordFailure(kSecond);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
    EXPECT_TRUE(breaker.allows(kSecond));
    EXPECT_EQ(breaker.openCount(), 0u);
}

TEST(CircuitBreakerTest, OpensOnFailureBreach)
{
    CircuitBreaker breaker(smallBreaker());
    for (int i = 0; i < 4; ++i)
        breaker.recordFailure(kSecond);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
    EXPECT_FALSE(breaker.allows(2 * kSecond)); // cooloff not elapsed
    EXPECT_EQ(breaker.openCount(), 1u);
}

TEST(CircuitBreakerTest, MixedOutcomesBelowThresholdStayClosed)
{
    CircuitBreaker breaker(smallBreaker());
    // 2 failures out of 6 samples = 0.33 < 0.5.
    for (int i = 0; i < 4; ++i)
        breaker.recordSuccess(kSecond);
    breaker.recordFailure(kSecond);
    breaker.recordFailure(kSecond);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
}

TEST(CircuitBreakerTest, CooloffLeadsToHalfOpenProbe)
{
    CircuitBreaker breaker(smallBreaker());
    for (int i = 0; i < 4; ++i)
        breaker.recordFailure(kSecond);
    ASSERT_EQ(breaker.state(), CircuitBreaker::State::Open);
    // The probe is admitted exactly once the cooloff elapses.
    EXPECT_FALSE(breaker.allows(kSecond + 29 * kSecond));
    EXPECT_TRUE(breaker.allows(kSecond + 30 * kSecond));
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::HalfOpen);
}

TEST(CircuitBreakerTest, ProbeSuccessClosesAndForgetsWindow)
{
    CircuitBreaker breaker(smallBreaker());
    for (int i = 0; i < 4; ++i)
        breaker.recordFailure(kSecond);
    ASSERT_TRUE(breaker.allows(31 * kSecond));
    breaker.recordSuccess(32 * kSecond);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
    // The pre-open failures were forgotten: one more failure must not
    // instantly re-trip the breaker.
    breaker.recordFailure(33 * kSecond);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
    expectLegalTransitions(breaker);
}

TEST(CircuitBreakerTest, ProbeFailureReopens)
{
    CircuitBreaker breaker(smallBreaker());
    for (int i = 0; i < 4; ++i)
        breaker.recordFailure(kSecond);
    ASSERT_TRUE(breaker.allows(31 * kSecond));
    breaker.recordFailure(32 * kSecond);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
    EXPECT_EQ(breaker.openCount(), 2u);
    // The second cooloff counts from the re-open instant.
    EXPECT_FALSE(breaker.allows(32 * kSecond + 29 * kSecond));
    EXPECT_TRUE(breaker.allows(32 * kSecond + 30 * kSecond));
    expectLegalTransitions(breaker);
}

TEST(CircuitBreakerTest, OldOutcomesExpireFromTheWindow)
{
    CircuitBreaker breaker(smallBreaker());
    for (int i = 0; i < 3; ++i)
        breaker.recordFailure(kSecond);
    // Two minutes later the window has rolled past those failures:
    // this fourth failure alone is below minSamples.
    breaker.recordFailure(121 * kSecond);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
}

// ---- AdmissionController ---------------------------------------------

TEST(AdmissionControllerTest, FreshBucketAdmitsTheFirstBurst)
{
    AdmissionPlan plan;
    plan.functionRatePerSecond = 1.0;
    plan.tokenBucketBurst = 4.0;
    AdmissionController controller(plan);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(controller.tryAdmit(7, 0)) << "admit " << i;
    EXPECT_FALSE(controller.tryAdmit(7, 0));
    // Other functions have their own buckets.
    EXPECT_TRUE(controller.tryAdmit(8, 0));
}

TEST(AdmissionControllerTest, BucketRefillsAtTheConfiguredRate)
{
    AdmissionPlan plan;
    plan.functionRatePerSecond = 1.0;
    plan.tokenBucketBurst = 4.0;
    AdmissionController controller(plan);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(controller.tryAdmit(7, 0));
    ASSERT_FALSE(controller.tryAdmit(7, 0));
    // Two seconds refill two tokens; the burst cap bounds long idles.
    EXPECT_TRUE(controller.tryAdmit(7, 2 * kSecond));
    EXPECT_TRUE(controller.tryAdmit(7, 2 * kSecond));
    EXPECT_FALSE(controller.tryAdmit(7, 2 * kSecond));
    Tick later = 2 * kSecond + 100 * kSecond;
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(controller.tryAdmit(7, later)) << "admit " << i;
    EXPECT_FALSE(controller.tryAdmit(7, later));
}

TEST(AdmissionControllerTest, DisabledRateLimitAdmitsEverything)
{
    AdmissionController controller(AdmissionPlan{});
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(controller.tryAdmit(3, 0));
}

TEST(AdmissionControllerTest, ConcurrencyCapGatesDispatch)
{
    AdmissionPlan plan;
    plan.functionConcurrencyCap = 2;
    AdmissionController controller(plan);
    EXPECT_TRUE(controller.mayDispatch(5));
    controller.onExecStart(5);
    EXPECT_TRUE(controller.mayDispatch(5));
    controller.onExecStart(5);
    EXPECT_FALSE(controller.mayDispatch(5));
    EXPECT_TRUE(controller.mayDispatch(6)); // per-function
    controller.onExecFinish(5);
    EXPECT_TRUE(controller.mayDispatch(5));
    // Node crash: every tracked execution died with the pool.
    controller.onExecStart(5);
    ASSERT_FALSE(controller.mayDispatch(5));
    controller.resetInFlight();
    EXPECT_TRUE(controller.mayDispatch(5));
}

/** Plan whose smoothed signal equals the raw memory occupancy. */
AdmissionPlan
ladderPlan()
{
    AdmissionPlan plan;
    plan.pressureControlEnabled = true;
    plan.pressureSmoothing = 1.0; // no EWMA lag: smoothed == raw
    plan.pressureMemoryWeight = 1.0;
    plan.pressureQueueWeight = 0.0;
    plan.pressureShedWeight = 0.0;
    plan.pressureWarn = 0.55;
    plan.pressureHigh = 0.75;
    plan.pressureCritical = 0.9;
    plan.pressureHysteresis = 0.05;
    return plan;
}

int
feed(AdmissionController& controller, double occupancy,
     bool window = false)
{
    PressureSample sample;
    sample.memoryOccupancy = occupancy;
    sample.overloadWindowOpen = window;
    return controller.updatePressure(sample, 0);
}

TEST(AdmissionControllerTest, LadderRisesImmediately)
{
    AdmissionController controller(ladderPlan());
    EXPECT_EQ(feed(controller, 0.40), 0);
    EXPECT_EQ(feed(controller, 0.60), 1);
    EXPECT_EQ(feed(controller, 0.80), 2);
    EXPECT_EQ(feed(controller, 0.95), 3);
    EXPECT_TRUE(controller.shrinkTtls());
    EXPECT_TRUE(controller.prewarmsSuppressed());
    EXPECT_TRUE(controller.shedInsteadOfQueue());
}

TEST(AdmissionControllerTest, LadderFallsWithHysteresis)
{
    AdmissionController controller(ladderPlan());
    ASSERT_EQ(feed(controller, 0.80), 2);
    // Just below the level-2 threshold but inside the hysteresis band
    // (high - 0.05 = 0.70): the level must hold.
    EXPECT_EQ(feed(controller, 0.72), 2);
    // Clearing the band drops one level at a time as far as the
    // signal allows.
    EXPECT_EQ(feed(controller, 0.69), 1);
    EXPECT_EQ(feed(controller, 0.52), 1); // warn - 0.05 = 0.50 holds it
    EXPECT_EQ(feed(controller, 0.49), 0);
}

TEST(AdmissionControllerTest, OverloadWindowBiasesThePressure)
{
    AdmissionPlan plan = ladderPlan();
    plan.overloadPressureBias = 0.5;
    AdmissionController controller(plan);
    EXPECT_EQ(feed(controller, 0.45, /*window=*/false), 0);
    // The same occupancy during an injected overload window reads as
    // 0.95: injected overload shows up as pressure.
    EXPECT_EQ(feed(controller, 0.45, /*window=*/true), 3);
    EXPECT_DOUBLE_EQ(controller.lastRawPressure(), 0.95);
}

TEST(AdmissionControllerTest, ShedsFeedTheNextSample)
{
    AdmissionPlan plan = ladderPlan();
    plan.pressureMemoryWeight = 0.0;
    plan.pressureShedWeight = 1.0;
    plan.queueDepthScale = 10.0;
    AdmissionController controller(plan);
    for (int i = 0; i < 5; ++i)
        controller.noteShedForPressure();
    EXPECT_EQ(feed(controller, 0.0), 0);
    EXPECT_DOUBLE_EQ(controller.lastRawPressure(), 0.5);
    // The shed counter resets at each update.
    EXPECT_EQ(feed(controller, 0.0), 0);
    EXPECT_DOUBLE_EQ(controller.lastRawPressure(), 0.0);
}

TEST(AdmissionControllerTest, DegradeTtlShrinksPerLevel)
{
    AdmissionPlan plan = ladderPlan();
    plan.ttlShrinkFactor = 0.5;
    AdmissionController controller(plan);
    // Level 0 passes TTLs through untouched.
    EXPECT_EQ(controller.degradeTtl(100 * kSecond), 100 * kSecond);
    ASSERT_EQ(feed(controller, 0.80), 2);
    EXPECT_EQ(controller.degradeTtl(100 * kSecond), 25 * kSecond);
    // "Keep forever" (negative) is never degraded.
    EXPECT_EQ(controller.degradeTtl(-1), -1);
}

// ---- platform integration --------------------------------------------

/** Minimal policy with a long keep-alive (builds memory pressure). */
class StickyPolicy : public policy::Policy
{
  public:
    std::string name() const override { return "sticky"; }
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
};

class AdmissionNodeTest : public ::testing::Test
{
  protected:
    AdmissionNodeTest() : catalog(workload::Catalog::standard20()) {}

    void
    makeNode(const AdmissionPlan& plan, double memoryBudgetMb = 0.0,
             obs::Observer* observer = nullptr)
    {
        NodeConfig config;
        config.seed = 1;
        config.admission = plan;
        config.observer = observer;
        if (memoryBudgetMb > 0.0)
            config.pool.memoryBudgetMb = memoryBudgetMb;
        node = std::make_unique<Node>(
            catalog, std::make_unique<StickyPolicy>(), config);
    }

    workload::FunctionId
    fid(const char* name) const
    {
        return *catalog.findByShortName(name);
    }

    std::vector<trace::Arrival>
    workload(std::size_t target, std::uint64_t seed = 17) const
    {
        trace::WorkloadTraceConfig config;
        config.minutes = 20;
        config.targetInvocations = target;
        config.seed = seed;
        return trace::expandArrivals(
            trace::generateAzureLike(catalog, config));
    }

    /** Every admitted invocation must reach exactly one terminal state. */
    void
    expectConservation(std::size_t arrivals) const
    {
        const auto& invoker = node->invoker();
        EXPECT_EQ(invoker.admittedInvocations(), arrivals);
        EXPECT_EQ(node->metrics().total() + invoker.failedInvocations() +
                      node->strandedInvocations() +
                      invoker.rejectedInvocations() +
                      invoker.shedDeadlineCount() +
                      invoker.shedPressureCount(),
                  arrivals);
    }

    workload::Catalog catalog;
    std::unique_ptr<Node> node;
};

TEST_F(AdmissionNodeTest, InactivePlanInstallsNoController)
{
    makeNode(AdmissionPlan{});
    EXPECT_EQ(node->admissionController(), nullptr);
    node->invokeNow(fid("MD-Py"));
    node->engine().run();
    node->finalize();
    EXPECT_EQ(node->metrics().total(), 1u);
    EXPECT_EQ(node->invoker().rejectedInvocations(), 0u);
    EXPECT_EQ(node->invoker().pressureLevel(), 0);
}

TEST_F(AdmissionNodeTest, RateLimitRejectsBeyondTheBurst)
{
    AdmissionPlan plan;
    plan.functionRatePerSecond = 0.1; // no same-tick refill
    plan.tokenBucketBurst = 2.0;
    makeNode(plan);
    ASSERT_NE(node->admissionController(), nullptr);
    for (int i = 0; i < 5; ++i)
        node->invokeNow(fid("MD-Py"));
    node->engine().run();
    node->finalize();
    EXPECT_EQ(node->metrics().total(), 2u);
    EXPECT_EQ(node->invoker().rejectedInvocations(), 3u);
    expectConservation(5);
}

TEST_F(AdmissionNodeTest, ConcurrencyCapSerializesHotFunctions)
{
    AdmissionPlan plan;
    plan.functionConcurrencyCap = 1;
    makeNode(plan); // default (ample) memory: only the cap queues work
    const auto arrivals = workload(12000);
    node->run(arrivals);
    // The head functions arrive faster than they execute, so the cap
    // forced overlapping invocations to wait; nothing was dropped.
    EXPECT_GE(node->invoker().peakQueueDepth(), 1u);
    EXPECT_EQ(node->invoker().rejectedInvocations(), 0u);
    EXPECT_EQ(node->invoker().shedPressureCount(), 0u);
    expectConservation(arrivals.size());
}

TEST_F(AdmissionNodeTest, BoundedQueueNeverExceedsItsDepth)
{
    AdmissionPlan plan;
    plan.maxQueueDepth = 16;
    makeNode(plan, /*memoryBudgetMb=*/512.0);
    const auto arrivals = workload(12000);
    node->run(arrivals);
    EXPECT_LE(node->invoker().peakQueueDepth(), 16u);
    EXPECT_GT(node->invoker().rejectedInvocations(), 0u);
    expectConservation(arrivals.size());
}

TEST_F(AdmissionNodeTest, QueueDeadlineShedsStaleWork)
{
    AdmissionPlan plan;
    plan.queueDeadlineSeconds = 10.0;
    makeNode(plan, /*memoryBudgetMb=*/512.0);
    const auto arrivals = workload(12000);
    node->run(arrivals);
    EXPECT_GT(node->invoker().shedDeadlineCount(), 0u);
    EXPECT_EQ(node->invoker().rejectedInvocations(), 0u); // unbounded
    expectConservation(arrivals.size());
}

/** Overload-shaped pressure plan used by the ladder-integration tests. */
AdmissionPlan
pressurePlan()
{
    AdmissionPlan plan;
    plan.pressureControlEnabled = true;
    plan.controllerIntervalSeconds = 5.0;
    plan.pressureSmoothing = 0.7;
    plan.pressureWarn = 0.3;
    plan.pressureHigh = 0.5;
    plan.pressureCritical = 0.7;
    plan.maxQueueDepth = 32;
    plan.queueDeadlineSeconds = 20.0;
    return plan;
}

TEST_F(AdmissionNodeTest, PressureLadderEngagesUnderOverload)
{
    obs::Observer observer;
    makeNode(pressurePlan(), /*memoryBudgetMb=*/512.0, &observer);
    const auto arrivals = workload(12000);
    node->run(arrivals);

    const auto& invoker = node->invoker();
    EXPECT_GT(invoker.shedPressureCount(), 0u);
    EXPECT_GT(invoker.degradedKeepalives(), 0u);
    EXPECT_LE(invoker.peakQueueDepth(), 32u);
    expectConservation(arrivals.size());

    // The decision audit trail matches the accounting.
    const auto& registry = observer.counters();
    EXPECT_EQ(registry.total(obs::Counter::ShedPressure),
              invoker.shedPressureCount());
    EXPECT_EQ(registry.total(obs::Counter::ShedDeadline),
              invoker.shedDeadlineCount());
    EXPECT_EQ(registry.total(obs::Counter::AdmissionRejected),
              invoker.rejectedInvocations());
    EXPECT_EQ(registry.total(obs::Counter::DegradedKeepalives),
              invoker.degradedKeepalives());
    EXPECT_GE(registry.highWater(obs::Gauge::PressureLevel), 3.0);

    // PressureLevel events record every ladder move, and the ladder
    // both rose (a > b) and fell (a < b) over the run.
    bool rose = false;
    bool fell = false;
    bool reachedCritical = false;
    for (const auto& event : observer.events()) {
        if (event.type != obs::EventType::PressureLevel)
            continue;
        if (event.a > event.b)
            rose = true;
        if (event.a < event.b)
            fell = true;
        if (event.a >= 3)
            reachedCritical = true;
    }
    EXPECT_TRUE(rose);
    EXPECT_TRUE(fell);
    EXPECT_TRUE(reachedCritical);
}

TEST_F(AdmissionNodeTest, ControlledRunsAreDeterministicTwins)
{
    const auto arrivals = workload(12000);
    makeNode(pressurePlan(), /*memoryBudgetMb=*/512.0);
    node->run(arrivals);
    const auto completed = node->metrics().total();
    const auto rejected = node->invoker().rejectedInvocations();
    const auto shedDeadline = node->invoker().shedDeadlineCount();
    const auto shedPressure = node->invoker().shedPressureCount();
    const auto degraded = node->invoker().degradedKeepalives();
    const auto peak = node->invoker().peakQueueDepth();
    const double startup = node->metrics().totalStartupSeconds();

    makeNode(pressurePlan(), /*memoryBudgetMb=*/512.0);
    node->run(arrivals);
    EXPECT_EQ(node->metrics().total(), completed);
    EXPECT_EQ(node->invoker().rejectedInvocations(), rejected);
    EXPECT_EQ(node->invoker().shedDeadlineCount(), shedDeadline);
    EXPECT_EQ(node->invoker().shedPressureCount(), shedPressure);
    EXPECT_EQ(node->invoker().degradedKeepalives(), degraded);
    EXPECT_EQ(node->invoker().peakQueueDepth(), peak);
    EXPECT_DOUBLE_EQ(node->metrics().totalStartupSeconds(), startup);
}

TEST_F(AdmissionNodeTest, TuningOnlyPlanMatchesAnUncontrolledRun)
{
    // A plan that changes tuning knobs but enables no mechanism must
    // leave the run bit-identical to no plan at all (the zero-knob CI
    // diff pins the full event stream; this pins the aggregates).
    const auto arrivals = workload(800);
    makeNode(AdmissionPlan{});
    node->run(arrivals);
    const auto completed = node->metrics().total();
    const double startup = node->metrics().totalStartupSeconds();
    const double e2e = node->metrics().meanEndToEndSeconds();

    AdmissionPlan tuned;
    tuned.tokenBucketBurst = 64.0;
    tuned.pressureWarn = 0.2;
    tuned.pressureHigh = 0.4;
    tuned.pressureCritical = 0.6;
    makeNode(tuned);
    EXPECT_EQ(node->admissionController(), nullptr);
    node->run(arrivals);
    EXPECT_EQ(node->metrics().total(), completed);
    EXPECT_DOUBLE_EQ(node->metrics().totalStartupSeconds(), startup);
    EXPECT_DOUBLE_EQ(node->metrics().meanEndToEndSeconds(), e2e);
}

// ---- history non-pollution under degradation -------------------------

TEST(AdmissionHistoryTest, DegradedRunKeepsHistoryIdentical)
{
    // The History Recorder learns only from arrivals: rejections,
    // sheds, and degraded TTLs must leave the per-function windows
    // bit-identical to an unpressured twin fed the same arrivals.
    // Otherwise degrading under overload would also corrupt the
    // learned pre-warm windows RainbowCake recovers with.
    const auto catalog = workload::Catalog::standard20();
    trace::WorkloadTraceConfig traceConfig;
    traceConfig.minutes = 20;
    traceConfig.targetInvocations = 12000;
    traceConfig.seed = 29;
    const auto arrivals = trace::expandArrivals(
        trace::generateAzureLike(catalog, traceConfig));
    const Tick probe = 21 * kMinute; // past the last arrival

    auto cleanPolicy = std::make_unique<core::RainbowCakePolicy>(catalog);
    const core::RainbowCakePolicy* clean = cleanPolicy.get();
    Node cleanNode(catalog, std::move(cleanPolicy));
    cleanNode.run(arrivals);

    NodeConfig degradedConfig;
    degradedConfig.pool.memoryBudgetMb = 512.0;
    degradedConfig.admission.pressureControlEnabled = true;
    degradedConfig.admission.controllerIntervalSeconds = 5.0;
    degradedConfig.admission.pressureWarn = 0.3;
    degradedConfig.admission.pressureHigh = 0.5;
    degradedConfig.admission.pressureCritical = 0.7;
    degradedConfig.admission.maxQueueDepth = 32;
    degradedConfig.admission.queueDeadlineSeconds = 20.0;
    auto degradedPolicy =
        std::make_unique<core::RainbowCakePolicy>(catalog);
    const core::RainbowCakePolicy* degraded = degradedPolicy.get();
    Node degradedNode(catalog, std::move(degradedPolicy),
                      degradedConfig);
    degradedNode.run(arrivals);

    // The ladder actually engaged, so the equality below is not
    // vacuous.
    EXPECT_GT(degradedNode.invoker().shedPressureCount() +
                  degradedNode.invoker().rejectedInvocations() +
                  degradedNode.invoker().shedDeadlineCount(),
              0u);
    EXPECT_GT(degradedNode.invoker().degradedKeepalives(), 0u);

    for (workload::FunctionId f = 0; f < catalog.size(); ++f) {
        EXPECT_EQ(degraded->history().arrivals(f),
                  clean->history().arrivals(f))
            << "function " << f;
        const auto degradedRate =
            degraded->history().functionRate(f, probe);
        const auto cleanRate = clean->history().functionRate(f, probe);
        ASSERT_EQ(degradedRate.has_value(), cleanRate.has_value())
            << "function " << f;
        if (degradedRate.has_value()) {
            EXPECT_DOUBLE_EQ(*degradedRate, *cleanRate)
                << "function " << f;
        }
    }
}

// ---- cluster circuit breakers ----------------------------------------

TEST(AdmissionClusterTest, BreakersTripOnFailingNodes)
{
    const auto catalog = workload::Catalog::standard20();
    cluster::ClusterConfig config;
    config.nodes = 3;
    config.node.seed = 1;
    config.node.fault.execCrashProb = 1.0; // every invocation fails
    config.node.fault.maxRetries = 0;
    config.node.admission.breakerFailureThreshold = 0.5;
    config.node.admission.breakerMinSamples = 5;
    config.node.admission.breakerWindowSeconds = 60.0;
    config.node.admission.breakerCooloffSeconds = 30.0;

    trace::WorkloadTraceConfig traceConfig;
    traceConfig.minutes = 20;
    traceConfig.targetInvocations = 800;
    traceConfig.seed = 17;
    const auto arrivals = trace::expandArrivals(
        trace::generateAzureLike(catalog, traceConfig));

    obs::Observer observer;
    config.node.observer = &observer;
    cluster::ShardedCluster cluster(
        catalog,
        [&catalog] { return core::makeRainbowCake(catalog); }, config);
    const auto result = cluster.run(arrivals);

    ASSERT_EQ(cluster.breakers().size(), 3u);
    EXPECT_GT(result.failedInvocations, 0u);
    EXPECT_GT(result.breakerOpens, 0u);
    std::uint64_t opens = 0;
    for (const auto& breaker : cluster.breakers()) {
        expectLegalTransitions(breaker);
        opens += breaker.openCount();
    }
    EXPECT_EQ(result.breakerOpens, opens);
    EXPECT_EQ(observer.counters().total(obs::Counter::BreakerOpenTotal),
              opens);
    // Breaker transitions reach the decision-audit trail.
    bool sawTransition = false;
    for (const auto& event : observer.events()) {
        if (event.type == obs::EventType::BreakerStateChanged)
            sawTransition = true;
    }
    EXPECT_TRUE(sawTransition);
}

TEST(AdmissionClusterTest, NoBreakersWithoutAThreshold)
{
    const auto catalog = workload::Catalog::standard20();
    cluster::ClusterConfig config;
    config.nodes = 2;
    cluster::ShardedCluster cluster(
        catalog,
        [&catalog] { return core::makeRainbowCake(catalog); }, config);
    EXPECT_TRUE(cluster.breakers().empty());
}

} // namespace
} // namespace rc::admission
