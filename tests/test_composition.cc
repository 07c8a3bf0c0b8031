/**
 * @file
 * Decorator-composition tests: checkpoint and tiered-cache wrappers
 * stack over any base policy (including each other), forward every
 * hook and pushed setting they do not change, and the combined
 * effects compose as expected.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/ablations.hh"
#include "core/checkpoint.hh"
#include "core/tiered.hh"
#include "exp/experiment.hh"
#include "platform/node.hh"
#include "policy/openwhisk_fixed.hh"
#include "trace/generator.hh"
#include "trace/replay.hh"
#include "workload/catalog.hh"

namespace rc::core {
namespace {

using platform::Node;
using rc::sim::kMinute;

class CompositionTest : public ::testing::Test
{
  protected:
    CompositionTest() : catalog(workload::Catalog::standard20()) {}

    workload::FunctionId
    fid(const char* name) const
    {
        return *catalog.findByShortName(name);
    }

    workload::Catalog catalog;
};

TEST_F(CompositionTest, StackedNameAdvertisesBothDecorators)
{
    auto stacked = std::make_unique<TieredCachePolicy>(
        std::make_unique<CheckpointPolicy>(makeRainbowCake(catalog)));
    EXPECT_EQ(stacked->name(), "RainbowCake + checkpoint + NVM tier");
}

TEST_F(CompositionTest, StackedDecoratorsComposeLatencyEffects)
{
    // Checkpoint halves partial-install latency; the NVM tier adds a
    // fixed fetch. Both must show up in a Lang partial start.
    CheckpointConfig checkpoint;
    checkpoint.restoreFactor = 0.5;
    checkpoint.imageMemoryFraction = 0.0;
    TieredConfig tier;
    tier.nvmFetchLatency = 100 * sim::kMillisecond;

    auto runLangHit = [&](std::unique_ptr<policy::Policy> policy) {
        Node node(catalog, std::move(policy));
        node.invokeNow(fid("MD-Py"));
        node.advanceTo(4 * kMinute);
        node.invokeNow(fid("GB-Py"));
        node.engine().run();
        node.finalize();
        EXPECT_EQ(node.metrics().records()[1].type,
                  platform::StartupType::Lang);
        return node.metrics().records()[1].startupLatency;
    };

    const auto plain = runLangHit(makeRainbowCake(catalog));
    const auto stacked = runLangHit(std::make_unique<TieredCachePolicy>(
        std::make_unique<CheckpointPolicy>(makeRainbowCake(catalog),
                                           checkpoint),
        tier));

    const auto& costs = catalog.at(fid("GB-Py")).costs();
    const sim::Tick install = costs.langToUser + costs.userInit;
    // plain = install + userToRun; stacked = install/2 + fetch + u2r.
    EXPECT_EQ(plain - stacked, install / 2 - tier.nvmFetchLatency);
}

TEST_F(CompositionTest, DecoratorsForwardKeepAliveSemantics)
{
    // A checkpointed OpenWhisk policy must still keep containers for
    // exactly the fixed window — the decorator adds no TTL behaviour.
    Node node(catalog,
              std::make_unique<TieredCachePolicy>(
                  std::make_unique<CheckpointPolicy>(
                      std::make_unique<policy::OpenWhiskFixedPolicy>())));
    node.invokeNow(fid("MD-Py"));
    node.advanceTo(9 * kMinute);
    EXPECT_EQ(node.pool().liveCount(), 1u);
    node.advanceTo(15 * kMinute);
    EXPECT_EQ(node.pool().liveCount(), 0u);
}

TEST_F(CompositionTest, ForkFlagSurvivesDecoration)
{
    RainbowCakeConfig config;
    config.shareByFork = true;
    config.forkLatency = 42 * sim::kMillisecond;
    auto stacked = std::make_unique<CheckpointPolicy>(
        std::make_unique<RainbowCakePolicy>(catalog, config));
    EXPECT_TRUE(stacked->forkSharedLayers());
    EXPECT_EQ(stacked->forkLatency(), 42 * sim::kMillisecond);
}

TEST_F(CompositionTest, AuxMemoryAddsAcrossDecorators)
{
    CheckpointConfig checkpoint;
    checkpoint.imageMemoryFraction = 0.5;
    TieredCachePolicy stacked(
        std::make_unique<CheckpointPolicy>(makeRainbowCake(catalog),
                                           checkpoint));
    const auto& profile = catalog.at(fid("MD-Py"));
    EXPECT_DOUBLE_EQ(
        stacked.auxiliaryMemoryMb(profile),
        0.5 * profile.memoryAtLayer(workload::Layer::User));
}

/** Checkpoint and tier configurations that change nothing. */
CheckpointConfig
identityCheckpoint()
{
    CheckpointConfig config;
    config.restoreFactor = 1.0;
    config.imageMemoryFraction = 0.0;
    return config;
}

TieredConfig
identityTier()
{
    TieredConfig config;
    config.nvmFetchLatency = 0;
    config.nvmCostFactor = 1.0;
    return config;
}

/**
 * A base policy that answers every hook with a distinct value and
 * counts, per hook, the calls that reach it.
 */
class RecordingPolicy final : public policy::Policy
{
  public:
    std::string
    name() const override
    {
        note("name");
        return "recording";
    }
    void
    attach(policy::PlatformView& view) override
    {
        note("attach");
        Policy::attach(view);
    }
    void onArrival(workload::FunctionId) override { note("onArrival"); }
    void
    onStartupResolved(const policy::StartupObservation&) override
    {
        note("onStartupResolved");
    }
    void
    onContainerFailed(const container::Container&) override
    {
        note("onContainerFailed");
    }
    void onNodeDown(sim::Tick) override { note("onNodeDown"); }
    sim::Tick
    keepAliveTtl(const container::Container&) override
    {
        note("keepAliveTtl");
        return 11;
    }
    policy::IdleDecision
    onIdleExpired(const container::Container&) override
    {
        note("onIdleExpired");
        return policy::IdleDecision::renew(12);
    }
    bool
    layerSharingEnabled() const override
    {
        note("layerSharingEnabled");
        return true;
    }
    bool
    acceptsRecoveryPrewarm(workload::Layer) const override
    {
        note("acceptsRecoveryPrewarm");
        return false;
    }
    bool
    allowForeignUserContainer(const container::Container&,
                              workload::FunctionId) const override
    {
        note("allowForeignUserContainer");
        return true;
    }
    std::vector<container::ContainerId>
    rankEvictionVictims(
        const std::vector<const container::Container*>&) override
    {
        note("rankEvictionVictims");
        return {13, 14};
    }
    double
    partialStartLatencyFactor() const override
    {
        note("partialStartLatencyFactor");
        return 1.5;
    }
    sim::Tick
    partialStartLatencyBias() const override
    {
        note("partialStartLatencyBias");
        return 15;
    }
    sim::Tick
    foreignUserStartupLatency(const container::Container&,
                              workload::FunctionId) const override
    {
        note("foreignUserStartupLatency");
        return 16;
    }
    bool
    forkSharedLayers() const override
    {
        note("forkSharedLayers");
        return true;
    }
    sim::Tick
    forkLatency() const override
    {
        note("forkLatency");
        return 17;
    }
    double
    coldStartFactor() const override
    {
        note("coldStartFactor");
        return 0.5;
    }
    double
    auxiliaryMemoryMb(const workload::FunctionProfile&) const override
    {
        note("auxiliaryMemoryMb");
        return 18.0;
    }

    const policy::PlatformView* view() const { return _view; }
    const obs::Observer* observer() const { return _obs; }

    mutable std::map<std::string, int> calls;

  private:
    void note(const char* hook) const { ++calls[hook]; }
};

/** A platform that is never consulted: the hooks under test ignore it. */
class InertView final : public policy::PlatformView
{
  public:
    explicit InertView(const workload::Catalog& catalog) : _catalog(catalog)
    {
    }
    sim::Tick now() const override { return 0; }
    const workload::Catalog& catalog() const override { return _catalog; }
    bool
    userContainerAvailable(workload::FunctionId) const override
    {
        return false;
    }
    void schedulePrewarm(workload::FunctionId, sim::Tick) override {}
    std::vector<const container::Container*>
    idleContainers() const override
    {
        return {};
    }

  private:
    const workload::Catalog& _catalog;
};

/** Call every hook on @p outer once; each must reach @p base once. */
void
expectForwardsEverything(policy::Policy& outer, const RecordingPolicy& base,
                         const workload::Catalog& catalog)
{
    const workload::FunctionProfile& profile = catalog.profiles().front();
    const container::Container c(1, profile, workload::Layer::User, 0);
    InertView view(catalog);

    outer.attach(view);
    EXPECT_EQ(base.view(), &view);
    EXPECT_EQ(outer.name().rfind("recording", 0), 0u);
    outer.onArrival(3);
    outer.onStartupResolved({3, platform::StartupType::Cold, 9});
    outer.onContainerFailed(c);
    outer.onNodeDown(10);
    EXPECT_EQ(outer.keepAliveTtl(c), 11);
    const policy::IdleDecision decision = outer.onIdleExpired(c);
    EXPECT_EQ(decision.action, policy::IdleDecision::Action::Renew);
    EXPECT_EQ(decision.nextTtl, 12);
    EXPECT_TRUE(outer.layerSharingEnabled());
    EXPECT_FALSE(outer.acceptsRecoveryPrewarm(workload::Layer::Bare));
    EXPECT_TRUE(outer.allowForeignUserContainer(c, 0));
    EXPECT_EQ(outer.rankEvictionVictims({&c}),
              (std::vector<container::ContainerId>{13, 14}));
    EXPECT_EQ(outer.partialStartLatencyFactor(), 1.5);
    EXPECT_EQ(outer.partialStartLatencyBias(), 15);
    EXPECT_EQ(outer.foreignUserStartupLatency(c, 0), 16);
    EXPECT_TRUE(outer.forkSharedLayers());
    EXPECT_EQ(outer.forkLatency(), 17);
    EXPECT_EQ(outer.coldStartFactor(), 0.5);
    EXPECT_EQ(outer.auxiliaryMemoryMb(profile), 18.0);

    const char* hooks[] = {
        "name", "attach", "onArrival", "onStartupResolved",
        "onContainerFailed", "onNodeDown", "keepAliveTtl",
        "onIdleExpired", "layerSharingEnabled", "acceptsRecoveryPrewarm",
        "allowForeignUserContainer", "rankEvictionVictims",
        "partialStartLatencyFactor", "partialStartLatencyBias",
        "foreignUserStartupLatency", "forkSharedLayers", "forkLatency",
        "coldStartFactor", "auxiliaryMemoryMb"};
    for (const char* hook : hooks) {
        const auto it = base.calls.find(hook);
        EXPECT_EQ(it == base.calls.end() ? 0 : it->second, 1) << hook;
    }
    EXPECT_EQ(base.calls.size(), std::size(hooks));

    obs::Observer observer;
    outer.setObserver(&observer);
    outer.setPressureLevel(2);
    EXPECT_EQ(base.observer(), &observer);
    EXPECT_EQ(base.pressureLevel(), 2);
    outer.setObserver(nullptr);
    outer.setPressureLevel(0);
    EXPECT_EQ(base.observer(), nullptr);
    EXPECT_EQ(base.pressureLevel(), 0);
}

TEST(PolicyDecorator, ForwardsEveryHookAndBothSettings)
{
    const auto catalog = workload::Catalog::standard20();
    {
        SCOPED_TRACE("checkpoint");
        auto base = std::make_unique<RecordingPolicy>();
        const RecordingPolicy& seen = *base;
        CheckpointPolicy outer(std::move(base), identityCheckpoint());
        expectForwardsEverything(outer, seen, catalog);
    }
    {
        SCOPED_TRACE("tier");
        auto base = std::make_unique<RecordingPolicy>();
        const RecordingPolicy& seen = *base;
        TieredCachePolicy outer(std::move(base), identityTier());
        expectForwardsEverything(outer, seen, catalog);
    }
    {
        SCOPED_TRACE("tier over checkpoint");
        auto base = std::make_unique<RecordingPolicy>();
        const RecordingPolicy& seen = *base;
        TieredCachePolicy outer(
            std::make_unique<CheckpointPolicy>(std::move(base),
                                               identityCheckpoint()),
            identityTier());
        expectForwardsEverything(outer, seen, catalog);
    }
}

TEST_F(CompositionTest, IdentityDecoratorsAreInvisible)
{
    // A small node under a pressure-control plan that reaches ladder
    // level 2, where RainbowCake shortens User keep-alives, with an
    // observer recording RainbowCake's decision audit.
    trace::WorkloadTraceConfig traceConfig;
    traceConfig.minutes = 60;
    traceConfig.targetInvocations = 5000;
    traceConfig.seed = 7;
    const auto arrivals = trace::expandArrivals(
        trace::generateAzureLike(catalog, traceConfig));

    platform::NodeConfig config;
    config.pool.memoryBudgetMb = 6 * 1024.0;
    config.admission.pressureControlEnabled = true;
    config.admission.pressureSmoothing = 1.0;
    config.admission.pressureMemoryWeight = 1.0;
    config.admission.pressureQueueWeight = 0.0;
    config.admission.pressureShedWeight = 0.0;
    config.admission.pressureWarn = 0.3;
    config.admission.pressureHigh = 0.5;
    config.admission.pressureCritical = 0.99;

    const auto run = [&](const exp::PolicyFactory& make,
                         std::size_t& decisions) {
        obs::Observer observer;
        config.observer = &observer;
        exp::RunResult result =
            exp::runExperiment(catalog, make, arrivals, config);
        decisions = 0;
        for (const auto& event : observer.events())
            decisions += event.type == obs::EventType::PolicyDecision;
        result.observer = nullptr; // dies with this call
        return result;
    };
    std::size_t plainDecisions = 0;
    std::size_t wrappedDecisions = 0;
    const exp::RunResult plain =
        run([&] { return makeRainbowCake(catalog); }, plainDecisions);
    const exp::RunResult wrapped = run(
        [&] {
            return std::make_unique<TieredCachePolicy>(
                std::make_unique<CheckpointPolicy>(makeRainbowCake(catalog),
                                                   identityCheckpoint()),
                identityTier());
        },
        wrappedDecisions);

    // The plan must actually engage the level >= 2 branch.
    ASSERT_GT(plain.degradedKeepalives, 0u);
    ASSERT_GT(plainDecisions, 0u);

    EXPECT_EQ(wrapped.degradedKeepalives, plain.degradedKeepalives);
    EXPECT_EQ(wrappedDecisions, plainDecisions);
    EXPECT_EQ(wrapped.totalWasteMbSeconds, plain.totalWasteMbSeconds);
    const auto& a = plain.metrics.records();
    const auto& b = wrapped.metrics.records();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].function, b[i].function) << "record " << i;
        EXPECT_EQ(a[i].arrival, b[i].arrival) << "record " << i;
        EXPECT_EQ(a[i].type, b[i].type) << "record " << i;
        EXPECT_EQ(a[i].queueWait, b[i].queueWait) << "record " << i;
        EXPECT_EQ(a[i].startupLatency, b[i].startupLatency) << "record " << i;
        EXPECT_EQ(a[i].execution, b[i].execution) << "record " << i;
        EXPECT_EQ(a[i].endToEnd, b[i].endToEnd) << "record " << i;
        if (::testing::Test::HasFailure())
            break;
    }
}

} // namespace
} // namespace rc::core
