/**
 * @file
 * The benchmark's own tests: the layer wrappers must be transparent.
 *
 * A traced replay is only a breakdown of the untraced one if the
 * wrappers change nothing the simulator computes, so every workload
 * is replayed in reduced form with and without them and the digests
 * must match. The unit tests pin the forwarding itself: every virtual
 * of Policy and ArrivalSource reaches the wrapped object, and the two
 * non-virtual Policy setters are pushed on to it.
 */

#include <gtest/gtest.h>

#include <vector>

#include "layer_trace.hh"
#include "trace/arrival_source.hh"
#include "workload/catalog.hh"
#include "workloads.hh"

namespace {

using namespace rc;
using perfbench::Hook;

class WrapperTransparency : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WrapperTransparency, ReducedReplayDigestUnchanged)
{
    const perfbench::WorkloadSpec* spec = perfbench::findWorkload(GetParam());
    ASSERT_NE(spec, nullptr);
    const perfbench::WorkloadSpec small = perfbench::reduced(*spec);
    for (const std::uint64_t seed : {1u, 2u}) {
        const perfbench::Replay plain = perfbench::replay(small, seed, false);
        const perfbench::Replay traced = perfbench::replay(small, seed, true);
        EXPECT_TRUE(plain.gateErrors.empty()) << plain.gateErrors.front();
        EXPECT_TRUE(traced.gateErrors.empty()) << traced.gateErrors.front();
        EXPECT_GT(plain.completed, 0u);
        EXPECT_EQ(plain.arrivals, traced.arrivals);
        EXPECT_EQ(plain.digest, traced.digest) << "seed " << seed;
        EXPECT_TRUE(plain.layers.empty());
        EXPECT_FALSE(traced.layers.empty());
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, WrapperTransparency,
                         ::testing::Values("node_replay", "fleet_parallel",
                                           "fleet_gray"));

TEST(WrapperTransparency, SeedChangesTheDigest)
{
    const perfbench::WorkloadSpec small =
        perfbench::reduced(*perfbench::findWorkload("node_replay"));
    EXPECT_NE(perfbench::replay(small, 1, false).digest,
              perfbench::replay(small, 2, false).digest);
}

/** Answers every virtual with a distinct value and records what it saw. */
class ProbePolicy final : public policy::Policy
{
  public:
    std::string name() const override { return "probe"; }
    void
    attach(policy::PlatformView& view) override
    {
        Policy::attach(view);
        attachedView = &view;
    }
    void
    onArrival(workload::FunctionId function) override
    {
        lastArrival = function;
        seenPressure = pressureLevel();
        seenObserver = _obs;
    }
    void
    onStartupResolved(const policy::StartupObservation& o) override
    {
        lastLatency = o.startupLatency;
    }
    void onContainerFailed(const container::Container&) override { ++failed; }
    void onNodeDown(sim::Tick downtime) override { lastDowntime = downtime; }
    sim::Tick keepAliveTtl(const container::Container&) override { return 11; }
    policy::IdleDecision
    onIdleExpired(const container::Container&) override
    {
        return policy::IdleDecision::renew(12);
    }
    bool layerSharingEnabled() const override { return true; }
    bool acceptsRecoveryPrewarm(workload::Layer) const override
    {
        return false;
    }
    bool
    allowForeignUserContainer(const container::Container&,
                              workload::FunctionId) const override
    {
        return true;
    }
    std::vector<container::ContainerId>
    rankEvictionVictims(
        const std::vector<const container::Container*>&) override
    {
        return {13, 14};
    }
    double partialStartLatencyFactor() const override { return 1.5; }
    sim::Tick partialStartLatencyBias() const override { return 15; }
    sim::Tick
    foreignUserStartupLatency(const container::Container&,
                              workload::FunctionId) const override
    {
        return 16;
    }
    bool forkSharedLayers() const override { return true; }
    sim::Tick forkLatency() const override { return 17; }
    double coldStartFactor() const override { return 0.5; }
    double
    auxiliaryMemoryMb(const workload::FunctionProfile&) const override
    {
        return 18.0;
    }

    policy::PlatformView* attachedView = nullptr;
    workload::FunctionId lastArrival = workload::kInvalidFunction;
    sim::Tick lastLatency = 0;
    sim::Tick lastDowntime = 0;
    int failed = 0;
    int seenPressure = -1;
    obs::Observer* seenObserver = nullptr;
};

/** A platform with one function and a fixed clock. */
class FixedView final : public policy::PlatformView
{
  public:
    explicit FixedView(const workload::Catalog& catalog) : _catalog(catalog)
    {
    }
    sim::Tick now() const override { return 42; }
    const workload::Catalog& catalog() const override { return _catalog; }
    bool userContainerAvailable(workload::FunctionId) const override
    {
        return true;
    }
    void schedulePrewarm(workload::FunctionId, sim::Tick) override
    {
        ++prewarms;
    }
    std::vector<const container::Container*> idleContainers() const override
    {
        return {};
    }

    int prewarms = 0;

  private:
    const workload::Catalog& _catalog;
};

TEST(TracingPolicy, ForwardsEveryVirtualAndCountsIt)
{
    const auto catalog = workload::Catalog::standard20();
    const workload::FunctionProfile& profile = catalog.profiles().front();
    const container::Container c(1, profile, workload::Layer::User, 0);
    FixedView view(catalog);
    perfbench::PolicyTrace trace;
    auto owned = std::make_unique<ProbePolicy>();
    ProbePolicy& probe = *owned;
    perfbench::TracingPolicy wrapper(std::move(owned), trace);

    wrapper.attach(view);
    ASSERT_NE(probe.attachedView, nullptr);
    EXPECT_NE(probe.attachedView, &view); // routed through the view wrapper
    EXPECT_EQ(probe.attachedView->now(), 42);
    probe.attachedView->schedulePrewarm(0, 1);
    EXPECT_EQ(view.prewarms, 1);
    EXPECT_EQ(trace.view.calls, 2u);

    EXPECT_EQ(wrapper.name(), "probe");
    wrapper.onArrival(3);
    EXPECT_EQ(probe.lastArrival, 3u);
    wrapper.onStartupResolved({3, platform::StartupType::Cold, 9});
    EXPECT_EQ(probe.lastLatency, 9);
    wrapper.onContainerFailed(c);
    EXPECT_EQ(probe.failed, 1);
    wrapper.onNodeDown(10);
    EXPECT_EQ(probe.lastDowntime, 10);
    EXPECT_EQ(wrapper.keepAliveTtl(c), 11);
    const policy::IdleDecision decision = wrapper.onIdleExpired(c);
    EXPECT_EQ(decision.action, policy::IdleDecision::Action::Renew);
    EXPECT_EQ(decision.nextTtl, 12);
    EXPECT_TRUE(wrapper.layerSharingEnabled());
    EXPECT_FALSE(wrapper.acceptsRecoveryPrewarm(workload::Layer::Bare));
    EXPECT_TRUE(wrapper.allowForeignUserContainer(c, 0));
    EXPECT_EQ(wrapper.rankEvictionVictims({&c}),
              (std::vector<container::ContainerId>{13, 14}));
    EXPECT_EQ(wrapper.partialStartLatencyFactor(), 1.5);
    EXPECT_EQ(wrapper.partialStartLatencyBias(), 15);
    EXPECT_EQ(wrapper.foreignUserStartupLatency(c, 0), 16);
    EXPECT_TRUE(wrapper.forkSharedLayers());
    EXPECT_EQ(wrapper.forkLatency(), 17);
    EXPECT_EQ(wrapper.coldStartFactor(), 0.5);
    EXPECT_EQ(wrapper.auxiliaryMemoryMb(profile), 18.0);

    for (std::size_t i = 0; i < perfbench::kHookCount; ++i)
        EXPECT_EQ(trace.hooks[i].calls, 1u) << "hook " << i;
    EXPECT_EQ(trace.hookTotal().calls, perfbench::kHookCount);
}

TEST(TracingPolicy, PushesNonVirtualStateBeforeEachHook)
{
    perfbench::PolicyTrace trace;
    auto owned = std::make_unique<ProbePolicy>();
    ProbePolicy& probe = *owned;
    perfbench::TracingPolicy wrapper(std::move(owned), trace);
    obs::Observer observer;

    wrapper.onArrival(1);
    EXPECT_EQ(probe.seenPressure, 0);
    EXPECT_EQ(probe.seenObserver, nullptr);

    wrapper.setPressureLevel(2);
    wrapper.setObserver(&observer);
    wrapper.onArrival(1);
    EXPECT_EQ(probe.seenPressure, 2);
    EXPECT_EQ(probe.seenObserver, &observer);
    EXPECT_EQ(probe.pressureLevel(), 2);

    wrapper.setPressureLevel(0);
    wrapper.setObserver(nullptr);
    wrapper.onArrival(1);
    EXPECT_EQ(probe.seenPressure, 0);
    EXPECT_EQ(probe.seenObserver, nullptr);
}

TEST(TracingSource, ForwardsTheSameStreamAndCountsPops)
{
    const std::vector<trace::Arrival> arrivals = {
        {10, 0}, {10, 1}, {25, 0}, {40, 2}};
    trace::VectorArrivalSource reference(arrivals);
    trace::VectorArrivalSource inner(arrivals);
    perfbench::TracingSource source(inner);

    EXPECT_EQ(source.horizon(), reference.horizon());
    EXPECT_EQ(source.total(), reference.total());
    while (!reference.done()) {
        ASSERT_FALSE(source.done());
        EXPECT_EQ(source.peek().time, reference.peek().time);
        EXPECT_EQ(source.peek().function, reference.peek().function);
        source.pop();
        reference.pop();
    }
    EXPECT_TRUE(source.done());
    EXPECT_EQ(source.pops().calls, arrivals.size());
}

} // namespace
