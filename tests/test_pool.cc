/**
 * @file
 * Unit tests for the container pool: lookup preferences, memory
 * budget enforcement, claims, and waste-log integration.
 */

#include <gtest/gtest.h>

#include "platform/pool.hh"
#include "workload/catalog.hh"

namespace rc::platform {
namespace {

using container::Container;
using container::State;
using workload::Layer;
using rc::sim::kSecond;

class PoolTest : public ::testing::Test
{
  protected:
    PoolTest() : catalog(workload::Catalog::standard20())
    {
        PoolConfig config;
        config.memoryBudgetMb = 2048.0;
        pool = std::make_unique<ContainerPool>(engine, config);
    }

    const workload::FunctionProfile&
    profile(const char* name) const
    {
        return catalog.at(*catalog.findByShortName(name));
    }

    Container&
    makeIdle(const char* name, Layer layer = Layer::User,
             bool claimed = false)
    {
        Container* c = pool->create(profile(name), layer, claimed);
        EXPECT_NE(c, nullptr);
        pool->finishInit(*c);
        return *c;
    }

    workload::Catalog catalog;
    sim::Engine engine;
    std::unique_ptr<ContainerPool> pool;
};

TEST_F(PoolTest, RejectsNonPositiveBudget)
{
    PoolConfig config;
    config.memoryBudgetMb = 0.0;
    EXPECT_THROW(ContainerPool(engine, config), std::runtime_error);
}

TEST_F(PoolTest, CreateReservesTargetMemory)
{
    const auto& p = profile("IR-Py");
    Container* c = pool->create(p, Layer::User, false);
    ASSERT_NE(c, nullptr);
    EXPECT_DOUBLE_EQ(pool->usedMemoryMb(), p.memoryAtLayer(Layer::User));
    EXPECT_EQ(pool->liveCount(), 1u);
}

TEST_F(PoolTest, CreateFailsWhenOverBudget)
{
    // Budget 2048 MB; IR-Py user layer is 412 MB. Five fitreasonably,
    // the sixth would not if we shrink the budget first.
    PoolConfig tiny;
    tiny.memoryBudgetMb = 500.0;
    ContainerPool small(engine, tiny);
    EXPECT_NE(small.create(profile("IR-Py"), Layer::User, false), nullptr);
    EXPECT_EQ(small.create(profile("IR-Py"), Layer::User, false), nullptr);
    EXPECT_EQ(small.liveCount(), 1u);
}

TEST_F(PoolTest, FindIdleUserMatchesFunctionOnly)
{
    makeIdle("IR-Py");
    makeIdle("MD-Py");
    Container* hit = pool->findIdleUser(profile("IR-Py").id());
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->function(), profile("IR-Py").id());
    EXPECT_EQ(pool->findIdleUser(profile("DG-Java").id()), nullptr);
}

TEST_F(PoolTest, FindIdleUserPrefersMostRecentlyIdled)
{
    Container& old = makeIdle("IR-Py");
    engine.runUntil(10 * kSecond);
    Container& fresh = makeIdle("IR-Py");
    Container* hit = pool->findIdleUser(profile("IR-Py").id());
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->id(), fresh.id());
    (void)old;
}

TEST_F(PoolTest, FindIdleLangMatchesLanguage)
{
    makeIdle("IR-Py", Layer::Lang);
    EXPECT_NE(pool->findIdleLang(workload::Language::Python), nullptr);
    EXPECT_EQ(pool->findIdleLang(workload::Language::Java), nullptr);
}

TEST_F(PoolTest, FindIdleBare)
{
    EXPECT_EQ(pool->findIdleBare(), nullptr);
    makeIdle("AC-Js", Layer::Bare);
    EXPECT_NE(pool->findIdleBare(), nullptr);
}

TEST_F(PoolTest, BusyContainersAreInvisibleToLookups)
{
    Container& c = makeIdle("IR-Py");
    pool->beginExecution(c);
    EXPECT_EQ(pool->findIdleUser(profile("IR-Py").id()), nullptr);
    EXPECT_TRUE(pool->idleContainers().empty());
}

TEST_F(PoolTest, ClaimsGateInFlightMatches)
{
    const auto f = profile("IR-Py").id();
    Container* c = pool->create(profile("IR-Py"), Layer::User, false);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(pool->findUnclaimedInit(f), c);
    EXPECT_TRUE(pool->userAvailable(f));
    pool->claim(*c);
    EXPECT_TRUE(pool->isClaimed(*c));
    EXPECT_EQ(pool->findUnclaimedInit(f), nullptr);
    EXPECT_FALSE(pool->userAvailable(f));
    EXPECT_THROW(pool->claim(*c), std::logic_error); // double claim
    pool->finishInit(*c);
    EXPECT_FALSE(pool->isClaimed(*c)); // claims clear on completion
}

TEST_F(PoolTest, ClaimedCreateIsClaimedFromStart)
{
    Container* c =
        pool->create(profile("IR-Py"), Layer::User, /*claimed=*/true);
    ASSERT_NE(c, nullptr);
    EXPECT_TRUE(pool->isClaimed(*c));
    EXPECT_EQ(pool->findUnclaimedInit(profile("IR-Py").id()), nullptr);
}

TEST_F(PoolTest, UserAvailableSeesIdleUsers)
{
    const auto f = profile("IR-Py").id();
    EXPECT_FALSE(pool->userAvailable(f));
    makeIdle("IR-Py");
    EXPECT_TRUE(pool->userAvailable(f));
}

TEST_F(PoolTest, BeginUpgradeAdjustsMemoryAndCancelsTimeout)
{
    Container& c = makeIdle("IR-Py", Layer::Lang);
    const sim::EventId timeout = engine.schedule(kSecond, [] {});
    c.setTimeoutEvent(timeout);
    const double before = pool->usedMemoryMb();
    ASSERT_TRUE(pool->beginUpgrade(c, profile("IR-Py"), Layer::User));
    EXPECT_GT(pool->usedMemoryMb(), before);
    EXPECT_FALSE(engine.pending(timeout));
    EXPECT_EQ(c.timeoutEvent(), sim::kNoEvent);
}

TEST_F(PoolTest, BeginUpgradeFailsWithoutMemory)
{
    PoolConfig tiny;
    tiny.memoryBudgetMb = 120.0;
    ContainerPool small(engine, tiny);
    Container* c = small.create(profile("IR-Py"), Layer::Lang, false);
    ASSERT_NE(c, nullptr);
    small.finishInit(*c);
    // User layer needs 412 MB total; budget is 120.
    EXPECT_FALSE(small.beginUpgrade(*c, profile("IR-Py"), Layer::User));
    EXPECT_EQ(c->state(), State::Idle); // unchanged on failure
}

TEST_F(PoolTest, DowngradeReleasesMemory)
{
    Container& c = makeIdle("IR-Py");
    const double atUser = pool->usedMemoryMb();
    pool->downgrade(c);
    EXPECT_LT(pool->usedMemoryMb(), atUser);
    EXPECT_DOUBLE_EQ(pool->usedMemoryMb(),
                     profile("IR-Py").memoryAtLayer(Layer::Lang));
}

TEST_F(PoolTest, KillReleasesEverythingAndLogsWaste)
{
    Container& c = makeIdle("IR-Py");
    engine.runUntil(30 * kSecond);
    pool->kill(c);
    EXPECT_DOUBLE_EQ(pool->usedMemoryMb(), 0.0);
    EXPECT_EQ(pool->liveCount(), 0u);
    ASSERT_EQ(pool->wasteLog().size(), 1u);
    const auto& interval = pool->wasteLog().intervals()[0];
    EXPECT_FALSE(interval.eventuallyHit);
    EXPECT_EQ(interval.end - interval.begin, 30 * kSecond);
}

TEST_F(PoolTest, ReuseClassifiesWasteAsHit)
{
    Container& c = makeIdle("IR-Py");
    engine.runUntil(10 * kSecond);
    pool->beginExecution(c);
    ASSERT_EQ(pool->wasteLog().size(), 1u);
    EXPECT_TRUE(pool->wasteLog().intervals()[0].eventuallyHit);
}

TEST_F(PoolTest, RepurposeSwapsOwnerWithinBudget)
{
    Container& c = makeIdle("IR-Py");
    ASSERT_TRUE(pool->beginRepurpose(c, profile("MD-Py")));
    EXPECT_EQ(c.state(), State::Initializing);
    pool->finishInit(c);
    EXPECT_EQ(c.function(), profile("MD-Py").id());
}

TEST_F(PoolTest, SetPackedChargesMemory)
{
    Container& c = makeIdle("IR-Py");
    const double before = pool->usedMemoryMb();
    ASSERT_TRUE(pool->setPacked(c, {1, 2, 3}, 100.0));
    EXPECT_DOUBLE_EQ(pool->usedMemoryMb(), before + 100.0);
    // Re-packing with less memory shrinks the charge.
    ASSERT_TRUE(pool->setPacked(c, {1}, 40.0));
    EXPECT_DOUBLE_EQ(pool->usedMemoryMb(), before + 40.0);
}

TEST_F(PoolTest, SetAuxiliaryMemoryBudgetChecked)
{
    PoolConfig tiny;
    tiny.memoryBudgetMb = 450.0;
    ContainerPool small(engine, tiny);
    Container* c = small.create(profile("IR-Py"), Layer::User, false);
    ASSERT_NE(c, nullptr);
    small.finishInit(*c);
    EXPECT_FALSE(small.setAuxiliaryMemory(*c, 100.0)); // 412+100 > 450
    EXPECT_TRUE(small.setAuxiliaryMemory(*c, 30.0));
}

TEST_F(PoolTest, IdleForeignUsersExcludesOwnFunction)
{
    makeIdle("IR-Py");
    makeIdle("MD-Py");
    const auto foreign = pool->idleForeignUsers(profile("IR-Py").id());
    ASSERT_EQ(foreign.size(), 1u);
    EXPECT_EQ(foreign[0]->function(), profile("MD-Py").id());
}

TEST_F(PoolTest, ByIdReturnsNullForDead)
{
    Container& c = makeIdle("IR-Py");
    const auto id = c.id();
    EXPECT_EQ(pool->byId(id), &c);
    pool->kill(c);
    EXPECT_EQ(pool->byId(id), nullptr);
    EXPECT_EQ(pool->byId(424242), nullptr);
}

// ---- lookup indices ----------------------------------------------------

TEST_F(PoolTest, IndicesTrackEveryLifecycleTransition)
{
    const auto f = profile("IR-Py").id();

    // Unclaimed init -> claim -> idle.
    Container* c = pool->create(profile("IR-Py"), Layer::User, false);
    ASSERT_NE(c, nullptr);
    pool->auditIndices();
    pool->claim(*c);
    pool->auditIndices();
    pool->finishInit(*c);
    pool->auditIndices();
    EXPECT_EQ(pool->findIdleUser(f), c);
    EXPECT_EQ(pool->idleCount(), 1u);

    // Idle -> busy -> idle.
    pool->beginExecution(*c);
    pool->auditIndices();
    EXPECT_EQ(pool->findIdleUser(f), nullptr);
    EXPECT_TRUE(pool->userAvailable(f)); // busy still counts
    pool->finishExecution(*c);
    pool->auditIndices();
    EXPECT_EQ(pool->findIdleUser(f), c);

    // Peel User -> Lang -> Bare, then expire.
    pool->downgrade(*c);
    pool->auditIndices();
    EXPECT_EQ(pool->findIdleUser(f), nullptr);
    EXPECT_EQ(pool->findIdleLang(workload::Language::Python), c);
    EXPECT_EQ(pool->idleLangCount(workload::Language::Python), 1u);
    pool->downgrade(*c);
    pool->auditIndices();
    EXPECT_EQ(pool->findIdleLang(workload::Language::Python), nullptr);
    EXPECT_EQ(pool->findIdleBare(), c);
    EXPECT_EQ(pool->idleBareCount(), 1u);
    pool->kill(*c);
    pool->auditIndices();
    EXPECT_EQ(pool->findIdleBare(), nullptr);
    EXPECT_EQ(pool->idleCount(), 0u);
}

TEST_F(PoolTest, ForceKillUnindexesBusyContainer)
{
    const auto f = profile("IR-Py").id();
    Container& c = makeIdle("IR-Py");
    pool->beginExecution(c);
    EXPECT_TRUE(pool->userAvailable(f));
    pool->auditIndices();
    pool->forceKill(c, obs::KillCause::ExecFault);
    pool->auditIndices();
    EXPECT_FALSE(pool->userAvailable(f));
    EXPECT_EQ(pool->liveCount(), 0u);
}

TEST_F(PoolTest, UpgradeMovesContainerOutOfLangIndex)
{
    Container& c = makeIdle("IR-Py", Layer::Lang);
    EXPECT_EQ(pool->findIdleLang(workload::Language::Python), &c);
    ASSERT_TRUE(pool->beginUpgrade(c, profile("IR-Py"), Layer::User));
    pool->auditIndices();
    EXPECT_EQ(pool->findIdleLang(workload::Language::Python), nullptr);
    // Upgrades start unclaimed, so the in-flight init is latchable.
    EXPECT_EQ(pool->findUnclaimedInit(profile("IR-Py").id()), &c);
    pool->finishInit(c);
    pool->auditIndices();
    EXPECT_EQ(pool->findIdleUser(profile("IR-Py").id()), &c);
}

TEST_F(PoolTest, ForkRefreshesTemplateIndexPosition)
{
    Container& older = makeIdle("IR-Py", Layer::Lang);
    engine.runUntil(10 * kSecond);
    Container& fresh = makeIdle("MD-Py", Layer::Lang);
    EXPECT_EQ(pool->findIdleLang(workload::Language::Python), &fresh);

    engine.runUntil(20 * kSecond);
    Container* clone = pool->forkFrom(older, profile("FC-Py"));
    ASSERT_NE(clone, nullptr);
    pool->auditIndices();
    EXPECT_TRUE(pool->isClaimed(*clone));
    // The shared hit reopened the template's idle interval at t=20s,
    // so it is now the most recently idled Lang container.
    EXPECT_EQ(pool->findIdleLang(workload::Language::Python), &older);
}

TEST_F(PoolTest, RepurposeRefilesUnderNewOwner)
{
    const auto from = profile("MD-Py").id();
    const auto to = profile("IR-Py").id();
    Container& c = makeIdle("MD-Py");
    ASSERT_TRUE(pool->beginRepurpose(c, profile("IR-Py")));
    pool->auditIndices();
    EXPECT_EQ(pool->findIdleUser(from), nullptr);
    EXPECT_EQ(pool->findUnclaimedInit(to), &c);
    pool->claim(c);
    pool->finishInit(c);
    pool->auditIndices();
    EXPECT_EQ(pool->findIdleUser(to), &c);
    EXPECT_EQ(pool->findIdleUser(from), nullptr);
}

TEST_F(PoolTest, DemoteToZygoteRefilesOwnerless)
{
    const auto f = profile("IR-Py").id();
    Container& c = makeIdle("IR-Py");
    pool->demoteToZygote(c);
    pool->auditIndices();
    // The former owner lost its warm container...
    EXPECT_EQ(pool->findIdleUser(f), nullptr);
    EXPECT_FALSE(pool->userAvailable(f));
    // ...but the zygote is a foreign-user candidate for everyone.
    const auto foreign = pool->idleForeignUsers(f);
    ASSERT_EQ(foreign.size(), 1u);
    EXPECT_EQ(foreign[0], &c);
    EXPECT_EQ(foreign[0]->function(), workload::kInvalidFunction);
}

TEST_F(PoolTest, ForeignCandidateOrderIsCreationOrder)
{
    // Scramble the idle order so it disagrees with creation order:
    // the first-created container idles again last.
    Container& a = makeIdle("IR-Py");
    Container& b = makeIdle("MD-Py");
    Container& c = makeIdle("FC-Py");
    engine.runUntil(5 * kSecond);
    pool->beginExecution(a);
    engine.runUntil(10 * kSecond);
    pool->finishExecution(a); // a: newest idleSince, smallest id
    pool->auditIndices();

    const auto foreign = pool->idleForeignUsers(profile("DG-Java").id());
    ASSERT_EQ(foreign.size(), 3u);
    EXPECT_EQ(foreign[0], &a);
    EXPECT_EQ(foreign[1], &b);
    EXPECT_EQ(foreign[2], &c);
}

TEST_F(PoolTest, CollectIdleReusesScratchCapacity)
{
    makeIdle("IR-Py");
    makeIdle("MD-Py", Layer::Lang);
    makeIdle("AC-Js", Layer::Bare);

    std::vector<const Container*> scratch;
    pool->collectIdle(scratch);
    ASSERT_EQ(scratch.size(), 3u);
    const auto capacity = scratch.capacity();
    const auto* data = scratch.data();
    // Steady state: the warmed-up buffer is refilled in place.
    pool->collectIdle(scratch);
    EXPECT_EQ(scratch.size(), 3u);
    EXPECT_EQ(scratch.capacity(), capacity);
    EXPECT_EQ(scratch.data(), data);

    // Same containers as the allocating view, same (idleSince) order.
    EXPECT_EQ(pool->idleContainers(), scratch);

    std::size_t visited = 0;
    sim::Tick last = -1;
    pool->forEachIdle([&](const Container& c) {
        EXPECT_EQ(&c, scratch[visited]);
        EXPECT_GE(c.idleSince(), last);
        last = c.idleSince();
        ++visited;
    });
    EXPECT_EQ(visited, scratch.size());
}

TEST_F(PoolTest, PerLayerIdleCountsMatchScan)
{
    makeIdle("IR-Py");
    makeIdle("IR-Py");
    makeIdle("MD-Py", Layer::Lang);
    makeIdle("DG-Java", Layer::Lang);
    makeIdle("AC-Js", Layer::Bare);
    Container& busy = makeIdle("FC-Py");
    pool->beginExecution(busy);
    // A demoted zygote re-files under the ownerless key and still
    // counts as an idle User container.
    Container& zygote = makeIdle("MD-Py");
    pool->demoteToZygote(zygote);
    ASSERT_EQ(zygote.function(), workload::kInvalidFunction);

    EXPECT_EQ(pool->idleCount(), 6u);
    EXPECT_EQ(pool->idleCountAtLayer(Layer::User, std::nullopt), 3u);
    EXPECT_EQ(pool->idleCountAtLayer(Layer::Lang, std::nullopt), 2u);
    EXPECT_EQ(pool->idleCountAtLayer(Layer::Lang,
                                     workload::Language::Python), 1u);
    EXPECT_EQ(pool->idleCountAtLayer(Layer::Lang,
                                     workload::Language::Java), 1u);
    EXPECT_EQ(pool->idleCountAtLayer(Layer::Bare, std::nullopt), 1u);
    EXPECT_EQ(pool->idleLangCount(workload::Language::NodeJs), 0u);
    EXPECT_EQ(pool->idleBareCount(), 1u);
    pool->auditIndices();
}

TEST_F(PoolTest, ContinuousAuditSurvivesMixedChurn)
{
    // auditEveryMutations=1 cross-validates the indices after every
    // single mutation of a busy lifecycle mix.
    PoolConfig config;
    config.memoryBudgetMb = 4096.0;
    config.auditEveryMutations = 1;
    ContainerPool audited(engine, config);

    Container* a = audited.create(profile("IR-Py"), Layer::User, false);
    ASSERT_NE(a, nullptr);
    audited.claim(*a);
    audited.finishInit(*a);
    audited.beginExecution(*a);
    audited.finishExecution(*a);

    Container* lang = audited.create(profile("MD-Py"), Layer::Lang, false);
    ASSERT_NE(lang, nullptr);
    audited.finishInit(*lang);
    Container* clone = audited.forkFrom(*lang, profile("FC-Py"));
    ASSERT_NE(clone, nullptr);
    audited.finishInit(*clone);

    audited.demoteToZygote(*a);
    ASSERT_TRUE(audited.beginRepurpose(*a, profile("MD-Py")));
    audited.claim(*a);
    audited.finishInit(*a);

    audited.downgrade(*clone);
    audited.forceKill(*lang, obs::KillCause::NodeCrash);
    audited.kill(*clone);
    audited.kill(*a);
    EXPECT_EQ(audited.liveCount(), 0u);
    EXPECT_LT(audited.usedMemoryMb(), 1e-9);
}

} // namespace
} // namespace rc::platform
