/**
 * @file
 * cluster::RequestTracker driven by scripted outcome sequences, with no
 * nodes: the hedge identity, deferred loser cancels, duplicate
 * completions, readmission-probe slots and the order of client retry
 * feedback.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cluster/node_health.hh"
#include "cluster/request_tracker.hh"
#include "fault/fault_plan.hh"
#include "sim/time.hh"

namespace rc {
namespace {

using cluster::RequestTracker;
using Outcome = platform::TicketOutcome;

sim::Tick
at(double seconds)
{
    return sim::fromSeconds(seconds);
}

RequestTracker::TaggedOutcome
outcome(std::uint8_t kind, std::uint64_t ticket, double seconds,
        std::uint32_t node, double latency = 0.0, double exec = 0.0)
{
    Outcome o;
    o.kind = kind;
    o.ticket = ticket;
    o.at = at(seconds);
    o.latencySeconds = latency;
    o.execSeconds = exec;
    return {o, node};
}

/** Hedging armed with a 0.1 s budget floor once a function has one
 *  completion (the scripts keep every latency under it, so each
 *  budget is exactly the floor); quarantine armed so probe slots are
 *  live. */
fault::FaultPlan
hedgePlan()
{
    fault::FaultPlan plan;
    plan.network.hedgeEnabled = true;
    plan.network.hedgeLatencyFactor = 1.0;
    plan.network.hedgeMinSamples = 1;
    plan.network.hedgeMinBudgetMs = 100.0;
    plan.network.quarantineEnabled = true;
    plan.network.quarantineMinSamples = 3;
    plan.network.quarantineDrainSeconds = 5.0;
    plan.network.quarantineProbeCount = 2;
    return plan;
}

/** A tracker over four nodes and two functions, with its feeds. */
struct Fixture
{
    explicit Fixture(const fault::FaultPlan& plan = hedgePlan())
        : health(plan.network, 4), tracker(plan, 2, health, nullptr)
    {
    }

    std::vector<RequestTracker::Cancel>
    settle(std::vector<RequestTracker::TaggedOutcome> batch)
    {
        return tracker.settle(batch, result);
    }

    /** Complete one request of function 0 in 50 ms, so its hedge
     *  budget becomes the 0.1 s floor. */
    void prime()
    {
        const std::uint64_t t = tracker.open(0, 0, 3, false, 0);
        settle({outcome(Outcome::kAdmitted, t, 0.0, 3),
                outcome(Outcome::kCompleted, t, 0.05, 3, 0.05, 0.04)});
    }

    /** Open a request of function 0 on node 0 at @p seconds and hedge
     *  it on node 1 once its budget expires; returns both tickets. */
    std::pair<std::uint64_t, std::uint64_t> hedged(double seconds)
    {
        const std::uint64_t primary =
            tracker.open(0, at(seconds), 0, false, 0);
        const auto& due = tracker.dueHedges(at(seconds + 0.1));
        EXPECT_EQ(due.size(), 1u);
        EXPECT_EQ(due.front().primaryTicket, primary);
        EXPECT_EQ(due.front().primaryNode, 0u);
        const std::uint64_t hedge =
            tracker.launchHedge(primary, 1, at(seconds + 0.1), result);
        return {primary, hedge};
    }

    /** Drive node 0 into Probation, so it wants a readmission probe. */
    void probation()
    {
        for (int i = 0; i < 4; ++i) {
            health.recordLatency(0, 2.0, at(1.0));
            health.recordLatency(1, 0.1, at(1.0));
            health.recordLatency(2, 0.1, at(1.0));
        }
        health.refresh(at(2.0));
        health.refresh(at(8.0));
        ASSERT_TRUE(health.wantsProbe(0));
    }

    cluster::NodeHealthTracker health;
    RequestTracker tracker;
    cluster::ClusterResult result;
};

TEST(RequestTracker, HedgeDeadlineFollowsTheFunctionBudget)
{
    Fixture f;
    const std::uint64_t cold = f.tracker.open(0, at(1.0), 0, false, 0);
    // No completion of function 0 yet: nothing can hedge.
    EXPECT_EQ(f.tracker.nextActionAt(0), cluster::kNever);
    EXPECT_TRUE(f.tracker.dueHedges(at(100.0)).empty());
    f.settle({outcome(Outcome::kCompleted, cold, 1.05, 0, 0.05, 0.04)});
    EXPECT_TRUE(f.tracker.idle());

    const std::uint64_t primary = f.tracker.open(0, at(2.0), 0, false, 0);
    EXPECT_EQ(f.tracker.nextActionAt(0), at(2.1));
    // The floor holds a past deadline at the last barrier.
    EXPECT_EQ(f.tracker.nextActionAt(at(3.0)), at(3.0));
    EXPECT_TRUE(f.tracker.dueHedges(at(2.09)).empty());
    ASSERT_EQ(f.tracker.dueHedges(at(2.1)).size(), 1u);
    f.tracker.launchHedge(primary, 1, at(2.1), f.result);
    // A hedged request never hedges again.
    EXPECT_TRUE(f.tracker.dueHedges(at(10.0)).empty());
    EXPECT_EQ(f.tracker.nextActionAt(0), cluster::kNever);
}

TEST(RequestTracker, DueHedgesComeInPrimaryTicketOrder)
{
    Fixture f;
    f.prime();
    const std::uint64_t late = f.tracker.open(0, at(1.0), 2, false, 0);
    const std::uint64_t early = f.tracker.open(0, at(0.5), 1, false, 0);
    const auto& due = f.tracker.dueHedges(at(2.0));
    ASSERT_EQ(due.size(), 2u);
    EXPECT_EQ(due[0].primaryTicket, late);
    EXPECT_EQ(due[1].primaryTicket, early);
}

TEST(RequestTracker, HedgeIdentityHoldsOverWonCancelledAndLost)
{
    Fixture f;
    f.prime();

    // Won: the hedge finishes first; the admitted primary is cancelled
    // at once.
    auto [p1, h1] = f.hedged(1.0);
    auto cancels = f.settle({outcome(Outcome::kAdmitted, p1, 1.0, 0),
                             outcome(Outcome::kAdmitted, h1, 1.1, 1),
                             outcome(Outcome::kCompleted, h1, 1.2, 1, 0.05,
                                     0.1)});
    ASSERT_EQ(cancels.size(), 1u);
    EXPECT_EQ(cancels[0].node, 0u);
    EXPECT_EQ(cancels[0].ticket, p1);
    f.settle({outcome(Outcome::kCancelled, p1, 1.25, 0, 0.0, 0.2)});

    // Cancelled: the primary finishes first and the hedge is cancelled.
    auto [p2, h2] = f.hedged(2.0);
    cancels = f.settle({outcome(Outcome::kAdmitted, p2, 2.0, 0),
                        outcome(Outcome::kAdmitted, h2, 2.1, 1),
                        outcome(Outcome::kCompleted, p2, 2.15, 0, 0.05,
                                0.1)});
    ASSERT_EQ(cancels.size(), 1u);
    EXPECT_EQ(cancels[0].node, 1u);
    EXPECT_EQ(cancels[0].ticket, h2);
    f.settle({outcome(Outcome::kCancelled, h2, 2.2, 1, 0.0, 0.05)});

    // Lost: the hedge fails, then the primary completes.
    auto [p3, h3] = f.hedged(3.0);
    cancels = f.settle({outcome(Outcome::kAdmitted, p3, 3.0, 0),
                        outcome(Outcome::kAdmitted, h3, 3.1, 1),
                        outcome(Outcome::kFailed, h3, 3.2, 1),
                        outcome(Outcome::kCompleted, p3, 3.3, 0, 0.05,
                                0.2)});
    EXPECT_TRUE(cancels.empty());

    const cluster::ClusterResult& r = f.result;
    EXPECT_EQ(r.hedgesLaunched, 3u);
    EXPECT_EQ(r.hedgesWon, 1u);
    EXPECT_EQ(r.hedgesCancelled, 1u);
    EXPECT_EQ(r.hedgesLost, 1u);
    EXPECT_EQ(r.hedgesLaunched,
              r.hedgesWon + r.hedgesCancelled + r.hedgesLost);
    EXPECT_EQ(r.duplicateCompletions, 0u);
    EXPECT_DOUBLE_EQ(r.wastedExecSeconds, 0.25);
    EXPECT_TRUE(f.tracker.idle());
}

TEST(RequestTracker, LoserCancelWaitsForItsAdmission)
{
    Fixture f;
    f.prime();
    auto [primary, hedge] = f.hedged(1.0);
    // The primary wins while the hedge is still on the wire: a cancel
    // now would reach a node that does not hold the ticket.
    auto cancels = f.settle({outcome(Outcome::kAdmitted, primary, 1.0, 0),
                             outcome(Outcome::kCompleted, primary, 1.15, 0,
                                     0.05, 0.1)});
    EXPECT_TRUE(cancels.empty());
    EXPECT_FALSE(f.tracker.idle());
    // The hedge lands; its cancel follows at once.
    cancels = f.settle({outcome(Outcome::kAdmitted, hedge, 1.3, 1)});
    ASSERT_EQ(cancels.size(), 1u);
    EXPECT_EQ(cancels[0].node, 1u);
    EXPECT_EQ(cancels[0].ticket, hedge);
    f.settle({outcome(Outcome::kCancelled, hedge, 1.35, 1)});
    EXPECT_EQ(f.result.hedgesCancelled, 1u);
    EXPECT_TRUE(f.tracker.idle());
}

TEST(RequestTracker, DuplicateCompletionIsWasteAndALostHedge)
{
    Fixture f;
    f.prime();
    auto [primary, hedge] = f.hedged(1.0);
    // Both attempts complete in one batch: the cancel raced the
    // loser's finish.
    const auto cancels =
        f.settle({outcome(Outcome::kAdmitted, primary, 1.0, 0),
                  outcome(Outcome::kAdmitted, hedge, 1.1, 1),
                  outcome(Outcome::kCompleted, primary, 1.2, 0, 0.05, 0.15),
                  outcome(Outcome::kCompleted, hedge, 1.25, 1, 0.05,
                          0.12)});
    ASSERT_EQ(cancels.size(), 1u);
    EXPECT_EQ(cancels[0].ticket, hedge);
    EXPECT_EQ(f.result.duplicateCompletions, 1u);
    EXPECT_EQ(f.result.hedgesLost, 1u);
    EXPECT_EQ(f.result.hedgesWon, 0u);
    EXPECT_DOUBLE_EQ(f.result.wastedExecSeconds, 0.12);
    EXPECT_DOUBLE_EQ(f.result.totalExecSeconds, 0.04 + 0.15 + 0.12);
    EXPECT_TRUE(f.tracker.idle());
    // A stale outcome of a closed request is ignored.
    f.settle({outcome(Outcome::kCancelled, hedge, 1.3, 1)});
    EXPECT_EQ(f.result.hedgesCancelled, 0u);
}

TEST(RequestTracker, ProbeAbortFreesTheSlotAndIsNeverHedged)
{
    Fixture f;
    f.prime();
    f.probation();
    const std::uint64_t probe = f.tracker.open(0, at(9.0), 0, true, 0);
    EXPECT_FALSE(f.health.wantsProbe(0));
    EXPECT_EQ(f.health.probes(), 1u);
    EXPECT_TRUE(f.tracker.dueHedges(at(100.0)).empty());
    // The probe is shed: node 0 may be probed again.
    f.settle({outcome(Outcome::kAdmitted, probe, 9.0, 0),
              outcome(Outcome::kShed, probe, 9.5, 0)});
    EXPECT_TRUE(f.health.wantsProbe(0));
    EXPECT_TRUE(f.tracker.idle());
}

TEST(RequestTracker, ProbeMovedByFailoverFreesItsSlotOnce)
{
    Fixture f;
    f.prime();
    f.probation();
    const std::uint64_t probe = f.tracker.open(0, at(9.0), 0, true, 0);
    f.settle({outcome(Outcome::kAdmitted, probe, 9.0, 0)});
    ASSERT_FALSE(f.health.wantsProbe(0));
    // Node 0 crashes under its probe, which fails over to node 2. The
    // slot must come back at once: the moved attempt can no longer
    // tell anything about node 0.
    f.tracker.moved(probe, 2);
    EXPECT_TRUE(f.health.wantsProbe(0));
    // Node 0 restarts and takes a fresh probe. The moved attempt's
    // death must not release the fresh probe's slot.
    const std::uint64_t fresh = f.tracker.open(0, at(30.0), 0, true, 0);
    EXPECT_EQ(f.health.probes(), 2u);
    f.settle({outcome(Outcome::kAdmitted, probe, 9.2, 2),
              outcome(Outcome::kShed, probe, 31.0, 2)});
    EXPECT_FALSE(f.health.wantsProbe(0));
    // The moved probe is still a probe: never hedged, never retried.
    EXPECT_TRUE(f.tracker.dueHedges(at(100.0)).empty());
    f.settle({outcome(Outcome::kShed, fresh, 32.0, 0)});
    EXPECT_TRUE(f.health.wantsProbe(0));
    EXPECT_TRUE(f.tracker.idle());
}

TEST(RequestTracker, FailoverMovesTheAttemptItsOutcomesReportFrom)
{
    Fixture f;
    f.prime();
    auto [primary, hedge] = f.hedged(1.0);
    f.settle({outcome(Outcome::kAdmitted, primary, 1.0, 0),
              outcome(Outcome::kAdmitted, hedge, 1.1, 1)});
    // Node 1 crashed; the hedge re-routes to node 2 and wins there.
    f.tracker.moved(hedge, 2);
    const auto cancels =
        f.settle({outcome(Outcome::kAdmitted, hedge, 1.3, 2),
                  outcome(Outcome::kCompleted, hedge, 1.4, 2, 0.05, 0.1)});
    ASSERT_EQ(cancels.size(), 1u);
    EXPECT_EQ(cancels[0].node, 0u);
    EXPECT_EQ(cancels[0].ticket, primary);
    // Moving the primary re-points its loser cancel too.
    auto [p2, h2] = f.hedged(2.0);
    f.settle({outcome(Outcome::kAdmitted, p2, 2.0, 0)});
    f.tracker.moved(p2, 3);
    const auto second =
        f.settle({outcome(Outcome::kAdmitted, h2, 2.1, 1),
                  outcome(Outcome::kCompleted, h2, 2.2, 1, 0.05, 0.1)});
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0].node, 3u);
}

TEST(RequestTracker, FeedbackRetriesLeaveInBackoffThenIssueOrder)
{
    fault::FaultPlan plan;
    plan.domain.outageRatePerHour = 1.0;
    plan.domain.retryFeedbackEnabled = true;
    plan.domain.retryBackoffSeconds = 5.0;
    plan.domain.retryMaxAttempts = 2;
    Fixture f(plan);
    const std::uint64_t a = f.tracker.open(0, 0, 0, false, 0);
    const std::uint64_t b = f.tracker.open(1, 0, 1, false, 0);
    const std::uint64_t c = f.tracker.open(1, 0, 2, false, 0);
    const std::uint64_t spent = f.tracker.open(0, 0, 3, false, 2);
    // a dies last; b and c die at one instant, so the batch order
    // (at, ticket) decides their retry sequence. The spent request
    // is out of attempts.
    f.settle({outcome(Outcome::kFailed, a, 3.0, 0),
              outcome(Outcome::kShed, c, 2.0, 2),
              outcome(Outcome::kFailed, b, 2.0, 1),
              outcome(Outcome::kFailed, spent, 1.0, 3)});
    EXPECT_TRUE(f.tracker.idle());
    EXPECT_EQ(f.tracker.nextActionAt(0), at(7.0));
    EXPECT_FALSE(f.tracker.popRetry(at(7.0)).has_value());

    const auto first = f.tracker.popRetry(at(8.0));
    const auto second = f.tracker.popRetry(at(8.0));
    ASSERT_TRUE(first && second);
    EXPECT_EQ(first->at, at(7.0));
    EXPECT_EQ(second->at, at(7.0));
    EXPECT_LT(first->seq, second->seq);
    EXPECT_EQ(first->function, 1u);
    EXPECT_EQ(first->attempt, 1u);
    EXPECT_FALSE(f.tracker.popRetry(at(8.0)).has_value());

    // A retry re-opened as generation 1 that dies again comes back
    // once more; generation 2 is the last.
    const std::uint64_t again = f.tracker.open(0, at(8.0), 0, false, 1);
    f.settle({outcome(Outcome::kFailed, again, 8.5, 0)});
    const auto third = f.tracker.popRetry(at(20.0));
    ASSERT_TRUE(third);
    EXPECT_EQ(third->at, at(8.0));
    EXPECT_EQ(third->function, 0u);
    const auto fourth = f.tracker.popRetry(at(20.0));
    ASSERT_TRUE(fourth);
    EXPECT_EQ(fourth->at, at(13.5));
    EXPECT_EQ(fourth->attempt, 2u);
    EXPECT_FALSE(f.tracker.popRetry(at(100.0)).has_value());
}

} // namespace
} // namespace rc
