/**
 * @file
 * Unit tests for the discrete-event engine: ordering, cancellation,
 * re-entrancy, horizons, and determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include <atomic>
#include <chrono>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>

#include "cluster/sharded_cluster.hh"
#include "sim/engine.hh"
#include "sim/logging.hh"
#include "sim/shard_executor.hh"

namespace rc::sim {
namespace {

TEST(Engine, StartsAtTimeZero)
{
    Engine engine;
    EXPECT_EQ(engine.now(), 0);
    EXPECT_EQ(engine.pendingEvents(), 0u);
    EXPECT_EQ(engine.executedEvents(), 0u);
}

TEST(Engine, ExecutesEventsInTimeOrder)
{
    Engine engine;
    std::vector<int> order;
    engine.schedule(30, [&] { order.push_back(3); });
    engine.schedule(10, [&] { order.push_back(1); });
    engine.schedule(20, [&] { order.push_back(2); });
    engine.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(engine.now(), 30);
}

TEST(Engine, SameTickEventsFireInSchedulingOrder)
{
    Engine engine;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        engine.schedule(42, [&order, i] { order.push_back(i); });
    engine.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, ClockAdvancesToEventTime)
{
    Engine engine;
    Tick seen = -1;
    engine.schedule(5 * kSecond, [&] { seen = engine.now(); });
    engine.run();
    EXPECT_EQ(seen, 5 * kSecond);
}

TEST(Engine, ScheduleAfterUsesCurrentTime)
{
    Engine engine;
    Tick seen = -1;
    engine.schedule(kSecond, [&] {
        engine.scheduleAfter(2 * kSecond, [&] { seen = engine.now(); });
    });
    engine.run();
    EXPECT_EQ(seen, 3 * kSecond);
}

TEST(Engine, SchedulingInThePastThrows)
{
    Engine engine;
    engine.schedule(10, [] {});
    engine.run();
    EXPECT_THROW(engine.schedule(5, [] {}), std::invalid_argument);
    EXPECT_THROW(engine.scheduleAfter(-1, [] {}), std::invalid_argument);
}

TEST(Engine, CancelPreventsExecution)
{
    Engine engine;
    bool fired = false;
    const EventId id = engine.schedule(10, [&] { fired = true; });
    EXPECT_TRUE(engine.pending(id));
    EXPECT_TRUE(engine.cancel(id));
    EXPECT_FALSE(engine.pending(id));
    engine.run();
    EXPECT_FALSE(fired);
}

TEST(Engine, CancelIsIdempotent)
{
    Engine engine;
    const EventId id = engine.schedule(10, [] {});
    EXPECT_TRUE(engine.cancel(id));
    EXPECT_FALSE(engine.cancel(id));
    EXPECT_FALSE(engine.cancel(987654u)); // never existed
}

TEST(Engine, CancelAfterFiringIsHarmless)
{
    Engine engine;
    const EventId id = engine.schedule(10, [] {});
    engine.run();
    EXPECT_FALSE(engine.cancel(id));
}

TEST(Engine, EventsMayScheduleMoreEvents)
{
    Engine engine;
    int count = 0;
    std::function<void()> chain = [&] {
        ++count;
        if (count < 5)
            engine.scheduleAfter(1, chain);
    };
    engine.schedule(0, chain);
    engine.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(engine.now(), 4);
}

TEST(Engine, EventsMayCancelOtherEvents)
{
    Engine engine;
    bool victimFired = false;
    const EventId victim =
        engine.schedule(20, [&] { victimFired = true; });
    engine.schedule(10, [&] { engine.cancel(victim); });
    engine.run();
    EXPECT_FALSE(victimFired);
}

TEST(Engine, RunUntilStopsAtHorizon)
{
    Engine engine;
    int fired = 0;
    engine.schedule(10, [&] { ++fired; });
    engine.schedule(20, [&] { ++fired; });
    engine.schedule(30, [&] { ++fired; });
    engine.runUntil(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(engine.now(), 20);
    engine.run();
    EXPECT_EQ(fired, 3);
}

TEST(Engine, RunUntilAdvancesClockWithoutEvents)
{
    Engine engine;
    engine.runUntil(kMinute);
    EXPECT_EQ(engine.now(), kMinute);
}

TEST(Engine, RunBeforeStopsShortOfTheTick)
{
    Engine engine;
    std::vector<int> order;
    engine.schedule(10, [&] { order.push_back(1); });
    engine.schedule(20, [&] { order.push_back(2); });
    engine.runBefore(20);
    EXPECT_EQ(order, (std::vector<int>{1}));
    EXPECT_EQ(engine.now(), 20);
    EXPECT_EQ(engine.nextEventAt(), 20);
    engine.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));

    // With nothing due, only the clock moves, and never backwards.
    engine.runBefore(kMinute);
    EXPECT_EQ(engine.now(), kMinute);
    engine.runBefore(kSecond);
    EXPECT_EQ(engine.now(), kMinute);
}

TEST(Engine, StepExecutesExactlyOneEvent)
{
    Engine engine;
    int fired = 0;
    engine.schedule(1, [&] { ++fired; });
    engine.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(engine.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(engine.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(engine.step());
}

TEST(Engine, ExecutedEventsCountsOnlyFired)
{
    Engine engine;
    engine.schedule(1, [] {});
    const EventId id = engine.schedule(2, [] {});
    engine.cancel(id);
    engine.run();
    EXPECT_EQ(engine.executedEvents(), 1u);
}

TEST(Engine, ManyEventsStressOrdering)
{
    Engine engine;
    Tick last = -1;
    bool monotonic = true;
    for (int i = 0; i < 10000; ++i) {
        const Tick when = (i * 7919) % 1000; // pseudo-shuffled times
        engine.schedule(when, [&, when] {
            if (when < last)
                monotonic = false;
            last = when;
        });
    }
    engine.run();
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(engine.executedEvents(), 10000u);
}

TEST(Engine, PendingEventsCountsLiveEventsOnly)
{
    Engine engine;
    const EventId a = engine.schedule(10, [] {});
    engine.schedule(20, [] {});
    const EventId c = engine.schedule(30, [] {});
    EXPECT_EQ(engine.pendingEvents(), 3u);
    engine.cancel(a);
    engine.cancel(c);
    EXPECT_EQ(engine.pendingEvents(), 1u);
    engine.run();
    EXPECT_EQ(engine.pendingEvents(), 0u);
}

TEST(Engine, SameTickCancelBeforeFire)
{
    // An event may cancel a later-scheduled event on its own tick.
    Engine engine;
    bool victimFired = false;
    EventId victim = kNoEvent;
    engine.schedule(10, [&] { engine.cancel(victim); });
    victim = engine.schedule(10, [&] { victimFired = true; });
    engine.run();
    EXPECT_FALSE(victimFired);
    EXPECT_EQ(engine.executedEvents(), 1u);
}

TEST(Engine, EventsScheduledForTheCurrentTickFireAfterItsOthers)
{
    Engine engine;
    std::vector<int> order;
    engine.schedule(10, [&] {
        order.push_back(1);
        engine.schedule(10, [&] { order.push_back(3); });
    });
    engine.schedule(10, [&] { order.push_back(2); });
    engine.schedule(11, [&] { order.push_back(4); });
    engine.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Engine, SchedulingAnEmptyCallbackThrows)
{
    Engine engine;
    EXPECT_THROW(engine.schedule(10, Engine::Callback{}),
                 std::invalid_argument);
    EXPECT_EQ(engine.pendingEvents(), 0u);
    EXPECT_EQ(engine.scheduledEvents(), 0u);
}

TEST(Engine, CancelledFrontStaysVisibleUntilARunUntilPrunesIt)
{
    // nextEventAt() is conservative between runs: a cancelled event
    // at the front still shows. runUntil() drops stale fronts before
    // its horizon check, so even a horizon below the cancelled tick
    // leaves the earliest live event at the front.
    Engine engine;
    bool fired = false;
    const EventId early = engine.schedule(10, [] {});
    engine.schedule(20, [&] { fired = true; });
    EXPECT_TRUE(engine.cancel(early));
    EXPECT_EQ(engine.nextEventAt(), 10);
    EXPECT_EQ(engine.pendingEvents(), 1u);

    engine.runUntil(5);
    EXPECT_EQ(engine.nextEventAt(), 20);
    EXPECT_EQ(engine.now(), 5);
    EXPECT_FALSE(fired);

    engine.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(engine.nextEventAt(), std::numeric_limits<Tick>::max());
}

TEST(Engine, CancelledIdIsNeverReportedPending)
{
    Engine engine;
    const EventId a = engine.schedule(10, [] {});
    EXPECT_TRUE(engine.cancel(a));
    // The slot is reused, but the stale handle stays dead.
    const EventId b = engine.schedule(10, [] {});
    EXPECT_NE(a, b);
    EXPECT_FALSE(engine.pending(a));
    EXPECT_FALSE(engine.cancel(a));
    EXPECT_TRUE(engine.pending(b));
}

TEST(Engine, InterleavedScheduleCancelMatchesReferenceModel)
{
    // Reference model: a plain list of (when, seq, tag) stably sorted
    // by (when, seq), minus cancelled entries, gives the firing order
    // the engine must reproduce exactly. runUntil and runBefore
    // checkpoints fire a prefix of that order; every later schedule
    // lands at or after the clock, so the prefixes concatenate into
    // the same order.
    struct RefEvent
    {
        Tick when;
        std::uint64_t seq;
        int tag;
        bool cancelled = false;
    };

    std::vector<RefEvent> reference;
    std::vector<std::pair<EventId, std::size_t>> live; // id -> ref index
    std::vector<int> fired;
    Engine engine;

    // Deterministic xorshift so the test needs no <random> seeding.
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    const auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };

    std::uint64_t seq = 0;
    Tick horizon = 0;
    std::vector<Tick> whenOfTag(5000);
    const auto earliestLive = [&] {
        Tick earliest = std::numeric_limits<Tick>::max();
        for (const auto& entry : live)
            earliest = std::min(earliest, reference[entry.second].when);
        return earliest;
    };
    // runBefore(tick) must fire exactly the live events before the
    // tick, leave the clock at the tick and prune the front.
    const auto runBeforeCheckpoint = [&](Tick tick) {
        const std::size_t firedBefore = fired.size();
        const auto due = static_cast<std::size_t>(
            std::count_if(live.begin(), live.end(), [&](const auto& entry) {
                return reference[entry.second].when < tick;
            }));
        engine.runBefore(tick);
        ASSERT_EQ(fired.size() - firedBefore, due)
            << "runBefore(" << tick << ")";
        for (std::size_t k = firedBefore; k < fired.size(); ++k) {
            EXPECT_LT(whenOfTag[static_cast<std::size_t>(fired[k])], tick)
                << "runBefore(" << tick << ") fired tag " << fired[k];
        }
        EXPECT_EQ(engine.now(), tick);
        std::erase_if(live, [&](const auto& entry) {
            return reference[entry.second].when < tick;
        });
        EXPECT_EQ(engine.nextEventAt(), earliestLive())
            << "after runBefore(" << tick << ")";
        horizon = tick;
    };
    for (int i = 0; i < 5000; ++i) {
        if (i % 100 == 49) {
            // First up to the earliest live tick, where nothing is due
            // and only the clock moves, then a few ticks past it.
            const Tick earliest = earliestLive();
            if (earliest != std::numeric_limits<Tick>::max())
                runBeforeCheckpoint(earliest);
            runBeforeCheckpoint(horizon + static_cast<Tick>(next() % 40));
            continue;
        }
        if (i % 100 == 99) {
            // Checkpoint: everything at or before the horizon fires,
            // and the front then shows the earliest live tick. The
            // sharded core's barrier grid reads exactly this.
            horizon += static_cast<Tick>(next() % 40);
            engine.runUntil(horizon);
            std::erase_if(live, [&](const auto& entry) {
                return reference[entry.second].when <= horizon;
            });
            EXPECT_EQ(engine.nextEventAt(), earliestLive())
                << "after runUntil(" << horizon << ")";
            continue;
        }
        const bool doCancel = !live.empty() && next() % 4 == 0;
        if (doCancel) {
            const std::size_t pick = next() % live.size();
            const auto [id, refIndex] = live[pick];
            EXPECT_TRUE(engine.cancel(id));
            reference[refIndex].cancelled = true;
            live[pick] = live.back();
            live.pop_back();
        } else {
            const Tick when = horizon + static_cast<Tick>(next() % 997);
            const int tag = i;
            const EventId id =
                engine.schedule(when, [&fired, tag] { fired.push_back(tag); });
            reference.push_back(RefEvent{when, seq++, tag});
            whenOfTag[static_cast<std::size_t>(tag)] = when;
            live.emplace_back(id, reference.size() - 1);
        }
    }

    engine.run();

    std::vector<RefEvent> expected;
    for (const auto& e : reference)
        if (!e.cancelled)
            expected.push_back(e);
    std::stable_sort(expected.begin(), expected.end(),
                     [](const RefEvent& a, const RefEvent& b) {
                         return a.when != b.when ? a.when < b.when
                                                 : a.seq < b.seq;
                     });

    ASSERT_EQ(fired.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(fired[i], expected[i].tag) << "at position " << i;
    EXPECT_EQ(engine.executedEvents(), expected.size());
    EXPECT_EQ(engine.pendingEvents(), 0u);
}

TEST(Time, ConversionRoundTrips)
{
    EXPECT_EQ(fromSeconds(1.5), kSecond + 500 * kMillisecond);
    EXPECT_EQ(fromMillis(250.0), 250 * kMillisecond);
    EXPECT_DOUBLE_EQ(toSeconds(2 * kMinute), 120.0);
    EXPECT_DOUBLE_EQ(toMillis(kSecond), 1000.0);
    EXPECT_EQ(toMinuteBucket(59 * kSecond), 0);
    EXPECT_EQ(toMinuteBucket(60 * kSecond), 1);
    EXPECT_EQ(toMinuteBucket(119 * kSecond), 1);
}

TEST(Logging, FatalThrowsRuntimeError)
{
    EXPECT_THROW(fatal("boom"), std::runtime_error);
}

TEST(Logging, PanicThrowsLogicError)
{
    EXPECT_THROW(panic("bug"), std::logic_error);
}

// ---- ShardExecutor (sharded parallel core) ---------------------------

TEST(ShardExecutor, EveryRoundIndexRunsExactlyOnce)
{
    for (const std::size_t workers : {1u, 3u, 8u}) {
        ShardExecutor executor(workers);
        std::array<std::atomic<int>, 16> hits{};
        executor.runRound(hits.size(), [&hits](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (const auto& hit : hits)
            EXPECT_EQ(hit.load(), 1) << workers << " workers";
    }
}

TEST(ShardExecutor, RoundsAreBarriersAndTheCrewIsReusable)
{
    ShardExecutor executor(4);
    std::vector<int> cells(8, 0);
    for (int round = 0; round < 100; ++round) {
        // Unsynchronized writes to plain ints: only correct if every
        // round fully completes (and publishes) before the next one
        // starts. TSan holds this test to that claim.
        executor.runRound(cells.size(),
                          [&cells](std::size_t i) { cells[i] += 1; });
    }
    for (const int cell : cells)
        EXPECT_EQ(cell, 100);
}

TEST(ShardExecutor, EveryIndexRunsOnceAboveAndBelowTheCrewSize)
{
    ShardExecutor executor(4);
    EXPECT_EQ(executor.crew(), 4u);
    for (const std::size_t count : {0u, 1u, 2u, 3u, 4u, 5u, 17u}) {
        std::vector<std::atomic<int>> hits(count);
        executor.runRound(count, [&hits](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (const auto& hit : hits)
            EXPECT_EQ(hit.load(), 1) << count << " items";
    }
}

TEST(ShardExecutor, ParkedCrewStillRunsAndPublishesEveryRound)
{
    // Sleeping well past the spin bound between rounds parks the
    // whole crew, so every round starts with a wake-up. Plain ints
    // written by the caller between rounds and by the crew inside
    // them: TSan holds both publication edges to account.
    ShardExecutor executor(4);
    std::vector<int> cells(6, 0);
    int bias = 0;
    for (int round = 0; round < 20; ++round) {
        std::this_thread::sleep_for(ShardExecutor::kSpinBound * 50);
        bias = round;
        executor.runRound(cells.size(), [&cells, &bias](std::size_t i) {
            cells[i] += 1 + bias;
        });
    }
    for (const int cell : cells)
        EXPECT_EQ(cell, 20 + 19 * 20 / 2);
}

TEST(ShardExecutor, ParkedCrewShutsDown)
{
    {
        ShardExecutor idle(3); // parks without ever running a round
        std::this_thread::sleep_for(ShardExecutor::kSpinBound * 50);
    }
    ShardExecutor executor(3);
    std::atomic<int> ran{0};
    executor.runRound(3, [&ran](std::size_t) {
        ran.fetch_add(1, std::memory_order_relaxed);
    });
    std::this_thread::sleep_for(ShardExecutor::kSpinBound * 50);
    EXPECT_EQ(ran.load(), 3);
    // Leaving scope joins the parked crew; a lost wake-up hangs here.
}

TEST(ShardExecutor, CallerThrowIsRethrownOnlyAfterEveryItemFinished)
{
    // The caller's first item waits until a worker holds an item, then
    // throws; worker items wait for the caller's, then linger before
    // finishing. A rethrow that did not wait for the crew would see a
    // worker item still unfinished.
    ShardExecutor executor(4);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> callerItems{0};
    std::atomic<int> workerStarted{0};
    std::atomic<int> workerFinished{0};
    EXPECT_THROW(
        executor.runRound(
            4,
            [&](std::size_t) {
                if (std::this_thread::get_id() == caller) {
                    if (callerItems.fetch_add(1) == 0) {
                        while (workerStarted.load() == 0)
                            std::this_thread::yield();
                    }
                    throw std::runtime_error("caller share");
                }
                workerStarted.fetch_add(1);
                while (callerItems.load() == 0)
                    std::this_thread::yield();
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
                workerFinished.fetch_add(1);
            }),
        std::runtime_error);
    EXPECT_GE(workerStarted.load(), 1);
    EXPECT_EQ(workerFinished.load(), workerStarted.load());
    EXPECT_EQ(callerItems.load() + workerStarted.load(), 4);
    // The crew survives and the next round is clean.
    std::atomic<int> ran{0};
    executor.runRound(8, [&ran](std::size_t) {
        ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 8);
}

TEST(ShardExecutor, WorkerExceptionsSurfaceOnTheCaller)
{
    ShardExecutor executor(2);
    EXPECT_THROW(executor.runRound(4,
                                   [](std::size_t i) {
                                       if (i == 2)
                                           throw std::runtime_error("x");
                                   }),
                 std::runtime_error);
    // The crew survives a throwing round.
    std::atomic<int> ran{0};
    executor.runRound(4, [&ran](std::size_t) {
        ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 4);
}

// ---- inbox drain order (sharded parallel core) -----------------------

TEST(ShardInput, DrainOrderIsTickThenCrashFirstThenSequence)
{
    using cluster::ShardInput;
    // A crash and an invocation due at the same tick drain crash
    // first regardless of arrival order into the inbox...
    ShardInput crash{100, 7, 0, 500, ShardInput::kCrash};
    ShardInput invoke{100, 3, 1, 0, ShardInput::kInvoke};
    EXPECT_TRUE(cluster::shardInputBefore(crash, invoke));
    EXPECT_FALSE(cluster::shardInputBefore(invoke, crash));
    // ...while equal (tick, kind) falls back to the coordinator's
    // global sequence number.
    ShardInput later{100, 9, 2, 0, ShardInput::kInvoke};
    EXPECT_TRUE(cluster::shardInputBefore(invoke, later));
}

TEST(ShardInput, DrainOrderIsTotalSoAnyInboxShuffleSortsTheSame)
{
    using cluster::ShardInput;
    // The coordinator appends to inboxes stream by stream, so the
    // arrival order of a node's inbox depends on scheduling decisions
    // — but never the drained order: (tick, kind, seq) with a unique
    // seq is a total order, so every permutation sorts identically.
    // This is the property that makes results independent of how
    // nodes are grouped into shards.
    std::vector<ShardInput> inputs;
    std::mt19937 gen(42);
    for (std::uint64_t seq = 0; seq < 200; ++seq) {
        ShardInput input;
        input.tick = static_cast<Tick>(gen() % 50);
        input.seq = seq;
        input.function = static_cast<std::uint32_t>(seq);
        input.kind = (gen() % 4 == 0) ? ShardInput::kCrash
                                      : ShardInput::kInvoke;
        inputs.push_back(input);
    }
    auto reference = inputs;
    std::sort(reference.begin(), reference.end(),
              cluster::shardInputBefore);
    for (int shuffle = 0; shuffle < 10; ++shuffle) {
        auto permuted = inputs;
        std::shuffle(permuted.begin(), permuted.end(), gen);
        std::sort(permuted.begin(), permuted.end(),
                  cluster::shardInputBefore);
        for (std::size_t i = 0; i < reference.size(); ++i) {
            EXPECT_EQ(permuted[i].seq, reference[i].seq) << i;
            EXPECT_EQ(permuted[i].tick, reference[i].tick) << i;
        }
    }
}

TEST(Logging, LevelsFilterMessages)
{
    setLogLevel(LogLevel::Quiet);
    EXPECT_EQ(logLevel(), LogLevel::Quiet);
    // RC_LOG must not evaluate its argument expression (and the lazy
    // overload must not invoke its callable) while the level is off.
    bool touched = false;
    auto sideEffect = [&touched] {
        touched = true;
        return "built";
    };
    RC_LOG(Info, sideEffect());
    EXPECT_FALSE(touched);
    logMessage(LogLevel::Info, [&touched] {
        touched = true;
        return "built";
    });
    EXPECT_FALSE(touched);
    setLogLevel(LogLevel::Debug);
    EXPECT_EQ(logLevel(), LogLevel::Debug);
    EXPECT_TRUE(logEnabled(LogLevel::Info));
    setLogLevel(LogLevel::Quiet);
    EXPECT_FALSE(logEnabled(LogLevel::Info));
}

} // namespace
} // namespace rc::sim
