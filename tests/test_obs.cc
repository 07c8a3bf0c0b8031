/**
 * @file
 * Tests for the rc::obs observability layer: event buffer ordering and
 * capping, counter snapshot bucketing, the JSON parser, the JSONL
 * round-trip, and the Chrome trace / run report artifacts. Ends with
 * an integration suite that replays a real instrumented RainbowCake
 * run and asserts the Fig. 5 FSM transition legality of its trace.
 */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "core/ablations.hh"
#include "exp/experiment.hh"
#include "exp/report.hh"
#include "obs/export.hh"
#include "obs/json.hh"
#include "obs/observer.hh"
#include "trace/generator.hh"
#include "workload/catalog.hh"

namespace rc::obs {
namespace {

TEST(TraceEvent, NameTablesRoundTrip)
{
    for (std::size_t i = 0; i < kEventTypeCount; ++i) {
        const auto type = static_cast<EventType>(i);
        ASSERT_NE(toString(type), nullptr);
        EventType back;
        ASSERT_TRUE(eventTypeFromString(toString(type), back))
            << toString(type);
        EXPECT_EQ(back, type);
    }
    for (std::size_t i = 0; i < kCategoryCount; ++i) {
        const auto category = static_cast<Category>(i);
        Category back;
        ASSERT_TRUE(categoryFromString(toString(category), back));
        EXPECT_EQ(back, category);
    }
    EventType dummyType;
    Category dummyCategory;
    EXPECT_FALSE(eventTypeFromString("NoSuchEvent", dummyType));
    EXPECT_FALSE(categoryFromString("NoSuchCategory", dummyCategory));
}

TEST(TraceEvent, NamesAreDistinct)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < kEventTypeCount; ++i)
        names.insert(toString(static_cast<EventType>(i)));
    EXPECT_EQ(names.size(), kEventTypeCount);
    names.clear();
    for (std::size_t i = 0; i < kKillCauseCount; ++i)
        names.insert(toString(static_cast<KillCause>(i)));
    EXPECT_EQ(names.size(), kKillCauseCount);
}

TEST(Observer, RecordsEventsInEmissionOrder)
{
    Observer observer;
    observer.emit(10, EventType::InvocationArrived, 0, 3);
    observer.emit(20, EventType::ContainerCreated, 1, 3,
                  /*a=*/2, /*b=*/1, /*arg0=*/512.0);
    observer.emit(20, EventType::ContainerInitDone, 1, 3, 2);
    observer.emit(35, EventType::ContainerExecBegin, 1, 3);
    ASSERT_EQ(observer.events().size(), 4u);
    EXPECT_EQ(observer.droppedEvents(), 0u);
    sim::Tick last = 0;
    for (const auto& event : observer.events()) {
        EXPECT_GE(event.tick, last);
        last = event.tick;
        EXPECT_EQ(event.category, categoryOf(event.type));
    }
    EXPECT_EQ(observer.events()[1].container, 1u);
    EXPECT_EQ(observer.events()[1].a, 2);
    EXPECT_EQ(observer.events()[1].b, 1);
    EXPECT_DOUBLE_EQ(observer.events()[1].arg0, 512.0);
}

TEST(Observer, MaxEventsCapDropsAndCounts)
{
    ObserverConfig config;
    config.maxEvents = 2;
    Observer observer(config);
    for (int i = 0; i < 5; ++i)
        observer.emit(i, EventType::InvocationArrived);
    EXPECT_EQ(observer.events().size(), 2u);
    EXPECT_EQ(observer.droppedEvents(), 3u);
}

TEST(Observer, TraceDisabledStillCounts)
{
    ObserverConfig config;
    config.traceEnabled = false;
    Observer observer(config);
    observer.emit(10, EventType::InvocationArrived);
    EXPECT_TRUE(observer.events().empty());
    observer.counters().bump(Counter::ColdStart, 10);
    EXPECT_EQ(observer.counters().total(Counter::ColdStart), 1u);
}

TEST(Observer, ResetKeepsConfigDropsData)
{
    ObserverConfig config;
    config.maxEvents = 1;
    Observer observer(config);
    observer.emit(1, EventType::InvocationArrived);
    observer.emit(2, EventType::InvocationArrived);
    observer.counters().bump(Counter::Queued, 1);
    observer.reset();
    EXPECT_TRUE(observer.events().empty());
    EXPECT_EQ(observer.droppedEvents(), 0u);
    EXPECT_EQ(observer.counters().total(Counter::Queued), 0u);
    // The cap survives the reset.
    observer.emit(3, EventType::InvocationArrived);
    observer.emit(4, EventType::InvocationArrived);
    EXPECT_EQ(observer.events().size(), 1u);
    EXPECT_EQ(observer.droppedEvents(), 1u);
}

TEST(Registry, CounterSnapshotsBucketByInterval)
{
    Registry registry(10 * sim::kSecond);
    registry.bump(Counter::ColdStart, 5 * sim::kSecond);
    registry.bump(Counter::ColdStart, 15 * sim::kSecond);
    registry.bump(Counter::ColdStart, 19 * sim::kSecond);
    registry.bump(Counter::ColdStart, 25 * sim::kSecond);
    EXPECT_EQ(registry.total(Counter::ColdStart), 4u);
    const auto& series = registry.intervalSeries(Counter::ColdStart);
    ASSERT_EQ(series.buckets(), 3u);
    EXPECT_DOUBLE_EQ(series.at(0), 1.0); // [0, 10 s)
    EXPECT_DOUBLE_EQ(series.at(1), 2.0); // [10 s, 20 s)
    EXPECT_DOUBLE_EQ(series.at(2), 1.0); // [20 s, 30 s)
    // An untouched counter has an empty series and zero total.
    EXPECT_EQ(registry.total(Counter::HitBare), 0u);
    EXPECT_EQ(registry.intervalSeries(Counter::HitBare).buckets(), 0u);
}

TEST(Registry, GaugesKeepHighWaterMarks)
{
    Registry registry;
    EXPECT_DOUBLE_EQ(registry.highWater(Gauge::QueueDepth), 0.0);
    registry.gaugeMax(Gauge::QueueDepth, 5.0);
    registry.gaugeMax(Gauge::QueueDepth, 3.0);
    registry.gaugeMax(Gauge::QueueDepth, 9.0);
    EXPECT_DOUBLE_EQ(registry.highWater(Gauge::QueueDepth), 9.0);
}

TEST(Registry, KillCounterCoversEveryCause)
{
    for (std::size_t cause = 0; cause < kKillCauseCount; ++cause) {
        const Counter counter =
            killCounter(static_cast<std::uint8_t>(cause));
        // HedgeCancel was appended after the contiguous Kill* counter
        // block froze; it lives out-of-block at KillHedgeCancel.
        if (cause == static_cast<std::size_t>(KillCause::HedgeCancel)) {
            EXPECT_EQ(counter, Counter::KillHedgeCancel);
            continue;
        }
        EXPECT_EQ(static_cast<std::size_t>(counter),
                  static_cast<std::size_t>(Counter::KillUnknown) + cause);
    }
    // Out-of-range causes degrade to KillUnknown instead of indexing
    // past the counter array.
    EXPECT_EQ(killCounter(200), Counter::KillUnknown);
}

TEST(Json, ParsesDocuments)
{
    JsonValue root;
    std::string error;
    ASSERT_TRUE(parseJson(
        R"({"n": -2.5, "s": "a\"b", "t": true, "z": null,)"
        R"( "arr": [1, 2, 3], "obj": {"k": "v"}})",
        root, &error))
        << error;
    ASSERT_TRUE(root.isObject());
    EXPECT_DOUBLE_EQ(root.numberAt("n"), -2.5);
    EXPECT_EQ(root.stringAt("s"), "a\"b");
    ASSERT_NE(root.find("arr"), nullptr);
    ASSERT_TRUE(root.find("arr")->isArray());
    EXPECT_EQ(root.find("arr")->array.size(), 3u);
    ASSERT_NE(root.find("obj"), nullptr);
    EXPECT_EQ(root.find("obj")->stringAt("k"), "v");
    EXPECT_EQ(root.find("missing"), nullptr);
    EXPECT_DOUBLE_EQ(root.numberAt("missing", -1.0), -1.0);
}

TEST(Json, RejectsMalformedInput)
{
    JsonValue root;
    for (const char* bad :
         {"{\"a\":}", "[1, 2,]", "{", "tru", "\"unterminated", ""}) {
        std::string error;
        EXPECT_FALSE(parseJson(bad, root, &error)) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST(Json, EscapesStrings)
{
    const std::string escaped = jsonEscape("a\"b\\c\nd");
    JsonValue root;
    ASSERT_TRUE(parseJson("{\"k\": \"" + escaped + "\"}", root));
    EXPECT_EQ(root.stringAt("k"), "a\"b\\c\nd");
}

TEST(Json, KnobTableReadsEveryKindAndNamesThePlan)
{
    double fraction = 0.0;
    double seconds = 0.0;
    sim::Tick tick = 0;
    std::uint32_t count = 0;
    bool flag = false;
    using Kind = JsonKnob::Kind;
    const JsonKnob knobs[] = {
        {"f", Kind::Fraction, &fraction},
        {"s", Kind::NonNegative, &seconds},
        {"t", Kind::SecondsAsTick, &tick},
        {"c", Kind::Count, &count},
        {"b", Kind::Flag, &flag},
    };
    JsonValue root;
    std::string error;
    ASSERT_TRUE(parseJson(
        R"({"f": 0.25, "s": 90, "t": 1.5, "c": 3, "b": true})", root));
    ASSERT_TRUE(readJsonKnobs(root, knobs, "test plan", &error)) << error;
    EXPECT_DOUBLE_EQ(fraction, 0.25);
    EXPECT_DOUBLE_EQ(seconds, 90.0);
    EXPECT_EQ(tick, sim::fromSeconds(1.5));
    EXPECT_EQ(count, 3u);
    EXPECT_TRUE(flag);

    // 1e9 is the largest non-negative knob value.
    ASSERT_TRUE(parseJson(R"({"s": 1e9})", root));
    ASSERT_TRUE(readJsonKnobs(root, knobs, "test plan", &error)) << error;
    EXPECT_DOUBLE_EQ(seconds, 1e9);

    for (const char* bad :
         {R"({"f": 1.5})", R"({"s": -1})", R"({"s": 1.5e9})",
          R"({"s": 1e300})", R"({"t": -0.5})",
          R"({"t": 1e300})", R"({"c": 2.5})", R"({"c": 1e10})",
          R"({"b": 1})", R"({"s": "9"})"}) {
        ASSERT_TRUE(parseJson(bad, root)) << bad;
        error.clear();
        EXPECT_FALSE(readJsonKnobs(root, knobs, "test plan", &error))
            << bad;
        // Value errors lead with the offending key.
        EXPECT_EQ(error.substr(0, 1), std::string(bad).substr(2, 1))
            << error;
    }
    ASSERT_TRUE(parseJson(R"({"nope": 1})", root));
    EXPECT_FALSE(readJsonKnobs(root, knobs, "test plan", &error));
    EXPECT_EQ(error, "unknown test plan key 'nope'");
    ASSERT_TRUE(parseJson("[1]", root));
    EXPECT_FALSE(readJsonKnobs(root, knobs, "test plan", &error));
    EXPECT_EQ(error, "test plan must be a JSON object");
}

TEST(Export, JsonlRoundTripsThroughParser)
{
    Observer observer;
    observer.emit(0, EventType::InvocationArrived, 0, 7);
    observer.emit(1500, EventType::ContainerCreated, 3, 7,
                  /*a=*/3, /*b=*/1, /*arg0=*/1536.0);
    observer.emit(2500, EventType::KeepAliveSet, 3, 7, 0, 0,
                  /*arg0=*/-1.0);
    observer.emit(9000, EventType::ContainerKilled, 3, 7, 3,
                  static_cast<std::uint8_t>(KillCause::MemoryPressure),
                  /*arg0=*/1536.0);

    std::ostringstream dump;
    writeJsonlEvents(dump, observer);
    std::istringstream in(dump.str());
    std::string error;
    const auto parsed = parseJsonlEvents(in, &error);
    EXPECT_TRUE(error.empty()) << error;
    ASSERT_EQ(parsed.size(), observer.events().size());
    for (std::size_t i = 0; i < parsed.size(); ++i) {
        const TraceEvent& want = observer.events()[i];
        const TraceEvent& got = parsed[i];
        EXPECT_EQ(got.tick, want.tick);
        EXPECT_EQ(got.container, want.container);
        EXPECT_EQ(got.function, want.function);
        EXPECT_EQ(got.category, want.category);
        EXPECT_EQ(got.type, want.type);
        EXPECT_EQ(got.a, want.a);
        EXPECT_EQ(got.b, want.b);
        EXPECT_DOUBLE_EQ(got.arg0, want.arg0);
        EXPECT_DOUBLE_EQ(got.arg1, want.arg1);
    }
}

TEST(Export, ChromeTraceHasAnEntryForEveryEventType)
{
    // One event of every type, each on its own tick and all on one
    // container. Each must show in the Chrome trace at its tick, as an
    // instant or as the start of the slice it opens. The per-invocation
    // ladder steps and the engine snapshot are JSONL-only: the
    // invocation slice already spans arrival to completion, and the
    // snapshot is a run total.
    const std::set<EventType> jsonlOnly = {
        EventType::InvocationArrived, EventType::InvocationQueued,
        EventType::InvocationDispatched, EventType::EngineStats};
    const auto tickOf = [](std::size_t i) {
        return static_cast<sim::Tick>(i + 1) * sim::kSecond;
    };
    Observer observer;
    for (std::size_t i = 0; i < kEventTypeCount; ++i) {
        observer.emit(tickOf(i), static_cast<EventType>(i),
                      /*container=*/3, /*function=*/7, /*a=*/1, /*b=*/2,
                      /*arg0=*/0.5);
    }

    std::ostringstream os;
    writeChromeTrace(os, observer);
    JsonValue root;
    std::string error;
    ASSERT_TRUE(parseJson(os.str(), root, &error)) << error;
    const JsonValue* events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::map<sim::Tick, std::vector<const JsonValue*>> byTick;
    for (const auto& event : events->array) {
        if (event.stringAt("ph") != "M") {
            byTick[static_cast<sim::Tick>(event.numberAt("ts", -1.0))]
                .push_back(&event);
        }
    }
    for (std::size_t i = 0; i < kEventTypeCount; ++i) {
        const auto type = static_cast<EventType>(i);
        if (jsonlOnly.count(type) == 0) {
            EXPECT_EQ(byTick.count(tickOf(i)), 1u)
                << "no Chrome entry for " << toString(type);
        }
    }

    // The admission, gray-failure and recovery types render raw.
    const auto hedgeIndex =
        static_cast<std::size_t>(EventType::HedgeLaunched);
    const auto hedge = byTick.find(tickOf(hedgeIndex));
    ASSERT_NE(hedge, byTick.end());
    ASSERT_EQ(hedge->second.size(), 1u);
    const JsonValue& entry = *hedge->second.front();
    EXPECT_EQ(entry.stringAt("name"), toString(EventType::HedgeLaunched));
    EXPECT_EQ(entry.stringAt("ph"), "i");
    const JsonValue* args = entry.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->numberAt("a"), 1.0);
    EXPECT_EQ(args->numberAt("b"), 2.0);
    EXPECT_EQ(args->numberAt("arg0"), 0.5);
    EXPECT_EQ(args->numberAt("arg1", -1.0), 0.0);
}

TEST(Export, JsonlParserRejectsUnknownTypes)
{
    std::istringstream in(
        "{\"tick\": 1, \"cat\": \"invoker\", \"type\": \"Bogus\"}\n");
    std::string error;
    EXPECT_TRUE(parseJsonlEvents(in, &error).empty());
    EXPECT_NE(error.find("unknown event type"), std::string::npos);
}

/**
 * One instrumented RainbowCake run over a 60-minute Azure-like trace,
 * shared by all integration tests below (the run is deterministic, so
 * sharing is safe and keeps the suite fast).
 */
struct TracedRun
{
    TracedRun() : catalog(workload::Catalog::standard20())
    {
        trace::WorkloadTraceConfig config;
        config.minutes = 60;
        config.targetInvocations = 1500;
        config.seed = 11;
        const auto set = trace::generateAzureLike(catalog, config);

        ObserverConfig obsConfig;
        obsConfig.counterInterval = sim::kMinute;
        observer = std::make_unique<Observer>(obsConfig);
        observer->setRunId("rainbowcake-test");

        platform::NodeConfig node;
        node.observer = observer.get();
        result = exp::runExperiment(
            catalog, [this] { return core::makeRainbowCake(catalog); },
            set, node);
    }

    workload::Catalog catalog;
    std::unique_ptr<Observer> observer;
    exp::RunResult result;
};

const TracedRun&
tracedRun()
{
    static const TracedRun run;
    return run;
}

TEST(ObsIntegration, TraceIsNonEmptyAndTimeOrdered)
{
    const auto& run = tracedRun();
    const auto& events = run.observer->events();
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(run.observer->droppedEvents(), 0u);
    sim::Tick last = events.front().tick;
    for (const auto& event : events) {
        EXPECT_GE(event.tick, last);
        last = event.tick;
    }
}

TEST(ObsIntegration, Fig5TransitionsAreLegal)
{
    // Replay the container events against the paper's Fig. 5 state
    // machine. Any sequence the FSM forbids (exec from a dead
    // container, double-create, init completing twice, ...) fails.
    enum class State : std::uint8_t
    {
        Initializing,
        Idle,
        Busy,
        Dead,
    };
    std::map<std::uint64_t, State> states;
    const auto& run = tracedRun();
    for (const auto& event : run.observer->events()) {
        if (event.category != Category::Container)
            continue;
        const auto it = states.find(event.container);
        const bool seen = it != states.end();
        switch (event.type) {
          case EventType::ContainerCreated:
            ASSERT_FALSE(seen) << "container id reused: "
                               << event.container;
            states[event.container] = State::Initializing;
            break;
          case EventType::ContainerInitDone:
            ASSERT_TRUE(seen && it->second == State::Initializing)
                << "init done outside Initializing: " << event.container;
            it->second = State::Idle;
            break;
          case EventType::ContainerUpgrade:
          case EventType::ContainerRepurpose:
            ASSERT_TRUE(seen && it->second == State::Idle)
                << "upgrade/repurpose outside Idle: " << event.container;
            it->second = State::Initializing;
            break;
          case EventType::ContainerExecBegin:
            ASSERT_TRUE(seen && it->second == State::Idle)
                << "exec began outside Idle: " << event.container;
            it->second = State::Busy;
            break;
          case EventType::ContainerExecEnd:
            ASSERT_TRUE(seen && it->second == State::Busy)
                << "exec ended outside Busy: " << event.container;
            it->second = State::Idle;
            break;
          case EventType::ContainerDowngraded:
            ASSERT_TRUE(seen && it->second == State::Idle)
                << "downgrade outside Idle: " << event.container;
            break;
          case EventType::ContainerSharedHit:
            ASSERT_TRUE(seen && it->second == State::Idle)
                << "shared hit on non-idle template: "
                << event.container;
            break;
          case EventType::ContainerKilled:
            ASSERT_TRUE(seen && it->second != State::Dead)
                << "kill of unknown or already-dead container: "
                << event.container;
            // Every death carries an explicit recorded cause; the
            // platform never reaches Dead through an untraced path.
            EXPECT_LT(event.b, kKillCauseCount);
            EXPECT_NE(static_cast<KillCause>(event.b),
                      KillCause::Unknown);
            it->second = State::Dead;
            break;
          default:
            FAIL() << "unexpected container event "
                   << toString(event.type);
        }
    }
    // End of run: Node::finalize kills every survivor, so nothing may
    // still be alive in the replayed state machine.
    for (const auto& [id, state] : states)
        EXPECT_EQ(state, State::Dead) << "container " << id;
}

TEST(ObsIntegration, KillEventsMatchKillCounters)
{
    const auto& run = tracedRun();
    std::array<std::uint64_t, kKillCauseCount> byCause{};
    for (const auto& event : run.observer->events()) {
        if (event.type == EventType::ContainerKilled)
            ++byCause[event.b];
    }
    const auto& registry = run.observer->counters();
    for (std::size_t cause = 0; cause < kKillCauseCount; ++cause) {
        EXPECT_EQ(registry.total(
                      killCounter(static_cast<std::uint8_t>(cause))),
                  byCause[cause])
            << toString(static_cast<KillCause>(cause));
    }
}

TEST(ObsIntegration, LadderCountersCoverEveryDispatch)
{
    const auto& run = tracedRun();
    const auto& registry = run.observer->counters();
    const std::uint64_t ladder =
        registry.total(Counter::HitUser) +
        registry.total(Counter::HitLoad) +
        registry.total(Counter::HitForeignUser) +
        registry.total(Counter::HitLang) +
        registry.total(Counter::HitBare) +
        registry.total(Counter::ColdStart);
    EXPECT_EQ(run.result.strandedInvocations, 0u);
    EXPECT_EQ(ladder, run.result.metrics.total());
    EXPECT_GT(registry.total(Counter::EngineExecuted), 0u);
    EXPECT_GE(registry.total(Counter::EngineScheduled),
              registry.total(Counter::EngineExecuted));
}

TEST(ObsIntegration, ChromeTraceLoadsAsJsonWithExpectedTracks)
{
    const auto& run = tracedRun();
    std::ostringstream os;
    writeChromeTrace(os, *run.observer);
    JsonValue root;
    std::string error;
    ASSERT_TRUE(parseJson(os.str(), root, &error)) << error;
    EXPECT_EQ(root.stringAt("displayTimeUnit"), "ms");
    const JsonValue* events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    std::size_t slices = 0;
    std::size_t instants = 0;
    std::size_t metadata = 0;
    std::size_t unknown = 0;
    for (const auto& event : events->array) {
        const std::string phase = event.stringAt("ph");
        if (phase == "X") {
            ++slices;
            EXPECT_GE(event.numberAt("dur", -1.0), 0.0);
        } else if (phase == "i") {
            ++instants;
        } else if (phase == "M") {
            ++metadata;
        } else {
            ++unknown;
        }
    }
    EXPECT_GT(slices, 0u);
    EXPECT_GT(instants, 0u);
    EXPECT_GT(metadata, 0u);
    EXPECT_EQ(unknown, 0u);
}

TEST(ObsIntegration, ReportJsonParsesBackWithCounters)
{
    const auto& run = tracedRun();
    std::ostringstream os;
    exp::writeReportJson(os, "obs test", {run.result});
    JsonValue root;
    std::string error;
    ASSERT_TRUE(parseJson(os.str(), root, &error)) << error;
    EXPECT_EQ(root.stringAt("schema"), "rainbowcake-report-v1");
    const JsonValue* policies = root.find("policies");
    ASSERT_NE(policies, nullptr);
    ASSERT_EQ(policies->array.size(), 1u);
    const JsonValue& entry = policies->array.front();
    EXPECT_EQ(entry.stringAt("run_id"), "rainbowcake-test");
    EXPECT_EQ(entry.numberAt("invocations"),
              static_cast<double>(run.result.metrics.total()));
    const JsonValue* counters = entry.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->numberAt("cold_start"),
              static_cast<double>(run.observer->counters().total(
                  Counter::ColdStart)));
    const JsonValue* instrumented = entry.find("instrumented");
    ASSERT_NE(instrumented, nullptr);
    EXPECT_TRUE(instrumented->boolean);
}

} // namespace
} // namespace rc::obs
