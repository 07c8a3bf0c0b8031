/**
 * @file
 * Observer: the one handle a run's instrumentation hangs off.
 *
 * An Observer owns the three observability stores of a single run —
 * the structured event buffer, the counter/gauge Registry, and the
 * Profiler — and is passed around as a nullable pointer
 * (`obs::Observer*`). Every emit site in the platform is written as
 *
 *     if (_obs != nullptr)
 *         _obs->...;
 *
 * so a disabled run (the default: NodeConfig::observer == nullptr)
 * pays exactly one predictable branch per site and no formatting,
 * allocation, or clock reads. bench_micro_engine's obs_overhead
 * section holds this to < 2% on full runs.
 *
 * Not thread-safe by design, like the Engine: one Observer belongs to
 * one run. Parallel sweeps (exp::ParallelRunner) attach a distinct
 * Observer per RunSpec and tag each run's artifacts by run id.
 */

#ifndef RC_OBS_OBSERVER_HH_
#define RC_OBS_OBSERVER_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/profiler.hh"
#include "obs/registry.hh"
#include "obs/span.hh"
#include "obs/trace_event.hh"

namespace rc::obs {

/** What an Observer collects; trace buffering can be switched off. */
struct ObserverConfig
{
    /** Record structured TraceEvents (counters always run). */
    bool traceEnabled = true;
    /** Record wall-clock profiling scopes. */
    bool profilingEnabled = true;
    /** Counter snapshot interval. */
    sim::Tick counterInterval = 60 * sim::kSecond;
    /**
     * Hard cap on buffered events; 0 = unlimited. When the cap is
     * hit, further events are dropped and counted (droppedEvents()
     * and Counter::TraceDropped), never silently lost.
     */
    std::size_t maxEvents = 0;
    /** Record per-invocation Spans (off by default, like nothing). */
    bool spansEnabled = false;
    /** Hard cap on buffered spans; 0 = unlimited. Same drop rules. */
    std::size_t maxSpans = 0;
};

/** Per-run event buffer + counters + profiler. */
class Observer
{
  public:
    explicit Observer(ObserverConfig config = {});

    Observer(const Observer&) = delete;
    Observer& operator=(const Observer&) = delete;

    /** Append one event (tick must be the current simulated time). */
    void
    emit(const TraceEvent& event)
    {
        if (!_config.traceEnabled)
            return;
        if (_config.maxEvents != 0 && _events.size() >= _config.maxEvents) {
            ++_dropped;
            _registry.bump(Counter::TraceDropped, event.tick);
            return;
        }
        _events.push_back(event);
    }

    /** Append one finished span (no-op unless spans are enabled). */
    void
    emitSpan(const Span& span)
    {
        if (!_config.spansEnabled)
            return;
        if (_config.maxSpans != 0 && _spans.size() >= _config.maxSpans) {
            ++_droppedSpans;
            _registry.bump(Counter::TraceDropped, span.end);
            return;
        }
        _spans.push_back(span);
    }

    /** Whether emitSpan() records anything (invoker fast-path gate). */
    bool spansEnabled() const { return _config.spansEnabled; }

    /** All recorded spans, in emission order. */
    const std::vector<Span>& spans() const { return _spans; }

    /** Spans dropped by the maxSpans cap (plus absorbed drops). */
    std::uint64_t droppedSpans() const { return _droppedSpans; }

    /** Node index stamped into this observer's span identities. */
    std::uint16_t spanNode() const { return _spanNode; }
    void setSpanNode(std::uint16_t node) { _spanNode = node; }

    /**
     * Fold per-node span buffers into this observer: sorts @p spans
     * on the partition-independent (invocation, id) key, appends
     * through the maxSpans cap, and accounts @p dropped upstream
     * drops at time @p when. The cluster harnesses call this once
     * after a run, so merged dumps are byte-identical at any shard
     * count.
     */
    void absorbSpans(std::vector<Span> spans, std::uint64_t dropped,
                     sim::Tick when);

    /**
     * Stable-sort the events recorded from position @p from on by
     * tick; equal ticks keep their emission order, so an already
     * ordered buffer keeps its bytes. The cluster coordinator emits a
     * barrier window's events phase by phase rather than in tick
     * order, and calls this once after a run.
     */
    void sortEventsByTick(std::size_t from);

    /** Convenience emit, fills the common fields. */
    void
    emit(sim::Tick tick, EventType type, std::uint64_t container = 0,
         std::uint32_t function = 0xffffffffU, std::uint8_t a = 0,
         std::uint8_t b = 0, double arg0 = 0.0, double arg1 = 0.0)
    {
        TraceEvent event;
        event.tick = tick;
        event.container = container;
        event.function = function;
        event.category = categoryOf(type);
        event.type = type;
        event.a = a;
        event.b = b;
        event.arg0 = arg0;
        event.arg1 = arg1;
        emit(event);
    }

    /** Counter/gauge registry. */
    Registry& counters() { return _registry; }
    const Registry& counters() const { return _registry; }

    /** Profiler, or nullptr when profiling is disabled. */
    Profiler* profiler()
    {
        return _config.profilingEnabled ? &_profiler : nullptr;
    }
    const Profiler& profileData() const { return _profiler; }

    /** All recorded events, in emission (= simulated time) order. */
    const std::vector<TraceEvent>& events() const { return _events; }

    /** Events dropped by the maxEvents cap. */
    std::uint64_t droppedEvents() const { return _dropped; }

    /** Active configuration. */
    const ObserverConfig& config() const { return _config; }

    /** Label used to tag this run's artifacts (set by the harness). */
    const std::string& runId() const { return _runId; }
    void setRunId(std::string id) { _runId = std::move(id); }

    /**
     * Snapshot engine totals at end of run: emits one EngineStats
     * event and mirrors the values into the registry.
     */
    void recordEngineStats(sim::Tick now, std::uint64_t executed,
                           std::uint64_t scheduled,
                           std::uint64_t cancelled);

    /** Drop all collected data, keeping the configuration. */
    void reset();

  private:
    ObserverConfig _config;
    std::vector<TraceEvent> _events;
    std::uint64_t _dropped = 0;
    std::vector<Span> _spans;
    std::uint64_t _droppedSpans = 0;
    std::uint16_t _spanNode = 0;
    Registry _registry;
    Profiler _profiler;
    std::string _runId;
};

} // namespace rc::obs

#endif // RC_OBS_OBSERVER_HH_
