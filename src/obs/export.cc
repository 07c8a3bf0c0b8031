#include "obs/export.hh"

#include <algorithm>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/json.hh"
#include "platform/startup_type.hh"
#include "workload/types.hh"

namespace rc::obs {

namespace {

/** Chrome reserved color names keyed by startup type. */
const char*
startupColor(std::uint8_t type)
{
    switch (static_cast<platform::StartupType>(type)) {
      case platform::StartupType::Cold: return "terrible";
      case platform::StartupType::Bare: return "bad";
      case platform::StartupType::Lang: return "yellow";
      case platform::StartupType::User: return "good";
      case platform::StartupType::Load: return "olive";
    }
    return "grey";
}

const char*
startupName(std::uint8_t type)
{
    return platform::toString(static_cast<platform::StartupType>(type));
}

std::string
layerName(std::uint8_t layer)
{
    return workload::toString(static_cast<workload::Layer>(layer));
}

/**
 * IdleDecision::Action names; order pinned by a static_assert next to
 * the enum's only other consumer (policy.cc) is not possible without
 * an obs -> policy dependency, so the contract lives in the JSONL
 * schema doc instead.
 */
const char*
actionName(std::uint8_t action)
{
    switch (action) {
      case 0: return "kill";
      case 1: return "downgrade";
      case 2: return "renew";
      case 3: return "repack";
    }
    return "?";
}

/** Track (pid) layout of the Chrome trace. */
constexpr int kPidContainers = 1;
constexpr int kPidInvocations = 2;
constexpr int kPidPolicy = 3;
constexpr int kPidCluster = 4;
constexpr int kPidFaults = 5;
constexpr int kPidSpans = 6;

/** One emitted Chrome event, buffered so metadata can come first. */
struct ChromeEvent
{
    std::string json;
};

void
appendArgsPrefix(std::ostringstream& out, const char* name, const char* ph,
                 int pid, std::uint64_t tid, sim::Tick ts)
{
    out << "{\"name\": \"" << name << "\", \"ph\": \"" << ph
        << "\", \"pid\": " << pid << ", \"tid\": " << tid
        << ", \"ts\": " << ts;
}

/** Complete ("X") slice. */
std::string
slice(const std::string& name, int pid, std::uint64_t tid, sim::Tick start,
      sim::Tick end, const std::string& args, const char* cname = nullptr)
{
    std::ostringstream out;
    appendArgsPrefix(out, name.c_str(), "X", pid, tid, start);
    out << ", \"dur\": " << (end > start ? end - start : 0);
    if (cname != nullptr)
        out << ", \"cname\": \"" << cname << "\"";
    out << ", \"args\": {" << args << "}}";
    return out.str();
}

/** Thread-scoped instant ("i") marker. */
std::string
instant(const std::string& name, int pid, std::uint64_t tid, sim::Tick ts,
        const std::string& args)
{
    std::ostringstream out;
    appendArgsPrefix(out, name.c_str(), "i", pid, tid, ts);
    out << ", \"s\": \"t\", \"args\": {" << args << "}}";
    return out.str();
}

std::string
threadName(int pid, std::uint64_t tid, const std::string& label)
{
    std::ostringstream out;
    out << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": " << pid
        << ", \"tid\": " << tid << ", \"args\": {\"name\": \""
        << jsonEscape(label) << "\"}}";
    return out.str();
}

std::string
processName(int pid, const std::string& label)
{
    std::ostringstream out;
    out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << pid
        << ", \"args\": {\"name\": \"" << jsonEscape(label) << "\"}}";
    return out.str();
}

std::string
functionLabel(std::uint32_t function)
{
    if (function == 0xffffffffU)
        return "-";
    return std::string("f").append(std::to_string(function));
}

/** Rebuilds per-container state spans from the event stream. */
struct ContainerTrack
{
    enum class Phase : std::uint8_t
    {
        None,
        Init,
        Idle,
        Busy,
    };

    Phase phase = Phase::None;
    sim::Tick since = 0;
    std::uint8_t layer = 0;
    std::uint32_t function = 0xffffffffU;
    bool named = false;
};

std::string
phaseName(ContainerTrack::Phase phase, std::uint8_t layer)
{
    switch (phase) {
      case ContainerTrack::Phase::Init:
        return "init(" + layerName(layer) + ")";
      case ContainerTrack::Phase::Idle:
        return "idle(" + layerName(layer) + ")";
      case ContainerTrack::Phase::Busy: return "busy";
      case ContainerTrack::Phase::None: break;
    }
    return "?";
}

const char*
phaseColor(ContainerTrack::Phase phase)
{
    switch (phase) {
      case ContainerTrack::Phase::Init: return "thread_state_runnable";
      case ContainerTrack::Phase::Idle: return "thread_state_sleeping";
      case ContainerTrack::Phase::Busy: return "thread_state_running";
      case ContainerTrack::Phase::None: break;
    }
    return "grey";
}

} // namespace

void
writeChromeTrace(std::ostream& os, const Observer& observer)
{
    std::vector<ChromeEvent> out;
    // Tracks live in a flat vector with a hash index; the vector is
    // sorted by container id once at the end, when the trailing
    // close-span events are emitted, instead of paying an ordered-map
    // lookup on every event.
    std::vector<std::pair<std::uint64_t, ContainerTrack>> trackStore;
    std::unordered_map<std::uint64_t, std::size_t> trackIndex;
    const auto trackOf = [&](std::uint64_t cid) -> ContainerTrack& {
        const auto [it, fresh] =
            trackIndex.try_emplace(cid, trackStore.size());
        if (fresh)
            trackStore.emplace_back(cid, ContainerTrack{});
        return trackStore[it->second].second;
    };
    std::unordered_set<std::uint32_t> functionNamed;
    sim::Tick lastTick = 0;

    out.push_back({processName(kPidContainers, "containers")});
    out.push_back({processName(kPidInvocations, "invocations")});
    out.push_back({processName(kPidPolicy, "policy")});
    out.push_back({processName(kPidFaults, "faults")});

    auto closeSpan = [&](std::uint64_t cid, ContainerTrack& track,
                         sim::Tick now) {
        if (track.phase == ContainerTrack::Phase::None)
            return;
        std::ostringstream args;
        args << "\"layer\": \"" << layerName(track.layer)
             << "\", \"function\": \"" << functionLabel(track.function)
             << "\"";
        out.push_back({slice(phaseName(track.phase, track.layer),
                             kPidContainers, cid, track.since, now,
                             args.str(), phaseColor(track.phase))});
    };

    auto nameTrack = [&](std::uint64_t cid, ContainerTrack& track) {
        if (track.named)
            return;
        track.named = true;
        out.push_back({threadName(kPidContainers, cid,
                                  "container " + std::to_string(cid))});
    };

    for (const TraceEvent& event : observer.events()) {
        lastTick = event.tick;
        switch (event.type) {
          case EventType::ContainerCreated: {
            ContainerTrack& track = trackOf(event.container);
            nameTrack(event.container, track);
            track.phase = ContainerTrack::Phase::Init;
            track.since = event.tick;
            track.layer = event.a;
            track.function = event.function;
            break;
          }
          case EventType::ContainerInitDone: {
            ContainerTrack& track = trackOf(event.container);
            closeSpan(event.container, track, event.tick);
            track.phase = ContainerTrack::Phase::Idle;
            track.since = event.tick;
            track.layer = event.a;
            break;
          }
          case EventType::ContainerUpgrade:
          case EventType::ContainerRepurpose: {
            ContainerTrack& track = trackOf(event.container);
            closeSpan(event.container, track, event.tick);
            track.phase = ContainerTrack::Phase::Init;
            track.since = event.tick;
            track.layer = event.a;
            track.function = event.function;
            break;
          }
          case EventType::ContainerExecBegin: {
            ContainerTrack& track = trackOf(event.container);
            closeSpan(event.container, track, event.tick);
            track.phase = ContainerTrack::Phase::Busy;
            track.since = event.tick;
            break;
          }
          case EventType::ContainerExecEnd: {
            ContainerTrack& track = trackOf(event.container);
            closeSpan(event.container, track, event.tick);
            track.phase = ContainerTrack::Phase::Idle;
            track.since = event.tick;
            break;
          }
          case EventType::ContainerDowngraded: {
            ContainerTrack& track = trackOf(event.container);
            closeSpan(event.container, track, event.tick);
            track.phase = ContainerTrack::Phase::Idle;
            track.since = event.tick;
            track.layer = event.a;
            break;
          }
          case EventType::ContainerKilled: {
            ContainerTrack& track = trackOf(event.container);
            closeSpan(event.container, track, event.tick);
            track.phase = ContainerTrack::Phase::None;
            std::ostringstream args;
            args << "\"cause\": \""
                 << toString(static_cast<KillCause>(event.b))
                 << "\", \"freed_mb\": " << event.arg0;
            out.push_back({instant("killed", kPidContainers,
                                   event.container, event.tick,
                                   args.str())});
            break;
          }
          case EventType::ContainerSharedHit: {
            out.push_back({instant("shared_hit", kPidContainers,
                                   event.container, event.tick, "")});
            break;
          }
          case EventType::InvocationCompleted: {
            // arg0 = startup seconds, arg1 = end-to-end seconds; the
            // slice spans arrival -> completion on the function track.
            const sim::Tick e2e = sim::fromSeconds(event.arg1);
            const sim::Tick start = event.tick - e2e;
            if (functionNamed.insert(event.function).second) {
                out.push_back({threadName(kPidInvocations, event.function,
                                          functionLabel(event.function))});
            }
            std::ostringstream args;
            args << "\"startup_type\": \"" << startupName(event.a)
                 << "\", \"startup_s\": " << event.arg0
                 << ", \"container\": " << event.container;
            out.push_back({slice(startupName(event.a), kPidInvocations,
                                 event.function, start, event.tick,
                                 args.str(), startupColor(event.a))});
            break;
          }
          case EventType::KeepAliveSet: {
            std::ostringstream args;
            args << "\"ttl_s\": " << event.arg0;
            out.push_back({instant("keep_alive", kPidContainers,
                                   event.container, event.tick,
                                   args.str())});
            break;
          }
          case EventType::IdleExpired: {
            std::ostringstream args;
            args << "\"action\": \"" << actionName(event.a)
                 << "\", \"layer\": \"" << layerName(event.b)
                 << "\", \"next_ttl_s\": " << event.arg0;
            out.push_back({instant("idle_expired", kPidContainers,
                                   event.container, event.tick,
                                   args.str())});
            break;
          }
          case EventType::PolicyDecision: {
            std::ostringstream args;
            args << "\"layer\": \"" << layerName(event.a)
                 << "\", \"ttl_s\": " << event.arg0
                 << ", \"model_s\": " << event.arg1;
            out.push_back({instant("decision", kPidPolicy, 0, event.tick,
                                   args.str())});
            break;
          }
          case EventType::PrewarmScheduled:
          case EventType::PrewarmFired:
          case EventType::PrewarmSkipped: {
            std::ostringstream args;
            args << "\"function\": \"" << functionLabel(event.function)
                 << "\", \"delay_s\": " << event.arg0;
            out.push_back({instant(toString(event.type), kPidPolicy, 0,
                                   event.tick, args.str())});
            break;
          }
          case EventType::EvictionForMemory: {
            std::ostringstream args;
            args << "\"freed_mb\": " << event.arg0;
            out.push_back({instant("evicted", kPidContainers,
                                   event.container, event.tick,
                                   args.str())});
            break;
          }
          case EventType::ClusterRouted: {
            std::ostringstream args;
            args << "\"node\": " << static_cast<int>(event.a)
                 << ", \"function\": \"" << functionLabel(event.function)
                 << "\"";
            out.push_back({instant("routed", kPidCluster, event.a,
                                   event.tick, args.str())});
            break;
          }
          case EventType::FaultInjected: {
            std::ostringstream args;
            args << "\"function\": \"" << functionLabel(event.function)
                 << "\", \"stage\": \"" << layerName(event.b) << "\"";
            out.push_back({instant("fault", kPidFaults, event.container,
                                   event.tick, args.str())});
            break;
          }
          case EventType::RetryScheduled: {
            std::ostringstream args;
            args << "\"function\": \"" << functionLabel(event.function)
                 << "\", \"attempt\": " << static_cast<int>(event.a)
                 << ", \"backoff_s\": " << event.arg0;
            out.push_back({instant("retry", kPidFaults, 0, event.tick,
                                   args.str())});
            break;
          }
          case EventType::InvocationFailed: {
            std::ostringstream args;
            args << "\"function\": \"" << functionLabel(event.function)
                 << "\", \"attempts\": " << static_cast<int>(event.a);
            out.push_back({instant("failed", kPidFaults, 0, event.tick,
                                   args.str())});
            break;
          }
          case EventType::ExecTimeoutKill: {
            out.push_back({instant("timeout_kill", kPidFaults,
                                   event.container, event.tick, "")});
            break;
          }
          case EventType::NodeCrashed: {
            std::ostringstream args;
            args << "\"downtime_s\": " << event.arg0
                 << ", \"retried\": " << event.arg1;
            out.push_back({instant("node_crash", kPidFaults, 0,
                                   event.tick, args.str())});
            break;
          }
          case EventType::NodeRestarted: {
            out.push_back({instant("node_restart", kPidFaults, 0,
                                   event.tick, "")});
            break;
          }
          case EventType::FailoverRouted: {
            std::ostringstream args;
            args << "\"to_node\": " << static_cast<int>(event.a)
                 << ", \"from_node\": " << static_cast<int>(event.b);
            out.push_back({instant("failover", kPidFaults, 0, event.tick,
                                   args.str())});
            break;
          }
          case EventType::AdmissionRejected:
          case EventType::InvocationShed:
          case EventType::PressureLevel:
          case EventType::BreakerStateChanged:
          case EventType::HedgeLaunched:
          case EventType::HedgeWon:
          case EventType::HedgeCancelled:
          case EventType::HedgeLost:
          case EventType::NodeQuarantined:
          case EventType::NodeProbed:
          case EventType::NodeReadmitted:
          case EventType::PartitionStart:
          case EventType::PartitionEnd:
          case EventType::MsgDelayed:
          case EventType::MsgDropped:
          case EventType::NodeDegraded:
          case EventType::DomainOutage:
          case EventType::NodeDrainStarted:
          case EventType::NodeDrained:
          case EventType::NodeRejoinGranted:
          case EventType::NodeWarmupDone:
          case EventType::RecoveryRetry: {
            // Admission, gray-failure, quarantine and recovery
            // events carry their payload raw; trace_event.hh documents
            // what a, b, arg0 and arg1 mean for each type.
            std::ostringstream args;
            args << "\"a\": " << static_cast<int>(event.a)
                 << ", \"b\": " << static_cast<int>(event.b)
                 << ", \"arg0\": " << event.arg0
                 << ", \"arg1\": " << event.arg1;
            out.push_back({instant(toString(event.type), kPidFaults,
                                   event.container, event.tick,
                                   args.str())});
            break;
          }
          case EventType::InvocationArrived:
          case EventType::InvocationQueued:
          case EventType::InvocationDispatched:
          case EventType::EngineStats:
            // Present in the JSONL dump; no useful visual track here.
            break;
        }
    }

    // Close spans of containers alive at the end of the trace, in
    // ascending container-id order as the ordered map used to give.
    std::sort(trackStore.begin(), trackStore.end(),
              [](const auto& a, const auto& b) {
                  return a.first < b.first;
              });
    for (auto& [cid, track] : trackStore)
        closeSpan(cid, track, lastTick);

    // Invocation spans: one row per invocation, the root slice with
    // its stage slices nested inside by interval containment. Sorted
    // by (invocation, id) so roots precede their stages and output is
    // independent of buffer order.
    if (!observer.spans().empty()) {
        out.push_back({processName(kPidSpans, "spans")});
        std::vector<Span> spans(observer.spans().begin(),
                                observer.spans().end());
        std::sort(spans.begin(), spans.end(), spanBefore);
        for (const Span& span : spans) {
            std::ostringstream args;
            if (span.stage == SpanStage::Invocation) {
                args << "\"function\": \""
                     << functionLabel(span.function)
                     << "\", \"outcome\": \""
                     << toString(static_cast<SpanOutcome>(span.info))
                     << "\", \"node\": " << span.node
                     << ", \"parent\": " << span.parent;
                out.push_back({slice("inv " + functionLabel(span.function),
                                     kPidSpans, span.invocation,
                                     span.start, span.end, args.str())});
                continue;
            }
            args << "\"function\": \"" << functionLabel(span.function)
                 << "\", \"container\": " << span.container
                 << ", \"attempt\": "
                 << static_cast<int>(span.attempt);
            if ((span.flags & kSpanAborted) != 0)
                args << ", \"aborted\": true";
            out.push_back(
                {slice(toString(span.stage), kPidSpans, span.invocation,
                       span.start, span.end, args.str(),
                       (span.flags & kSpanAborted) != 0 ? "terrible"
                                                        : nullptr)});
        }
    }

    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < out.size(); ++i) {
        os << "  " << out[i].json << (i + 1 < out.size() ? "," : "")
           << "\n";
    }
    os << "]}\n";
}

void
writeJsonlEvents(std::ostream& os, const Observer& observer)
{
    for (const TraceEvent& event : observer.events()) {
        os << "{\"tick\": " << event.tick << ", \"cat\": \""
           << toString(event.category) << "\", \"type\": \""
           << toString(event.type) << "\", \"container\": "
           << event.container << ", \"function\": " << event.function
           << ", \"a\": " << static_cast<int>(event.a) << ", \"b\": "
           << static_cast<int>(event.b) << ", \"arg0\": " << event.arg0
           << ", \"arg1\": " << event.arg1 << "}\n";
    }
}

std::vector<TraceEvent>
parseJsonlEvents(std::istream& in, std::string* error)
{
    std::vector<TraceEvent> events;
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        JsonValue value;
        std::string parseError;
        if (!parseJson(line, value, &parseError) || !value.isObject()) {
            if (error != nullptr) {
                *error = "line " + std::to_string(lineNo) + ": " +
                         (parseError.empty() ? "not an object"
                                             : parseError);
            }
            return {};
        }
        TraceEvent event;
        event.tick = static_cast<sim::Tick>(value.numberAt("tick"));
        event.container =
            static_cast<std::uint64_t>(value.numberAt("container"));
        event.function =
            static_cast<std::uint32_t>(value.numberAt("function"));
        event.a = static_cast<std::uint8_t>(value.numberAt("a"));
        event.b = static_cast<std::uint8_t>(value.numberAt("b"));
        event.arg0 = value.numberAt("arg0");
        event.arg1 = value.numberAt("arg1");
        const std::string typeName = value.stringAt("type");
        EventType type;
        if (!eventTypeFromString(typeName.c_str(), type)) {
            if (error != nullptr) {
                *error = "line " + std::to_string(lineNo) +
                         ": unknown event type '" + typeName + "'";
            }
            return {};
        }
        event.type = type;
        Category category;
        if (categoryFromString(value.stringAt("cat").c_str(), category))
            event.category = category;
        else
            event.category = categoryOf(type);
        events.push_back(event);
    }
    return events;
}

namespace {

/**
 * Exact unsigned parse of a numeric member on a dump line. The DOM
 * parser stores numbers as double, which silently rounds ids past
 * 2^53; span ids embed (node << 48), so large fleets need the exact
 * path. The dumps are machine-written with a fixed `"key": value`
 * layout, making a textual scan reliable.
 */
bool
exactU64At(const std::string& line, const char* key, std::uint64_t* out)
{
    const std::string needle = std::string("\"") + key + "\": ";
    const std::size_t pos = line.find(needle);
    if (pos == std::string::npos)
        return false;
    const char* cursor = line.c_str() + pos + needle.size();
    char* end = nullptr;
    *out = std::strtoull(cursor, &end, 10);
    return end != cursor;
}

} // namespace

void
writeJsonlSpans(std::ostream& os, const Observer& observer)
{
    std::vector<Span> spans(observer.spans().begin(),
                            observer.spans().end());
    std::sort(spans.begin(), spans.end(), spanBefore);
    os << "{\"schema\": \"rainbowcake-spans-v1\", \"spans\": "
       << spans.size() << ", \"dropped\": " << observer.droppedSpans()
       << "}\n";
    for (const Span& span : spans) {
        os << "{\"id\": " << span.id << ", \"parent\": " << span.parent
           << ", \"invocation\": " << span.invocation
           << ", \"container\": " << span.container
           << ", \"start\": " << span.start << ", \"end\": " << span.end
           << ", \"function\": " << span.function
           << ", \"node\": " << span.node << ", \"stage\": \""
           << toString(span.stage)
           << "\", \"info\": " << static_cast<int>(span.info)
           << ", \"attempt\": " << static_cast<int>(span.attempt)
           << ", \"flags\": " << static_cast<int>(span.flags) << "}\n";
    }
}

std::vector<Span>
parseJsonlSpans(std::istream& in, std::string* error,
                std::uint64_t* dropped)
{
    const auto fail = [&](std::size_t lineNo, const std::string& what) {
        if (error != nullptr)
            *error = "line " + std::to_string(lineNo) + ": " + what;
        return std::vector<Span>{};
    };
    std::string line;
    std::size_t lineNo = 0;
    if (!std::getline(in, line))
        return fail(1, "empty span dump (no header)");
    ++lineNo;
    JsonValue header;
    std::string parseError;
    if (!parseJson(line, header, &parseError) || !header.isObject())
        return fail(lineNo, parseError.empty() ? "not an object"
                                               : parseError);
    if (header.stringAt("schema") != "rainbowcake-spans-v1")
        return fail(lineNo, "unexpected schema '" +
                                header.stringAt("schema") + "'");
    if (dropped != nullptr) {
        std::uint64_t value = 0;
        exactU64At(line, "dropped", &value);
        *dropped = value;
    }
    std::vector<Span> spans;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        JsonValue value;
        if (!parseJson(line, value, &parseError) || !value.isObject())
            return fail(lineNo, parseError.empty() ? "not an object"
                                                   : parseError);
        Span span;
        if (!exactU64At(line, "id", &span.id) ||
            !exactU64At(line, "parent", &span.parent) ||
            !exactU64At(line, "invocation", &span.invocation) ||
            !exactU64At(line, "container", &span.container)) {
            return fail(lineNo, "missing span id field");
        }
        span.start = static_cast<sim::Tick>(value.numberAt("start"));
        span.end = static_cast<sim::Tick>(value.numberAt("end"));
        span.function =
            static_cast<std::uint32_t>(value.numberAt("function"));
        span.node = static_cast<std::uint16_t>(value.numberAt("node"));
        span.info = static_cast<std::uint8_t>(value.numberAt("info"));
        span.attempt =
            static_cast<std::uint8_t>(value.numberAt("attempt"));
        span.flags = static_cast<std::uint8_t>(value.numberAt("flags"));
        SpanStage stage;
        const std::string stageName = value.stringAt("stage");
        if (!spanStageFromString(stageName, &stage))
            return fail(lineNo, "unknown span stage '" + stageName + "'");
        span.stage = stage;
        spans.push_back(span);
    }
    return spans;
}

} // namespace rc::obs
