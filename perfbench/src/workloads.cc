#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>

#include "cluster/conservation.hh"
#include "cluster/sharded_cluster.hh"
#include "core/ablations.hh"
#include "exp/cluster_run.hh"
#include "exp/experiment.hh"
#include "fault/fault_plan.hh"
#include "obs/observer.hh"
#include "trace/generator.hh"
#include "trace/replay.hh"

namespace perfbench {

namespace cluster = rc::cluster;
namespace conservation = rc::cluster::conservation;
namespace exp = rc::exp;
namespace obs = rc::obs;
namespace platform = rc::platform;
namespace trace = rc::trace;
namespace workload = rc::workload;

namespace {

/**
 * Setups per replay; their median is the reported setup_s, since one
 * setup is short next to the run and too noisy to gate on alone. A
 * fleet sets up in milliseconds (its trace streams), so it takes more
 * samples than the node, whose trace is expanded up front.
 */
int
setupRepeats(const WorkloadSpec& spec)
{
    return spec.fleet ? 25 : 5;
}

double
toSeconds(std::uint64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/** @p part / @p whole, 0 when @p whole is 0. */
double
ratio(std::uint64_t part, std::uint64_t whole)
{
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Process CPU time (all threads) and voluntary context switches. */
struct Usage
{
    double cpuSeconds = 0.0;
    std::uint64_t voluntarySwitches = 0;
};

Usage
usageNow()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return {seconds(usage.ru_utime) + seconds(usage.ru_stime),
            static_cast<std::uint64_t>(usage.ru_nvcsw)};
}

/** 64-bit FNV-1a: a fingerprint, not a security boundary. */
class Fnv64
{
  public:
    void
    bytes(const void* data, std::size_t size)
    {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < size; ++i) {
            _hash ^= p[i];
            _hash *= 1099511628211ULL;
        }
    }
    void u64(std::uint64_t value) { bytes(&value, sizeof value); }
    void text(const std::string& s) { bytes(s.data(), s.size()); }

    std::string
    hex() const
    {
        char out[17];
        std::snprintf(out, sizeof out, "%016llx",
                      static_cast<unsigned long long>(_hash));
        return out;
    }

  private:
    std::uint64_t _hash = 14695981039346656037ULL;
};

/** Per-invocation records in completion order plus the waste total. */
std::string
nodeDigest(const exp::RunResult& result)
{
    Fnv64 h;
    for (const platform::InvocationRecord& r : result.metrics.records()) {
        h.u64(r.function);
        h.u64(static_cast<std::uint64_t>(r.arrival));
        h.u64(static_cast<std::uint64_t>(r.type));
        h.u64(static_cast<std::uint64_t>(r.queueWait));
        h.u64(static_cast<std::uint64_t>(r.startupLatency));
        h.u64(static_cast<std::uint64_t>(r.execution));
        h.u64(static_cast<std::uint64_t>(r.endToEnd));
    }
    // 12 significant digits: a behaviour change moves the sum far more,
    // a reordered floating-point sum only in the last bits.
    char waste[32];
    std::snprintf(waste, sizeof waste, "%.12g", result.totalWasteMbSeconds);
    h.text(waste);
    return h.hex();
}

/**
 * The cluster_summary and per_node CSVs the seed goldens pin, minus
 * their two host-side counters: `windows` and `engine_events` count
 * barrier windows and engine events, which window coalescing or a
 * leaner engine may change without changing any simulated result.
 * The fleet latency quantiles ride along; they are not CSV columns.
 */
std::string
fleetDigest(const cluster::ClusterResult& result)
{
    std::ostringstream csv;
    exp::writeClusterSummaryCsv(csv, result);
    std::istringstream lines(csv.str());
    std::string header;
    std::string row;
    std::getline(lines, header);
    std::getline(lines, row);
    const auto split = [](const std::string& line) {
        std::vector<std::string> cells;
        std::stringstream in(line);
        for (std::string cell; std::getline(in, cell, ',');)
            cells.push_back(cell);
        return cells;
    };
    const auto names = split(header);
    const auto values = split(row);
    Fnv64 h;
    for (std::size_t i = 0; i < names.size() && i < values.size(); ++i) {
        if (names[i] == "windows" || names[i] == "engine_events")
            continue;
        h.text(names[i] + '=' + values[i] + ';');
    }
    std::ostringstream rest;
    exp::writeClusterPerNodeCsv(rest, result);
    rest << result.e2eP50Seconds << ',' << result.e2eP99Seconds << ','
         << result.e2eP999Seconds << '\n';
    h.text(rest.str());
    return h.hex();
}

workload::Catalog
makeCatalog(const WorkloadSpec& spec)
{
    return spec.functions == 0
               ? workload::Catalog::standard20()
               : workload::Catalog::syntheticFleet(spec.functions, 7);
}

trace::TraceSet
makeTrace(const WorkloadSpec& spec, const workload::Catalog& catalog,
          std::uint64_t seed)
{
    trace::WorkloadTraceConfig config;
    config.minutes = spec.minutes;
    config.targetInvocations = spec.targetInvocations;
    config.seed = spec.traceSeed != 0 ? spec.traceSeed : seed;
    return trace::generateAzureLike(catalog, config);
}

platform::NodeConfig
makeNodeConfig(const WorkloadSpec& spec, std::uint64_t seed)
{
    platform::NodeConfig config;
    config.pool.memoryBudgetMb = spec.nodeMemoryGb * 1024.0;
    config.seed = seed;
    std::string error;
    if (!rc::fault::parseFaultPlan(spec.faultPlan, config.fault, &error)) {
        std::fprintf(stderr, "perfbench: bad fault plan for %s: %s\n",
                     spec.name.c_str(), error.c_str());
        std::exit(2);
    }
    return config;
}

/** Startup-type shares of completed invocations. */
struct StartCounts
{
    std::uint64_t cold = 0;
    std::uint64_t partial = 0; //!< Bare or Lang layer reused
    std::uint64_t warm = 0;    //!< User container reused or latched

    void
    add(const platform::Metrics& metrics)
    {
        using platform::StartupType;
        cold += metrics.countOf(StartupType::Cold);
        partial += metrics.countOf(StartupType::Bare) +
                   metrics.countOf(StartupType::Lang);
        warm += metrics.countOf(StartupType::User) +
                metrics.countOf(StartupType::Load);
    }
};

/** Host-side facts of one timed call, gathered for the layer table. */
struct LayerInputs
{
    double runSeconds = 0.0;
    Usage usage; //!< delta over the timed call
    /** Node-side host time: engine drain and finalize on a node, the
     *  parallel phase of inline (1-shard) rounds on a fleet. */
    double nodeSideSeconds = 0.0;
    double engineRunSeconds = 0.0;
    double poolScanSeconds = 0.0;
    double finalizeSeconds = 0.0;
    std::uint64_t eventsExecuted = 0;
    std::uint64_t eventsScheduled = 0;
    std::uint64_t eventsCancelled = 0;
    double shardEventImbalance = 1.0;
    std::uint64_t retainedRecords = 0;
    std::uint64_t idleIntervals = 0;
    StartCounts starts;
    PolicyTrace policy;
    CallStat pops;
    /** Fleet only (zero on a node). */
    double parallelSeconds = 0.0;
    double coordinatorSeconds = 0.0;
    double routeSeconds = 0.0;
    double summaryMergeSeconds = 0.0;
    double assembleSeconds = 0.0;
    double roundCpuSeconds = 0.0;
    std::uint64_t windows = 0;
    std::uint64_t rerouted = 0;
    std::uint64_t hedgesLaunched = 0;
    /** Speedup and barrier overhead against a 1-shard replay. */
    double speedupVs1Shard = 1.0;
    double barrierOverheadSeconds = 0.0;
};

/** The per-layer metrics, in the order BENCHMARK.json lists them. */
std::vector<std::pair<std::string, double>>
layerTable(const LayerInputs& in, const SpanLog& spans, int setups,
           std::uint64_t completed)
{
    const CallStat hooks = in.policy.hookTotal();
    const double view = toSeconds(in.policy.view.ns);
    const double coreSelf = toSeconds(hooks.ns) - view;
    const auto hook = [&](Hook h) { return toSeconds(in.policy[h].ns); };
    const double bookkeeping =
        in.coordinatorSeconds - in.routeSeconds - in.summaryMergeSeconds;
    // Directly timed spans inside the timed call: the profiler's
    // engine and finalize scopes on a node, the coordinator and
    // parallel phases on a fleet.
    const double attributed = in.engineRunSeconds + in.finalizeSeconds +
                              in.coordinatorSeconds + in.parallelSeconds;
    const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
    return {
        {"sim.parallel_s", in.parallelSeconds},
        {"sim.round_cpu_s", in.roundCpuSeconds},
        {"sim.voluntary_switches", count(in.usage.voluntarySwitches)},
        {"sim.barrier_overhead_s", in.barrierOverheadSeconds},
        {"sim.speedup_vs_1shard", in.speedupVs1Shard},
        {"cluster.coordinator_s", in.coordinatorSeconds},
        {"cluster.bookkeeping_s", bookkeeping},
        {"cluster.hedges_launched", count(in.hedgesLaunched)},
        {"cluster.windows", count(in.windows)},
        {"cluster.route_s", in.routeSeconds},
        {"cluster.summary_merge_s", in.summaryMergeSeconds},
        {"cluster.rerouted", count(in.rerouted)},
        {"cluster.shard_event_imbalance", in.shardEventImbalance},
        {"cluster.assemble_s", in.assembleSeconds},
        {"sim.events_executed", count(in.eventsExecuted)},
        {"sim.events_scheduled", count(in.eventsScheduled)},
        {"sim.events_cancelled", count(in.eventsCancelled)},
        {"sim.events_per_invocation", ratio(in.eventsExecuted, completed)},
        // Fleet nodes run unprofiled; their engines step inside the
        // node-side time.
        {"platform.engine_run_s", in.engineRunSeconds > 0.0
                                      ? in.engineRunSeconds
                                      : in.nodeSideSeconds},
        {"core.calls", count(hooks.calls)},
        {"core.self_s", coreSelf},
        {"core.on_arrival_s", hook(Hook::OnArrival)},
        {"core.keep_alive_ttl_s", hook(Hook::KeepAliveTtl)},
        {"core.on_idle_expired_s", hook(Hook::OnIdleExpired)},
        {"core.rank_eviction_s", hook(Hook::RankEvictionVictims)},
        {"core.rank_eviction_calls",
         count(in.policy[Hook::RankEvictionVictims].calls)},
        {"platform.self_s", in.nodeSideSeconds - coreSelf - view},
        {"platform.view_s", view},
        {"platform.pool_scan_s", in.poolScanSeconds},
        {"platform.finalize_s", in.finalizeSeconds},
        {"platform.start_cold", count(in.starts.cold)},
        {"platform.start_partial", count(in.starts.partial)},
        {"platform.start_warm", count(in.starts.warm)},
        {"platform.retained_records", count(in.retainedRecords)},
        {"platform.idle_intervals", count(in.idleIntervals)},
        {"trace.pops", count(in.pops.calls)},
        {"trace.pop_s", toSeconds(in.pops.ns)},
        {"trace.generate_s", spans.seconds("trace.generate") / setups},
        {"trace.expand_s", spans.seconds("trace.expand") / setups},
        {"cluster.construct_s", spans.seconds("cluster.construct") / setups},
        {"bench.unattributed_s", in.runSeconds - attributed},
    };
}

// ---- node_replay ----------------------------------------------------------

Replay
replayNode(const WorkloadSpec& spec, std::uint64_t seed, bool traced)
{
    Replay out;
    SpanLog spans;
    std::vector<double> setups;
    std::unique_ptr<workload::Catalog> catalog;
    std::vector<trace::Arrival> arrivals;
    for (int i = 0; i < setupRepeats(spec); ++i) {
        arrivals = {};
        catalog.reset();
        const int setup = spans.open("setup");
        catalog = spans.time("catalog", setup, [&] {
            return std::make_unique<workload::Catalog>(makeCatalog(spec));
        });
        const trace::TraceSet set = spans.time(
            "trace.generate", setup,
            [&] { return makeTrace(spec, *catalog, seed); });
        arrivals = spans.time("trace.expand", setup,
                              [&] { return trace::expandArrivals(set); });
        spans.close(setup);
        setups.push_back(spans.spans()[setup].seconds());
    }

    platform::NodeConfig config = makeNodeConfig(spec, seed);
    // Profiling only: no event buffer, no spans. Counters always run;
    // the engine totals land in them at the end of Node::run.
    obs::ObserverConfig observerConfig;
    observerConfig.traceEnabled = false;
    observerConfig.profilingEnabled = true;
    obs::Observer observer(observerConfig);
    PolicyTrace policyTrace;
    exp::PolicyFactory factory = [&] {
        return std::unique_ptr<rc::policy::Policy>(
            rc::core::makeRainbowCake(*catalog));
    };
    if (traced) {
        config.observer = &observer;
        factory = [&] {
            return std::make_unique<TracingPolicy>(
                rc::core::makeRainbowCake(*catalog), policyTrace);
        };
    }

    const Usage before = usageNow();
    const exp::RunResult result = spans.time("run", -1, [&] {
        return exp::runExperiment(*catalog, factory, arrivals, config);
    });
    const Usage after = usageNow();

    const platform::Metrics& metrics = result.metrics;
    out.arrivals = arrivals.size();
    out.completed = metrics.total();
    out.runSeconds = spans.seconds("run");
    out.digest = nodeDigest(result);
    out.simMeanStartupSeconds = metrics.meanStartupSeconds();
    out.simColdRatio =
        ratio(metrics.countOf(platform::StartupType::Cold), out.completed);
    out.simWasteGbSeconds = result.wasteGbSeconds();
    out.simE2eP99Seconds = metrics.p99EndToEndSeconds();

    if (!conservation::nodeConservation(
            out.completed, result.failedInvocations,
            result.strandedInvocations, result.rejectedInvocations,
            result.shedDeadline, result.shedPressure, out.arrivals))
        out.gateErrors.push_back("node conservation identity violated");
    if (out.completed == 0)
        out.gateErrors.push_back("no invocation completed");

    if (traced) {
        const obs::Profiler& profile = observer.profileData();
        const obs::Registry& counters = observer.counters();
        LayerInputs in;
        in.runSeconds = out.runSeconds;
        in.usage = {after.cpuSeconds - before.cpuSeconds,
                    after.voluntarySwitches - before.voluntarySwitches};
        in.engineRunSeconds = toSeconds(profile.totalNs(obs::Scope::EngineRun));
        in.finalizeSeconds = toSeconds(profile.totalNs(obs::Scope::Finalize));
        in.poolScanSeconds = toSeconds(profile.totalNs(obs::Scope::PoolScan));
        in.nodeSideSeconds = in.engineRunSeconds + in.finalizeSeconds;
        in.eventsExecuted = counters.total(obs::Counter::EngineExecuted);
        in.eventsScheduled = counters.total(obs::Counter::EngineScheduled);
        in.eventsCancelled = counters.total(obs::Counter::EngineCancelled);
        in.retainedRecords = metrics.records().size();
        in.idleIntervals = result.waste.size();
        in.starts.add(metrics);
        in.policy = policyTrace;
        out.layers =
            layerTable(in, spans, setupRepeats(spec), out.completed);
    }
    out.setupSeconds = median(setups);
    out.spans = spans.spans();
    return out;
}

// ---- fleets ---------------------------------------------------------------

/**
 * A constructed cluster and what its wrapped policies record. The
 * traces are declared first so they outlive the policies writing them;
 * drop the cluster before assigning over a Fleet.
 */
struct Fleet
{
    std::vector<PolicyTrace> traces;
    std::unique_ptr<cluster::ShardedCluster> cluster;
};

Fleet
makeFleet(const WorkloadSpec& spec, const workload::Catalog& catalog,
          std::uint64_t seed, std::size_t shards, bool traced)
{
    cluster::ClusterConfig config;
    config.nodes = spec.nodes;
    config.node = makeNodeConfig(spec, seed);
    config.scheduling = cluster::Scheduling::LocalityAware;
    cluster::ShardedConfig sharded;
    sharded.shards = shards;
    sharded.threads = shards;
    sharded.phaseTimings = traced;

    Fleet fleet;
    fleet.traces.resize(traced ? spec.nodes : 0);
    std::size_t next = 0;
    // Called once per node, in node order, inside the constructor.
    const auto factory = [&]() -> std::unique_ptr<rc::policy::Policy> {
        auto policy = rc::core::makeRainbowCake(catalog);
        if (!traced)
            return policy;
        return std::make_unique<TracingPolicy>(std::move(policy),
                                               fleet.traces.at(next++));
    };
    fleet.cluster = std::make_unique<cluster::ShardedCluster>(
        catalog, factory, config, sharded);
    return fleet;
}

/** One timed ShardedCluster::run, with what the layer table needs. */
struct FleetRun
{
    cluster::ClusterResult result;
    std::string digest;
    LayerInputs layers;
};

FleetRun
runFleet(Fleet& fleet, trace::ArrivalSource& source, bool traced,
         SpanLog& spans, const char* spanName)
{
    TracingSource tracing(source);
    trace::ArrivalSource& input =
        traced ? static_cast<trace::ArrivalSource&>(tracing) : source;
    FleetRun run;
    const Usage before = usageNow();
    const int span = spans.open(spanName);
    run.result = fleet.cluster->run(input);
    spans.close(span);
    const Usage after = usageNow();
    run.digest = fleetDigest(run.result);

    LayerInputs& in = run.layers;
    const cluster::ClusterResult& r = run.result;
    in.runSeconds = spans.spans()[static_cast<std::size_t>(span)].seconds();
    if (!traced)
        return run;
    const std::size_t shards = fleet.cluster->shardCount();
    in.usage = {after.cpuSeconds - before.cpuSeconds,
                after.voluntarySwitches - before.voluntarySwitches};
    in.coordinatorSeconds = toSeconds(r.coordinatorDrainNs);
    in.routeSeconds = toSeconds(r.routeNs);
    in.summaryMergeSeconds = toSeconds(r.summaryCaptureNs);
    in.parallelSeconds = toSeconds(r.parallelNs);
    in.assembleSeconds =
        in.runSeconds - in.coordinatorSeconds - in.parallelSeconds;
    // The coordinator and the result fold run on the calling thread,
    // so their CPU time is their wall time; the rest is round work.
    in.roundCpuSeconds = std::max(
        0.0, in.usage.cpuSeconds - in.coordinatorSeconds - in.assembleSeconds);
    // Inline rounds (one shard) are pure node work; across threads the
    // round time also holds the executor's handshake.
    in.nodeSideSeconds =
        shards == 1 ? in.parallelSeconds : in.roundCpuSeconds;
    in.windows = r.windows;
    in.rerouted = r.reroutedInvocations;
    in.hedgesLaunched = r.hedgesLaunched;

    std::vector<std::uint64_t> shardEvents(shards, 0);
    const auto& nodes = fleet.cluster->nodes();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const rc::sim::Engine& engine = nodes[i]->engine();
        in.eventsExecuted += engine.executedEvents();
        in.eventsScheduled += engine.scheduledEvents();
        in.eventsCancelled += engine.cancelledEvents();
        // Same node -> shard map as ShardedCluster (i % shards).
        shardEvents[i % shards] += engine.executedEvents();
        in.retainedRecords += nodes[i]->metrics().records().size();
        in.idleIntervals += nodes[i]->pool().wasteLog().size();
        in.starts.add(nodes[i]->metrics());
    }
    const double meanEvents = static_cast<double>(in.eventsExecuted) /
                              static_cast<double>(shards);
    in.shardEventImbalance =
        meanEvents == 0.0
            ? 1.0
            : static_cast<double>(*std::max_element(shardEvents.begin(),
                                                    shardEvents.end())) /
                  meanEvents;
    for (const PolicyTrace& t : fleet.traces)
        in.policy += t;
    in.pops = tracing.pops();
    return run;
}

Replay
replayFleet(const WorkloadSpec& spec, std::uint64_t seed, bool traced)
{
    Replay out;
    SpanLog spans;
    std::vector<double> setups;
    std::unique_ptr<workload::Catalog> catalog;
    std::unique_ptr<trace::TraceSetArrivalSource> source;
    Fleet fleet;
    for (int i = 0; i < setupRepeats(spec); ++i) {
        fleet.cluster.reset();
        source.reset();
        catalog.reset();
        const int setup = spans.open("setup");
        catalog = spans.time("catalog", setup, [&] {
            return std::make_unique<workload::Catalog>(makeCatalog(spec));
        });
        trace::TraceSet set = spans.time(
            "trace.generate", setup,
            [&] { return makeTrace(spec, *catalog, seed); });
        // Streaming: "expanding" a fleet trace builds the merge cursor.
        source = spans.time("trace.expand", setup, [&] {
            return std::make_unique<trace::TraceSetArrivalSource>(
                std::move(set));
        });
        fleet = spans.time("cluster.construct", setup, [&] {
            return makeFleet(spec, *catalog, seed, spec.shards, traced);
        });
        spans.close(setup);
        setups.push_back(spans.spans()[setup].seconds());
    }

    FleetRun run = runFleet(fleet, *source, traced, spans, "run");
    const cluster::ClusterResult& r = run.result;
    out.arrivals = source->total();
    out.completed = r.invocations;
    out.runSeconds = run.layers.runSeconds;
    out.digest = run.digest;
    out.simMeanStartupSeconds = r.meanStartupSeconds;
    out.simColdRatio = ratio(r.coldStarts, r.invocations);
    out.simWasteGbSeconds = r.totalWasteMbSeconds / 1024.0;
    out.simE2eP99Seconds = r.e2eP99Seconds;

    if (!conservation::fleetConservation(
            r.invocations, r.failedInvocations, r.strandedInvocations,
            r.reroutedInvocations, r.rejectedInvocations, r.shedDeadline,
            r.shedPressure, r.cancelledInvocations, r.admittedInvocations))
        out.gateErrors.push_back("fleet conservation identity violated");
    if (!conservation::admissionIdentity(r.admittedInvocations, out.arrivals,
                                         r.reroutedInvocations,
                                         r.hedgesLaunched, r.retriesFeedback))
        out.gateErrors.push_back("admission identity violated");
    if (!conservation::hedgeIdentity(r.hedgesLaunched, r.hedgesWon,
                                     r.hedgesCancelled, r.hedgesLost))
        out.gateErrors.push_back("hedge identity violated");
    if (r.invocations == 0)
        out.gateErrors.push_back("no invocation completed");

    if (traced) {
        LayerInputs& in = run.layers;
        if (spec.shards > 1) {
            // The same input at one shard: the speedup the parallel
            // core buys, and the digest it must reproduce exactly.
            fleet.cluster.reset();
            Fleet single = makeFleet(spec, *catalog, seed, 1, true);
            source->reset();
            const FleetRun base =
                runFleet(single, *source, true, spans, "run.1shard");
            if (base.digest != run.digest)
                out.gateErrors.push_back(
                    "1-shard digest differs from the " +
                    std::to_string(spec.shards) + "-shard digest");
            in.speedupVs1Shard = base.layers.runSeconds / in.runSeconds;
            in.barrierOverheadSeconds =
                in.parallelSeconds - base.layers.parallelSeconds /
                                         static_cast<double>(spec.shards);
            // Node-side layers from the inline rounds, where wall time
            // is node work; the simulated work is the same (same digest).
            in.nodeSideSeconds = base.layers.nodeSideSeconds;
            in.policy = base.layers.policy;
        }
        out.layers =
            layerTable(in, spans, setupRepeats(spec), out.completed);
    }
    out.setupSeconds = median(setups);
    out.spans = spans.spans();
    return out;
}
} // namespace

const std::vector<WorkloadSpec>&
workloads()
{
    static const std::vector<WorkloadSpec> all = [] {
        std::vector<WorkloadSpec> list;

        WorkloadSpec node;
        node.name = "node_replay";
        node.functions = 200;
        node.minutes = 14 * 24 * 60;
        node.targetInvocations = 3'000'000;
        node.nodeMemoryGb = 64.0;
        list.push_back(node);

        WorkloadSpec parallel;
        parallel.name = "fleet_parallel";
        parallel.fleet = true;
        parallel.functions = 100;
        parallel.minutes = 120;
        parallel.targetInvocations = 5'000'000;
        parallel.nodes = 256;
        parallel.traceSeed = 1;
        parallel.nodeMemoryGb = 8.0;
        parallel.shards = 4;
        parallel.faultPlan = R"({"node_mtbf_seconds": 3600,
            "node_downtime_seconds": 30, "max_retries": 2})";
        list.push_back(parallel);

        // The README's gray-failure plan (jitter, heavy tail, drops,
        // degraded windows, partitions, defended by hedging and
        // quarantine), with its degraded and partitioned time cut into
        // four times as many events a quarter as long. The shares of
        // time stay the same; the modelled outcomes then vary across
        // seeds by about 13% instead of 20%, since a run is no longer
        // decided by where its handful of partitions land.
        WorkloadSpec gray;
        gray.name = "fleet_gray";
        gray.fleet = true;
        gray.minutes = 120;
        gray.targetInvocations = 150'000;
        gray.traceSeed = 1;
        gray.nodes = 64;
        gray.nodeMemoryGb = 8.0;
        gray.faultPlan = R"({"net_link_delay_mean_ms": 5,
            "net_link_delay_cv": 0.5, "net_heavy_tail_prob": 0.05,
            "net_heavy_tail_factor": 40, "net_msg_drop_prob": 0.02,
            "net_msg_retransmit_ms": 200, "net_degraded_rate_per_hour": 24,
            "net_degraded_duration_seconds": 30,
            "net_degraded_exec_slowdown": 8,
            "net_partition_rate_per_hour": 12,
            "net_partition_duration_seconds": 5, "hedge_enabled": true,
            "hedge_latency_factor": 1.2, "hedge_min_samples": 20,
            "hedge_min_budget_ms": 1000, "quarantine_enabled": true,
            "quarantine_latency_factor": 3.0,
            "quarantine_drain_seconds": 30, "quarantine_probe_count": 3})";
        list.push_back(gray);
        return list;
    }();
    return all;
}

const WorkloadSpec*
findWorkload(const std::string& name)
{
    for (const WorkloadSpec& spec : workloads()) {
        if (spec.name == name)
            return &spec;
    }
    return nullptr;
}

WorkloadSpec
reduced(const WorkloadSpec& spec)
{
    WorkloadSpec small = spec;
    small.minutes = spec.fleet ? 20 : 24 * 60;
    small.targetInvocations = spec.fleet ? 20'000 : 30'000;
    small.nodes = std::min<std::size_t>(spec.nodes, 16);
    return small;
}

Replay
replay(const WorkloadSpec& spec, std::uint64_t seed, bool traced)
{
    return spec.fleet ? replayFleet(spec, seed, traced)
                      : replayNode(spec, seed, traced);
}

} // namespace perfbench
