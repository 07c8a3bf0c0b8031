/**
 * @file
 * rainbow_sim — command-line driver for the RainbowCake simulator.
 *
 * Runs one policy over one workload and prints the summary table,
 * optional timelines, and optional per-function breakdowns. Typical
 * uses:
 *
 *   rainbow_sim                                   # defaults
 *   rainbow_sim --policy openwhisk --minutes 480
 *   rainbow_sim --policy rainbowcake --checkpoint --budget-gb 64
 *   rainbow_sim --cv 2.0                          # a Fig.12 trace
 *   rainbow_sim --trace my_azure.csv --minutes 1440
 *   rainbow_sim --all --timelines                 # all six baselines
 */

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "admission/admission_plan.hh"
#include "core/ablations.hh"
#include "core/checkpoint.hh"
#include "fault/domain_plan.hh"
#include "fault/fault_plan.hh"
#include "obs/export.hh"
#include "obs/observer.hh"
#include "exp/cluster_run.hh"
#include "exp/experiment.hh"
#include "exp/parallel_runner.hh"
#include "exp/csv.hh"
#include "exp/report.hh"
#include "exp/standard_traces.hh"
#include "stats/table.hh"
#include "trace/arrival_source.hh"
#include "trace/azure_io.hh"
#include "trace/replay.hh"
#include "trace/generator.hh"
#include "trace/sampler.hh"
#include "workload/catalog.hh"
#include "workload/catalog_io.hh"

namespace {

using namespace rc;

struct Options
{
    std::string policy = "rainbowcake";
    bool all = false;
    bool checkpoint = false;
    bool timelines = false;
    bool perFunction = false;
    std::size_t minutes = 480;
    std::uint64_t invocations = 0; // 0: scale with minutes
    double budgetGb = 240.0;
    std::uint64_t seed = 20240427;
    double cv = -1.0;          // >= 0: use a CV-targeted trace
    std::string traceFile;     // non-empty: load Azure CSV
    std::string csvDir;        // non-empty: dump CSVs per policy
    std::string catalogFile;   // non-empty: load a custom catalog CSV
    std::size_t threads = 0;   // 0: ParallelRunner default
    std::string traceOut;      // non-empty: write Chrome trace JSON
    std::string eventsOut;     // non-empty: write JSONL event dump
    std::string spansOut;      // non-empty: write JSONL span dump
    std::string reportJson;    // non-empty: write machine-readable report
    std::size_t maxEvents = 0; // event-buffer cap; 0 = unlimited
    std::size_t maxSpans = 0;  // span-buffer cap; 0 = unlimited
    std::string faultPlan;     // non-empty: load a fault plan file
    std::string admissionPlan; // non-empty: load an admission plan file
    std::string domainPlan;    // non-empty: load a domain plan file
    double obsIntervalSeconds = 60.0; // counter snapshot interval
    std::size_t nodes = 0;     // > 0: cluster mode
    std::optional<std::size_t> shards; // cluster mode; unset: 1
    bool stream = false;       // cluster mode: pull-based arrivals
    bool phaseTimings = false; // cluster mode: coordinator breakdown
    std::string scheduling = "locality-aware"; // cluster routing

    /** Any artifact flag turns instrumentation on. */
    bool
    observabilityEnabled() const
    {
        return !traceOut.empty() || !eventsOut.empty() ||
               !spansOut.empty() || !reportJson.empty();
    }
};

[[noreturn]] void
usage(int code)
{
    std::cout <<
        "rainbow_sim [options]\n"
        "  --policy NAME     openwhisk | histogram | faascache | seuss |\n"
        "                    pagurus | rainbowcake | rc-nosharing |\n"
        "                    rc-nolayers (default rainbowcake)\n"
        "  --all             run all six baselines and compare\n"
        "  --checkpoint      wrap the policy with checkpoint/restore\n"
        "  --minutes N       trace horizon (default 480)\n"
        "  --invocations N   target invocation count (default 16.7/min)\n"
        "  --budget-gb G     node memory budget (default 240)\n"
        "  --seed S          trace seed (default 20240427)\n"
        "  --cv C            use a CV-targeted 1-hour trace instead\n"
        "  --trace FILE      load an Azure-format CSV trace\n"
        "  --catalog FILE    load a custom function-catalog CSV\n"
        "  --threads N       worker threads for --all sweeps\n"
        "                    (default: RC_THREADS or the CPUs in the\n"
        "                    affinity mask)\n"
        "  --timelines       print waste/latency timelines\n"
        "  --csv-dir DIR     write per-policy CSV dumps into DIR\n"
        "  --per-function    print per-function latency averages\n"
        "  --trace-out FILE  write a Chrome trace (Perfetto-loadable);\n"
        "                    with --all, files are tagged per policy\n"
        "  --events-out FILE write a JSONL structured event dump\n"
        "  --spans-out FILE  write a JSONL per-invocation span dump\n"
        "                    (schema rainbowcake-spans-v1; feed it to\n"
        "                    trace_analyze for cold-start attribution)\n"
        "  --max-events N    cap the event buffer at N (0 = unlimited);\n"
        "                    overflow counts into trace_dropped\n"
        "  --max-spans N     cap the span buffer at N (0 = unlimited)\n"
        "  --report-json FILE\n"
        "                    write the comparison as JSON\n"
        "                    (schema rainbowcake-report-v1)\n"
        "  --obs-interval S  counter snapshot interval in seconds\n"
        "                    (default 60)\n"
        "  --nodes N         cluster mode: route the trace across N\n"
        "                    worker nodes (budget-gb is per node)\n"
        "  --shards N        cluster mode: step nodes in N >= 1 parallel\n"
        "                    shards (default 1; results are\n"
        "                    bit-identical at any N)\n"
        "  --stream          cluster mode: pull arrivals from the\n"
        "                    trace lazily instead of materializing\n"
        "                    them (O(window) memory, bit-identical\n"
        "                    results)\n"
        "  --phase-timings   cluster mode: measure the coordinator\n"
        "                    wall-clock breakdown and, with --csv-dir,\n"
        "                    write coordinator_phases.csv (the numbers\n"
        "                    are host-dependent; the pinned CSVs stay\n"
        "                    byte-identical either way)\n"
        "  --scheduling P    round-robin | least-loaded |\n"
        "                    locality-aware (default)\n"
        "  --fault-plan FILE inject faults per the plan (flat JSON;\n"
        "                    see src/fault/fault_plan.hh for knobs)\n"
        "  --admission-plan FILE\n"
        "                    overload control per the plan (flat JSON;\n"
        "                    see src/admission/admission_plan.hh)\n"
        "  --domain-plan FILE\n"
        "                    correlated failure domains + recovery\n"
        "                    orchestration (nested JSON; see\n"
        "                    src/fault/domain_plan.hh); needs --nodes\n"
        "  --help            this text\n";
    std::exit(code);
}

Options
parseArgs(int argc, char** argv)
{
    Options options;
    auto need = [&](int& i) -> const char* {
        if (i + 1 >= argc) {
            std::cerr << "missing value for " << argv[i] << "\n";
            usage(2);
        }
        return argv[++i];
    };
    std::string arg;
    try {
        for (int i = 1; i < argc; ++i) {
            arg = argv[i];
            if (arg == "--policy") {
                options.policy = need(i);
            } else if (arg == "--all") {
                options.all = true;
            } else if (arg == "--checkpoint") {
                options.checkpoint = true;
            } else if (arg == "--minutes") {
                options.minutes = static_cast<std::size_t>(
                    std::stoul(need(i)));
            } else if (arg == "--invocations") {
                options.invocations = std::stoull(need(i));
            } else if (arg == "--budget-gb") {
                options.budgetGb = std::stod(need(i));
            } else if (arg == "--seed") {
                options.seed = std::stoull(need(i));
            } else if (arg == "--cv") {
                options.cv = std::stod(need(i));
            } else if (arg == "--trace") {
                options.traceFile = need(i);
            } else if (arg == "--catalog") {
                options.catalogFile = need(i);
            } else if (arg == "--csv-dir") {
                options.csvDir = need(i);
            } else if (arg == "--threads") {
                options.threads = static_cast<std::size_t>(
                    std::stoul(need(i)));
            } else if (arg == "--trace-out") {
                options.traceOut = need(i);
            } else if (arg == "--events-out") {
                options.eventsOut = need(i);
            } else if (arg == "--spans-out") {
                options.spansOut = need(i);
            } else if (arg == "--max-events") {
                options.maxEvents = static_cast<std::size_t>(
                    std::stoul(need(i)));
            } else if (arg == "--max-spans") {
                options.maxSpans = static_cast<std::size_t>(
                    std::stoul(need(i)));
            } else if (arg == "--report-json") {
                options.reportJson = need(i);
            } else if (arg == "--fault-plan") {
                options.faultPlan = need(i);
            } else if (arg == "--admission-plan") {
                options.admissionPlan = need(i);
            } else if (arg == "--domain-plan") {
                options.domainPlan = need(i);
            } else if (arg == "--nodes") {
                options.nodes = static_cast<std::size_t>(
                    std::stoul(need(i)));
            } else if (arg == "--shards") {
                options.shards = static_cast<std::size_t>(
                    std::stoul(need(i)));
                if (*options.shards == 0) {
                    std::cerr << "--shards must be at least 1\n";
                    usage(2);
                }
            } else if (arg == "--stream") {
                options.stream = true;
            } else if (arg == "--phase-timings") {
                options.phaseTimings = true;
            } else if (arg == "--scheduling") {
                options.scheduling = need(i);
            } else if (arg == "--obs-interval") {
                options.obsIntervalSeconds = std::stod(need(i));
                if (options.obsIntervalSeconds <= 0.0)
                    throw std::invalid_argument("non-positive interval");
            } else if (arg == "--timelines") {
                options.timelines = true;
            } else if (arg == "--per-function") {
                options.perFunction = true;
            } else if (arg == "--help" || arg == "-h") {
                usage(0);
            } else {
                std::cerr << "unknown option " << arg << "\n";
                usage(2);
            }
        }
    } catch (const std::invalid_argument&) {
        std::cerr << "bad value for " << arg << "\n";
        usage(2);
    } catch (const std::out_of_range&) {
        std::cerr << "value out of range for " << arg << "\n";
        usage(2);
    }
    return options;
}

cluster::Scheduling
parseScheduling(const std::string& name)
{
    if (name == "round-robin")
        return cluster::Scheduling::RoundRobin;
    if (name == "least-loaded")
        return cluster::Scheduling::LeastLoaded;
    if (name == "locality-aware")
        return cluster::Scheduling::LocalityAware;
    std::cerr << "unknown scheduling '" << name << "'\n";
    usage(2);
}

obs::ObserverConfig observerConfig(const Options& options);
std::string policySlug(const std::string& name);

/** Cluster mode: route the trace across nodes, print, dump CSVs. */
int
runClusterMode(const Options& options, const workload::Catalog& catalog,
               const trace::TraceSet& traceSet,
               platform::NodeConfig nodeConfig,
               const exp::PolicyFactory& factory)
{
    exp::ClusterRunConfig config;
    config.nodes = options.nodes;
    config.scheduling = parseScheduling(options.scheduling);
    config.shards = options.shards.value_or(1);
    config.threads = options.threads;

    // The cluster harness keeps this observer for routing events and
    // for the merged per-node span buffers (the nodes themselves run
    // uninstrumented; see ShardedCluster's ctor).
    std::unique_ptr<obs::Observer> observer;
    if (options.observabilityEnabled()) {
        observer = std::make_unique<obs::Observer>(
            observerConfig(options));
        observer->setRunId(policySlug(options.policy));
        nodeConfig.observer = observer.get();
    }
    config.node = nodeConfig;
    config.phaseTimings = options.phaseTimings;

    cluster::ClusterResult result;
    if (options.stream) {
        // Pull-based: the coordinator holds only the current window's
        // arrivals; the TraceSet's per-minute buckets are the compact
        // backing store.
        trace::TraceSetArrivalSource source(traceSet);
        result = exp::runCluster(catalog, factory, source, config);
    } else {
        const auto arrivals = trace::expandArrivals(traceSet);
        result = exp::runCluster(catalog, factory, arrivals, config);
    }

    std::cout << "cluster: " << options.nodes << " nodes, "
              << result.schedulingName << " routing, "
              << std::min(config.shards, options.nodes) << " shards ("
              << result.windows << " windows)\n"
              << "  invocations " << result.invocations << " (cold "
              << result.coldStarts << ", mean startup "
              << result.meanStartupSeconds << " s)\n"
              << "  waste " << result.totalWasteMbSeconds / 1024.0
              << " GB*s, stranded " << result.strandedInvocations
              << "\n"
              << "  crashes " << result.nodeCrashes << ", rerouted "
              << result.reroutedInvocations << ", failed "
              << result.failedInvocations << "\n"
              << "  rejected " << result.rejectedInvocations
              << ", shed " << result.shedDeadline << "+"
              << result.shedPressure << ", breaker opens "
              << result.breakerOpens << "\n"
              << "  admitted " << result.admittedInvocations
              << ", engine events " << result.engineEvents << "\n"
              << "  e2e sketch p50 " << result.e2eP50Seconds
              << " s, p99 " << result.e2eP99Seconds << " s\n";
    if (options.phaseTimings) {
        std::cout << "  coordinator " << result.coordinatorDrainNs
                  << " ns (route " << result.routeNs << ", summary "
                  << result.summaryCaptureNs << "), parallel "
                  << result.parallelNs << " ns (barrier wait "
                  << result.barrierWaitNs << "), serial fraction "
                  << result.serialFraction << "\n";
    }

    if (observer != nullptr) {
        if (!options.traceOut.empty()) {
            std::ofstream out(options.traceOut);
            if (!out) {
                std::cerr << "cannot write " << options.traceOut << "\n";
                return 2;
            }
            obs::writeChromeTrace(out, *observer);
            std::cout << "chrome trace written to " << options.traceOut
                      << "\n";
        }
        if (!options.eventsOut.empty()) {
            std::ofstream out(options.eventsOut);
            if (!out) {
                std::cerr << "cannot write " << options.eventsOut
                          << "\n";
                return 2;
            }
            obs::writeJsonlEvents(out, *observer);
            std::cout << "event dump written to " << options.eventsOut
                      << "\n";
        }
        if (!options.spansOut.empty()) {
            std::ofstream out(options.spansOut);
            if (!out) {
                std::cerr << "cannot write " << options.spansOut << "\n";
                return 2;
            }
            obs::writeJsonlSpans(out, *observer);
            std::cout << "span dump written to " << options.spansOut
                      << "\n";
        }
        if (!options.reportJson.empty()) {
            std::cerr << "--report-json is per-policy output; not "
                         "written in cluster mode\n";
        }
    }

    if (!options.csvDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(options.csvDir, ec);
        if (ec) {
            std::cerr << "cannot create --csv-dir " << options.csvDir
                      << ": " << ec.message() << "\n";
            return 2;
        }
        std::ofstream summary(options.csvDir + "/cluster_summary.csv");
        exp::writeClusterSummaryCsv(summary, result);
        std::ofstream perNode(options.csvDir + "/cluster_per_node.csv");
        exp::writeClusterPerNodeCsv(perNode, result);
        if (options.phaseTimings) {
            // Sidecar, never part of the byte-diffed determinism set:
            // wall-clock numbers differ run to run by construction.
            std::ofstream phases(options.csvDir +
                                 "/coordinator_phases.csv");
            phases << "coordinator_drain_ns,route_ns,"
                      "summary_capture_ns,parallel_ns,barrier_wait_ns,"
                      "serial_fraction\n"
                   << result.coordinatorDrainNs << ','
                   << result.routeNs << ',' << result.summaryCaptureNs
                   << ',' << result.parallelNs << ','
                   << result.barrierWaitNs << ','
                   << result.serialFraction << '\n';
        }
        std::cout << "\nCSV dumps written to " << options.csvDir << "\n";
    }
    return 0;
}

exp::PolicyFactory
makeFactory(const std::string& name, const workload::Catalog& catalog,
            bool checkpoint)
{
    exp::PolicyFactory base;
    for (const auto& policy : exp::standardBaselines(catalog)) {
        std::string key = policy.label;
        for (auto& c : key)
            c = static_cast<char>(std::tolower(c));
        if (key == name)
            base = policy.make;
    }
    if (name == "rc-nosharing") {
        base = [&catalog] { return core::makeRainbowCakeNoSharing(catalog); };
    } else if (name == "rc-nolayers") {
        base = [&catalog] { return core::makeRainbowCakeNoLayers(catalog); };
    }
    if (!base) {
        std::cerr << "unknown policy '" << name << "'\n";
        usage(2);
    }
    if (!checkpoint)
        return base;
    return [base] {
        return std::make_unique<core::CheckpointPolicy>(base());
    };
}

trace::TraceSet
buildTrace(const Options& options, const workload::Catalog& catalog)
{
    if (!options.traceFile.empty()) {
        std::ifstream in(options.traceFile);
        if (!in) {
            std::cerr << "cannot open " << options.traceFile << "\n";
            std::exit(2);
        }
        return trace::loadAzureCsv(in, catalog, options.minutes);
    }
    if (options.cv >= 0.0) {
        trace::CvSampleConfig config;
        config.minutes = options.minutes;
        config.invocations = options.invocations
                                 ? options.invocations
                                 : options.minutes * 60;
        config.targetCv = options.cv;
        config.seed = options.seed;
        return trace::sampleWithTargetCv(catalog, config);
    }
    trace::WorkloadTraceConfig config;
    config.minutes = options.minutes;
    config.targetInvocations =
        options.invocations ? options.invocations
                            : options.minutes * 50 / 3;
    config.seed = options.seed;
    return trace::generateAzureLike(catalog, config);
}

std::string
policySlug(const std::string& name)
{
    std::string slug = name;
    for (auto& c : slug) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return slug;
}

/** "trace.json" + tag "seuss" -> "trace.seuss.json" (multi-run). */
std::string
taggedPath(const std::string& path, const std::string& tag, bool multiple)
{
    if (!multiple || tag.empty())
        return path;
    const auto dot = path.rfind('.');
    const auto slash = path.rfind('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash)) {
        return path + "." + tag;
    }
    return path.substr(0, dot) + "." + tag + path.substr(dot);
}

obs::ObserverConfig
observerConfig(const Options& options)
{
    obs::ObserverConfig config;
    // The event buffer is only worth filling when an event artifact
    // was requested; counters and profiling are cheap and always on.
    config.traceEnabled =
        !options.traceOut.empty() || !options.eventsOut.empty();
    config.profilingEnabled = true;
    config.counterInterval = sim::fromSeconds(options.obsIntervalSeconds);
    config.maxEvents = options.maxEvents;
    config.spansEnabled = !options.spansOut.empty();
    config.maxSpans = options.maxSpans;
    return config;
}

void
writeArtifacts(const Options& options,
               const std::vector<exp::RunResult>& results)
{
    const bool multiple = results.size() > 1;
    for (const auto& result : results) {
        obs::Observer* observer = result.observer;
        if (observer == nullptr)
            continue;
        const obs::ScopedTimer timer(observer->profiler(),
                                     obs::Scope::Export);
        if (!options.traceOut.empty()) {
            const std::string path =
                taggedPath(options.traceOut, result.runId, multiple);
            std::ofstream out(path);
            if (!out) {
                std::cerr << "cannot write " << path << "\n";
                std::exit(2);
            }
            obs::writeChromeTrace(out, *observer);
            std::cout << "chrome trace written to " << path << "\n";
        }
        if (!options.eventsOut.empty()) {
            const std::string path =
                taggedPath(options.eventsOut, result.runId, multiple);
            std::ofstream out(path);
            if (!out) {
                std::cerr << "cannot write " << path << "\n";
                std::exit(2);
            }
            obs::writeJsonlEvents(out, *observer);
            std::cout << "event dump written to " << path << "\n";
        }
        if (!options.spansOut.empty()) {
            const std::string path =
                taggedPath(options.spansOut, result.runId, multiple);
            std::ofstream out(path);
            if (!out) {
                std::cerr << "cannot write " << path << "\n";
                std::exit(2);
            }
            obs::writeJsonlSpans(out, *observer);
            std::cout << "span dump written to " << path << "\n";
        }
    }
    // The report aggregates all runs, so it is written once, last —
    // after the per-run exports above charged their Export scopes.
    if (!options.reportJson.empty()) {
        std::ofstream out(options.reportJson);
        if (!out) {
            std::cerr << "cannot write " << options.reportJson << "\n";
            std::exit(2);
        }
        exp::writeReportJson(out, "rainbow_sim", results);
        std::cout << "report written to " << options.reportJson << "\n";
    }
}

} // namespace

int
main(int argc, char** argv)
{
    const Options options = parseArgs(argc, argv);
    if (options.shards && options.nodes == 0) {
        std::cerr << "--shards requires --nodes\n";
        return 2;
    }
    if ((options.stream || options.phaseTimings) && options.nodes == 0) {
        std::cerr << "--stream and --phase-timings require --nodes\n";
        return 2;
    }
    workload::Catalog catalog = workload::Catalog::standard20();
    if (!options.catalogFile.empty()) {
        std::ifstream in(options.catalogFile);
        if (!in) {
            std::cerr << "cannot open " << options.catalogFile << "\n";
            return 2;
        }
        catalog = workload::loadCatalogCsv(in);
        std::cout << "loaded custom catalog: " << catalog.size()
                  << " functions\n";
    }
    const auto traceSet = buildTrace(options, catalog);

    std::cout << "workload: " << traceSet.totalInvocations()
              << " invocations / " << traceSet.durationMinutes()
              << " min; node budget " << options.budgetGb << " GB\n\n";

    platform::NodeConfig nodeConfig;
    nodeConfig.pool.memoryBudgetMb = options.budgetGb * 1024.0;
    if (!options.faultPlan.empty()) {
        std::string error;
        if (!fault::loadFaultPlanFile(options.faultPlan,
                                      nodeConfig.fault, &error)) {
            std::cerr << "bad fault plan: " << error << "\n";
            return 2;
        }
        std::cout << "fault plan loaded from " << options.faultPlan
                  << (nodeConfig.fault.active() ? "" : " (all knobs zero)")
                  << "\n";
    }
    if (!options.admissionPlan.empty()) {
        std::string error;
        if (!admission::loadAdmissionPlanFile(options.admissionPlan,
                                              nodeConfig.admission,
                                              &error)) {
            std::cerr << "bad admission plan: " << error << "\n";
            return 2;
        }
        std::cout << "admission plan loaded from "
                  << options.admissionPlan
                  << (nodeConfig.admission.active() ? ""
                                                    : " (all knobs zero)")
                  << "\n";
    }
    if (!options.domainPlan.empty()) {
        if (options.nodes == 0) {
            std::cerr << "--domain-plan requires --nodes\n";
            return 2;
        }
        std::string error;
        if (!fault::loadDomainPlanFile(options.domainPlan,
                                       nodeConfig.fault.domain,
                                       &error)) {
            std::cerr << "bad domain plan: " << error << "\n";
            return 2;
        }
        if (!fault::validateDomainPlan(nodeConfig.fault.domain,
                                       options.nodes, &error)) {
            std::cerr << "bad domain plan: " << error << "\n";
            return 2;
        }
        std::cout << "domain plan loaded from " << options.domainPlan
                  << (nodeConfig.fault.domain.active()
                          ? "" : " (all knobs zero)")
                  << "\n";
    }

    if (options.nodes > 0) {
        return runClusterMode(
            options, catalog, traceSet, nodeConfig,
            makeFactory(options.policy, catalog, options.checkpoint));
    }
    // One Observer per run (never shared: an Observer is single-run
    // state); kept alive here because RunResult::observer only points.
    std::vector<std::unique_ptr<obs::Observer>> observers;

    std::vector<exp::RunResult> results;
    if (options.all) {
        // Fan the six baselines out across cores; results come back
        // in submission order and are identical to a sequential run.
        const auto arrivals = trace::expandArrivals(traceSet);
        std::vector<exp::RunSpec> specs;
        for (const auto& policy : exp::standardBaselines(catalog)) {
            auto factory = options.checkpoint
                ? makeFactory([&] {
                      std::string key = policy.label;
                      for (auto& c : key)
                          c = static_cast<char>(std::tolower(c));
                      return key;
                  }(), catalog, true)
                : policy.make;
            exp::RunSpec spec{&catalog, std::move(factory), &arrivals,
                              nodeConfig, {}};
            if (options.observabilityEnabled()) {
                observers.push_back(std::make_unique<obs::Observer>(
                    observerConfig(options)));
                spec.config.observer = observers.back().get();
                spec.runId = policySlug(policy.label);
            }
            specs.push_back(std::move(spec));
        }
        results = exp::ParallelRunner(options.threads).run(specs);
    } else {
        if (options.observabilityEnabled()) {
            observers.push_back(std::make_unique<obs::Observer>(
                observerConfig(options)));
            observers.back()->setRunId(policySlug(options.policy));
            nodeConfig.observer = observers.back().get();
        }
        results.push_back(exp::runExperiment(
            catalog,
            makeFactory(options.policy, catalog, options.checkpoint),
            traceSet, nodeConfig));
    }

    exp::printSummaryTable(std::cout, "rainbow_sim", results);

    if (options.observabilityEnabled())
        writeArtifacts(options, results);

    if (!options.csvDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(options.csvDir, ec);
        if (ec) {
            std::cerr << "cannot create --csv-dir " << options.csvDir
                      << ": " << ec.message() << "\n";
            return 2;
        }
        std::ofstream summary(options.csvDir + "/summary.csv");
        exp::writeSummaryCsv(summary, results);
        for (const auto& result : results) {
            std::string slug = result.policyName;
            for (auto& c : slug) {
                if (!std::isalnum(static_cast<unsigned char>(c)))
                    c = '_';
            }
            std::ofstream inv(options.csvDir + "/" + slug +
                              "_invocations.csv");
            exp::writeInvocationsCsv(inv, result.metrics);
            std::ofstream waste(options.csvDir + "/" + slug +
                                "_waste.csv");
            exp::writeWasteCsv(waste, result.waste);
        }
        std::cout << "\nCSV dumps written to " << options.csvDir << "\n";
    }

    if (options.timelines) {
        for (const auto& result : results) {
            std::cout << "\n== " << result.policyName << " ==\n";
            exp::printTimeline(std::cout, "memory waste (MB*s/min)",
                               result.waste.timeline(), 24);
            exp::printTimeline(std::cout, "cumulative E2E latency (s)",
                               result.metrics.endToEndTimeline(), 24,
                               /*cumulative=*/true);
        }
    }
    if (options.perFunction) {
        for (const auto& result : results) {
            stats::Table table(result.policyName +
                               ": per-function averages (s)");
            table.setHeader({"Function", "MeanStartup", "MeanE2E",
                             "Invocations"});
            for (const auto& profile : catalog) {
                const auto startup =
                    result.metrics.startupByFunction(profile.id());
                const auto e2e =
                    result.metrics.endToEndByFunction(profile.id());
                table.row()
                    .text(profile.shortName())
                    .num(startup.mean(), 3)
                    .num(e2e.mean(), 3)
                    .integer(static_cast<long long>(startup.count()));
            }
            std::cout << '\n';
            table.print(std::cout);
        }
    }
    return 0;
}
