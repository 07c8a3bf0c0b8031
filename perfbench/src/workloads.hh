/**
 * @file
 * The benchmark's workloads and one replay of each.
 *
 * A replay builds a workload's inputs from a seed (setup), runs one
 * simulation to completion (the timed call), checks the modelled
 * output against the conservation identities, and hashes it into a
 * digest. A traced replay runs the same inputs with the layer
 * wrappers of layer_trace.hh switched on and reports per-layer
 * metrics; its digest must equal the untraced one.
 */

#ifndef PERFBENCH_WORKLOADS_HH_
#define PERFBENCH_WORKLOADS_HH_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "layer_trace.hh"

namespace perfbench {

/** One workload: an input recipe plus the core that replays it. */
struct WorkloadSpec
{
    std::string name;
    /** ShardedCluster when true; one Node through exp::runExperiment
     *  when false. */
    bool fleet = false;
    /** Catalog::syntheticFleet(functions, 7); 0 selects standard20(). */
    std::size_t functions = 0;
    /** Trace length and generateAzureLike target volume. */
    std::size_t minutes = 0;
    std::uint64_t targetInvocations = 0;
    /**
     * generateAzureLike seed; 0 draws the trace from the replay seed.
     * A fleet trace is short and carried almost entirely by its two
     * head functions, whose profiles the seed picks, so a fleet keeps
     * one trace and its replay seed drives execution, crash and
     * network draws instead.
     */
    std::uint64_t traceSeed = 0;
    std::size_t nodes = 1;
    double nodeMemoryGb = 0.0;
    /** Shards, each stepped on its own thread. */
    std::size_t shards = 1;
    /** Flat-JSON fault plan (fault::parseFaultPlan). */
    std::string faultPlan = "{}";
};

/** The shipped workloads, in BENCHMARK.json order. */
const std::vector<WorkloadSpec>& workloads();

/** The workload named @p name, or nullptr. */
const WorkloadSpec* findWorkload(const std::string& name);

/**
 * A small copy of @p spec for tests: the same core, plan and shard
 * count over a much shorter trace and fewer nodes.
 */
WorkloadSpec reduced(const WorkloadSpec& spec);

/** Everything one replay measured. */
struct Replay
{
    /** Hash of the modelled outputs; host-side counters excluded. */
    std::string digest;
    /** Failed correctness checks; empty when the replay is correct. */
    std::vector<std::string> gateErrors;
    /** Simulated arrivals offered, and invocations completed. */
    std::uint64_t arrivals = 0;
    std::uint64_t completed = 0;
    /** Median wall time of the repeated set-ups. */
    double setupSeconds = 0.0;
    /** Wall time of the timed simulation call. */
    double runSeconds = 0.0;
    /** The modelled outcomes the paper reports (§7.2). */
    double simMeanStartupSeconds = 0.0;
    double simColdRatio = 0.0;
    double simWasteGbSeconds = 0.0;
    double simE2eP99Seconds = 0.0;
    /** Per-layer metrics of a traced replay, in report order. */
    std::vector<std::pair<std::string, double>> layers;
    std::vector<Span> spans;
};

/** Replay @p spec once with inputs drawn from @p seed. */
Replay replay(const WorkloadSpec& spec, std::uint64_t seed, bool traced);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH_
