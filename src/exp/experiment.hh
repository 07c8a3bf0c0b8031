/**
 * @file
 * Shared experiment harness: run (policy x trace x catalog) to
 * completion and collect everything the paper's figures need.
 *
 * Every bench binary builds on these helpers so that all baselines
 * are compared under identical traces, seeds, and node configuration.
 */

#ifndef RC_EXP_EXPERIMENT_HH_
#define RC_EXP_EXPERIMENT_HH_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "platform/node.hh"
#include "policy/policy.hh"
#include "stats/interval_log.hh"
#include "trace/arrival_source.hh"
#include "trace/trace_set.hh"
#include "workload/catalog.hh"

namespace rc::exp {

/** Creates a fresh policy instance per run. */
using PolicyFactory = std::function<std::unique_ptr<policy::Policy>()>;

/** A named policy factory (for tables). */
struct NamedPolicy
{
    std::string label;
    PolicyFactory make;
};

/** Everything collected from one run. */
struct RunResult
{
    std::string policyName;
    platform::Metrics metrics;
    stats::IntervalLog waste;
    double totalStartupSeconds = 0.0;
    double totalWasteMbSeconds = 0.0;
    double hitWasteMbSeconds = 0.0;
    double neverHitWasteMbSeconds = 0.0;
    std::size_t strandedInvocations = 0;

    /** rc::fault accounting (all zero on fault-free runs). */
    std::uint64_t failedInvocations = 0;
    std::uint64_t retriesScheduled = 0;
    std::uint64_t finalizeDrained = 0;

    /** rc::admission accounting (all zero on uncontrolled runs). */
    std::uint64_t rejectedInvocations = 0;
    std::uint64_t shedDeadline = 0;
    std::uint64_t shedPressure = 0;
    std::uint64_t degradedKeepalives = 0;
    std::size_t peakQueueDepth = 0;

    /**
     * Artifact tag of this run (the observer's runId, or empty when
     * the run was uninstrumented). ParallelRunner and rainbow_sim use
     * it to name per-run trace/event files.
     */
    std::string runId;
    /**
     * The observer the run was instrumented with, or nullptr.
     * Non-owning: points at the caller's NodeConfig::observer, which
     * holds the run's events, counters, and profile after run().
     */
    obs::Observer* observer = nullptr;

    /** Total waste in GB*s (the unit of Figs. 9 and 12c). */
    double wasteGbSeconds() const { return totalWasteMbSeconds / 1024.0; }
};

/**
 * Run @p factory's policy over @p arrivals on a fresh node. The
 * node's metrics and waste log move into the result, not copied.
 */
RunResult runExperiment(const workload::Catalog& catalog,
                        const PolicyFactory& factory,
                        trace::ArrivalSource& arrivals,
                        platform::NodeConfig config = {});

/** Run over a materialized vector, in any order (see Node::run). */
RunResult runExperiment(const workload::Catalog& catalog,
                        const PolicyFactory& factory,
                        const std::vector<trace::Arrival>& arrivals,
                        platform::NodeConfig config = {});

/** Stream @p set's expansion without materializing or copying it. */
RunResult runExperiment(const workload::Catalog& catalog,
                        const PolicyFactory& factory,
                        const trace::TraceSet& set,
                        platform::NodeConfig config = {});

/**
 * The paper's six §7.2 baselines in presentation order: OpenWhisk,
 * Histogram, FaaSCache, SEUSS, Pagurus, RainbowCake.
 */
std::vector<NamedPolicy>
standardBaselines(const workload::Catalog& catalog);

} // namespace rc::exp

#endif // RC_EXP_EXPERIMENT_HH_
