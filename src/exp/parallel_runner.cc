#include "exp/parallel_runner.hh"

#include <algorithm>
#include <cstdlib>

#include "sim/shard_executor.hh"

namespace rc::exp {

ParallelRunner::ParallelRunner(std::size_t threads)
    : _threads(threads == 0 ? defaultThreadCount() : threads)
{
}

std::size_t
ParallelRunner::defaultThreadCount()
{
    if (const char* env = std::getenv("RC_THREADS")) {
        const long parsed = std::strtol(env, nullptr, 10);
        if (parsed > 0)
            return static_cast<std::size_t>(parsed);
    }
    return sim::usableCpus();
}

void
ParallelRunner::forEach(std::size_t count,
                        const std::function<void(std::size_t)>& fn) const
{
    // One round on a crew sized for this sweep. A single-threaded
    // sweep spawns nothing and runs the jobs inline, in index order.
    sim::ShardExecutor(std::min(_threads, count)).runRound(count, fn);
}

std::vector<RunResult>
ParallelRunner::run(const std::vector<RunSpec>& specs) const
{
    std::vector<RunResult> results(specs.size());
    forEach(specs.size(), [&](std::size_t i) {
        const RunSpec& spec = specs[i];
        if (spec.config.observer != nullptr && !spec.runId.empty())
            spec.config.observer->setRunId(spec.runId);
        results[i] = runExperiment(*spec.catalog, spec.make,
                                   *spec.arrivals, spec.config);
    });
    return results;
}

std::vector<RunSpec>
specsForPolicies(const workload::Catalog& catalog,
                 const std::vector<NamedPolicy>& policies,
                 const std::vector<trace::Arrival>& arrivals,
                 platform::NodeConfig config)
{
    std::vector<RunSpec> specs;
    specs.reserve(policies.size());
    for (const auto& policy : policies)
        specs.push_back(RunSpec{&catalog, policy.make, &arrivals, config, {}});
    return specs;
}

} // namespace rc::exp
