#include "exp/parallel_runner.hh"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

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
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void
ParallelRunner::forEach(std::size_t count,
                        const std::function<void(std::size_t)>& fn) const
{
    if (count == 0)
        return;

    std::atomic<std::size_t> next{0};
    std::exception_ptr firstError;
    std::mutex errorMutex;

    const auto worker = [&] {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            try {
                fn(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(errorMutex);
                if (!firstError)
                    firstError = std::current_exception();
            }
        }
    };

    const std::size_t workers = std::min(_threads, count);
    if (workers <= 1) {
        // Single-threaded sweeps run inline: no pool overhead and the
        // exact same job order as the pre-runner sequential loops.
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::size_t t = 0; t < workers; ++t)
            pool.emplace_back(worker);
        for (auto& thread : pool)
            thread.join();
    }

    if (firstError)
        std::rethrow_exception(firstError);
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
