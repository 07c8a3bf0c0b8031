/**
 * @file
 * Tests for the parallel experiment runner: submission-order results,
 * bit-identical output across thread counts (2 seeds x 3 policies),
 * the forEach escape hatch, and exception propagation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "core/ablations.hh"
#include "exp/parallel_runner.hh"
#include "policy/histogram_policy.hh"
#include "policy/openwhisk_fixed.hh"
#include "trace/generator.hh"
#include "trace/replay.hh"
#include "workload/catalog.hh"

namespace rc::exp {
namespace {

std::vector<trace::Arrival>
shortTrace(const workload::Catalog& catalog, std::uint64_t seed)
{
    trace::WorkloadTraceConfig config;
    config.minutes = 20;
    config.targetInvocations = 600;
    config.seed = seed;
    return trace::expandArrivals(trace::generateAzureLike(catalog, config));
}

std::vector<NamedPolicy>
threePolicies(const workload::Catalog& catalog)
{
    std::vector<NamedPolicy> policies;
    policies.push_back({"OpenWhisk", [] {
        return std::make_unique<policy::OpenWhiskFixedPolicy>();
    }});
    policies.push_back({"Histogram", [] {
        return std::make_unique<policy::HistogramPolicy>();
    }});
    policies.push_back({"RainbowCake", [&catalog] {
        return core::makeRainbowCake(catalog);
    }});
    return policies;
}

/** Every field of RunResult the figures consume, compared exactly. */
void
expectIdentical(const RunResult& a, const RunResult& b)
{
    EXPECT_EQ(a.policyName, b.policyName);
    EXPECT_EQ(a.metrics.total(), b.metrics.total());
    for (const auto type :
         {platform::StartupType::Cold, platform::StartupType::Bare,
          platform::StartupType::Lang, platform::StartupType::User,
          platform::StartupType::Load})
        EXPECT_EQ(a.metrics.countOf(type), b.metrics.countOf(type));
    EXPECT_EQ(a.totalStartupSeconds, b.totalStartupSeconds);
    EXPECT_EQ(a.totalWasteMbSeconds, b.totalWasteMbSeconds);
    EXPECT_EQ(a.hitWasteMbSeconds, b.hitWasteMbSeconds);
    EXPECT_EQ(a.neverHitWasteMbSeconds, b.neverHitWasteMbSeconds);
    EXPECT_EQ(a.strandedInvocations, b.strandedInvocations);
    EXPECT_EQ(a.metrics.meanStartupSeconds(), b.metrics.meanStartupSeconds());
    EXPECT_EQ(a.metrics.meanEndToEndSeconds(),
              b.metrics.meanEndToEndSeconds());
}

TEST(ParallelRunner, ResultsArriveInSubmissionOrder)
{
    const auto catalog = workload::Catalog::standard20();
    const auto arrivals = shortTrace(catalog, 7);
    const auto specs =
        specsForPolicies(catalog, threePolicies(catalog), arrivals);

    const auto results = ParallelRunner(4).run(specs);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].policyName, "OpenWhisk");
    EXPECT_EQ(results[1].policyName, "Histogram");
    EXPECT_EQ(results[2].policyName, "RainbowCake");
}

TEST(ParallelRunner, ParallelMatchesSequentialAcrossSeedsAndPolicies)
{
    const auto catalog = workload::Catalog::standard20();
    for (const std::uint64_t seed : {11ull, 42ull}) {
        const auto arrivals = shortTrace(catalog, seed);
        const auto specs =
            specsForPolicies(catalog, threePolicies(catalog), arrivals);

        const auto sequential = ParallelRunner(1).run(specs);
        const auto parallel = ParallelRunner(4).run(specs);
        ASSERT_EQ(sequential.size(), parallel.size());
        for (std::size_t i = 0; i < sequential.size(); ++i)
            expectIdentical(sequential[i], parallel[i]);
    }
}

TEST(ParallelRunner, ForEachVisitsEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> visits(100);
    ParallelRunner(3).forEach(visits.size(), [&](std::size_t i) {
        visits[i].fetch_add(1);
    });
    for (const auto& v : visits)
        EXPECT_EQ(v.load(), 1);
}

TEST(ParallelRunner, ForEachPropagatesJobExceptions)
{
    // The first exception surfaces once every other job has run, on
    // one thread (inline) as on several.
    for (const std::size_t threads : {1u, 2u}) {
        std::atomic<int> ran{0};
        EXPECT_THROW(ParallelRunner(threads).forEach(
                         8,
                         [&](std::size_t i) {
                             if (i == 5)
                                 throw std::runtime_error("job 5");
                             ran.fetch_add(1);
                         }),
                     std::runtime_error)
            << threads << " threads";
        EXPECT_EQ(ran.load(), 7) << threads << " threads";
    }
}

TEST(ParallelRunner, DefaultThreadCountIsPositive)
{
    EXPECT_GE(ParallelRunner::defaultThreadCount(), 1u);
    EXPECT_GE(ParallelRunner().threadCount(), 1u);
}

} // namespace
} // namespace rc::exp
