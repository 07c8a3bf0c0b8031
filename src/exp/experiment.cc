#include "exp/experiment.hh"

#include "core/ablations.hh"
#include "policy/faascache.hh"
#include "policy/histogram_policy.hh"
#include "policy/openwhisk_fixed.hh"
#include "policy/pagurus.hh"
#include "policy/seuss.hh"
#include "trace/arrival_source.hh"

namespace rc::exp {

namespace {

/**
 * Replay @p arrivals (a vector or an ArrivalSource) on a fresh node
 * and move the finished node's metrics and waste log into the result.
 */
template <typename Arrivals>
RunResult
runNode(const workload::Catalog& catalog, const PolicyFactory& factory,
        Arrivals& arrivals, const platform::NodeConfig& config)
{
    platform::Node node(catalog, factory(), config);
    const std::string name = node.policy().name();
    node.run(arrivals);

    RunResult result;
    result.policyName = name;
    result.metrics = node.takeMetrics();
    result.waste = node.pool().takeWasteLog();
    result.totalStartupSeconds = result.metrics.totalStartupSeconds();
    result.totalWasteMbSeconds = result.waste.totalWasteMbSeconds();
    result.hitWasteMbSeconds = result.waste.hitWasteMbSeconds();
    result.neverHitWasteMbSeconds = result.waste.neverHitWasteMbSeconds();
    result.strandedInvocations = node.strandedInvocations();
    result.failedInvocations = node.invoker().failedInvocations();
    result.retriesScheduled = node.invoker().retriesScheduled();
    result.finalizeDrained = node.invoker().finalizeDrained();
    result.rejectedInvocations = node.invoker().rejectedInvocations();
    result.shedDeadline = node.invoker().shedDeadlineCount();
    result.shedPressure = node.invoker().shedPressureCount();
    result.degradedKeepalives = node.invoker().degradedKeepalives();
    result.peakQueueDepth = node.invoker().peakQueueDepth();
    result.observer = config.observer;
    if (config.observer != nullptr)
        result.runId = config.observer->runId();
    return result;
}

} // namespace

RunResult
runExperiment(const workload::Catalog& catalog, const PolicyFactory& factory,
              trace::ArrivalSource& arrivals, platform::NodeConfig config)
{
    return runNode(catalog, factory, arrivals, config);
}

RunResult
runExperiment(const workload::Catalog& catalog, const PolicyFactory& factory,
              const std::vector<trace::Arrival>& arrivals,
              platform::NodeConfig config)
{
    return runNode(catalog, factory, arrivals, config);
}

RunResult
runExperiment(const workload::Catalog& catalog, const PolicyFactory& factory,
              const trace::TraceSet& set, platform::NodeConfig config)
{
    auto source = trace::TraceSetArrivalSource::borrowing(set);
    return runNode(catalog, factory, source, config);
}

std::vector<NamedPolicy>
standardBaselines(const workload::Catalog& catalog)
{
    std::vector<NamedPolicy> out;
    out.push_back({"OpenWhisk", [] {
        return std::make_unique<policy::OpenWhiskFixedPolicy>();
    }});
    out.push_back({"Histogram", [] {
        return std::make_unique<policy::HistogramPolicy>();
    }});
    out.push_back({"FaaSCache", [] {
        return std::make_unique<policy::FaasCachePolicy>();
    }});
    out.push_back({"SEUSS", [] {
        return std::make_unique<policy::SeussPolicy>();
    }});
    out.push_back({"Pagurus", [] {
        return std::make_unique<policy::PagurusPolicy>();
    }});
    out.push_back({"RainbowCake", [&catalog] {
        return core::makeRainbowCake(catalog);
    }});
    return out;
}

} // namespace rc::exp
