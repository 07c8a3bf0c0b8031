#include "core/tiered.hh"

#include "sim/logging.hh"

namespace rc::core {

TieredCachePolicy::TieredCachePolicy(std::unique_ptr<policy::Policy> base,
                                     TieredConfig config)
    : PolicyDecorator(std::move(base)), _config(config)
{
    if (config.nvmCostFactor <= 0.0 || config.nvmCostFactor > 1.0)
        sim::fatal("TieredCachePolicy: NVM cost factor outside (0,1]");
    if (config.nvmFetchLatency < 0)
        sim::fatal("TieredCachePolicy: negative fetch latency");
}

std::string
TieredCachePolicy::name() const
{
    return base().name() + " + NVM tier";
}

sim::Tick
TieredCachePolicy::partialStartLatencyBias() const
{
    // Restoring a parked Lang/Bare layer crosses the NVM tier.
    return _config.nvmFetchLatency + base().partialStartLatencyBias();
}

double
pricedWasteMbSeconds(const stats::IntervalLog& waste,
                     const TieredConfig& config)
{
    double total = 0.0;
    for (const auto& interval : waste.intervals()) {
        const bool nvm = interval.layer == workload::Layer::Lang ||
                         interval.layer == workload::Layer::Bare;
        total += interval.wasteMbSeconds() *
                 (nvm ? config.nvmCostFactor : 1.0);
    }
    return total;
}

} // namespace rc::core
