#include "core/cost_model.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace rc::core {

CostModel::CostModel(CostConfig config) : _config(config)
{
    if (config.alpha <= 0.0 || config.alpha >= 1.0)
        sim::fatal("CostModel: alpha must lie strictly inside (0,1)");
}

sim::Tick
CostModel::beta(const workload::FunctionProfile& profile,
                workload::Layer layer) const
{
    if (layer == workload::Layer::None)
        return 0;
    return betaFromRaw(sim::toSeconds(profile.stageLatency(layer)),
                       profile.memoryAtLayer(layer));
}

sim::Tick
CostModel::betaFromRaw(double tSeconds, double mMb) const
{
    const double mUnits = mMb / _config.betaMemoryUnitMb;
    if (mUnits <= 0.0)
        return 0;
    const double betaSeconds =
        _config.alpha * tSeconds / ((1.0 - _config.alpha) * mUnits);
    return sim::fromSeconds(betaSeconds);
}

sim::Tick
CostModel::ttl(const workload::FunctionProfile& profile,
               workload::Layer layer, sim::Tick iat) const
{
    const sim::Tick bound = beta(profile, layer);
    if (iat < 0)
        return bound;
    return std::min(iat, bound);
}

double
CostModel::unifiedCost(double startupSeconds, double wasteMbSeconds) const
{
    return _config.alpha * startupSeconds +
           (1.0 - _config.alpha) * wasteMbSeconds;
}

} // namespace rc::core
